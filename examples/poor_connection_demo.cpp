// Example: the "poor connection" cliff (§4.3) — and the adaptive fix.
//
// A two-user FaceTime spatial call runs while U1's uplink degrades in
// steps (1.5 Mbps -> 0.9 -> 0.7 -> 0.5 -> 0.25 -> back to unlimited).
// Every second we print U2's view of U1 (available? decoded rate?) and,
// with the adaptive control loop on, the ladder level U1's uplink
// controller picked (SessionConfig::adapt; DESIGN §9).
//
// The call runs twice in one process: first with FaceTime's measured
// behaviour (the persona dies below ~0.7 Mbps), then with adaptive
// delivery (the live ladder keeps the persona through every step and
// recovers to full quality).
//
//   ./build/examples/poor_connection_demo
//
// Exits nonzero if the adaptive run fails to recover to 100% availability
// in the final window, so it doubles as a test (ctest runs it).
#include <functional>
#include <iomanip>
#include <iostream>

#include "vca/session.h"

using namespace vtp;

namespace {

/// Runs the degrading call and returns whether U1's persona was available
/// in every sample of the recovery window.
bool RunCall(bool adaptive) {
  vca::SessionConfig config = vca::TwoPartySpatialConfig(net::Seconds(54));
  config.adapt = adaptive;
  vca::TelepresenceSession session(std::move(config));

  // Staircase of uplink caps, like dragging a tc tbf rate down and back up.
  net::Netem netem = session.UplinkNetem(0);
  struct Step {
    double at_s;
    double cap_bps;  // 0 = unlimited
    const char* label;
  };
  const std::vector<Step> steps = {
      {8, 1.5e6, "cap 1.5 Mbps"},  {14, 0.9e6, "cap 0.9 Mbps"},
      {20, 0.7e6, "cap 0.7 Mbps"}, {26, 0.5e6, "cap 0.5 Mbps"},
      {32, 0.25e6, "cap 0.25 Mbps"}, {38, 0, "cap removed"},
  };
  for (const Step& step : steps) {
    session.sim().At(net::Seconds(step.at_s), [&netem, step] {
      if (step.cap_bps > 0) {
        netem.SetRateBps(step.cap_bps);
      } else {
        netem.SetRateBps(std::nullopt);
      }
      std::cout << "  [t=" << step.at_s << "s] tc: " << step.label << "\n";
    });
  }

  // A 1 Hz probe of U2's view of U1 (sender id 0), plus U1's own ladder
  // level when the control loop is live. The cap lifts at 38 s; by 48 s even
  // a hold-down doubled by earlier failed probes (2 s -> 8 s) has expired,
  // so the last 6 s are the recovery window the demo asserts on.
  std::uint64_t last_decoded = 0;
  std::uint64_t recovery_samples = 0;
  std::uint64_t recovery_available = 0;
  std::function<void()> probe = [&] {
    const auto* receiver = session.spatial_receiver(1);
    const auto& stats = receiver->remote(0);
    const net::SimTime now = session.sim().now();
    const bool available = receiver->PersonaAvailable(0, now);
    const std::uint64_t fps = stats.frames_decoded - last_decoded;
    last_decoded = stats.frames_decoded;
    if (now >= net::Seconds(48)) {
      ++recovery_samples;
      if (available) ++recovery_available;
    }
    std::cout << "t=" << std::setw(4) << net::ToSeconds(now) << "s  U1 persona: "
              << (available ? "VISIBLE       " : "poor connection") << "  decoded "
              << std::setw(3) << fps << " fps";
    if (const auto* ctl = session.adapt_controller(0)) {
      std::cout << "  [level " << ctl->level() << ": " << ctl->level_spec().name << "]";
    }
    std::cout << "\n";
    if (now < net::Seconds(53)) session.sim().After(net::kSecond, probe);
  };
  session.sim().At(net::Seconds(2), probe);

  std::cout << "Two-user FaceTime spatial call; degrading U1's uplink"
            << (adaptive ? " (adaptive delivery ON)...\n\n" : "...\n\n");
  session.Run();

  if (const auto* ctl = session.adapt_controller(0)) {
    std::cout << "\nController: " << ctl->downswitches() << " downswitches, "
              << ctl->upswitches() << " upswitches, " << ctl->probe_failures()
              << " failed probes; final level " << ctl->level() << " ("
              << ctl->level_spec().name << ")\n";
  }
  std::cout << "Persona available in " << recovery_available << "/" << recovery_samples
            << " samples after the cap was removed.\n";
  return recovery_samples > 0 && recovery_available == recovery_samples;
}

}  // namespace

int main() {
  RunCall(/*adaptive=*/false);
  std::cout << "\nThe persona survives caps above its ~0.7 Mbps semantic rate and drops\n"
               "out below it — there is no lower-quality ladder to fall back to (§4.3).\n"
               "Now the same call with the adaptive control loop riding the ladder.\n\n";

  if (!RunCall(/*adaptive=*/true)) {
    std::cout << "FAIL: persona did not recover to 100% availability after the cap was\n"
                 "removed.\n";
    return 1;
  }
  std::cout << "Recovered.\n";
  return 0;
}
