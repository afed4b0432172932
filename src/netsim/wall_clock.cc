#include "netsim/wall_clock.h"

#include <cassert>
#include <vector>

namespace vtp::net {

namespace {

/// 1-2-5 steps from 1 µs to 1 s: ms-rounded wakes (several hundred µs late)
/// and nanosecond wakes (tens of µs) land buckets apart.
std::vector<double> LatenessBoundsUs() {
  std::vector<double> bounds;
  for (double decade = 1; decade <= 1e6; decade *= 10) {
    for (double step : {1.0, 2.0, 5.0}) {
      if (step * decade <= 1e6) bounds.push_back(step * decade);
    }
  }
  return bounds;
}

}  // namespace

WallClockDriver::WallClockDriver(Simulator* sim, core::ClockSource* clock)
    : sim_(sim),
      clock_(clock),
      lateness_us_(sim->metrics().NewHistogram(kTimerLatenessMetric, LatenessBoundsUs())) {}

std::uint64_t WallClockDriver::AdvanceToWallNow() {
  const SimTime wall = WallNow();
  ++stats_.advances;

  // Classify lateness before running: if the earliest deadline is already in
  // the past, this advance is a late tick and everything overdue will be
  // absorbed into the single RunUntil below (coalesced, not replayed).
  bool late = false;
  if (std::optional<SimTime> next = sim_->NextEventTime(); next && *next < wall) {
    late = true;
    ++stats_.late_ticks;
    const SimTime lateness = wall - *next;
    if (lateness > stats_.max_lateness) stats_.max_lateness = lateness;
    lateness_us_->Observe(ToMicros(lateness));
  }

  const std::uint64_t before = sim_->events_executed();
  sim_->RunUntil(wall);
  const std::uint64_t fired = sim_->events_executed() - before;
  stats_.timers_fired += fired;
  if (late && fired > 1) stats_.coalesced_ticks += fired - 1;

  // Never-early invariant: after the advance, sim time sits at the wall and
  // no pending deadline at or before it remains unfired.
  if (sim_->now() > wall) ++stats_.early_fires;
  if (std::optional<SimTime> next = sim_->NextEventTime(); next && *next <= wall) {
    ++stats_.early_fires;  // RunUntil left an overdue event behind: impossible
  }
  assert(stats_.early_fires == 0 && "wall-clock driver fired a timer early");
  return fired;
}

std::optional<SimTime> WallClockDriver::NextDeadlineDelay() {
  std::optional<SimTime> next = sim_->NextEventTime();
  if (!next) return std::nullopt;
  const SimTime wall = WallNow();
  return *next > wall ? *next - wall : SimTime{0};
}

}  // namespace vtp::net
