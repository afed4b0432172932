// WallClockDriver: runs a Simulator's timer wheel against real time.
//
// The socket backend's event loop alternates between polling file
// descriptors and advancing the Simulator to "wall now". Two properties are
// load-bearing (and tested in test_taps.cc):
//
//   * Never early. AdvanceToWallNow() calls Simulator::RunUntil(wall), which
//     by construction executes only events with timestamp <= wall — a timer
//     scheduled for t strictly greater than the current wall reading cannot
//     fire. The driver additionally verifies this invariant on every advance
//     (assert + a counter CI can gate on).
//   * No busy-spin. NextDeadlineDelay() tells the poll loop how long it may
//     sleep, to the nanosecond; when the wheel is idle it returns nullopt
//     (sleep until a packet arrives). The wake itself is only as precise as
//     the event loop's backend (EventLoop::Wait: nanoseconds plus timer
//     slack with epoll_pwait2, whole milliseconds rounded up otherwise).
//     Late ticks — deadlines that had already passed when the loop got
//     around to advancing — are executed in one RunUntil batch and counted
//     as coalesced rather than replayed tick-by-tick; how late each one was
//     goes into the `netsim.timer_lateness_us` histogram of the Simulator's
//     metric registry.
#pragma once

#include <cstdint>
#include <optional>

#include "core/clock.h"
#include "netsim/event_queue.h"
#include "netsim/time.h"
#include "obs/metrics.h"

namespace vtp::net {

/// Registry name of the lateness histogram: `wall - deadline` in µs of
/// every late advance's earliest overdue deadline.
inline constexpr char kTimerLatenessMetric[] = "netsim.timer_lateness_us";

/// Counters for the wall-clock invariants (exported into obs snapshots by
/// the tools; asserted on by the drift tests).
struct WallClockStats {
  std::uint64_t advances = 0;         ///< AdvanceToWallNow() calls
  std::uint64_t timers_fired = 0;     ///< events executed across all advances
  std::uint64_t late_ticks = 0;       ///< advances whose earliest deadline had already passed
  std::uint64_t coalesced_ticks = 0;  ///< overdue events absorbed into a batched advance
  SimTime max_lateness = 0;           ///< worst (wall - deadline) observed at advance time
  std::uint64_t early_fires = 0;      ///< invariant violations: must stay 0
};

/// Drives `sim` so its virtual clock tracks `clock`. Single-threaded, like
/// the Simulator itself.
class WallClockDriver {
 public:
  /// Registers kTimerLatenessMetric in `sim`'s metric registry.
  WallClockDriver(Simulator* sim, core::ClockSource* clock);

  /// Current wall reading in SimTime units (ns).
  SimTime WallNow() { return static_cast<SimTime>(clock_->NowNanos()); }

  /// Runs every event whose deadline is at or before the current wall
  /// reading, then pins sim.now() to it. Returns the number of events fired.
  std::uint64_t AdvanceToWallNow();

  /// How long the caller may sleep before the next timer is due: zero if one
  /// is already overdue, nullopt if the wheel is idle (sleep indefinitely —
  /// i.e. until I/O produces new work).
  std::optional<SimTime> NextDeadlineDelay();

  const WallClockStats& stats() const { return stats_; }
  const obs::Histogram& lateness_us() const { return *lateness_us_; }
  Simulator& sim() { return *sim_; }

 private:
  Simulator* sim_;
  core::ClockSource* clock_;
  WallClockStats stats_;
  obs::Histogram* lateness_us_;
};

}  // namespace vtp::net
