// Discrete-event simulation core: a clock plus a time-ordered event queue.
//
// Events scheduled for the same instant run in scheduling order (FIFO), which
// keeps runs deterministic. The Simulator also owns the experiment Rng so a
// single seed reproduces a whole run.
//
// The scheduler is a three-level hierarchical timer wheel (1.024 us level-0
// ticks, 2048 buckets per level, ~2.4 h total horizon with a min-heap
// overflow past it) over slab-pooled events whose callbacks are stored
// inline when the capture fits kInlineBytes. Scheduling is O(1) and
// allocation-free on the hot path. test_simcore replays random event trees
// against a sorted-vector reference model to hold the (time, seq) order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "netsim/random.h"
#include "netsim/time.h"

namespace vtp::obs {
class MetricRegistry;
class FrameTracer;
}  // namespace vtp::obs

namespace vtp::net {

/// Counters the scheduler keeps so benches can report allocations/event.
struct SchedulerStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t callback_heap_allocs = 0;  ///< captures that outgrew the inline buffer
  std::uint64_t pool_slabs = 0;            ///< slab allocations made by the event pool
  std::uint64_t pool_capacity = 0;         ///< events the pool can hold without growing
  std::uint64_t overflow_inserts = 0;      ///< events scheduled past the wheel horizon
  std::uint64_t max_pending = 0;           ///< high-water mark of queued events
};

namespace detail {

/// A move-into, invoke-once callable with small-buffer optimization. Captures
/// up to kInlineBytes live inside the owning event (no allocation); larger
/// callables fall back to a counted heap allocation.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;
  ~InlineCallback() { Reset(); }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  template <class F>
  void Emplace(F&& fn, SchedulerStats* stats) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* t) { (*static_cast<Fn*>(t))(); };
      destroy_ = [](void* t) { static_cast<Fn*>(t)->~Fn(); };
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* t) { (**static_cast<Fn**>(t))(); };
      destroy_ = [](void* t) { delete *static_cast<Fn**>(t); };
      ++stats->callback_heap_allocs;
    }
  }

  void Invoke() { invoke_(buf_); }

  void Reset() {
    if (destroy_ != nullptr) {
      destroy_(buf_);
      destroy_ = nullptr;
      invoke_ = nullptr;
    }
  }

 private:
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// A pooled event. `next` chains wheel buckets and the pool free list; events
/// never move once acquired, so the callback can live inline.
struct SimEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  SimEvent* next = nullptr;
  InlineCallback fn;
};

/// Slab allocator for SimEvents with an intrusive free list. Slabs are only
/// ever freed when the pool is destroyed, so event pointers stay stable.
class EventPool {
 public:
  static constexpr std::size_t kSlabEvents = 512;

  SimEvent* Acquire(SchedulerStats* stats) {
    if (free_ == nullptr) Grow(stats);
    SimEvent* e = free_;
    free_ = e->next;
    e->next = nullptr;
    return e;
  }

  void Release(SimEvent* e) {
    e->fn.Reset();
    e->next = free_;
    free_ = e;
  }

 private:
  void Grow(SchedulerStats* stats);

  std::vector<std::unique_ptr<SimEvent[]>> slabs_;
  SimEvent* free_ = nullptr;
};

/// Min-heap order over pooled events: earliest time first, FIFO within an
/// instant (smaller seq first).
struct LaterEventPtr {
  bool operator()(const SimEvent* a, const SimEvent* b) const {
    return a->time != b->time ? a->time > b->time : a->seq > b->seq;
  }
};
using EventHeap = std::priority_queue<SimEvent*, std::vector<SimEvent*>, LaterEventPtr>;

}  // namespace detail

/// The discrete-event engine. Single-threaded; all model code runs inside
/// event callbacks.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (clamped to `now()`).
  template <class F>
  void At(SimTime t, F&& fn) {
    if (t < now_) t = now_;  // "in the past" means "immediately"
    ++stats_.events_scheduled;
    ++pending_;
    if (pending_ > stats_.max_pending) stats_.max_pending = pending_;
    detail::SimEvent* e = pool_.Acquire(&stats_);
    e->time = t;
    e->seq = next_seq_++;
    e->fn.Emplace(std::forward<F>(fn), &stats_);
    Insert(e);
  }

  /// Schedules `fn` to run `delay` after now.
  template <class F>
  void After(SimTime delay, F&& fn) {
    At(now_ + delay, std::forward<F>(fn));
  }

  /// Runs until the queue is empty or Stop() is called.
  void Run();

  /// Runs all events with timestamp <= `t`, then sets the clock to `t`.
  void RunUntil(SimTime t);

  /// Requests Run()/RunUntil() to return after the current event.
  void Stop() { stopped_ = true; }

  /// Timestamp of the earliest pending event, or nullopt when idle. Does not
  /// execute anything or advance now(); wall-clock drivers use it to sleep
  /// exactly until the next deadline instead of busy-polling (DESIGN §14).
  std::optional<SimTime> NextEventTime();

  /// Number of events executed so far (useful in tests).
  std::uint64_t events_executed() const { return executed_; }

  /// The experiment-wide random source.
  Rng& rng() { return rng_; }

  const SchedulerStats& scheduler_stats() const { return stats_; }

  /// This run's observability registry. One registry per Simulator keeps
  /// parallel bench repeats independent, so snapshots are bit-identical for
  /// a fixed seed regardless of VTP_BENCH_THREADS.
  obs::MetricRegistry& metrics() { return *metrics_; }
  const obs::MetricRegistry& metrics() const { return *metrics_; }

  /// Frame-lifecycle tracer (off until FrameTracer::Enable, typically armed
  /// by the session from SessionConfig::trace_frames).
  obs::FrameTracer& tracer() { return *tracer_; }
  const obs::FrameTracer& tracer() const { return *tracer_; }

 private:
  // Wheel geometry: level-0 ticks are 2^kTickShift ns (1.024 us); each level
  // has 2^kWheelBits buckets. Level L spans 2^(kTickShift + (L+1)*kWheelBits)
  // ns: ~2.1 ms, ~4.3 s, ~2.4 h. Events past level 2 wait in overflow_.
  static constexpr int kTickShift = 10;
  static constexpr int kWheelBits = 11;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr int kLevels = 3;

  void Insert(detail::SimEvent* e);
  bool PrimeDue();  // moves the next runnable event(s) into due_; false if idle
  void ExecuteDue();  // pops and runs the earliest event in due_
  void CascadeBucket(int level, std::size_t index);
  std::size_t NextSetBucket(int level, std::size_t from) const;
  void ReleaseAll();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t pending_ = 0;
  bool stopped_ = false;
  Rng rng_;
  SchedulerStats stats_;
  std::unique_ptr<obs::MetricRegistry> metrics_;
  std::unique_ptr<obs::FrameTracer> tracer_;

  detail::EventPool pool_;
  std::uint64_t cursor_tick_ = 0;  ///< absolute level-0 tick of the wheel cursor
  std::vector<detail::SimEvent*> buckets_[kLevels];
  std::vector<std::uint64_t> bitmap_[kLevels];
  detail::EventHeap due_;       ///< events at/behind the cursor, by (time, seq)
  detail::EventHeap overflow_;  ///< events past the top-level horizon
};

}  // namespace vtp::net
