#include "netsim/event_queue.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vtp::net {

namespace detail {

void EventPool::Grow(SchedulerStats* stats) {
  slabs_.push_back(std::make_unique<SimEvent[]>(kSlabEvents));
  SimEvent* slab = slabs_.back().get();
  for (std::size_t i = 0; i < kSlabEvents; ++i) {
    slab[i].next = free_;
    free_ = &slab[i];
  }
  ++stats->pool_slabs;
  stats->pool_capacity += kSlabEvents;
}

}  // namespace detail

Simulator::Simulator(std::uint64_t seed)
    : rng_(seed),
      metrics_(std::make_unique<obs::MetricRegistry>()),
      tracer_(std::make_unique<obs::FrameTracer>()) {
  for (int level = 0; level < kLevels; ++level) {
    buckets_[level].assign(kWheelSize, nullptr);
    bitmap_[level].assign(kWheelSize / 64, 0);
  }
}

Simulator::~Simulator() { ReleaseAll(); }

void Simulator::Insert(detail::SimEvent* e) {
  const std::uint64_t tick = static_cast<std::uint64_t>(e->time) >> kTickShift;
  if (tick <= cursor_tick_) {
    due_.push(e);
    return;
  }
  // Level L holds only events that fall inside the cursor's current
  // level-(L+1) bucket, so each level's occupied indices never wrap past the
  // cursor — the scan in PrimeDue can stop at the end of the array.
  for (int level = 0; level < kLevels; ++level) {
    const int parent_shift = kWheelBits * (level + 1);
    if ((tick >> parent_shift) == (cursor_tick_ >> parent_shift)) {
      const std::size_t idx = (tick >> (kWheelBits * level)) & (kWheelSize - 1);
      e->next = buckets_[level][idx];
      buckets_[level][idx] = e;
      bitmap_[level][idx >> 6] |= std::uint64_t{1} << (idx & 63);
      return;
    }
  }
  ++stats_.overflow_inserts;
  overflow_.push(e);
}

std::size_t Simulator::NextSetBucket(int level, std::size_t from) const {
  if (from >= kWheelSize) return kWheelSize;
  const std::vector<std::uint64_t>& bm = bitmap_[level];
  std::size_t word = from >> 6;
  std::uint64_t bits = bm[word] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    if (++word == bm.size()) return kWheelSize;
    bits = bm[word];
  }
}

void Simulator::CascadeBucket(int level, std::size_t index) {
  detail::SimEvent* e = buckets_[level][index];
  buckets_[level][index] = nullptr;
  bitmap_[level][index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  while (e != nullptr) {
    detail::SimEvent* next = e->next;
    e->next = nullptr;
    if (level == 0) {
      due_.push(e);  // one level-0 bucket == one tick: everything is due
    } else {
      Insert(e);  // re-files into a lower level (or due_)
    }
    e = next;
  }
}

bool Simulator::PrimeDue() {
  if (!due_.empty()) return true;
  if (pending_ == 0) return false;
  while (due_.empty()) {
    // 1) Next occupied level-0 bucket inside the current level-1 bucket.
    const std::size_t idx0 = cursor_tick_ & (kWheelSize - 1);
    std::size_t j = NextSetBucket(0, idx0 + 1);
    if (j < kWheelSize) {
      cursor_tick_ += j - idx0;
      CascadeBucket(0, j);
      continue;
    }
    // 2) Next occupied level-1 bucket inside the current level-2 bucket.
    const std::size_t idx1 = (cursor_tick_ >> kWheelBits) & (kWheelSize - 1);
    j = NextSetBucket(1, idx1 + 1);
    if (j < kWheelSize) {
      cursor_tick_ = ((cursor_tick_ >> kWheelBits) + (j - idx1)) << kWheelBits;
      CascadeBucket(1, j);
      continue;
    }
    // 3) Next occupied level-2 bucket.
    const std::size_t idx2 = (cursor_tick_ >> (2 * kWheelBits)) & (kWheelSize - 1);
    j = NextSetBucket(2, idx2 + 1);
    if (j < kWheelSize) {
      cursor_tick_ = ((cursor_tick_ >> (2 * kWheelBits)) + (j - idx2)) << (2 * kWheelBits);
      CascadeBucket(2, j);
      continue;
    }
    // 4) The wheel is empty: jump to the earliest overflow event and refill
    // everything that now fits inside the top-level horizon.
    if (overflow_.empty()) {
      assert(false && "pending_ > 0 but no event found");
      return false;
    }
    const std::uint64_t jump_tick =
        static_cast<std::uint64_t>(overflow_.top()->time) >> kTickShift;
    cursor_tick_ = jump_tick;
    const int top_shift = kLevels * kWheelBits;
    while (!overflow_.empty() &&
           (static_cast<std::uint64_t>(overflow_.top()->time) >> kTickShift >> top_shift) ==
               (cursor_tick_ >> top_shift)) {
      detail::SimEvent* e = overflow_.top();
      overflow_.pop();
      Insert(e);
    }
  }
  return true;
}

void Simulator::ExecuteDue() {
  detail::SimEvent* e = due_.top();
  due_.pop();
  --pending_;
  now_ = e->time;
  ++executed_;
  e->fn.Invoke();
  pool_.Release(e);
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && PrimeDue()) ExecuteDue();
}

void Simulator::RunUntil(SimTime t) {
  stopped_ = false;
  while (!stopped_ && PrimeDue() && due_.top()->time <= t) ExecuteDue();
  if (!stopped_ && now_ < t) now_ = t;
}

std::optional<SimTime> Simulator::NextEventTime() {
  // PrimeDue only advances the cursor and moves events into due_; it never
  // executes callbacks or touches now_, so peeking here is side-effect-free
  // with respect to the (time, seq) execution order.
  if (!PrimeDue()) return std::nullopt;
  return due_.top()->time;
}

void Simulator::ReleaseAll() {
  const auto drain_heap = [this](detail::EventHeap& heap) {
    while (!heap.empty()) {
      pool_.Release(heap.top());
      heap.pop();
    }
  };
  drain_heap(due_);
  drain_heap(overflow_);
  for (int level = 0; level < kLevels; ++level) {
    for (detail::SimEvent*& head : buckets_[level]) {
      while (head != nullptr) {
        detail::SimEvent* next = head->next;
        pool_.Release(head);
        head = next;
      }
    }
  }
  pending_ = 0;
}

}  // namespace vtp::net
