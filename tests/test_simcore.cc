// Tests for the simulation core: the timer-wheel scheduler (against a
// sorted-vector reference model), the pooled packet buffers, and the
// parallel bench runner. The differential test is the determinism contract:
// the wheel must replay any event trace in exactly the (time, seq) order the
// reference model defines.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <random>
#include <stdexcept>
#include <vector>

#include <thread>

#include "bench/bench_util.h"
#include "core/env.h"
#include "core/spsc.h"
#include "core/rtt_matrix.h"
#include "core/thread_pool.h"
#include "netsim/event_queue.h"
#include "netsim/packet_buffer.h"

namespace vtp {
namespace {

using net::Simulator;

// --- wheel scheduler semantics ---------------------------------------------

TEST(TimerWheel, SameInstantIsFifo) {
  Simulator sim(1);
  std::vector<int> order;
  sim.At(net::Micros(100), [&order] { order.push_back(1); });
  sim.At(net::Micros(100), [&order] { order.push_back(2); });
  sim.At(net::Micros(50), [&order] { order.push_back(0); });
  sim.At(net::Micros(100), [&order] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimerWheel, SameTickDifferentTimesStayOrdered) {
  // Distinct nanosecond times inside one 1.024 us wheel tick must still run
  // in time order, not insertion order.
  Simulator sim(1);
  std::vector<int> order;
  sim.At(900, [&order] { order.push_back(2); });
  sim.At(100, [&order] { order.push_back(0); });
  sim.At(500, [&order] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TimerWheel, EventsCanScheduleMoreEvents) {
  Simulator sim(1);
  std::vector<net::SimTime> fired;
  sim.At(net::Millis(1), [&] {
    fired.push_back(sim.now());
    sim.After(net::Millis(2), [&] { fired.push_back(sim.now()); });
    sim.After(0, [&] { fired.push_back(sim.now()); });  // same instant, runs next
  });
  sim.Run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], net::Millis(1));
  EXPECT_EQ(fired[1], net::Millis(1));
  EXPECT_EQ(fired[2], net::Millis(3));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(TimerWheel, RunUntilAdvancesClockAndStops) {
  Simulator sim(1);
  std::vector<int> order;
  sim.At(net::Millis(10), [&order] { order.push_back(10); });
  sim.At(net::Millis(20), [&order] { order.push_back(20); });
  sim.At(net::Millis(30), [&order] { order.push_back(30); });
  sim.RunUntil(net::Millis(25));
  EXPECT_EQ(order, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), net::Millis(25));
  sim.RunUntil(net::Millis(40));
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(sim.now(), net::Millis(40));
}

TEST(TimerWheel, PastEventsClampToNow) {
  Simulator sim(1);
  net::SimTime ran_at = -1;
  sim.At(net::Millis(5), [&] {
    sim.At(net::Millis(1), [&] { ran_at = sim.now(); });  // in the past
  });
  sim.Run();
  EXPECT_EQ(ran_at, net::Millis(5));
}

TEST(TimerWheel, StopMidRunAndResume) {
  Simulator sim(1);
  std::vector<int> order;
  sim.At(net::Millis(1), [&] {
    order.push_back(1);
    sim.Stop();
  });
  sim.At(net::Millis(2), [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), net::Millis(1));
  sim.Run();  // resumes; Run() clears the stop flag
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, FarTimersCrossWheelLevelsAndOverflow) {
  Simulator sim(1);
  std::vector<int> order;
  // Spread across level 0 (us), level 1 (ms), level 2 (minutes), and past the
  // ~2.4 h wheel horizon into the overflow heap.
  sim.At(net::Seconds(3 * 3600), [&order] { order.push_back(4); });  // overflow
  sim.At(net::Seconds(120), [&order] { order.push_back(3); });
  sim.At(net::Millis(40), [&order] { order.push_back(2); });
  sim.At(net::Micros(5), [&order] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), net::Seconds(3 * 3600));
  EXPECT_GE(sim.scheduler_stats().overflow_inserts, 1u);
}

TEST(TimerWheel, OversizedCapturesFallBackToHeap) {
  Simulator sim(1);
  std::array<char, 100> big{};
  big[0] = 1;
  int out = 0;
  sim.At(1, [big, &out] { out = big[0]; });
  sim.Run();
  EXPECT_EQ(out, 1);
  EXPECT_EQ(sim.scheduler_stats().callback_heap_allocs, 1u);
}

// --- differential: wheel vs a sorted-vector reference ---------------------

/// The (time, seq) execution-order contract written as plainly as possible:
/// one vector kept sorted by time, new events inserted after every event
/// already due at the same instant (FIFO), executed front to back.
class ReferenceScheduler {
 public:
  net::SimTime now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }

  void After(net::SimTime delay, std::function<void()> fn) {
    const net::SimTime t = now_ + delay;
    const auto at = std::upper_bound(queue_.begin(), queue_.end(), t,
                                     [](net::SimTime v, const Event& e) { return v < e.time; });
    queue_.insert(at, Event{t, std::move(fn)});
  }

  void Run() {
    while (!queue_.empty()) {
      Event e = std::move(queue_.front());
      queue_.erase(queue_.begin());
      now_ = e.time;
      ++executed_;
      e.fn();
    }
  }

 private:
  struct Event {
    net::SimTime time;
    std::function<void()> fn;
  };
  std::vector<Event> queue_;
  net::SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

/// A self-expanding random event tree. Every node logs its id; both engines
/// must replay the identical log because the rng draws happen in execution
/// order, which the determinism contract fixes.
template <class Sim>
struct TraceNode {
  Sim* sim;
  std::vector<std::uint64_t>* log;
  std::mt19937_64* rng;
  std::uint64_t* next_id;
  int depth;
  std::uint64_t id;

  void operator()() const {
    log->push_back(id);
    if (depth >= 4) return;
    const int kids = static_cast<int>((*rng)() % 3);
    for (int k = 0; k < kids; ++k) {
      // Mostly short delays on a 100 us grid, so many events share an
      // instant and FIFO order matters; occasionally far ones that land in
      // outer wheel levels or the overflow heap.
      net::SimTime delay = static_cast<net::SimTime>((*rng)() % 50) * net::Micros(100);
      if ((*rng)() % 16 == 0) delay = static_cast<net::SimTime>((*rng)() % net::Seconds(9000));
      sim->After(delay, TraceNode{sim, log, rng, next_id, depth + 1, (*next_id)++});
    }
  }
};

struct TraceResult {
  std::vector<std::uint64_t> log;
  std::uint64_t executed;
  net::SimTime end_time;
};

template <class Sim>
TraceResult RunTrace(Sim& sim) {
  TraceResult result;
  std::mt19937_64 rng(99);
  std::uint64_t next_id = 0;
  for (int i = 0; i < 200; ++i) {
    const auto delay = static_cast<net::SimTime>(rng() % 20) * net::Micros(100);
    sim.After(delay, TraceNode<Sim>{&sim, &result.log, &rng, &next_id, 0, next_id});
    ++next_id;
  }
  sim.Run();
  result.executed = sim.events_executed();
  result.end_time = sim.now();
  return result;
}

TEST(SchedulerDifferential, RandomTraceExecutesIdentically) {
  Simulator wheel_sim(123);
  ReferenceScheduler reference_sim;
  const TraceResult wheel = RunTrace(wheel_sim);
  const TraceResult reference = RunTrace(reference_sim);
  EXPECT_EQ(wheel.executed, reference.executed);
  EXPECT_EQ(wheel.end_time, reference.end_time);
  ASSERT_EQ(wheel.log.size(), reference.log.size());
  EXPECT_EQ(wheel.log, reference.log);
  EXPECT_GT(wheel.log.size(), 200u);  // the tree actually expanded
  EXPECT_GE(wheel_sim.scheduler_stats().overflow_inserts, 1u);  // far timers were exercised
}

TEST(SchedulerGolden, RttMatrixPinned) {
  core::RttProbeSpec spec;
  spec.clients = {{"W", "SanFrancisco"}, {"E", "NewYork"}};
  spec.servers = {{"S1", "SanJose"}, {"S2", "Ashburn"}};
  spec.pings_per_pair = 5;
  // Recorded while the heap engine still ran as a bit-identical twin of the
  // wheel; [client][server] = {mean, stddev} in ms.
  const double golden[2][2][2] = {
      {{8.1636208000000003, 0.16769453779464608}, {69.129925199999988, 1.4034024160648164}},
      {{72.677843200000012, 0.28040336475256289}, {12.671037600000002, 0.27957228747613733}},
  };
  const core::RttMatrix m = core::MeasureRttMatrix(spec);
  for (std::size_t c = 0; c < spec.clients.size(); ++c) {
    for (std::size_t s = 0; s < spec.servers.size(); ++s) {
      EXPECT_DOUBLE_EQ(m.rtt_ms[c][s].mean, golden[c][s][0]) << c << "," << s;
      EXPECT_DOUBLE_EQ(m.rtt_ms[c][s].stddev, golden[c][s][1]) << c << "," << s;
    }
  }
}

// --- packet buffers ---------------------------------------------------------

TEST(PacketBuffer, CopyOfAndRefCounting) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  net::PacketBuffer a = net::PacketBuffer::CopyOf(bytes);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), bytes.begin()));
  EXPECT_EQ(a.ref_count(), 1u);
  {
    net::PacketBuffer b = a;  // share, no copy
    EXPECT_EQ(a.ref_count(), 2u);
    EXPECT_EQ(b.data(), a.data());
  }
  EXPECT_EQ(a.ref_count(), 1u);
}

TEST(PacketBuffer, AssignDetachesFromSharedBlock) {
  net::PacketBuffer a = net::PacketBuffer::CopyOf(std::vector<std::uint8_t>{9, 9, 9});
  net::PacketBuffer b = a;
  b.assign(10, 7);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0], 9u);
  EXPECT_EQ(b.size(), 10u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 7u);
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_EQ(b.ref_count(), 1u);
}

TEST(PacketBuffer, PoolRecyclesReleasedBlocks) {
  net::PacketPool::ThreadLocal().ResetStats();
  { net::PacketBuffer first(972); }  // released back to the 1536-byte class
  net::PacketBuffer second(972);     // must come from the free list
  const net::PacketPoolStats& stats = net::PacketPool::ThreadLocal().stats();
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_GE(stats.pool_hits, 1u);
}

TEST(PacketBuffer, SpanConversionSeesPayload) {
  net::PacketBuffer buf = net::PacketBuffer::CopyOf(std::vector<std::uint8_t>{10, 20, 30});
  const std::span<const std::uint8_t> view = buf;
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[1], 20u);
}

// --- thread pool & parallel repeats ----------------------------------------

TEST(ThreadPool, RunsAllJobs) {
  core::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitRethrowsJobException) {
  core::ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

std::vector<std::uint64_t> SimRunCounts() {
  // Each index runs an independent Simulator; the result must not depend on
  // which worker ran it or in what order.
  return bench::ParallelRepeats(8, [](int i) {
    Simulator sim(static_cast<std::uint64_t>(1 + i));
    std::uint64_t ticks = 0;
    for (int k = 0; k <= i; ++k) {
      sim.After(net::Micros(10 * (k + 1)), [&ticks] { ++ticks; });
    }
    sim.Run();
    return ticks + sim.events_executed();
  });
}

TEST(ParallelRepeats, ResultsAreIndexOrderedAndThreadCountIndependent) {
  setenv("VTP_BENCH_THREADS", "1", 1);
  const std::vector<std::uint64_t> serial = SimRunCounts();
  setenv("VTP_BENCH_THREADS", "4", 1);
  const std::vector<std::uint64_t> parallel = SimRunCounts();
  unsetenv("VTP_BENCH_THREADS");
  ASSERT_EQ(serial.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], 2 * (i + 1)) << i;  // ticks + events_executed
  }
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, WorkerIndexIsBoundedInsideJobsAndMinusOneOutside) {
  EXPECT_EQ(core::ThreadPool::CurrentWorkerIndex(), -1);
  core::ThreadPool pool(3);
  std::atomic<int> bad{0};
  std::array<std::atomic<int>, 3> seen{};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      const int idx = core::ThreadPool::CurrentWorkerIndex();
      if (idx < 0 || idx >= 3) {
        ++bad;
      } else {
        ++seen[static_cast<std::size_t>(idx)];
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(bad.load(), 0);
  int total = 0;
  for (const auto& s : seen) total += s.load();
  EXPECT_EQ(total, 64);
  // Worker-locality: the index is a pool-worker property, not leaked to the
  // caller after Wait().
  EXPECT_EQ(core::ThreadPool::CurrentWorkerIndex(), -1);
}

TEST(ParallelRepeats, SingleThreadKnobForcesStrictlySerialExecution) {
  setenv("VTP_BENCH_THREADS", "1", 1);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  std::atomic<int> off_pool{0};
  bench::ParallelRepeats(16, [&](int i) {
    const int now = ++live;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    // The serial path runs inline on the caller, not on pool workers.
    if (core::ThreadPool::CurrentWorkerIndex() == -1) ++off_pool;
    --live;
    return i;
  });
  unsetenv("VTP_BENCH_THREADS");
  EXPECT_EQ(peak.load(), 1);     // never two repeats in flight
  EXPECT_EQ(off_pool.load(), 16);
}

// --- SPSC ring ---------------------------------------------------------------

TEST(SpscRing, PushPopWrapsAndReportsFull) {
  core::SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out));
  // Fill, drain, and wrap several times so the indices cross the mask.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(round * 10 + i));
    EXPECT_FALSE(ring.TryPush(99));  // full
    EXPECT_EQ(ring.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring.TryPop(&out));
      EXPECT_EQ(out, round * 10 + i);  // FIFO
    }
    EXPECT_FALSE(ring.TryPop(&out));
  }
}

TEST(SpscRing, TransfersAcrossProducerConsumerThreads) {
  core::SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 20000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(std::uint64_t{i})) {
      }
    }
  });
  std::uint64_t expect = 0, sum = 0;
  while (expect < kCount) {
    std::uint64_t v;
    if (!ring.TryPop(&v)) continue;
    ASSERT_EQ(v, expect);  // order preserved
    sum += v;
    ++expect;
  }
  producer.join();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

// --- env helpers ------------------------------------------------------------

TEST(Env, IntFlagAndStringParsing) {
  setenv("VTP_TEST_INT", "42", 1);
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 42);
  setenv("VTP_TEST_INT", "notanint", 1);
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  unsetenv("VTP_TEST_INT");
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);

  setenv("VTP_TEST_FLAG", "1", 1);
  EXPECT_TRUE(core::EnvFlag("VTP_TEST_FLAG"));
  setenv("VTP_TEST_FLAG", "0", 1);
  EXPECT_FALSE(core::EnvFlag("VTP_TEST_FLAG"));
  unsetenv("VTP_TEST_FLAG");
  EXPECT_FALSE(core::EnvFlag("VTP_TEST_FLAG"));

  EXPECT_EQ(core::EnvString("VTP_TEST_STR", "fallback"), "fallback");
}

TEST(Env, IntRejectsOverflowAndTrailingGarbage) {
  // Regression: strtol clamps out-of-range input to LONG_MIN/LONG_MAX and the
  // old static_cast<int> then wrapped it to an arbitrary value. Anything that
  // does not round-trip as an int must fall back instead.
  setenv("VTP_TEST_INT", "99999999999999999999", 1);  // > LONG_MAX
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  setenv("VTP_TEST_INT", "-99999999999999999999", 1);  // < LONG_MIN
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  setenv("VTP_TEST_INT", "2147483648", 1);  // INT_MAX + 1 (fits in long on LP64)
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  setenv("VTP_TEST_INT", "-2147483649", 1);  // INT_MIN - 1
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  setenv("VTP_TEST_INT", "2147483647", 1);  // exactly INT_MAX: accepted
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 2147483647);
  setenv("VTP_TEST_INT", "-2147483648", 1);  // exactly INT_MIN: accepted
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), -2147483648);

  setenv("VTP_TEST_INT", "42abc", 1);  // trailing garbage
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  setenv("VTP_TEST_INT", "42 ", 1);  // trailing space counts too
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  setenv("VTP_TEST_INT", "", 1);  // empty string
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), 7);
  setenv("VTP_TEST_INT", "-8", 1);
  EXPECT_EQ(core::EnvInt("VTP_TEST_INT", 7), -8);
  unsetenv("VTP_TEST_INT");
}

}  // namespace
}  // namespace vtp
