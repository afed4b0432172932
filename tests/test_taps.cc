// The Medium seam + TAPS façade (DESIGN §14):
//
//   * loopback QUIC-ping integration tests (the CTaps quic_ping_test
//     pattern): a client dials an in-process server over real 127.0.0.1 UDP
//     sockets, round-trips persona frames through an SFU, and both ends'
//     FrameTracers must show the spans;
//   * wall-clock drift invariants: a Simulator driven through the
//     WallClockDriver never fires a timer early, coalesces late ticks into
//     one batched advance instead of replaying them, records how late each
//     late advance was, and reports idle (sleep indefinitely) rather than a
//     zero timeout when the wheel is empty;
//   * the socket backend's wait: Pump() sleeps for the next deadline's delay
//     unrounded, and sub-millisecond timers on real sockets never fire
//     early;
//   * façade semantics: property-set rejection, sim-backend construction
//     equivalence against hand-rolled endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/clock.h"
#include "netsim/event_loop.h"
#include "netsim/network.h"
#include "netsim/socket_medium.h"
#include "netsim/wall_clock.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "transport/taps.h"
#include "vca/pipelines.h"
#include "vca/sfu.h"

namespace vtp {
namespace {

// ---------------------------------------------------------------------------
// Wall-clock drift invariants (ManualClock makes them deterministic).
// ---------------------------------------------------------------------------

TEST(WallClock, NeverFiresEarly) {
  net::Simulator sim(1);
  core::ManualClock clock;
  net::WallClockDriver driver(&sim, &clock);

  int fired = 0;
  sim.At(net::Millis(5), [&fired] { ++fired; });

  clock.Set(net::Millis(4));  // wall is 1 ms short of the deadline
  driver.AdvanceToWallNow();
  EXPECT_EQ(fired, 0) << "timer fired before its deadline";
  EXPECT_EQ(sim.now(), net::Millis(4));

  clock.Set(net::Millis(5));  // exactly at the deadline: must fire now
  driver.AdvanceToWallNow();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(driver.stats().early_fires, 0u);
  EXPECT_EQ(driver.stats().late_ticks, 0u);
  EXPECT_EQ(driver.lateness_us().count(), 0u) << "an on-time advance records no lateness";
}

TEST(WallClock, CoalescesLateTicksInsteadOfReplaying) {
  net::Simulator sim(1);
  core::ManualClock clock;
  net::WallClockDriver driver(&sim, &clock);

  // Three deadlines, all overdue by the time the loop advances (it was
  // stalled — e.g. a long poll or a slow handler).
  std::vector<net::SimTime> fire_times;
  for (int ms : {10, 20, 30}) {
    sim.At(net::Millis(ms), [&fire_times, &sim] { fire_times.push_back(sim.now()); });
  }

  clock.Set(net::Millis(50));
  const std::uint64_t fired = driver.AdvanceToWallNow();

  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(driver.stats().advances, 1u) << "one batched advance, not a replay per tick";
  EXPECT_EQ(driver.stats().late_ticks, 1u);
  EXPECT_EQ(driver.stats().coalesced_ticks, 2u) << "3 overdue timers = 1 late tick + 2 coalesced";
  EXPECT_EQ(driver.stats().max_lateness, net::Millis(40));
  EXPECT_EQ(driver.stats().early_fires, 0u);
  // The one late advance lands in the registry's lateness histogram: 40 ms
  // is 40000 µs, in the (20000, 50000] bucket.
  const obs::Histogram& lateness = sim.metrics().histograms().at(net::kTimerLatenessMetric);
  EXPECT_EQ(&lateness, &driver.lateness_us());
  ASSERT_EQ(lateness.count(), 1u);
  EXPECT_DOUBLE_EQ(lateness.sum(), 40000.0);
  const std::vector<double>& bounds = lateness.bounds();
  const auto bucket = static_cast<std::size_t>(
      std::find(bounds.begin(), bounds.end(), 50000.0) - bounds.begin());
  ASSERT_GT(bucket, 0u);
  ASSERT_LT(bucket, bounds.size());
  EXPECT_EQ(bounds[bucket - 1], 20000.0);
  EXPECT_EQ(lateness.buckets()[bucket], 1u);
  // Virtual timestamps stay exact even when wall execution is late: handlers
  // observe their scheduled times in order.
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], net::Millis(10));
  EXPECT_EQ(fire_times[1], net::Millis(20));
  EXPECT_EQ(fire_times[2], net::Millis(30));
}

TEST(WallClock, IdleWheelMeansSleepNotSpin) {
  net::Simulator sim(1);
  core::ManualClock clock;
  net::WallClockDriver driver(&sim, &clock);

  // No pending events: the poll loop may sleep indefinitely.
  EXPECT_FALSE(driver.NextDeadlineDelay().has_value());

  // A future deadline: the delay is exactly the gap, so a poll with that
  // timeout wakes exactly on time instead of busy-polling.
  sim.At(net::Millis(7), [] {});
  clock.Set(net::Millis(2));
  ASSERT_TRUE(driver.NextDeadlineDelay().has_value());
  EXPECT_EQ(*driver.NextDeadlineDelay(), net::Millis(5));

  // An overdue deadline: zero timeout (run it now), never negative.
  clock.Set(net::Millis(9));
  EXPECT_EQ(*driver.NextDeadlineDelay(), net::SimTime{0});
}

TEST(WallClock, NextEventTimePeeksWithoutExecuting) {
  net::Simulator sim(1);
  int fired = 0;
  sim.At(net::Millis(3), [&fired] { ++fired; });
  sim.At(net::Millis(1), [&fired] { ++fired; });

  ASSERT_TRUE(sim.NextEventTime().has_value());
  EXPECT_EQ(*sim.NextEventTime(), net::Millis(1));
  EXPECT_EQ(fired, 0) << "peeking must not execute events";
  EXPECT_EQ(sim.now(), 0) << "peeking must not advance the clock";

  sim.RunUntil(net::Millis(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(*sim.NextEventTime(), net::Millis(3));
}

// ---------------------------------------------------------------------------
// The socket backend's wait.
// ---------------------------------------------------------------------------

TEST(PumpWait, SubMillisecondDelayPassesThroughUnrounded) {
  EXPECT_EQ(net::PumpWaitNanos(net::Micros(300), /*max_wait_ms=*/50), net::Micros(300))
      << "a 300 µs deadline must not become a 1 ms sleep";
  EXPECT_EQ(net::PumpWaitNanos(net::Micros(300), /*max_wait_ms=*/-1), net::Micros(300));
}

TEST(PumpWait, OverdueDeadlineDoesNotSleep) {
  EXPECT_EQ(net::PumpWaitNanos(net::SimTime{0}, /*max_wait_ms=*/50), 0);
}

TEST(PumpWait, MaxWaitCapsTheDelay) {
  EXPECT_EQ(net::PumpWaitNanos(net::Millis(80), /*max_wait_ms=*/50), net::Millis(50));
  EXPECT_EQ(net::PumpWaitNanos(net::Millis(80), /*max_wait_ms=*/0), 0);
}

TEST(PumpWait, IdleWheelWaitsMaxWait) {
  EXPECT_EQ(net::PumpWaitNanos(std::nullopt, /*max_wait_ms=*/50), net::Millis(50));
}

TEST(PumpWait, IdleWheelWithoutCapWaitsIndefinitely) {
  EXPECT_LT(net::PumpWaitNanos(std::nullopt, /*max_wait_ms=*/-1), 0);
}

TEST(EventLoop, WaitNeverReturnsBeforeItsTimeout) {
  net::EventLoop loop;
  for (const net::SimTime timeout : {net::Micros(50), net::Micros(300), net::Micros(1500)}) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(loop.Wait(timeout), 0);
    const auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GE(waited, timeout) << "no fd is registered, so only the timeout ends the wait";
  }
}

TEST(SocketLoopback, SubMillisecondTimersNeverFireEarly) {
  net::SocketMedium medium(1, "127.0.0.1");
  net::Simulator& sim = medium.sim();

  // 50 deadlines 310 µs apart, so every wait Pump() takes is sub-ms. Each
  // handler reads the wall the driver tracks; sim.now() is its deadline.
  struct Firing {
    net::SimTime deadline;
    net::SimTime wall;
  };
  std::vector<Firing> firings;
  const net::SimTime start = medium.WallNow();
  for (int i = 1; i <= 50; ++i) {
    sim.At(start + i * net::Micros(310), [&firings, &sim, &medium] {
      firings.push_back({sim.now(), medium.WallNow()});
    });
  }

  const net::SimTime give_up = start + net::Seconds(5);
  while (firings.size() < 50 && medium.WallNow() < give_up) medium.Pump(/*max_wait_ms=*/10);

  ASSERT_EQ(firings.size(), 50u);
  for (std::size_t i = 0; i < firings.size(); ++i) {
    EXPECT_EQ(firings[i].deadline, start + static_cast<net::SimTime>(i + 1) * net::Micros(310));
    EXPECT_GE(firings[i].wall, firings[i].deadline) << "timer " << i << " fired early";
  }
  EXPECT_EQ(medium.wall_stats().early_fires, 0u);
  EXPECT_EQ(medium.wall_stats().timers_fired, 50u);
}

// ---------------------------------------------------------------------------
// TAPS façade semantics.
// ---------------------------------------------------------------------------

TEST(Taps, InitiateRequiresRemote) {
  net::Simulator sim(1);
  net::Network network(&sim);
  transport::taps::Preconnection pre;
  EXPECT_THROW(pre.Initiate(network), std::invalid_argument);
}

TEST(Taps, RejectsUnsatisfiableProperties) {
  net::Simulator sim(1);
  net::Network network(&sim);
  using transport::taps::Preference;

  transport::taps::TransportProperties no_boundaries;
  no_boundaries.preserve_message_boundaries = Preference::kProhibit;
  EXPECT_THROW(transport::taps::Preconnection{}
                   .WithRemote({1, 4433})
                   .WithProperties(no_boundaries)
                   .Initiate(network),
               std::invalid_argument);

  transport::taps::TransportProperties unreliable_streams;
  unreliable_streams.reliability = Preference::kProhibit;
  unreliable_streams.multistreaming = Preference::kRequire;
  EXPECT_THROW(transport::taps::Preconnection{}
                   .WithRemote({1, 4433})
                   .WithProperties(unreliable_streams)
                   .Initiate(network),
               std::invalid_argument);
}

/// Star topology helper for sim-backend façade tests.
struct SimWorld {
  net::Simulator sim{1};
  net::Network network{&sim};
  net::NodeId hub, a, b;

  SimWorld() {
    const net::GeoPoint here{41.88, -87.63};
    hub = network.AddNode("hub", here, net::Region::kMiddleUs, true);
    const net::LinkConfig link{.rate_bps = 1e9, .prop_delay = net::Millis(1)};
    a = network.AddNode("a", here, net::Region::kMiddleUs, false);
    b = network.AddNode("b", here, net::Region::kMiddleUs, false);
    network.Connect(a, hub, link);
    network.Connect(b, hub, link);
    network.ComputeRoutes();
  }
};

TEST(Taps, SimBackendConnectionEstablishesAndCarriesData) {
  SimWorld w;
  auto listener = transport::taps::Preconnection{}.WithLocal({w.b, 4433}).Listen(w.network);

  std::vector<std::uint8_t> server_got;
  listener->set_on_accept([&server_got](transport::taps::Connection& conn) {
    conn.set_on_received([&server_got, &conn](std::span<const std::uint8_t> data) {
      server_got.assign(data.begin(), data.end());
      conn.Send(data);  // echo
    });
  });

  auto conn = transport::taps::Preconnection{}
                  .WithLocal({w.a, 9000})
                  .WithRemote({w.b, 4433})
                  .Initiate(w.network);
  std::vector<std::uint8_t> client_got;
  conn->set_on_received(
      [&client_got](std::span<const std::uint8_t> data) { client_got.assign(data.begin(), data.end()); });

  bool ready = false;
  conn->set_on_ready([&ready] { ready = true; });
  const std::vector<std::uint8_t> ping = {0x01, 0x02, 0x03, 0x42};
  conn->Send(ping);  // queued pre-handshake, flushed once established

  w.sim.RunUntil(net::Seconds(1));
  EXPECT_TRUE(ready);
  EXPECT_TRUE(conn->ready());
  EXPECT_EQ(server_got, ping);
  EXPECT_EQ(client_got, ping);
  EXPECT_EQ(listener->accepted_count(), 1u);
}

TEST(Taps, MessageStreamRoundTrip) {
  SimWorld w;
  auto listener = transport::taps::Preconnection{}.WithLocal({w.b, 4433}).Listen(w.network);
  std::vector<std::uint8_t> server_stream;
  bool server_fin = false;
  listener->set_on_accept([&](transport::taps::Connection& conn) {
    conn.set_on_stream_received(
        [&](std::uint64_t stream_id, std::span<const std::uint8_t> data, bool fin) {
          EXPECT_EQ(stream_id, 0u);
          server_stream.insert(server_stream.end(), data.begin(), data.end());
          server_fin |= fin;
        });
  });

  auto conn = transport::taps::Preconnection{}
                  .WithLocal({w.a, 9000})
                  .WithRemote({w.b, 4433})
                  .Initiate(w.network);
  transport::taps::MessageStream& stream = conn->OpenStream();
  const std::vector<std::uint8_t> hello = {'h', 'e', 'l', 'l', 'o'};
  stream.Send(hello, /*fin=*/true);

  w.sim.RunUntil(net::Seconds(1));
  EXPECT_EQ(server_stream, hello);
  EXPECT_TRUE(server_fin);
}

// The façade must produce the identical wire behaviour to the hand-rolled
// endpoint construction it replaced (the sim-digest acceptance criterion,
// checked end-to-end by bench_transport's differential section).
TEST(Taps, SimBackendMatchesHandRolledEndpoint) {
  std::uint64_t facade_packets = 0, manual_packets = 0;
  {
    SimWorld w;
    transport::QuicEndpoint server(&w.network, w.b, 4433);
    auto conn = transport::taps::Preconnection{}
                    .WithLocal({w.a, 9000})
                    .WithRemote({w.b, 4433})
                    .Initiate(w.network);
    const std::vector<std::uint8_t> payload(100, 0xAB);
    for (int i = 0; i < 50; ++i) conn->Send(payload);
    w.sim.RunUntil(net::Seconds(1));
    facade_packets = conn->quic()->stats().packets_sent;
    EXPECT_GT(facade_packets, 0u);
  }
  {
    SimWorld w;
    transport::QuicEndpoint server(&w.network, w.b, 4433);
    transport::QuicEndpoint client(&w.network, w.a, 9000);
    transport::QuicConnection* conn = client.Connect(w.b, 4433);
    const std::vector<std::uint8_t> payload(100, 0xAB);
    for (int i = 0; i < 50; ++i) conn->SendDatagram(payload);
    w.sim.RunUntil(net::Seconds(1));
    manual_packets = conn->stats().packets_sent;
  }
  EXPECT_EQ(facade_packets, manual_packets);
}

// ---------------------------------------------------------------------------
// Loopback QUIC-ping over real sockets (the CTaps quic_ping_test pattern).
// ---------------------------------------------------------------------------

/// Pumps both mediums until `done()` or `deadline_ms` of wall time have
/// passed. Alternating short pumps keeps the two single-threaded event loops
/// live in one test process without threads.
template <class Done>
bool PumpBoth(net::SocketMedium& a, net::SocketMedium& b, Done done, int deadline_ms) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < give_up) {
    a.Pump(/*max_wait_ms=*/1);
    b.Pump(/*max_wait_ms=*/1);
    if (done()) return true;
  }
  return done();
}

// Ports in the high ephemeral range, spaced per test so runs can't collide
// with each other or a lingering socket in TIME_WAIT (UDP has none, but
// parallel ctest invocations share the loopback namespace).
constexpr std::uint16_t kPingServerPort = 46433;
constexpr std::uint16_t kFramePort = 46533;

TEST(SocketLoopback, QuicPingRoundTrip) {
  net::SocketMedium server_medium(1, "127.0.0.1");
  net::SocketMedium client_medium(2, "127.0.0.1");

  auto listener = transport::taps::Preconnection{}
                      .WithLocal({server_medium.local_node(), kPingServerPort})
                      .Listen(server_medium);
  listener->set_on_accept([](transport::taps::Connection& conn) {
    conn.set_on_received(
        [&conn](std::span<const std::uint8_t> data) { conn.Send(data); });  // echo
  });

  auto conn = transport::taps::Preconnection{}
                  .WithLocal({client_medium.local_node(), 49000})
                  .WithRemote({net::Ipv4ToNode("127.0.0.1"), kPingServerPort})
                  .Initiate(client_medium);

  std::vector<std::uint8_t> echoed;
  conn->set_on_received(
      [&echoed](std::span<const std::uint8_t> data) { echoed.assign(data.begin(), data.end()); });
  const std::vector<std::uint8_t> ping = {'p', 'i', 'n', 'g', 0x42};
  conn->Send(ping);

  ASSERT_TRUE(PumpBoth(server_medium, client_medium,
                       [&echoed] { return !echoed.empty(); }, /*deadline_ms=*/5000))
      << "ping never echoed over loopback UDP";
  EXPECT_EQ(echoed, ping);
  EXPECT_TRUE(conn->ready());
  EXPECT_EQ(server_medium.wall_stats().early_fires, 0u);
  EXPECT_EQ(client_medium.wall_stats().early_fires, 0u);
}

TEST(SocketLoopback, PersonaFrameRoundTripWithTracerSpans) {
  net::SocketMedium server_medium(1, "127.0.0.1");
  net::SocketMedium client_medium(2, "127.0.0.1");
  server_medium.sim().tracer().Enable(/*max_spans=*/256);
  client_medium.sim().tracer().Enable(/*max_spans=*/256);

  // Real SFU on the server medium; two personas (one connection each) on the
  // client medium, so frames from persona 0 fan out to persona 1 and back.
  vca::SfuServer sfu(&server_medium, server_medium.local_node(), kFramePort,
                     vca::TransportKind::kQuicDatagram);

  struct Persona {
    std::unique_ptr<transport::taps::Connection> conn;
    std::unique_ptr<vca::SpatialPersonaReceiver> receiver;
    std::unique_ptr<vca::SpatialPersonaSender> sender;
  };
  std::vector<Persona> personas;
  for (std::uint8_t id = 0; id < 2; ++id) {
    Persona p;
    p.conn = transport::taps::Preconnection{}
                 .WithLocal({client_medium.local_node(),
                             static_cast<std::uint16_t>(49100 + id)})
                 .WithRemote({net::Ipv4ToNode("127.0.0.1"), kFramePort})
                 .Initiate(client_medium);
    p.receiver = std::make_unique<vca::SpatialPersonaReceiver>(
        &client_medium.sim(), std::map<std::uint8_t, const mesh::TriangleMesh*>{});
    p.receiver->set_self_id(id);
    p.conn->set_on_received([rx = p.receiver.get()](std::span<const std::uint8_t> data) {
      rx->OnDatagram(data);
    });
    p.sender = std::make_unique<vca::SpatialPersonaSender>(&client_medium.sim(),
                                                           p.conn->quic(), id, 7 + id);
    personas.push_back(std::move(p));
  }

  // Let the handshakes settle, then ship ~20 frames per persona.
  client_medium.sim().After(net::Millis(100), [&personas, &client_medium] {
    for (Persona& p : personas) {
      p.sender->Start(client_medium.sim().now() + net::Millis(250));
    }
  });

  const bool delivered = PumpBoth(
      server_medium, client_medium,
      [&personas] {
        return personas[0].receiver->total_frames_decoded() > 0 &&
               personas[1].receiver->total_frames_decoded() > 0;
      },
      /*deadline_ms=*/10000);
  ASSERT_TRUE(delivered) << "persona frames never round-tripped through the SFU";

  // FrameTracer spans on both ends: the client end completes full
  // capture->...->playout spans; the server end stamps the SFU relay stage.
  const obs::Snapshot client_snap =
      obs::Snapshot::Capture(client_medium.sim().metrics(), &client_medium.sim().tracer());
  EXPECT_GT(client_snap.spans, 0u) << "no completed frame spans on the client end";
  EXPECT_NE(client_snap.stage("e2e"), nullptr);

  EXPECT_GT(sfu.forwarded_count(), 0u);
  const obs::Snapshot server_snap =
      obs::Snapshot::Capture(server_medium.sim().metrics(), &server_medium.sim().tracer());
  EXPECT_GT(server_snap.counter(sfu.metrics_scope() + ".forwarded"), 0u);

  // Drift invariants held throughout the socket run.
  EXPECT_EQ(server_medium.wall_stats().early_fires, 0u);
  EXPECT_EQ(client_medium.wall_stats().early_fires, 0u);
}

}  // namespace
}  // namespace vtp
