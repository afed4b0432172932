// SocketMedium: the real-UDP backend behind the Medium seam (DESIGN §14).
//
// NodeId doubles as the peer's IPv4 address in host byte order (both are
// uint32), so no address-resolution table is needed: the local node on
// loopback is 0x7F000001, BindUdp(node, port) opens a nonblocking UDP socket
// on (bind_address, port), and SendUdp resolves dst back to an IP. The
// receive path drains each ready socket and hands Packets to the bound
// DatagramHandler — the identical callback shape the sim backend delivers
// through — after first advancing the timer wheel to wall-now, so handlers
// observe a clock that never runs behind the packets they see.
//
// Single-threaded by design, like the Simulator: the owning process calls
// Pump() in a loop. Two SocketMediums can coexist in one process (each with
// its own Simulator/metrics/tracer), which is how the loopback integration
// test runs client and server "ends" with independent obs snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/clock.h"
#include "netsim/event_loop.h"
#include "netsim/event_queue.h"
#include "netsim/medium.h"
#include "netsim/wall_clock.h"

namespace vtp::net {

/// Parses "a.b.c.d" into a host-order IPv4 NodeId. Throws std::invalid_argument.
NodeId Ipv4ToNode(const std::string& dotted);

/// Formats a host-order IPv4 NodeId as "a.b.c.d".
std::string NodeToIpv4(NodeId node);

/// How long one Pump() may sleep, in ns: the next timer deadline's delay as
/// is (`deadline_delay`; nullopt when the wheel is idle), capped at
/// `max_wait_ms`. Negative means until a socket is readable, which is what
/// an idle wheel with a negative `max_wait_ms` gets.
std::int64_t PumpWaitNanos(std::optional<SimTime> deadline_delay, int max_wait_ms);

class SocketMedium final : public Medium {
 public:
  /// `bind_address` is the local interface sockets bind to ("127.0.0.1" for
  /// loopback, "0.0.0.0" to accept from anywhere). `local_node` is the
  /// NodeId peers reach this process at — i.e. this machine's address as
  /// remote ends see it; defaults to the bind address.
  explicit SocketMedium(std::uint64_t seed = 1, std::string bind_address = "127.0.0.1",
                        NodeId local_node = 0);
  ~SocketMedium() override;

  SocketMedium(const SocketMedium&) = delete;
  SocketMedium& operator=(const SocketMedium&) = delete;

  // --- Medium -----------------------------------------------------------

  void BindUdp(NodeId node, std::uint16_t port, DatagramHandler handler) override;
  void UnbindUdp(NodeId node, std::uint16_t port) override;
  void SendUdp(NodeId src, std::uint16_t src_port, NodeId dst, std::uint16_t dst_port,
               const std::vector<std::uint8_t>& payload) override;
  void SendUdp(NodeId src, std::uint16_t src_port, NodeId dst, std::uint16_t dst_port,
               PacketBuffer payload) override;
  Simulator& sim() override { return sim_; }

  // --- driving ----------------------------------------------------------

  /// One event-loop turn: advance timers to wall-now, sleep until the next
  /// deadline (capped at `max_wait_ms`) or until a socket is readable, drain
  /// and deliver, advance timers again. Returns the number of datagrams
  /// delivered this turn.
  std::uint64_t Pump(int max_wait_ms);

  NodeId local_node() const { return local_node_; }
  const WallClockStats& wall_stats() const { return wall_.stats(); }
  /// `wall - deadline` of every late advance, µs (kTimerLatenessMetric).
  const obs::Histogram& timer_lateness_us() const { return wall_.lateness_us(); }
  /// The wall reading the timer wheel tracks (SimTime units, ns).
  SimTime WallNow() { return wall_.WallNow(); }

  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t datagrams_received() const { return received_; }
  std::uint64_t send_errors() const { return send_errors_; }

 private:
  struct PortState {
    int fd = -1;
    DatagramHandler handler;  // empty for lazy send-only binds
  };

  /// Opens (or returns) the socket bound to `port`; registers it with the
  /// event loop. Throws std::runtime_error if the OS refuses the bind.
  PortState& EnsureSocket(std::uint16_t port);
  void DrainSocket(std::uint16_t port, int fd);
  void SendRaw(std::uint16_t src_port, NodeId dst, std::uint16_t dst_port,
               const std::uint8_t* data, std::size_t size);

  Simulator sim_;
  core::SteadyClock clock_;
  WallClockDriver wall_;
  EventLoop loop_;
  std::string bind_address_;
  NodeId local_node_ = 0;
  std::map<std::uint16_t, PortState> ports_;
  std::uint64_t next_packet_id_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t send_errors_ = 0;
  std::uint64_t delivered_this_turn_ = 0;
};

}  // namespace vtp::net
