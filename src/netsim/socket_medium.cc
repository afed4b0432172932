#include "netsim/socket_medium.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <stdexcept>

namespace vtp::net {

namespace {

/// Largest datagram we accept off the wire. QUIC-lite caps packets at 1200
/// bytes, but a generous buffer keeps the receive path future-proof.
constexpr std::size_t kMaxDatagram = 65536;

sockaddr_in MakeAddr(NodeId node, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(node);
  return addr;
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw std::runtime_error("failed to set O_NONBLOCK");
  }
}

}  // namespace

NodeId Ipv4ToNode(const std::string& dotted) {
  in_addr addr{};
  if (::inet_pton(AF_INET, dotted.c_str(), &addr) != 1) {
    throw std::invalid_argument("not an IPv4 address: " + dotted);
  }
  return static_cast<NodeId>(ntohl(addr.s_addr));
}

std::string NodeToIpv4(NodeId node) {
  in_addr addr{};
  addr.s_addr = htonl(node);
  char buf[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr, buf, sizeof(buf)) == nullptr) return "0.0.0.0";
  return buf;
}

SocketMedium::SocketMedium(std::uint64_t seed, std::string bind_address, NodeId local_node)
    : sim_(seed),
      wall_(&sim_, &clock_),
      bind_address_(std::move(bind_address)),
      local_node_(local_node != 0 ? local_node : Ipv4ToNode(bind_address_)) {
  // 0.0.0.0 binds can't name themselves; peers still reach us by a real
  // address, so fall back to loopback for the local id in that case.
  if (local_node_ == 0) local_node_ = Ipv4ToNode("127.0.0.1");
}

SocketMedium::~SocketMedium() {
  for (auto& [port, state] : ports_) {
    loop_.Remove(state.fd);
    ::close(state.fd);
  }
}

SocketMedium::PortState& SocketMedium::EnsureSocket(std::uint16_t port) {
  auto it = ports_.find(port);
  if (it != ports_.end()) return it->second;

  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  SetNonBlocking(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = MakeAddr(Ipv4ToNode(bind_address_), port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("bind " + bind_address_ + ":" + std::to_string(port) +
                             " failed: " + std::strerror(err));
  }

  PortState& state = ports_[port];
  state.fd = fd;
  loop_.Add(fd, [this, port](int ready_fd) { DrainSocket(port, ready_fd); });
  return state;
}

void SocketMedium::BindUdp(NodeId node, std::uint16_t port, DatagramHandler handler) {
  (void)node;  // in socket mode the process IS the node; ports identify endpoints
  EnsureSocket(port).handler = std::move(handler);
}

void SocketMedium::UnbindUdp(NodeId node, std::uint16_t port) {
  (void)node;
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  loop_.Remove(it->second.fd);
  ::close(it->second.fd);
  ports_.erase(it);
}

void SocketMedium::SendRaw(std::uint16_t src_port, NodeId dst, std::uint16_t dst_port,
                           const std::uint8_t* data, std::size_t size) {
  // Lazily open the source port so replies reach the sender: QUIC clients
  // send first and bind implicitly, exactly like an OS ephemeral-port bind.
  PortState& state = EnsureSocket(src_port);
  sockaddr_in to = MakeAddr(dst, dst_port);
  ssize_t n = ::sendto(state.fd, data, size, 0, reinterpret_cast<sockaddr*>(&to), sizeof(to));
  if (n == static_cast<ssize_t>(size)) {
    ++sent_;
  } else {
    // EAGAIN (full socket buffer) is packet loss as far as the stack is
    // concerned — UDP semantics the transports already recover from.
    ++send_errors_;
  }
}

void SocketMedium::SendUdp(NodeId src, std::uint16_t src_port, NodeId dst, std::uint16_t dst_port,
                           const std::vector<std::uint8_t>& payload) {
  (void)src;
  SendRaw(src_port, dst, dst_port, payload.data(), payload.size());
}

void SocketMedium::SendUdp(NodeId src, std::uint16_t src_port, NodeId dst, std::uint16_t dst_port,
                           PacketBuffer payload) {
  (void)src;
  auto view = payload.view();
  SendRaw(src_port, dst, dst_port, view.data(), view.size());
}

void SocketMedium::DrainSocket(std::uint16_t port, int fd) {
  std::uint8_t buf[kMaxDatagram];
  while (true) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t n = ::recvfrom(fd, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      break;  // transient UDP errors (e.g. ECONNREFUSED bounce) — drop and move on
    }
    ++received_;
    auto it = ports_.find(port);
    if (it == ports_.end() || !it->second.handler) continue;  // unbound: drop silently

    Packet p;
    p.src = static_cast<NodeId>(ntohl(from.sin_addr.s_addr));
    p.src_port = ntohs(from.sin_port);
    p.dst = local_node_;
    p.dst_port = port;
    p.payload = PacketBuffer::CopyOf(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    p.id = ++next_packet_id_;

    // Timers first: the handler must see a clock at least as fresh as the
    // packet, or retransmission logic would compute negative elapsed times.
    wall_.AdvanceToWallNow();
    it->second.handler(p);
    ++delivered_this_turn_;
  }
}

std::int64_t PumpWaitNanos(std::optional<SimTime> deadline_delay, int max_wait_ms) {
  const std::int64_t cap = max_wait_ms < 0 ? -1 : std::int64_t{max_wait_ms} * kMillisecond;
  if (!deadline_delay) return cap;
  return cap < 0 ? *deadline_delay : std::min(*deadline_delay, cap);
}

std::uint64_t SocketMedium::Pump(int max_wait_ms) {
  delivered_this_turn_ = 0;
  wall_.AdvanceToWallNow();
  // The delay is zero only when a timer is already overdue (no busy-spin);
  // the wait never ends before the deadline, and if it did, the advance
  // below would fire nothing early.
  loop_.Wait(PumpWaitNanos(wall_.NextDeadlineDelay(), max_wait_ms));

  wall_.AdvanceToWallNow();
  return delivered_this_turn_;
}

}  // namespace vtp::net
