// TAPS-style session establishment (RFC 9622 shape, CTaps idiom): a
// Preconnection gathers the local and remote endpoints, then Initiate()
// resolves them to a QUIC-lite connection over whichever Medium backend the
// caller passes — the simulated internetwork or real UDP sockets — without
// the caller constructing transport endpoints by hand (DESIGN §14).
//
//   taps::Preconnection pre;
//   pre.WithLocal({client_node, 9000})
//      .WithRemote({server_node, 4433});
//   auto conn = pre.Initiate(medium);          // dials QUIC-lite
//   conn->Send(frame);                          // DATAGRAM message
//
// QUIC-lite is the only stack with a dialing API (RTP senders are one-way,
// constructed against a known receiver), and persona traffic rides its
// datagrams (paper §4.1). The server side is a bare QuicEndpoint. The façade
// produces the exact endpoint-construction sequence the callers it replaced
// used, so sim-backend wire digests are unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "netsim/medium.h"
#include "transport/quic.h"

namespace vtp::transport::taps {

/// A (node, port) pair. Over the sim backend nodes are Network node ids;
/// over the socket backend they are host-order IPv4 addresses.
struct Endpoint {
  net::NodeId node = 0;
  std::uint16_t port = 0;
};

/// An established (or establishing) transport connection. Owns its protocol
/// endpoint.
class Connection {
 public:
  using ReceivedHandler = std::function<void(std::span<const std::uint8_t> data)>;
  using ReadyHandler = std::function<void()>;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one message with boundaries preserved (a QUIC DATAGRAM:
  /// unreliable, unfragmented, not congestion-gated — the persona path).
  void Send(std::span<const std::uint8_t> data) { conn_->SendDatagram(data); }

  /// Handler for incoming messages (datagrams).
  void set_on_received(ReceivedHandler h);
  /// Invoked once the connection is ready to carry data; fires immediately
  /// if it already is.
  void set_on_ready(ReadyHandler h);

  bool ready() const { return conn_->established(); }

  /// The underlying QUIC connection — the escape hatch for code that feeds
  /// the connection into protocol-aware machinery (persona pipelines, the
  /// adapt controller, bench digest taps).
  QuicConnection* quic() { return conn_; }

 private:
  friend class Preconnection;
  Connection(std::unique_ptr<QuicEndpoint> endpoint, QuicConnection* conn)
      : endpoint_(std::move(endpoint)), conn_(conn) {}

  std::unique_ptr<QuicEndpoint> endpoint_;
  QuicConnection* conn_;
};

/// The pre-establishment bundle: endpoints, resolved by Initiate (CTaps
/// pattern). Reusable: one Preconnection can Initiate several Connections
/// (bench fan-outs vary only the local port).
class Preconnection {
 public:
  Preconnection& WithLocal(Endpoint local) {
    local_ = local;
    return *this;
  }
  Preconnection& WithRemote(Endpoint remote) {
    remote_ = remote;
    has_remote_ = true;
    return *this;
  }

  /// Actively establishes a Connection to the remote endpoint over `medium`.
  /// Throws std::invalid_argument if the remote endpoint is unset.
  std::unique_ptr<Connection> Initiate(net::Medium& medium);

 private:
  Endpoint local_;
  Endpoint remote_;
  bool has_remote_ = false;
};

}  // namespace vtp::transport::taps
