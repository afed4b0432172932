#include "transport/taps.h"

#include <stdexcept>
#include <utility>

namespace vtp::transport::taps {

void Connection::set_on_received(ReceivedHandler h) { conn_->set_on_datagram(std::move(h)); }

void Connection::set_on_ready(ReadyHandler h) {
  if (conn_->established()) {
    h();
    return;
  }
  conn_->set_on_established(std::move(h));
}

std::unique_ptr<Connection> Preconnection::Initiate(net::Medium& medium) {
  if (!has_remote_) throw std::invalid_argument("taps: Initiate requires WithRemote");
  // Exactly the construction sequence hand-rolled callers used, so CIDs and
  // wire traffic — hence sim-backend digests — are unchanged.
  auto endpoint = std::make_unique<QuicEndpoint>(&medium, local_.node, local_.port);
  QuicConnection* qc = endpoint->Connect(remote_.node, remote_.port);
  return std::unique_ptr<Connection>(new Connection(std::move(endpoint), qc));
}

}  // namespace vtp::transport::taps
