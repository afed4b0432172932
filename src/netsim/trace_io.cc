#include "netsim/trace_io.h"

#include <ostream>

namespace vtp::net {

void WriteCaptureCsv(const Capture& capture, std::ostream& os) {
  os << "time_ns,src,dst,src_port,dst_port,wire_bytes,prefix_hex\n";
  static constexpr char kHex[] = "0123456789abcdef";
  for (const CaptureRecord& r : capture.records()) {
    os << r.time << ',' << r.src << ',' << r.dst << ',' << r.src_port << ',' << r.dst_port
       << ',' << r.wire_bytes << ',';
    for (std::uint8_t i = 0; i < r.prefix_len; ++i) {
      os << kHex[r.prefix[i] >> 4] << kHex[r.prefix[i] & 0xF];
    }
    os << '\n';
  }
}

}  // namespace vtp::net
