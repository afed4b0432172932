// Capture trace export.
//
// The paper promises to release its collected traces; this module defines
// the interchange format: a CSV with one row per captured packet
// (timestamp, addressing, wire size, payload-prefix hex). `vtp run
// --dump-trace` writes it.
#pragma once

#include <iosfwd>

#include "netsim/capture.h"

namespace vtp::net {

/// Writes `capture`'s records as CSV (header row included).
void WriteCaptureCsv(const Capture& capture, std::ostream& os);

}  // namespace vtp::net
