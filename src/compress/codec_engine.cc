#include "compress/codec_engine.h"

#include <algorithm>

#include "compress/lzr.h"

namespace vtp::compress {

void CodecEngine::CompressInto(std::span<const std::uint8_t> data,
                               std::vector<std::uint8_t>& out) {
  const std::size_t before = out.size();
  lzr_.CompressInto(data, out);
  ++stats_.frames;
  stats_.bytes_in += data.size();
  stats_.bytes_out += out.size() - before;
}

void CodecEngine::DecompressInto(std::uint8_t stream, std::span<const std::uint8_t> packed,
                                 std::vector<std::uint8_t>& out) {
  if (stream >= rings_.size()) rings_.resize(stream + 1u);
  DecodeRing& ring = rings_[stream];
  for (const DecodeSlot& slot : ring.slots) {
    // An unused slot never matches: every stored body holds at least the
    // LZR1 magic.
    if (!slot.packed.empty() && slot.packed.size() == packed.size() &&
        std::equal(slot.packed.begin(), slot.packed.end(), packed.begin())) {
      ++stats_.decode_hits;
      out.assign(slot.body.begin(), slot.body.end());
      return;
    }
  }
  ++stats_.decode_misses;
  LzrDecompressInto(packed, out);  // throws before anything is stored
  DecodeSlot& slot = ring.slots[ring.next];
  slot.packed.assign(packed.begin(), packed.end());
  slot.body.assign(out.begin(), out.end());
  ring.next = (ring.next + 1) % kDecodeSlotsPerStream;
}

}  // namespace vtp::compress
