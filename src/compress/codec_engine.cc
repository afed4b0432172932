#include "compress/codec_engine.h"

namespace vtp::compress {

void CodecEngine::CompressInto(std::span<const std::uint8_t> data,
                               std::vector<std::uint8_t>& out) {
  const std::size_t before = out.size();
  lzr_.CompressInto(data, out);
  ++stats_.frames;
  stats_.bytes_in += data.size();
  stats_.bytes_out += out.size() - before;
}

}  // namespace vtp::compress
