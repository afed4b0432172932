#include "compress/lzr_stream.h"

namespace vtp::compress {

void LzrEncoder::CompressInto(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out,
                              const LzParams& params) {
  const std::size_t out_before = out.size();
  for (const std::uint8_t b : detail::kLzrMagic) out.push_back(b);
  PutUleb128(out, data.size());
  ++frames_;
  io_.bytes_in += data.size();
  if (data.empty()) {
    io_.bytes_out += out.size() - out_before;
    return;
  }

  RangeEncoder rc(&out);
  detail::LzrModels m;
  {
    RangeEncoder::Hot hot(rc);
    LzParse(finder_, data, params, detail::LzrTokenCoder{hot, m, &io_.literals, &io_.matches});
  }
  rc.Flush();
  io_.bytes_out += out.size() - out_before;
}

std::span<const std::uint8_t> LzrEncoder::Compress(std::span<const std::uint8_t> data,
                                                   const LzParams& params) {
  scratch_.clear();
  CompressInto(data, scratch_, params);
  return scratch_;
}

std::size_t LzrEncoder::CompressedSize(std::span<const std::uint8_t> data,
                                       const LzParams& params) {
  ++frames_;
  const std::size_t header = detail::kLzrMagic.size() + Uleb128Length(data.size());
  if (data.empty()) return header;

  std::uint64_t discard_lit = 0, discard_match = 0;  // sizing probe: not real output
  RangeEncoder rc;  // counting sink: nothing is stored
  detail::LzrModels m;
  {
    RangeEncoder::Hot hot(rc);
    LzParse(finder_, data, params, detail::LzrTokenCoder{hot, m, &discard_lit, &discard_match});
  }
  rc.Flush();
  return header + rc.bytes_emitted();
}

}  // namespace vtp::compress
