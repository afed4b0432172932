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

}  // namespace vtp::compress
