// Shared entropy-coding building blocks on top of the range coder.
#pragma once

#include <bit>
#include <cstdint>

#include "compress/range_coder.h"
#include "compress/varint.h"

namespace vtp::compress {

/// Adaptive codec for signed integers: zigzag, then a bit-length "slot"
/// through an adaptive bit tree, then the value's trailing bits at
/// probability 1/2. Small magnitudes cost ~2-4 bits after adaptation.
/// Used by the mesh codec (position/index residuals) and the video codec
/// (quantized DCT coefficients). Encode templates over the coder so the
/// same tree drives a RangeEncoder and its register-resident
/// RangeEncoder::Hot session.
class SignedValueCoder {
 public:
  template <class Encoder>
  void Encode(Encoder& rc, std::int64_t value) {
    const std::uint64_t z = ZigZagEncode(value);
    const int slot = z == 0 ? 0 : 64 - std::countl_zero(z);
    slots_.Encode(rc, static_cast<std::uint32_t>(slot));
    if (slot > 1) {
      rc.EncodeDirectBits(static_cast<std::uint32_t>(z & ((1ull << (slot - 1)) - 1)), slot - 1);
    }
  }

  template <class Decoder>
  std::int64_t Decode(Decoder& rc) {
    const int slot = static_cast<int>(slots_.Decode(rc));
    std::uint64_t z = 0;
    if (slot == 1) {
      z = 1;
    } else if (slot > 1) {
      z = (1ull << (slot - 1)) | rc.DecodeDirectBits(slot - 1);
    }
    return ZigZagDecode(z);
  }

 private:
  BitTree<6> slots_;
};

}  // namespace vtp::compress
