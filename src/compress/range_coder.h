// Adaptive binary range coder in the LZMA style.
//
// The coder encodes one binary decision at a time against an adaptive
// probability model (BitModel). Sequences of decisions are usually organised
// as bit trees (BitTree) which encode fixed-width symbols with per-node
// context. This is the entropy-coding engine behind the "lzr" general-purpose
// compressor, the mesh codec, and the video codec in this repository.
//
// The bit paths are header-inline and branch-light: EncodeBit/DecodeBit run
// ~7,000 times per semantic keypoint frame, so the per-call cost (function
// call, mispredicted bit branch, loop-back check) used to dominate the whole
// compression hot path. The ternaries below compile to conditional moves,
// and normalisation is a single `if` — one shift always restores the range
// invariant (see the proof at EncodeBit). The byte stream is unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitstream.h"

namespace vtp::compress {

/// Adaptive probability of a bit being 0, in units of 1/2048.
/// Updated with shift-based exponential decay exactly as in LZMA.
struct BitModel {
  static constexpr std::uint32_t kTotalBits = 11;
  static constexpr std::uint32_t kTotal = 1u << kTotalBits;
  static constexpr int kMoveBits = 5;

  std::uint16_t prob = kTotal / 2;
};

/// Carry-aware range encoder appending its byte stream to a vector.
class RangeEncoder {
 public:
  explicit RangeEncoder(std::vector<std::uint8_t>* out) : out_(out) {}

  /// Register-resident encoding session. The coder state an EncodeBit call
  /// actually mutates per bit (low, range) lives in members; any call into
  /// opaque code (the byte-emitting slow path, a match-finder probe) forces
  /// the compiler to keep members in memory, which puts a store-to-load
  /// round trip on the serial range dependency chain. Hot copies that state
  /// into locals whose address never escapes, so it stays in registers for
  /// the whole parse; the destructor writes it back. At most one Hot may be
  /// live per encoder, and the encoder must not be used directly while one
  /// is. The byte stream is identical either way.
  class Hot {
   public:
    explicit Hot(RangeEncoder& rc) : rc_(rc), low_(rc.low_), range_(rc.range_) {}
    ~Hot() {
      rc_.low_ = low_;
      rc_.range_ = range_;
    }
    Hot(const Hot&) = delete;
    Hot& operator=(const Hot&) = delete;

    /// Encodes `bit` under adaptive model `m`, updating the model.
    void EncodeBit(BitModel& m, int bit) {
      const std::uint32_t prob = m.prob;
      const std::uint32_t bound = (range_ >> BitModel::kTotalBits) * prob;
      // Branch-free: the bit value is data (near-random on noisy payloads)
      // and a branch here mispredicts half the time. The range update is a
      // ternary of two register values, which compiles to a conditional move
      // (shortest serial chain); the side updates use mask arithmetic. All
      // updates are bit-exact vs the branchy form, so the byte stream is
      // unchanged.
      const std::uint32_t mask = 0u - static_cast<std::uint32_t>(bit);  // 0 or ~0
      low_ += bound & mask;
      range_ = bit != 0 ? range_ - bound : bound;
      const std::uint32_t d0 = (BitModel::kTotal - prob) >> BitModel::kMoveBits;
      const std::uint32_t d1 = prob >> BitModel::kMoveBits;
      m.prob = static_cast<std::uint16_t>(prob + (d0 & ~mask) - (d1 & mask));
      // One shift always suffices: probs stay in [31, 2017], so with
      // range >= 2^24 on entry both halves are >= (2^24 >> 11) * 31 > 2^17,
      // and 2^17 << 8 = 2^25 >= kTopValue restores the invariant.
      if (range_ < kTopValue) [[unlikely]] {
        range_ <<= 8;
        low_ = rc_.ShiftLowSlow(low_);
      }
    }

    /// Encodes `count` bits of `value` (MSB first) at fixed probability 1/2.
    void EncodeDirectBits(std::uint32_t value, int count) {
      for (int i = count - 1; i >= 0; --i) {
        range_ >>= 1;  // >= 2^23, so one shift renormalises below
        const std::uint32_t mask = 0u - ((value >> i) & 1u);
        low_ += range_ & mask;
        if (range_ < kTopValue) {
          range_ <<= 8;
          low_ = rc_.ShiftLowSlow(low_);
        }
      }
    }

   private:
    RangeEncoder& rc_;
    std::uint64_t low_;
    std::uint32_t range_;
  };

  /// Encodes `bit` under adaptive model `m`, updating the model.
  void EncodeBit(BitModel& m, int bit) {
    Hot hot(*this);
    hot.EncodeBit(m, bit);
  }

  /// Encodes `count` bits of `value` (MSB first) at fixed probability 1/2.
  void EncodeDirectBits(std::uint32_t value, int count) {
    Hot hot(*this);
    hot.EncodeDirectBits(value, count);
  }

  /// Flushes the final bytes; the encoder must not be used afterwards.
  void Flush() {
    for (int i = 0; i < 5; ++i) ShiftLow();
  }

 private:
  static constexpr std::uint32_t kTopValue = 1u << 24;

  // Runs once per output byte (~1 in 9 model bits). Takes and returns `low`
  // by value: the session's low/range stay in registers (they are
  // non-escaping Hot locals), while the byte-emitting machinery below is the
  // only part that touches memory.
  std::uint64_t ShiftLowSlow(std::uint64_t low) {
    if (static_cast<std::uint32_t>(low) < 0xFF000000u || (low >> 32) != 0) {
      const auto carry = static_cast<std::uint8_t>(low >> 32);
      do {
        Emit(static_cast<std::uint8_t>(cache_ + carry));
        cache_ = 0xFF;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low >> 24);
    }
    ++cache_size_;
    return (low << 8) & 0xFFFFFFFFull;
  }

  void ShiftLow() { low_ = ShiftLowSlow(low_); }

  void Emit(std::uint8_t byte) { out_->push_back(byte); }

  std::vector<std::uint8_t>* out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
};

/// Decoder matching RangeEncoder's byte stream.
class RangeDecoder {
 public:
  /// Binds to `data` and primes the 5-byte code window.
  /// Throws CorruptStream if `data` is shorter than the preamble.
  explicit RangeDecoder(std::span<const std::uint8_t> data);

  /// Decodes one bit under adaptive model `m`.
  int DecodeBit(BitModel& m) {
    const std::uint32_t prob = m.prob;
    const std::uint32_t bound = (range_ >> BitModel::kTotalBits) * prob;
    // Branch-free mirror of EncodeBit: mask is ~0 when the bit is 1.
    const bool one = code_ >= bound;
    const std::uint32_t mask = 0u - static_cast<std::uint32_t>(one);
    code_ -= bound & mask;
    range_ = one ? range_ - bound : bound;
    const std::uint32_t d0 = (BitModel::kTotal - prob) >> BitModel::kMoveBits;
    const std::uint32_t d1 = prob >> BitModel::kMoveBits;
    m.prob = static_cast<std::uint16_t>(prob + (d0 & ~mask) - (d1 & mask));
    if (range_ < kTopValue) {  // single shift: see RangeEncoder::EncodeBit
      range_ <<= 8;
      code_ = (code_ << 8) | NextByte();
    }
    return static_cast<int>(mask & 1u);
  }

  /// Decodes `count` direct (probability 1/2) bits, MSB first.
  std::uint32_t DecodeDirectBits(int count) {
    std::uint32_t result = 0;
    for (int i = 0; i < count; ++i) {
      range_ >>= 1;
      const std::uint32_t mask = 0u - static_cast<std::uint32_t>(code_ >= range_);
      code_ -= range_ & mask;
      result = (result << 1) | (mask & 1u);
      if (range_ < kTopValue) {
        range_ <<= 8;
        code_ = (code_ << 8) | NextByte();
      }
    }
    return result;
  }

  /// Bytes consumed from the input so far (including the 5-byte preamble).
  std::size_t bytes_consumed() const { return pos_; }

 private:
  static constexpr std::uint32_t kTopValue = 1u << 24;

  std::uint8_t NextByte() {
    // Reading past the end returns zeros: the encoder's Flush() emits exactly
    // the bytes needed, and trailing zero reads only occur on the final symbol.
    return pos_ < data_.size() ? data_[pos_++] : 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

/// A complete binary tree of adaptive bit models encoding `Bits`-wide symbols.
/// Encode/Decode are templated on the coder so a RangeEncoder and its
/// register-resident Hot session drive the same tree layout.
template <int Bits>
class BitTree {
 public:
  static constexpr int kBits = Bits;

  template <class Encoder>
  void Encode(Encoder& rc, std::uint32_t symbol) {
    std::uint32_t node = 1;
    for (int i = Bits - 1; i >= 0; --i) {
      const int bit = static_cast<int>((symbol >> i) & 1u);
      rc.EncodeBit(models_[node], bit);
      node = (node << 1) | static_cast<std::uint32_t>(bit);
    }
  }

  template <class Decoder>
  std::uint32_t Decode(Decoder& rc) {
    std::uint32_t node = 1;
    for (int i = 0; i < Bits; ++i) {
      node = (node << 1) | static_cast<std::uint32_t>(rc.DecodeBit(models_[node]));
    }
    return node - (1u << Bits);
  }

 private:
  std::array<BitModel, std::size_t{1} << Bits> models_{};
};

}  // namespace vtp::compress
