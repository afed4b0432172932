// Portable SIMD wrapper for the codec hot paths (DCT/quant, match extend,
// block SAD). One 4-lane float vector type plus a handful of byte-vector
// helpers, implemented three ways and selected at compile time:
//
//   * SSE2  — any x86_64 (SSE2 is baseline for the ABI);
//   * NEON  — aarch64 (Advanced SIMD is baseline there too);
//   * scalar — everything else, or any build with -DVTP_SIMD_SCALAR=1. The
//     scalar structs perform the identical per-lane operations, so the
//     portable leg exercises the same numerics and the CI scalar build
//     keeps this path from rotting.
//
// Deliberate restrictions, so results are reproducible per build:
//   * no FMA anywhere — Madd() is an explicit multiply then add in all three
//     backends (fused contraction would change video-codec rounding between
//     machines);
//   * RoundToInt() is round-to-nearest-even in all backends (cvtps2dq /
//     vcvtnq / nearbyintf under the default FE_TONEAREST mode) — never
//     lround's half-away-from-zero, which SSE2 cannot express cheaply.
//
// Everything is header-inline; the wrapper adds no dispatch cost.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(VTP_SIMD_SCALAR)
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define VTP_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) || defined(_M_ARM64)
#define VTP_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace vtp::simd {

/// Compile-time ISA the wrapper resolved to (test_core checks it per build).
inline constexpr const char* kIsaName =
#if defined(VTP_SIMD_SSE2)
    "sse2";
#elif defined(VTP_SIMD_NEON)
    "neon";
#else
    "scalar";
#endif

/// True when a vector ISA is active (the scalar leg reports false).
inline constexpr bool kVectorIsa =
#if defined(VTP_SIMD_SSE2) || defined(VTP_SIMD_NEON)
    true;
#else
    false;
#endif

// ---------------------------------------------------------------------------
// F32x4: four packed floats.
// ---------------------------------------------------------------------------

#if defined(VTP_SIMD_SSE2)

struct F32x4 {
  __m128 v;
};

inline F32x4 Load(const float* p) { return {_mm_loadu_ps(p)}; }
inline void Store(float* p, F32x4 a) { _mm_storeu_ps(p, a.v); }
inline F32x4 Broadcast(float x) { return {_mm_set1_ps(x)}; }
inline F32x4 Zero() { return {_mm_setzero_ps()}; }
inline F32x4 Add(F32x4 a, F32x4 b) { return {_mm_add_ps(a.v, b.v)}; }
inline F32x4 Sub(F32x4 a, F32x4 b) { return {_mm_sub_ps(a.v, b.v)}; }
inline F32x4 Mul(F32x4 a, F32x4 b) { return {_mm_mul_ps(a.v, b.v)}; }
/// a*b + c, computed as separate multiply and add (never fused).
inline F32x4 Madd(F32x4 a, F32x4 b, F32x4 c) { return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)}; }
inline F32x4 Min(F32x4 a, F32x4 b) { return {_mm_min_ps(a.v, b.v)}; }
inline F32x4 Max(F32x4 a, F32x4 b) { return {_mm_max_ps(a.v, b.v)}; }

/// Round-to-nearest-even each lane and store four int32s.
inline void RoundToInt(F32x4 a, std::int32_t* out) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_cvtps_epi32(a.v));
}

/// Four int32 -> four float.
inline F32x4 FromInt(const std::int32_t* p) {
  return {_mm_cvtepi32_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
}

#elif defined(VTP_SIMD_NEON)

struct F32x4 {
  float32x4_t v;
};

inline F32x4 Load(const float* p) { return {vld1q_f32(p)}; }
inline void Store(float* p, F32x4 a) { vst1q_f32(p, a.v); }
inline F32x4 Broadcast(float x) { return {vdupq_n_f32(x)}; }
inline F32x4 Zero() { return {vdupq_n_f32(0.0f)}; }
inline F32x4 Add(F32x4 a, F32x4 b) { return {vaddq_f32(a.v, b.v)}; }
inline F32x4 Sub(F32x4 a, F32x4 b) { return {vsubq_f32(a.v, b.v)}; }
inline F32x4 Mul(F32x4 a, F32x4 b) { return {vmulq_f32(a.v, b.v)}; }
inline F32x4 Madd(F32x4 a, F32x4 b, F32x4 c) { return {vaddq_f32(vmulq_f32(a.v, b.v), c.v)}; }
inline F32x4 Min(F32x4 a, F32x4 b) { return {vminq_f32(a.v, b.v)}; }
inline F32x4 Max(F32x4 a, F32x4 b) { return {vmaxq_f32(a.v, b.v)}; }

inline void RoundToInt(F32x4 a, std::int32_t* out) { vst1q_s32(out, vcvtnq_s32_f32(a.v)); }

inline F32x4 FromInt(const std::int32_t* p) { return {vcvtq_f32_s32(vld1q_s32(p))}; }

#else  // scalar fallback

struct F32x4 {
  float v[4];
};

inline F32x4 Load(const float* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void Store(float* p, F32x4 a) {
  for (int i = 0; i < 4; ++i) p[i] = a.v[i];
}
inline F32x4 Broadcast(float x) { return {{x, x, x, x}}; }
inline F32x4 Zero() { return {{0, 0, 0, 0}}; }
inline F32x4 Add(F32x4 a, F32x4 b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]}};
}
inline F32x4 Sub(F32x4 a, F32x4 b) {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2], a.v[3] - b.v[3]}};
}
inline F32x4 Mul(F32x4 a, F32x4 b) {
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2], a.v[3] * b.v[3]}};
}
inline F32x4 Madd(F32x4 a, F32x4 b, F32x4 c) { return Add(Mul(a, b), c); }
inline F32x4 Min(F32x4 a, F32x4 b) {
  F32x4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline F32x4 Max(F32x4 a, F32x4 b) {
  F32x4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}

inline void RoundToInt(F32x4 a, std::int32_t* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::int32_t>(std::nearbyintf(a.v[i]));
}

inline F32x4 FromInt(const std::int32_t* p) {
  return {{static_cast<float>(p[0]), static_cast<float>(p[1]), static_cast<float>(p[2]),
           static_cast<float>(p[3])}};
}

#endif

// ---------------------------------------------------------------------------
// Pixel-row conversions (one 8-pixel codec-block row per call).
// ---------------------------------------------------------------------------

/// Widens 8 bytes to 8 floats (lanes 0..3 in `lo`, 4..7 in `hi`).
inline void LoadU8x8(const std::uint8_t* p, F32x4* lo, F32x4* hi) {
#if defined(VTP_SIMD_SSE2)
  const __m128i zero = _mm_setzero_si128();
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  const __m128i w = _mm_unpacklo_epi8(b, zero);
  lo->v = _mm_cvtepi32_ps(_mm_unpacklo_epi16(w, zero));
  hi->v = _mm_cvtepi32_ps(_mm_unpackhi_epi16(w, zero));
#elif defined(VTP_SIMD_NEON)
  const uint16x8_t w = vmovl_u8(vld1_u8(p));
  lo->v = vcvtq_f32_u32(vmovl_u16(vget_low_u16(w)));
  hi->v = vcvtq_f32_u32(vmovl_u16(vget_high_u16(w)));
#else
  for (int i = 0; i < 4; ++i) lo->v[i] = static_cast<float>(p[i]);
  for (int i = 0; i < 4; ++i) hi->v[i] = static_cast<float>(p[4 + i]);
#endif
}

/// Narrows 8 floats to 8 bytes: clamp to [0, 255], then truncate toward zero
/// (the semantics of `static_cast<uint8_t>(std::clamp(v, 0.f, 255.f))`, which
/// all three backends reproduce exactly).
inline void StoreU8x8(F32x4 lo, F32x4 hi, std::uint8_t* p) {
#if defined(VTP_SIMD_SSE2)
  const __m128 maxv = _mm_set1_ps(255.0f), minv = _mm_setzero_ps();
  const __m128i a = _mm_cvttps_epi32(_mm_min_ps(_mm_max_ps(lo.v, minv), maxv));
  const __m128i b = _mm_cvttps_epi32(_mm_min_ps(_mm_max_ps(hi.v, minv), maxv));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                   _mm_packus_epi16(_mm_packs_epi32(a, b), _mm_setzero_si128()));
#elif defined(VTP_SIMD_NEON)
  const float32x4_t maxv = vdupq_n_f32(255.0f), minv = vdupq_n_f32(0.0f);
  const int32x4_t a = vcvtq_s32_f32(vminq_f32(vmaxq_f32(lo.v, minv), maxv));
  const int32x4_t b = vcvtq_s32_f32(vminq_f32(vmaxq_f32(hi.v, minv), maxv));
  vst1_u8(p, vqmovun_s16(vcombine_s16(vqmovn_s32(a), vqmovn_s32(b))));
#else
  for (int i = 0; i < 4; ++i) {
    const float v = lo.v[i] < 0.0f ? 0.0f : (lo.v[i] > 255.0f ? 255.0f : lo.v[i]);
    p[i] = static_cast<std::uint8_t>(v);
  }
  for (int i = 0; i < 4; ++i) {
    const float v = hi.v[i] < 0.0f ? 0.0f : (hi.v[i] > 255.0f ? 255.0f : hi.v[i]);
    p[4 + i] = static_cast<std::uint8_t>(v);
  }
#endif
}

/// Bit i of the result is set iff p[i] != 0 (four int32 lanes). Lets scans
/// skip all-zero coefficient groups with one test.
inline std::uint32_t NonzeroMask4(const std::int32_t* p) {
#if defined(VTP_SIMD_SSE2)
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i z = _mm_cmpeq_epi32(v, _mm_setzero_si128());
  return ~static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(z))) & 0xFu;
#elif defined(VTP_SIMD_NEON)
  const uint32x4_t nz = vmvnq_u32(vceqzq_s32(vld1q_s32(p)));
  const uint32x4_t bits = {1u, 2u, 4u, 8u};
  return vaddvq_u32(vandq_u32(nz, bits));
#else
  return static_cast<std::uint32_t>(p[0] != 0) | (static_cast<std::uint32_t>(p[1] != 0) << 1) |
         (static_cast<std::uint32_t>(p[2] != 0) << 2) |
         (static_cast<std::uint32_t>(p[3] != 0) << 3);
#endif
}

// ---------------------------------------------------------------------------
// Byte-vector helpers.
// ---------------------------------------------------------------------------

/// Length of the common prefix of a[0..16) and b[0..16), in bytes (0..16).
/// The caller guarantees 16 readable bytes on both sides.
inline std::uint32_t CommonPrefix16(const std::uint8_t* a, const std::uint8_t* b) {
#if defined(VTP_SIMD_SSE2)
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const std::uint32_t eq =
      static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)));
  const std::uint32_t neq = ~eq & 0xFFFFu;
  if (neq == 0) return 16;
  return static_cast<std::uint32_t>(__builtin_ctz(neq));
#elif defined(VTP_SIMD_NEON)
  const uint8x16_t va = vld1q_u8(a);
  const uint8x16_t vb = vld1q_u8(b);
  const uint8x16_t ne = veorq_u8(va, vb);
  // Narrow each byte's top nibble into a 64-bit mask: 4 bits per byte.
  const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(ne), 4);
  const std::uint64_t mask = vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
  if (mask == 0) return 16;
  return static_cast<std::uint32_t>(__builtin_ctzll(mask) >> 2);
#else
  // Word-at-a-time, same semantics.
  for (std::uint32_t off = 0; off < 16; off += 8) {
    std::uint64_t va, vb;
    std::memcpy(&va, a + off, 8);
    std::memcpy(&vb, b + off, 8);
    const std::uint64_t x = va ^ vb;
    if (x != 0) {
      // Byte loop to locate the mismatch: endianness-independent.
      std::uint32_t i = 0;
      while (i < 8 && a[off + i] == b[off + i]) ++i;
      return off + i;
    }
  }
  return 16;
#endif
}

/// Sum of absolute differences over 8 bytes (one codec-block row).
inline std::uint32_t Sad8(const std::uint8_t* a, const std::uint8_t* b) {
#if defined(VTP_SIMD_SSE2)
  const __m128i va = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_sad_epu8(va, vb)));
#elif defined(VTP_SIMD_NEON)
  const uint8x8_t va = vld1_u8(a);
  const uint8x8_t vb = vld1_u8(b);
  return vaddlv_u8(vabd_u8(va, vb));
#else
  std::uint32_t sum = 0;
  for (int i = 0; i < 8; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    sum += static_cast<std::uint32_t>(d < 0 ? -d : d);
  }
  return sum;
#endif
}

/// Sum of absolute differences over 16 bytes.
inline std::uint32_t Sad16(const std::uint8_t* a, const std::uint8_t* b) {
#if defined(VTP_SIMD_SSE2)
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i sad = _mm_sad_epu8(va, vb);  // two u16 partial sums in lanes 0, 4
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(sad)) +
         static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(sad, 8)));
#elif defined(VTP_SIMD_NEON)
  const uint8x16_t va = vld1q_u8(a);
  const uint8x16_t vb = vld1q_u8(b);
  return vaddvq_u16(vpaddlq_u8(vabdq_u8(va, vb)));
#else
  std::uint32_t sum = 0;
  for (int i = 0; i < 16; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    sum += static_cast<std::uint32_t>(d < 0 ? -d : d);
  }
  return sum;
#endif
}

}  // namespace vtp::simd
