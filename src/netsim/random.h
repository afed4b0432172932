// Seeded random number generation for deterministic experiments.
//
// Every stochastic component in the simulator draws from an Rng owned by the
// Simulator, so a (scenario, seed) pair fully determines an experiment run —
// the property the paper's "repeat each experiment at least five times"
// methodology needs for reproducibility.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace vtp::net {

/// MT19937-64, bit-identical to `std::mt19937_64`: the same seeding
/// recurrence, twist and tempering, so every seed yields the same stream.
/// The twist selects the matrix term with a mask instead of libstdc++'s
/// `(y & 1) ? a : 0`, a data-dependent branch that mispredicts half the time.
/// Satisfies UniformRandomBitGenerator, so the standard distributions accept it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = kInitMult * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    if (p_ >= kN) Twist();
    std::uint64_t z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLower = ~kUpper;
  static constexpr std::uint64_t kInitMult = 6364136223846793005ull;

  static std::uint64_t Mix(std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  }

  void Twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = Mix(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = Mix(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = Mix(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::array<std::uint64_t, kN> x_;
  std::size_t p_ = kN;
};

/// The distributions the simulator needs, on Mt19937_64. Uniform, Normal and
/// Exponential replicate libstdc++'s algorithms (GCC 12) exactly, so every
/// draw sequence matches the `std::` distributions on `std::mt19937_64`
/// bit for bit; UniformInt uses `std::uniform_int_distribution` itself.
/// Cheap to pass by reference; not thread-safe by design (the simulator is
/// single-threaded).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return Canonical(engine_()); }

  /// Maps one 64-bit draw to [0, 1) as `std::generate_canonical<double, 53>`
  /// does on a 64-bit engine: the draw scaled by 2^-64. The halves convert
  /// exactly and their sum rounds once, so the result is the same double as
  /// a direct u64->double conversion, without its sign-bit branch.
  static double Canonical(std::uint64_t r) {
    const double d = static_cast<double>(static_cast<std::uint32_t>(r >> 32)) * 0x1p32 +
                     static_cast<double>(static_cast<std::uint32_t>(r));
    const double u = d * 0x1p-64;
    // Draws of 2^64 - 2^10 and above round to 2^64, so u == 1; libstdc++ clamps them.
    return u >= 1.0 ? kBelowOne : u;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation: the Marsaglia polar
  /// method of `std::normal_distribution`, built fresh per call, so the
  /// second variate of each pair is discarded.
  double Normal(double mean, double stddev) {
    double x, y, r2;
    do {
      x = 2.0 * Uniform() - 1.0;
      y = 2.0 * Uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }

  /// Exponential with the given rate (mean 1/rate), by inversion as
  /// `std::exponential_distribution` does.
  double Exponential(double rate) { return -std::log(1.0 - Uniform()) / rate; }

  /// Bernoulli trial with probability `p` of true.
  bool Chance(double p) { return Uniform() < p; }

  /// Raw 64-bit draw (for deriving sub-seeds).
  std::uint64_t NextU64() { return engine_(); }

 private:
  static constexpr double kBelowOne = 1.0 - 0x1p-53;  // std::nextafter(1.0, 0.0)

  Mt19937_64 engine_;
};

// --- counter-based per-stream seed derivation --------------------------------
//
// The sharded simulation core gives every stochastic entity its own Rng,
// seeded by a pure function of (experiment seed, logical domain, logical
// stream id). The ids are *logical* — a session index, a directed-link id, a
// metro index — never a physical shard index, so moving an entity between
// shards (or changing the shard count) cannot perturb any draw sequence.
// That property is what makes fleet digests bit-identical at 1, 2, and 4
// shards (see DESIGN §12 and the regression tests in test_fleet.cc).

/// Namespaces for derived streams; each (domain, stream) pair is independent.
enum class RngDomain : std::uint64_t {
  kArrivals = 1,        ///< fleet session arrival/departure process
  kSessionTraffic = 2,  ///< per-sender frame-size / behaviour draws
  kLinkFaults = 3,      ///< per-directed-link loss/jitter/fault draws
  kShardCore = 4,       ///< per-shard Simulator-owned Rng (engine-internal)
};

/// SplitMix64 finalizer: a cheap, well-mixed 64->64 bijection.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Derives the seed for stream `stream` of `domain` under experiment `seed`.
/// Counter-based (three chained SplitMix64 rounds), so no draw from one
/// stream is ever consumed to seed another.
constexpr std::uint64_t DeriveSeed(std::uint64_t seed, RngDomain domain, std::uint64_t stream) {
  return SplitMix64(SplitMix64(SplitMix64(seed) ^ static_cast<std::uint64_t>(domain)) ^ stream);
}

}  // namespace vtp::net
