// HyperLogLog cardinality estimator (Flajolet et al. 2007), dense layout.
//
// Design constraints, in order:
//   * Mergeable: `merge()` is the elementwise register max, so it is
//     commutative, associative, and idempotent — per-shard sketches fed in
//     any order and merged in shard order give byte-identical registers at
//     every `--jobs` value, and re-feeding an already-counted stream
//     cannot move the estimate.
//   * Deterministic: one seed, one hash function (util/hash.hpp),
//     no floating-point accumulation during ingest — doubles only appear
//     in `estimate()`, computed from integer registers.
//   * Header-only and dense: precision p gives 2^p uint8 registers
//     (16 KiB at the default p=14, standard error 1.04/sqrt(2^14) ≈ 0.81%,
//     comfortably inside the repo's 2%-of-exact acceptance bound).
//
// The estimator uses the classic alpha_m bias correction plus the
// linear-counting small-range correction.  The large-range correction is
// deliberately omitted: it exists for 32-bit hash saturation and we hash
// to 64 bits.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/sketch/hash.hpp"

namespace htor::obs::sketch {

class Hll {
 public:
  static constexpr std::uint32_t kDefaultPrecision = 14;
  static constexpr std::uint32_t kMinPrecision = 4;
  static constexpr std::uint32_t kMaxPrecision = 18;

  explicit Hll(std::uint32_t precision = kDefaultPrecision, std::uint64_t seed = 0)
      : precision_(precision), seed_(seed) {
    if (precision < kMinPrecision || precision > kMaxPrecision) {
      throw std::invalid_argument("Hll: precision out of [4, 18]");
    }
    registers_.assign(std::size_t{1} << precision, 0);
  }

  std::uint32_t precision() const { return precision_; }
  std::uint64_t seed() const { return seed_; }

  void add(std::uint64_t item) {
    const std::uint64_t h = hash64(seed_, item);
    const std::size_t index = static_cast<std::size_t>(h >> (64 - precision_));
    // Rank of the remaining (64 - p) bits: position of the leftmost 1,
    // counting from 1; all-zero tail gets the maximum rank.
    const std::uint64_t tail = h << precision_;
    const std::uint8_t rank = static_cast<std::uint8_t>(
        tail == 0 ? (64 - precision_ + 1) : (__builtin_clzll(tail) + 1));
    if (rank > registers_[index]) registers_[index] = rank;
  }

  /// Elementwise max.  Throws on precision/seed mismatch — merging sketches
  /// of different shapes silently would corrupt both.
  void merge(const Hll& other) {
    if (other.precision_ != precision_ || other.seed_ != seed_) {
      throw std::invalid_argument("Hll::merge: precision/seed mismatch");
    }
    for (std::size_t i = 0; i < registers_.size(); ++i) {
      if (other.registers_[i] > registers_[i]) registers_[i] = other.registers_[i];
    }
  }

  double estimate() const {
    const double m = static_cast<double>(registers_.size());
    double inverse_sum = 0.0;
    std::size_t zeros = 0;
    for (std::uint8_t reg : registers_) {
      inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
      if (reg == 0) ++zeros;
    }
    const double raw = alpha(registers_.size()) * m * m / inverse_sum;
    if (raw <= 2.5 * m && zeros != 0) {
      return m * std::log(m / static_cast<double>(zeros));  // linear counting
    }
    return raw;
  }

  /// Estimate rounded to a whole count, for integer-valued gauges.
  std::int64_t estimate_count() const {
    return static_cast<std::int64_t>(std::llround(estimate()));
  }

  bool empty() const {
    for (std::uint8_t reg : registers_) {
      if (reg != 0) return false;
    }
    return true;
  }

  void reset() { registers_.assign(registers_.size(), 0); }

  /// Raw registers — the byte-identity tests compare these directly.
  const std::vector<std::uint8_t>& registers() const { return registers_; }

  /// Resident size in bytes (registers only; the struct itself is tiny).
  std::size_t memory_bytes() const { return registers_.size(); }

 private:
  static double alpha(std::size_t m) {
    switch (m) {
      case 16: return 0.673;
      case 32: return 0.697;
      case 64: return 0.709;
      default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
    }
  }

  std::uint32_t precision_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace htor::obs::sketch
