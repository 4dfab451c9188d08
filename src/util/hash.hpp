// Splittable 64-bit hashing — the single home for hash primitives.
//
// Every mixing constant in the repo lives here (tools/lint.py's `raw-hash`
// rule enforces it) so the generator, the propagation engine, and any
// future consumer derive their bits from one audited construction.  All
// functions are deterministic pure functions of their inputs: the same
// item always yields the same hash on every platform.  That is what makes
// the generator's per-(AS, origin) decisions reproducible without replaying
// a sequential RNG, and a seed yield the same internet on every machine and
// at every `--jobs` value.
#pragma once

#include <cstdint>

namespace htor {

/// Fast, well-distributed 64-bit mix (Steele et al.'s SplitMix64 finalizer).
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Combine two words so that neither can cancel the other.
inline std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ splitmix64(b));
}

/// Deterministic uniform double in [0, 1) from a hash value.
inline double hash_unit(std::uint64_t h) {
  return static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
}

}  // namespace htor
