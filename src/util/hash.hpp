// Splittable 64-bit hashing — the single home for hash primitives.
//
// Every mixing constant in the repo lives here (tools/lint.py's `raw-hash`
// rule enforces it) so the sketches, the generator, and any future consumer
// derive their bits from one audited construction.  All functions are
// deterministic pure functions of their inputs: the same (seed, item)
// always yields the same hash on every platform.  That is what makes the
// generator's per-(AS, origin) decisions reproducible without replaying a
// sequential RNG, and the sketches byte-identical across shard counts and
// `--jobs` values.
//
// `seeded(seed, lane)` splits one user seed into independent lanes (CMS
// rows) without correlated streams: each lane is a full splitmix64 walk
// away from its neighbours.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

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

/// Hash of `item` under `seed`.  Distinct seeds give independent hash
/// functions of the same item — the basis for every sketch.
inline std::uint64_t hash64(std::uint64_t seed, std::uint64_t item) {
  return hash_mix(splitmix64(seed), item);
}

/// Derive the seed for lane `lane` of a multi-row sketch from one user
/// seed.  Each lane is an independent hash function family member.
inline std::uint64_t seeded(std::uint64_t seed, std::uint64_t lane) {
  return splitmix64(seed + splitmix64(lane + 1));
}

/// FNV-1a over raw bytes, finalized through splitmix64 so short keys
/// still fill all 64 bits.  For hashing string-ish identities (prefixes
/// rendered as text, file names) into the uint64 item space.
inline std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed = 0) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ splitmix64(seed);
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return splitmix64(h);
}

}  // namespace htor
