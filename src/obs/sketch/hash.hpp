// The sketch layer's hash family: util/hash.hpp's primitives under one
// fixed process-wide seed.
#pragma once

#include <cstdint>

#include "util/hash.hpp"

namespace htor::obs::sketch {

/// Fixed seed for every process-wide sketch.  One seed, one hash family:
/// estimates are reproducible across runs, machines, and job counts.
inline constexpr std::uint64_t kTelemetrySeed = 0x51ab;

}  // namespace htor::obs::sketch
