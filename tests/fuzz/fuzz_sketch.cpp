// Fuzz target: the sketch layer (obs/sketch/ Hll, Cms).
//
// The sketches are not wire decoders — their contract is stronger: for ANY
// in-range shape and ANY item stream they never throw, and the algebraic
// invariants the telemetry layer rests on hold unconditionally:
//
//   * HLL merge is commutative and idempotent (register-for-register);
//   * CMS point queries never undercount a tracked exact tally, before or
//     after a merge, and total_weight is exactly additive.
//
// The harness maps the fuzz bytes onto an op stream: byte 0 picks the
// sketch shapes, then 9-byte chunks [opcode][item, little-endian] drive
// adds/updates into two shards of each sketch plus periodic
// invariant checkpoints.  A trailing partial chunk is the one malformed
// input and is rejected with a reasoned ParseError; an invariant violation
// throws std::logic_error, which the driver counts as a contract breach.
#include "fuzz/driver.hpp"

#include <map>

#include "obs/sketch/cms.hpp"
#include "obs/sketch/hll.hpp"

using namespace htor;
using namespace htor::obs::sketch;

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::logic_error(std::string("sketch invariant violated: ") + what);
}

/// Two shards of each sketch plus bounded exact baselines, driven by ops.
struct Machine {
  Hll hll_a, hll_b;
  Cms cms_a, cms_b;
  std::map<std::uint64_t, std::uint64_t> exact_counts;  // item -> true total

  static constexpr std::size_t kExactTracked = 64;

  explicit Machine(std::uint8_t shape)
      : hll_a(10 + shape % 5, kTelemetrySeed),
        hll_b(10 + shape % 5, kTelemetrySeed),
        cms_a(8 + shape % 5, 2 + shape % 3, 8, kTelemetrySeed),
        cms_b(8 + shape % 5, 2 + shape % 3, 8, kTelemetrySeed) {}

  void cms_update(Cms& cms, std::uint64_t item, std::uint64_t weight) {
    cms.update(item, weight);
    if (exact_counts.size() < kExactTracked || exact_counts.count(item) != 0) {
      exact_counts[item] += weight;
    }
  }

  void step(std::uint8_t opcode, std::uint64_t item) {
    switch (opcode % 6) {
      case 0: hll_a.add(item); break;
      case 1: hll_b.add(item); break;
      case 2: cms_update(cms_a, item, (item >> 56) + 1); break;
      case 3: cms_update(cms_b, item, 1); break;
      case 4: check_invariants(); break;
      case 5:
      default: {
        const double estimate = hll_a.estimate();
        require(std::isfinite(estimate) && estimate >= 0.0, "HLL estimate finite and >= 0");
        (void)cms_a.query(item);
        break;
      }
    }
  }

  void check_invariants() const {
    // HLL: merge commutes register-for-register and is idempotent.
    Hll ab = hll_a;
    ab.merge(hll_b);
    Hll ba = hll_b;
    ba.merge(hll_a);
    require(ab.registers() == ba.registers(), "HLL merge commutativity");
    Hll aa = hll_a;
    aa.merge(hll_a);
    require(aa.registers() == hll_a.registers(), "HLL merge idempotence");
    require(std::isfinite(ab.estimate()) && ab.estimate() >= 0.0, "merged HLL estimate sane");

    // CMS: the merged sketch never undercounts any tracked item, and the
    // stream weight is exactly additive.
    Cms merged = cms_a;
    merged.merge(cms_b);
    require(merged.total_weight() == cms_a.total_weight() + cms_b.total_weight(),
            "CMS total_weight additivity");
    for (const auto& [item, true_count] : exact_counts) {
      require(merged.query(item) >= true_count, "CMS never undercounts");
    }
    require(merged.top().size() <= merged.top_k(), "CMS top() bounded by top_k");
  }
};

}  // namespace

int main(int argc, char** argv) {
  return fuzz::run_target("fuzz_sketch", argc, argv, [](const std::vector<std::uint8_t>& input) {
    if (input.empty()) return fuzz::Outcome::Parsed;  // no ops, nothing to do
    if ((input.size() - 1) % 9 != 0) {
      throw ParseError("sketch op stream has a trailing partial chunk");
    }
    Machine machine(input[0]);
    for (std::size_t at = 1; at + 9 <= input.size(); at += 9) {
      std::uint64_t item = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        item |= static_cast<std::uint64_t>(input[at + 1 + b]) << (8 * b);
      }
      machine.step(input[at], item);
    }
    machine.check_invariants();
    return fuzz::Outcome::Parsed;
  });
}
