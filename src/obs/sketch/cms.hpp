// Count-min sketch (Cormode & Muthukrishnan 2005) with deterministic
// heavy-hitter tracking.
//
// The counter plane is the textbook depth × width grid: `update(item, n)`
// adds n to one counter per row (row hash from `seeded(seed, row)`), and
// `query` takes the row-wise minimum, so estimates only ever overcount.
// With width 2^w and depth d the overcount is bounded by 2N/2^w with
// probability 1 - 2^-d (N = total stream weight).
//
// Heavy hitters ride alongside: a bounded candidate map keeps the items
// whose *estimates* are currently largest.  The bound, the pruning order
// (estimate desc, then item asc) and the merge (counter add, candidate
// union, re-prune) are all deterministic, so two sketches fed the same
// multiset of (item, weight) pairs in the same order agree exactly —
// which is what the shard-merge discipline needs.  Because pruning
// decisions do depend on feed order, code that feeds per-shard streams
// sorts them first (see core/pipeline.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/sketch/hash.hpp"

namespace htor::obs::sketch {

class Cms {
 public:
  static constexpr std::uint32_t kDefaultWidthLog2 = 12;  // 4096 columns
  static constexpr std::uint32_t kDefaultDepth = 4;
  static constexpr std::size_t kDefaultTopK = 16;

  explicit Cms(std::uint32_t width_log2 = kDefaultWidthLog2,
               std::uint32_t depth = kDefaultDepth,
               std::size_t top_k = kDefaultTopK,
               std::uint64_t seed = 0)
      : width_log2_(width_log2), depth_(depth), top_k_(top_k), seed_(seed) {
    if (width_log2 < 4 || width_log2 > 24) {
      throw std::invalid_argument("Cms: width_log2 out of [4, 24]");
    }
    if (depth < 1 || depth > 16) throw std::invalid_argument("Cms: depth out of [1, 16]");
    if (top_k < 1) throw std::invalid_argument("Cms: top_k must be >= 1");
    counters_.assign((std::size_t{1} << width_log2) * depth, 0);
  }

  std::uint32_t width_log2() const { return width_log2_; }
  std::uint32_t depth() const { return depth_; }
  std::size_t top_k() const { return top_k_; }
  std::uint64_t seed() const { return seed_; }

  void update(std::uint64_t item, std::uint64_t weight = 1) {
    if (weight == 0) return;
    total_ += weight;
    const std::size_t mask = (std::size_t{1} << width_log2_) - 1;
    std::uint64_t min_after = ~std::uint64_t{0};
    for (std::uint32_t row = 0; row < depth_; ++row) {
      std::uint64_t& cell =
          counters_[(static_cast<std::size_t>(row) << width_log2_) +
                    (hash64(seeded(seed_, row), item) & mask)];
      cell += weight;
      min_after = std::min(min_after, cell);
    }
    note_candidate(item, min_after);
  }

  /// Point estimate — never undercounts the true total for `item`.
  std::uint64_t query(std::uint64_t item) const {
    const std::size_t mask = (std::size_t{1} << width_log2_) - 1;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint32_t row = 0; row < depth_; ++row) {
      best = std::min(best,
                      counters_[(static_cast<std::size_t>(row) << width_log2_) +
                                (hash64(seeded(seed_, row), item) & mask)]);
    }
    return best;
  }

  std::uint64_t total_weight() const { return total_; }

  /// Elementwise counter add + candidate union, re-estimated against the
  /// merged counters and re-pruned.  Throws on shape/seed mismatch.
  void merge(const Cms& other) {
    if (other.width_log2_ != width_log2_ || other.depth_ != depth_ ||
        other.seed_ != seed_ || other.top_k_ != top_k_) {
      throw std::invalid_argument("Cms::merge: shape/seed mismatch");
    }
    for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
    total_ += other.total_;
    for (const auto& [item, estimate] : other.candidates_) {
      (void)estimate;
      candidates_[item] = 0;  // re-estimated below against merged counters
    }
    for (auto& [item, estimate] : candidates_) estimate = query(item);
    prune();
  }

  struct HeavyHitter {
    std::uint64_t item;
    std::uint64_t estimate;

    friend bool operator==(const HeavyHitter&, const HeavyHitter&) = default;
  };

  /// Top candidates, sorted by estimate desc then item asc.  At most
  /// `top_k()` entries; estimates are re-read from the counters so they
  /// reflect every update, not the value at candidate-admission time.
  std::vector<HeavyHitter> top() const {
    std::vector<HeavyHitter> out;
    out.reserve(candidates_.size());
    for (const auto& [item, estimate] : candidates_) {
      (void)estimate;
      out.push_back({item, query(item)});
    }
    std::sort(out.begin(), out.end(), [](const HeavyHitter& a, const HeavyHitter& b) {
      if (a.estimate != b.estimate) return a.estimate > b.estimate;
      return a.item < b.item;
    });
    if (out.size() > top_k_) out.resize(top_k_);
    return out;
  }

  void reset() {
    counters_.assign(counters_.size(), 0);
    candidates_.clear();
    total_ = 0;
    floor_ = 0;
  }

  const std::vector<std::uint64_t>& counters() const { return counters_; }

  std::size_t memory_bytes() const {
    return counters_.size() * sizeof(std::uint64_t) +
           candidates_.size() * (sizeof(std::uint64_t) * 2 + 48);  // map node overhead
  }

 private:
  // Candidate set holds the items with the largest estimates, up to 4*top_k
  // retained so a heavy item that starts slow is not evicted by early
  // noise.  Two guards keep this off the per-update critical path on
  // adversarial (near-uniform) streams: an admission floor — the smallest
  // estimate the last prune retained — rejects items that cannot displace
  // anything, and the set grows to 8*top_k before the O(n log n) prune
  // cuts it back, so the sort amortises over at least 4*top_k admissions
  // instead of firing per update.  A heavy item skipped early is re-offered
  // with a larger estimate on every later update, so it is admitted as
  // soon as it matters.  Every decision is a pure function of the feed
  // order, preserving the shard-merge determinism.
  void note_candidate(std::uint64_t item, std::uint64_t estimate) {
    const auto it = candidates_.find(item);
    if (it != candidates_.end()) {
      it->second = estimate;
      return;
    }
    if (candidates_.size() >= top_k_ * 4 && estimate <= floor_) return;
    candidates_[item] = estimate;
    if (candidates_.size() > top_k_ * 8) prune();
  }

  /// Cut the candidates back to 4*top_k in (estimate desc, item asc) order
  /// and remember the smallest retained estimate as the admission floor.
  void prune() {
    if (candidates_.size() <= top_k_ * 4) return;
    std::vector<HeavyHitter> ranked;
    ranked.reserve(candidates_.size());
    for (const auto& [item, estimate] : candidates_) ranked.push_back({item, estimate});
    std::sort(ranked.begin(), ranked.end(), [](const HeavyHitter& a, const HeavyHitter& b) {
      if (a.estimate != b.estimate) return a.estimate > b.estimate;
      return a.item < b.item;
    });
    ranked.resize(top_k_ * 4);
    candidates_.clear();
    for (const HeavyHitter& hh : ranked) candidates_[hh.item] = hh.estimate;
    floor_ = ranked.back().estimate;
  }

  std::uint32_t width_log2_;
  std::uint32_t depth_;
  std::size_t top_k_;
  std::uint64_t seed_;
  std::uint64_t total_ = 0;
  std::uint64_t floor_ = 0;  ///< admission floor from the last prune
  std::vector<std::uint64_t> counters_;
  std::map<std::uint64_t, std::uint64_t> candidates_;  // item -> last estimate
};

}  // namespace htor::obs::sketch
