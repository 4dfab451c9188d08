#include "core/valley_census.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/parallel.hpp"
#include "topology/reachability.hpp"

namespace htor::core {

/// Dense valley-free-reachability oracle over the links of a relationship
/// map, with per-source memoization (sources are the few vantage ASes).
class ReachOracle {
 public:
  explicit ReachOracle(const RelationshipMap& rels) {
    rels.for_each([this](const LinkKey& key, Relationship rel) {
      const std::uint32_t a = intern(key.first);
      const std::uint32_t b = intern(key.second);
      adj_[a].push_back({b, edge_kind(rel)});
      adj_[b].push_back({a, edge_kind(reverse(rel))});
    });
  }

  bool known(Asn asn) const { return index_.count(asn) != 0; }

  /// The BFS itself, memo-free — safe to call from pool workers for
  /// distinct sources.  `src` must be known().
  std::vector<std::int32_t> distances_from(Asn src) const {
    return valley_free_distances(adj_, index_.at(src));
  }

  /// Install a precomputed distance vector for `src`.
  void memoize(Asn src, std::vector<std::int32_t> distances) {
    cache_[index_.at(src)] = std::move(distances);
  }

  /// False when src/dst unknown or no valley-free path.
  bool reachable(Asn src, Asn dst) {
    auto s = index_.find(src);
    auto d = index_.find(dst);
    if (s == index_.end() || d == index_.end()) return false;
    auto [it, inserted] = cache_.try_emplace(s->second);
    if (inserted) it->second = valley_free_distances(adj_, s->second);
    return it->second[d->second] != kUnreachable;
  }

 private:
  std::uint32_t intern(Asn asn) {
    auto [it, inserted] = index_.try_emplace(asn, static_cast<std::uint32_t>(adj_.size()));
    if (inserted) adj_.emplace_back();
    return it->second;
  }

  std::unordered_map<Asn, std::uint32_t> index_;
  AdjacencyList adj_;
  std::unordered_map<std::uint32_t, std::vector<std::int32_t>> cache_;
};

namespace {

/// `value` moved by one in the direction of `sign`.
void step(std::uint64_t& value, int sign) {
  if (sign > 0) {
    ++value;
  } else {
    --value;
  }
}

std::uint64_t pack(Asn src, Asn dst) { return static_cast<std::uint64_t>(src) << 32 | dst; }
Asn src_of(std::uint64_t pair) { return static_cast<Asn>(pair >> 32); }
Asn dst_of(std::uint64_t pair) { return static_cast<Asn>(pair); }

/// One shard's counters plus the endpoint pairs of its testable valleys.
struct CensusShard {
  ValleyCensus counters;
  std::vector<std::pair<Asn, Asn>> candidates;
};

}  // namespace

PathVerdict classify_path(std::span<const Asn> path, const RelationshipMap& rels) {
  const ValleyCheckResult check = check_valley_free(path, rels);
  // A valley with unknown links has typed endpoints but gaps remain.
  return PathVerdict{check.cls, check.cls == PathPolicyClass::Valley && check.unknown_links == 0};
}

void ValleyCensus::count(const PathVerdict& verdict, int sign) {
  step(paths, sign);
  switch (verdict.cls) {
    case PathPolicyClass::ValleyFree: step(valley_free, sign); break;
    case PathPolicyClass::Incomplete: step(incomplete, sign); break;
    case PathPolicyClass::Valley: step(valley, sign); break;
  }
  if (verdict.testable) step(classified_valleys, sign);
}

NecessityIndex::NecessityIndex() = default;

NecessityIndex::NecessityIndex(const std::vector<std::pair<Asn, Asn>>& pairs) {
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) keys.push_back(pack(src, dst));
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    if (pairs_.empty() || pairs_.back().first != key) pairs_.emplace_back(key, 0);
    ++pairs_.back().second;
  }
}
NecessityIndex::~NecessityIndex() = default;
NecessityIndex::NecessityIndex(const NecessityIndex& other)
    : pairs_(other.pairs_),
      oracle_(other.oracle_ != nullptr ? std::make_unique<ReachOracle>(*other.oracle_) : nullptr),
      necessary_(other.necessary_) {}
NecessityIndex& NecessityIndex::operator=(const NecessityIndex& other) {
  if (this != &other) *this = NecessityIndex(other);
  return *this;
}
NecessityIndex::NecessityIndex(NecessityIndex&&) noexcept = default;
NecessityIndex& NecessityIndex::operator=(NecessityIndex&&) noexcept = default;

void NecessityIndex::count(Asn src, Asn dst, int sign) {
  const std::uint64_t key = pack(src, dst);
  auto it = std::lower_bound(pairs_.begin(), pairs_.end(), std::pair{key, std::uint64_t{0}});
  if (it == pairs_.end() || it->first != key) it = pairs_.emplace(it, key, 0);
  step(it->second, sign);
  if (oracle_ != nullptr && !oracle_->reachable(src, dst)) step(necessary_, sign);
}

void NecessityIndex::invalidate() { oracle_.reset(); }

void NecessityIndex::rebuild(const RelationshipMap& rels, ThreadPool& pool) {
  oracle_ = std::make_unique<ReachOracle>(rels);
  // The necessity test is one BFS per distinct source (the few vantages).
  // Run each source's BFS as its own pool task, then evaluate sequentially.
  std::vector<Asn> sources;  // ascending: pairs_ sorts by source first
  for (const auto& [pair, n] : pairs_) {
    const Asn src = src_of(pair);
    if (n > 0 && oracle_->known(src) && (sources.empty() || sources.back() != src)) {
      sources.push_back(src);
    }
  }
  std::vector<std::future<std::vector<std::int32_t>>> futures;
  futures.reserve(sources.size());
  const ReachOracle& oracle = *oracle_;
  for (Asn src : sources) {
    futures.push_back(pool.submit([&oracle, src] { return oracle.distances_from(src); }));
  }
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    try {
      oracle_->memoize(sources[i], futures[i].get());
    } catch (...) {
      // Drain every future before unwinding — tasks reference the oracle.
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) {
    oracle_.reset();
    std::rethrow_exception(first_error);
  }
  necessary_ = 0;
  for (const auto& [pair, n] : pairs_) {
    if (n > 0 && !oracle_->reachable(src_of(pair), dst_of(pair))) necessary_ += n;
  }
}

bool valley_is_necessary(Asn src, Asn dst, const RelationshipMap& rels) {
  ReachOracle oracle(rels);
  return !oracle.reachable(src, dst);
}

ValleyCensus census_valleys(const PathStore& paths, const RelationshipMap& rels,
                            ThreadPool& pool, NecessityIndex* keep) {
  CensusShard merged = shard_map_reduce(
      pool, paths.unique_paths(),
      [&paths, &rels](const ShardRange& range) {
        CensusShard shard;
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const std::span<const Asn> path = paths.path(i);
          const PathVerdict verdict = classify_path(path, rels);
          shard.counters.count(verdict, +1);
          if (verdict.testable) shard.candidates.emplace_back(path.front(), path.back());
        }
        return shard;
      },
      CensusShard{},
      [](CensusShard& acc, CensusShard&& shard) {
        acc.counters.paths += shard.counters.paths;
        acc.counters.valley_free += shard.counters.valley_free;
        acc.counters.valley += shard.counters.valley;
        acc.counters.incomplete += shard.counters.incomplete;
        acc.counters.classified_valleys += shard.counters.classified_valleys;
        acc.candidates.insert(acc.candidates.end(), shard.candidates.begin(),
                              shard.candidates.end());
      });

  NecessityIndex index(merged.candidates);
  index.rebuild(rels, pool);
  ValleyCensus census = merged.counters;
  census.necessary_valleys = index.necessary();
  if (keep != nullptr) *keep = std::move(index);
  return census;
}

}  // namespace htor::core
