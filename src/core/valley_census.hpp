// Valley-path census (paper §3, ¶4): how many observed IPv6 paths violate
// the valley-free rule, and how many of those violations are *necessary* —
// i.e. no strict valley-free path between the vantage and the origin exists
// at all, so the valley is the price of reachability.
//
// Every counter is a sum over distinct paths of what classify_path() makes
// of one path, and the necessity test reads only the multiset of (vantage,
// origin) pairs of the testable valleys.  So a census can be kept with
// signed per-path deltas: a live census retracts a changed path under the
// old relationships and adds it back under the new ones.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "topology/path_store.hpp"
#include "topology/relationship.hpp"
#include "topology/valley.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

/// What the census makes of one path.
struct PathVerdict {
  PathPolicyClass cls = PathPolicyClass::ValleyFree;
  /// A valley with every link typed: its endpoints go to the necessity test.
  bool testable = false;
};

/// The census's one per-path classifier (batch and live).
PathVerdict classify_path(std::span<const Asn> path, const RelationshipMap& rels);

struct ValleyCensus {
  std::uint64_t paths = 0;
  std::uint64_t valley_free = 0;
  std::uint64_t valley = 0;
  std::uint64_t incomplete = 0;  ///< paths with unknown-relationship links

  std::uint64_t classified_valleys = 0;  ///< valleys testable for necessity
  std::uint64_t necessary_valleys = 0;   ///< no valley-free alternative exists

  /// Count one path's verdict in (sign > 0) or out (sign < 0).  Leaves
  /// necessary_valleys to the NecessityIndex.
  void count(const PathVerdict& verdict, int sign);

  double valley_fraction() const {
    return paths == 0 ? 0.0 : static_cast<double>(valley) / static_cast<double>(paths);
  }
  double necessary_fraction() const {
    return classified_valleys == 0 ? 0.0
                                   : static_cast<double>(necessary_valleys) /
                                         static_cast<double>(classified_valleys);
  }
};

class ReachOracle;

/// The necessity half of the census: the (vantage, origin) pairs of the
/// testable valleys as a multiset, tested against valley-free reachability
/// over a relationship map, with the BFS distances from each distinct
/// vantage memoized.
class NecessityIndex {
 public:
  NecessityIndex();
  /// The multiset of `pairs` (any order), untested until rebuild().
  explicit NecessityIndex(const std::vector<std::pair<Asn, Asn>>& pairs);
  ~NecessityIndex();
  NecessityIndex(const NecessityIndex& other);
  NecessityIndex& operator=(const NecessityIndex& other);
  NecessityIndex(NecessityIndex&&) noexcept;
  NecessityIndex& operator=(NecessityIndex&&) noexcept;

  /// Count the pair in (sign > 0) or out (sign < 0).  Tested at once while
  /// the reachability is current; after invalidate(), only by rebuild().
  void count(Asn src, Asn dst, int sign);

  /// Drop the reachability (its relationship map is about to change).
  void invalidate();

  /// Reachability over `rels`, one BFS per distinct source as a pool task,
  /// then every pair re-tested.
  void rebuild(const RelationshipMap& rels, ThreadPool& pool);

  /// Pairs (with multiplicity) that no valley-free path connects.
  std::uint64_t necessary() const { return necessary_; }

 private:
  /// (src << 32 | dst, multiplicity), sorted by pair.  A count that drops to
  /// zero keeps its entry, so a pair that leaves and returns does not shift
  /// the vector.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs_;
  std::unique_ptr<ReachOracle> oracle_;                 ///< null after invalidate()
  std::uint64_t necessary_ = 0;
};

/// Classify every distinct path in `paths` under `rels`.  The necessity test
/// runs valley-free reachability over the link set of `rels` itself (the
/// best topology knowledge available to the measurement, as in the paper).
/// Path classification shards on `pool`, and the valley-free BFS runs one
/// pool task per distinct vantage source.  Counters are additive, so the
/// result is the same for any pool size.  With `keep`, the necessity index
/// is handed to the caller for later deltas.
ValleyCensus census_valleys(const PathStore& paths, const RelationshipMap& rels,
                            ThreadPool& pool, NecessityIndex* keep = nullptr);

/// True when no strict valley-free path connects src and dst in `rels`.
bool valley_is_necessary(Asn src, Asn dst, const RelationshipMap& rels);

}  // namespace htor::core
