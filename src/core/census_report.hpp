// One-call orchestration of the paper's whole measurement (§3): dataset
// statistics, inference coverage, hybrid detection, and the valley census.
// Consumes only what a real study would have — a collector RIB and an IRR
// dump's mined dictionary.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "core/valley_census.hpp"
#include "mrt/rib_view.hpp"
#include "rpsl/community_dict.hpp"
#include "topology/tier.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

struct CensusReport {
  // Dataset (paper §3 ¶1).
  std::uint64_t v6_paths = 0;        ///< distinct IPv6 AS paths
  std::uint64_t v4_paths = 0;
  std::size_t v6_links = 0;          ///< distinct IPv6 AS links observed
  std::size_t v4_links = 0;
  std::size_t dual_links = 0;        ///< links visible in both families

  // Inference & coverage (¶1).
  InferredRelationships inferred;
  CoverageStats v6_coverage;         ///< of all observed IPv6 links
  CoverageStats v4_coverage;
  CoverageStats dual_coverage;       ///< of dual-stack links (both maps known)

  // Hybrids (¶2-3).
  HybridReport hybrids;

  // Valley paths (¶4).
  ValleyCensus v6_valleys;
  ValleyCensus v4_valleys;

  // Path stores, kept for downstream experiments (Figure 2 ranking).
  PathStore v4_path_store;
  PathStore v6_path_store;
};

/// One path whose occurrence count changed since the previous census, with
/// its count then and now (0 = absent).
struct PathDelta {
  std::span<const Asn> path;
  std::uint32_t before = 0;
  std::uint32_t after = 0;
};

/// The front half of the census: what the back half reads.  The batch builds
/// it from an ObservedRib (census_front); a live epoch builds it from
/// live::IncrementalCensus's maintained state.  For the same route set both
/// must yield the same values.
struct CensusFront {
  PathStore v4_paths;
  PathStore v6_paths;
  /// The community half of the inference and each family's Rosetta input.
  /// The Rosetta walks read the caller's routes, which must outlive
  /// census_back().
  InferenceInputs inference;

  // What changed since the census a CensusCarry holds (ignored with a fresh
  // carry, where everything counts as changed).  The spans must outlive
  // census_back().
  /// Per family, the paths whose count changed, in strictly ascending
  /// lexicographic order.
  std::vector<PathDelta> v4_changed_paths;
  std::vector<PathDelta> v6_changed_paths;
  /// Per family, every link whose community-inferred relationship may have
  /// changed (repeats allowed).
  std::vector<LinkKey> v4_retallied;
  std::vector<LinkKey> v6_retallied;
};

/// What the back half keeps from one census for the next, so that the next
/// recounts only what changed: the final relationship maps, Rosetta's
/// fills, the hybrid links and tiers, and each family's path sums (the
/// valley counters, the necessity index and the hybrid-path count).  A
/// path's contribution to the sums is recounted when it is "dirty": its
/// count changed, or it crosses a link whose final relationship or hybrid
/// status changed.  A fresh carry makes every path dirty, which is the
/// batch census.
class CensusCarry {
 private:
  friend CensusReport census_back(CensusFront front, const rpsl::CommunityDictionary& dict,
                                  const InferenceConfig& config, ThreadPool& pool,
                                  CensusCarry* carry);

  struct Family {
    RelationshipMap rels;     ///< final relationships
    RelationshipMap rosetta;  ///< Rosetta's first-hop fills
    ValleyCensus valleys;
    NecessityIndex necessity;
  };

  /// Links whose final relationship in `family` differs from `rels`, found
  /// among the retallied links and the old and new Rosetta fills; sorted.
  static std::vector<LinkKey> retyped(const Family& family,
                                      const std::vector<LinkKey>& retallied,
                                      const RelationshipMap& rels,
                                      const RelationshipMap& rosetta);

  /// Recount the dirty paths of one family's store: the changed paths and
  /// the paths crossing a link of `moved` (sorted).  Each is retracted
  /// under the carried relationships and hybrid links and added back under
  /// `rels` and `hybrids`.  Then the carried relationships take `rels`'
  /// values on the `retyped` links, and if there are any, the necessity
  /// index is rebuilt over them.
  void recount(Family& family, bool v6, const PathStore& store,
               std::span<const PathDelta> changed, const std::vector<LinkKey>& moved,
               const std::vector<LinkKey>& retyped, const RelationshipMap& rels,
               const std::vector<LinkKey>& hybrids, ThreadPool& pool);

  bool seeded_ = false;
  Family v4_;
  Family v6_;
  std::vector<LinkKey> hybrids_;  ///< sorted
  std::uint64_t v6_paths_with_hybrid_ = 0;
  std::unordered_map<Asn, Tier> tiers_;  ///< of v4_.rels
};

/// The batch front half: the sharded path stores (census.paths) and one
/// sharded scan of the routes for the community votes and the Rosetta
/// first-hop tables (census.infer.community).
CensusFront census_front(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                         const InferenceConfig& config, ThreadPool& pool);

/// The back half, the one implementation of duals → coverage → Rosetta →
/// hybrids → valleys, on `pool`.  With a `carry` it counts on from the
/// census the carry holds (see CensusCarry) and leaves this one in it;
/// without, everything is counted.  Opens no "census" span: the caller
/// wraps front and back in one.
CensusReport census_back(CensusFront front, const rpsl::CommunityDictionary& dict,
                         const InferenceConfig& config, ThreadPool& pool,
                         CensusCarry* carry = nullptr);

/// The whole census on the caller's pool (the pool's size decides the
/// parallelism, never the output): census_front, then census_back.
CensusReport run_census(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                        const InferenceConfig& config, ThreadPool& pool);

}  // namespace htor::core
