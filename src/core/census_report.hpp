// One-call orchestration of the paper's whole measurement (§3): dataset
// statistics, inference coverage, hybrid detection, and the valley census.
// Consumes only what a real study would have — a collector RIB and an IRR
// dump's mined dictionary.
#pragma once

#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "core/valley_census.hpp"
#include "mrt/rib_view.hpp"
#include "rpsl/community_dict.hpp"

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

/// The front half of the census: what the back half reads.  The batch builds
/// it from an ObservedRib (census_front); a live epoch builds it from
/// live::IncrementalCensus's maintained state.  For the same route set both
/// must yield the same values.
struct CensusFront {
  PathStore v4_paths;
  PathStore v6_paths;
  CommunityInference community;
  /// The routes Rosetta reads, per family, in canonical RIB order.  They
  /// point into the caller's RIB, which must outlive census_back().  Nothing
  /// reads them when config.use_rosetta is off, so they may be empty then.
  std::vector<const mrt::ObservedRoute*> v4_routes;
  std::vector<const mrt::ObservedRoute*> v6_routes;
};

/// The batch front half: the sharded path stores (census.paths) and the
/// sharded community scan plus tally (census.infer.community) of `rib`.
CensusFront census_front(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                         const InferenceConfig& config, ThreadPool& pool);

/// The back half, the one implementation of duals → coverage → Rosetta →
/// hybrids → valleys, on `pool`.  Opens no "census" span: the caller wraps
/// front and back in one.
CensusReport census_back(CensusFront front, const rpsl::CommunityDictionary& dict,
                         const InferenceConfig& config, ThreadPool& pool);

/// The whole census on the caller's pool (the pool's size decides the
/// parallelism, never the output): census_front, then census_back.
CensusReport run_census(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                        const InferenceConfig& config, ThreadPool& pool);

}  // namespace htor::core
