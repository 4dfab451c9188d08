// End-to-end relationship inference: community dictionary application plus
// LocPrf Rosetta, per address family.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/community_inference.hpp"
#include "core/rosetta.hpp"
#include "mrt/rib_view.hpp"
#include "topology/path_store.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

struct InferenceConfig {
  CommunityInferenceParams community;
  RosettaParams rosetta;
  bool use_rosetta = true;
  /// Worker jobs for the census hot paths (ThreadPool semantics: 0 = one
  /// per hardware thread, 1 = inline/sequential).  Any value produces
  /// byte-identical results; see core/parallel.hpp.
  std::size_t threads = 1;
};

/// Load a collector RIB from the MRT file at `path`: the one ingest path,
/// mrt::rib_from_stream over a file MrtStreamReader, with the fixed batch
/// size (byte-identical RIB at any pool size).  Throws Error when the file
/// cannot be read and DecodeError on malformed input.
mrt::ObservedRib load_rib(const std::string& path, ThreadPool& pool);

struct CoverageStats {
  std::size_t observed_links = 0;
  std::size_t covered_links = 0;
  double fraction() const {
    return observed_links == 0
               ? 0.0
               : static_cast<double>(covered_links) / static_cast<double>(observed_links);
  }
};

struct InferredRelationships {
  /// Final relationship maps (communities + Rosetta), one per family.
  RelationshipMap v4;
  RelationshipMap v6;

  CommunityInferenceResult community_v4;
  CommunityInferenceResult community_v6;
  RosettaResult rosetta_v4;
  RosettaResult rosetta_v6;
};

/// (obs::sketch::link_item, total votes) of every voted link, both families
/// together, sorted: the one most-voted-links telemetry feed per census.
using LinkVoteFeed = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Append `key`'s total to a link-vote feed when it has any votes.
void add_link_votes(LinkVoteFeed& feed, const LinkKey& key,
                    const std::array<std::uint32_t, 4>& votes);

/// The community half of the inference: both families tallied, plus the
/// link-vote feed built from the same tallies.
struct CommunityInference {
  CommunityInferenceResult v4;
  CommunityInferenceResult v6;
  LinkVoteFeed link_votes;
};

/// Community inference over each family's routes.  The per-route scans of
/// both families are submitted before either is collected, so their shards
/// interleave on the pool; shard count and merge order are fixed, so any
/// pool size gives the same result.
CommunityInference infer_communities(const std::vector<const mrt::ObservedRoute*>& v4_routes,
                                     const std::vector<const mrt::ObservedRoute*>& v6_routes,
                                     const rpsl::CommunityDictionary& dict,
                                     const CommunityInferenceParams& params, ThreadPool& pool);

/// The rest of the inference once communities are tallied: feed the
/// link-vote telemetry, then (with config.use_rosetta) run one Rosetta pass
/// per family as two pool tasks over the same routes, and let it type only
/// the links communities left Unknown, v4 first, then v6.
InferredRelationships finish_inference(CommunityInference community,
                                       const std::vector<const mrt::ObservedRoute*>& v4_routes,
                                       const std::vector<const mrt::ObservedRoute*>& v6_routes,
                                       const rpsl::CommunityDictionary& dict,
                                       const InferenceConfig& config, ThreadPool& pool);

/// Run the full inference over a collector RIB.  Creates its own pool from
/// `config.threads`.
InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config = {});

/// Same, sharing the caller's pool: infer_communities, then
/// finish_inference.
InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config, ThreadPool& pool);

/// Distinct AS paths of one family, as a PathStore built on `pool`
/// (identical for any pool size).
PathStore paths_of(const mrt::ObservedRib& rib, IpVersion af, ThreadPool& pool);

/// How many of `links` the map can type.
CoverageStats coverage(const std::vector<LinkKey>& links, const RelationshipMap& rels);

/// Links observed in both families: the intersection of two sorted link
/// tables (PathStore::links()), sorted.
std::vector<LinkKey> dual_stack_links(const std::vector<LinkKey>& v4_links,
                                      const std::vector<LinkKey>& v6_links);

}  // namespace htor::core
