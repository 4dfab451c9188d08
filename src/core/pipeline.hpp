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
  /// Worker jobs for the pool live::IncrementalCensus builds its seed path
  /// stores on (ThreadPool semantics: 0 = one per hardware thread, 1 =
  /// inline).  Nothing else reads it: every census entry point runs on the
  /// caller's pool.  Any value produces byte-identical results.
  std::size_t threads = 1;
};

/// A collector RIB and the MRT timestamp of its dump's first record.  The
/// timestamp (not wall clock) stamps the RIB's snapshots, so re-running a
/// census on the same input reproduces its snapshot byte for byte.
struct StampedRib {
  mrt::ObservedRib rib;
  std::uint32_t first_timestamp = 0;
};

/// Load a collector RIB from the MRT file (or pipe) at `path` in one pass:
/// the one ingest path, mrt::rib_from_stream over a MrtStreamReader, with
/// the fixed batch size (byte-identical RIB at any pool size).  Throws
/// Error when the file cannot be read and DecodeError on malformed input.
StampedRib load_stamped_rib(const std::string& path, ThreadPool& pool);

/// load_stamped_rib without the timestamp.
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

/// One link's community votes, both families summed.
struct LinkVotes {
  LinkKey link;
  std::uint64_t votes = 0;

  friend bool operator==(const LinkVotes&, const LinkVotes&) = default;
};

/// How many most-voted links a census keeps.
inline constexpr std::size_t kTopLinkVotes = 10;

/// The exact kTopLinkVotes most-voted links of a stream of (link, votes)
/// offers: votes descending, then link ascending.  That order is total, so
/// the result does not depend on the order links are offered in.
class TopLinkVotes {
 public:
  /// Offer one link's total; zero totals are ignored.
  void offer(const LinkKey& link, std::uint64_t votes);
  /// The selection, best first.
  std::vector<LinkVotes> take() { return std::move(top_); }

 private:
  std::vector<LinkVotes> top_;
};

/// Sum of one family's vote histogram.
std::uint64_t vote_total(const std::array<std::uint32_t, 4>& votes);

struct InferredRelationships {
  /// Final relationship maps (communities + Rosetta), one per family.
  RelationshipMap v4;
  RelationshipMap v6;

  CommunityInferenceResult community_v4;
  CommunityInferenceResult community_v6;
  RosettaResult rosetta_v4;
  RosettaResult rosetta_v6;

  /// The most-voted links, both families summed (TopLinkVotes order).
  std::vector<LinkVotes> top_link_votes;
};

/// The community half of the inference: both families tallied, plus the
/// most-voted links read off the same tallies.
struct CommunityInference {
  CommunityInferenceResult v4;
  CommunityInferenceResult v6;
  std::vector<LinkVotes> top_link_votes;
};

/// Tally both families' votes and pick the most-voted links.
CommunityInference tally_communities(const CommunityVotes& v4_votes,
                                     const CommunityVotes& v6_votes,
                                     const CommunityInferenceParams& params);

/// What the inference reads of a RIB: the community half, tallied, and
/// each family's Rosetta input.
struct InferenceInputs {
  CommunityInference community;
  RosettaInput v4_rosetta;
  RosettaInput v6_rosetta;
};

/// The inference inputs of `rib` from one sharded pass over its routes
/// (census.infer.community): each route casts its community votes and is
/// counted into its family's first-hop table.  Both are sums, merged in
/// shard order, so any pool size gives the same result.  The Rosetta walks
/// read `rib`, which must outlive them.
InferenceInputs scan_inference_inputs(const mrt::ObservedRib& rib,
                                      const rpsl::CommunityDictionary& dict,
                                      const CommunityInferenceParams& params, ThreadPool& pool);

/// The rest of the inference once communities are tallied: (with
/// config.use_rosetta) run one Rosetta pass per family over its first-hop
/// table, and let it type only the links communities left Unknown, v4
/// first, then v6.
InferredRelationships finish_inference(InferenceInputs inputs,
                                       const rpsl::CommunityDictionary& dict,
                                       const InferenceConfig& config);

/// Run the full inference over a collector RIB on the caller's pool:
/// scan_inference_inputs, then finish_inference.
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
