// Continuously maintained census state over a live::ObservedRib.
//
// Two tiers of answers, with an explicit accuracy contract between them:
//
//   * LIVE TIER — updated in O(route length) per applied message: distinct
//     AS-path counts, per-family link refcounts, dual-stack link count,
//     per-link community-vote tallies (exactly core's scan, applied with
//     sign), the community-inferred relationship of every voted link, the
//     hybrid-link count derived from those relationships, and each family's
//     Rosetta first-hop table (core::FirstHopTable, counted with sign).
//     Vote state keeps the full per-link histogram, so a withdrawn route's
//     votes are *retracted* — the tallies equal what a from-scratch scan of
//     the current routes would produce, which test_live pins.  Live valley
//     counters classify each announced route against the live (community
//     only) relationship map at apply time and are monotonic telemetry, not
//     the paper's census.
//
//   * EPOCH TIER — recompute() runs the census's shared back half
//     (core::census_back: duals, coverage, Rosetta, hybrids, valleys) on a
//     front half read from the maintained state, with no materialized RIB
//     and no walk over the routes.  Each family's distinct paths are a
//     PathStore as of the last cut plus a sorted overlay of the paths whose
//     count changed since; the cut folds the overlay in with
//     PathStore::merged.  The community inference is the live vote tallies
//     and relationship maps, and Rosetta runs on the maintained first-hop
//     tables (it walks the table's routes in canonical order only to settle
//     a first-hop link whose LocPrf translations disagree).  The back half
//     counts on from the previous epoch (core::CensusCarry): the valley and
//     hybrid-path sums recount only the overlay paths and, in an epoch
//     where some final relationship or hybrid status changed, the paths
//     crossing such a link; the valley BFS and the tiers are rebuilt only
//     when a relationship changed.  So an epoch costs what its churn
//     touched, plus the linear fold.  The result is byte-identical to
//     core::run_census over rib().materialize() — the live≡batch oracle
//     test_live and fuzz_updates hold — and is what serve --follow
//     publishes.  Before the fold, the overlay keys are exactly the paths
//     updates touched since the last cut, so the cut counts the epoch's
//     churn exactly with no per-hop work at apply time.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/census_report.hpp"
#include "core/pipeline.hpp"
#include "live/observed_rib.hpp"
#include "rpsl/community_dict.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/path_store.hpp"
#include "topology/relationship.hpp"
#include "util/thread_pool.hpp"

namespace htor::live {

/// Live-tier counters, cheap to read at any point in the stream.
struct LiveStats {
  std::uint64_t routes = 0;
  std::uint64_t v4_paths = 0;  ///< distinct v4 AS paths (length >= 2)
  std::uint64_t v6_paths = 0;
  std::uint64_t v4_links = 0;  ///< links on >= 1 distinct v4 path
  std::uint64_t v6_links = 0;
  std::uint64_t dual_links = 0;
  std::uint64_t links_with_votes_v4 = 0;
  std::uint64_t links_with_votes_v6 = 0;
  std::uint64_t typed_links_v4 = 0;  ///< voted links with a clear majority
  std::uint64_t typed_links_v6 = 0;
  std::uint64_t conflicted_links_v4 = 0;
  std::uint64_t conflicted_links_v6 = 0;
  std::uint64_t hybrid_links = 0;  ///< dual, both typed, types differ
  std::uint64_t total_votes = 0;

  // Monotonic valley telemetry: each *announced* route classified once
  // against the live relationship map of its family at apply time.
  std::uint64_t valley_free_seen = 0;
  std::uint64_t valleys_seen = 0;
  std::uint64_t incomplete_seen = 0;

  friend bool operator==(const LiveStats&, const LiveStats&) = default;
};

/// One published epoch: the authoritative batch-equivalent census.
struct EpochReport {
  core::CensusReport report;
  snapshot::Snapshot snap;
  std::uint64_t applied = 0;          ///< messages applied when cut
  std::uint32_t last_timestamp = 0;   ///< MRT timestamp of last applied record
  // Churn of the epoch just closed: the exact number of distinct ASes,
  // prefixes and links (prepends collapsed) on the routes applied updates
  // added or removed since the previous cut (announce or withdraw alike).
  std::uint64_t churn_ases = 0;
  std::uint64_t churn_prefixes = 0;
  std::uint64_t churn_links = 0;
};

class IncrementalCensus {
 public:
  /// Copies the dictionary and config; seeds the live state from `rib`
  /// exactly as if every route had been announced (the path stores are
  /// built on a pool of config.threads workers).  `source` labels the
  /// snapshots recompute() emits (typically the RIB file path).
  IncrementalCensus(const mrt::ObservedRib& rib, rpsl::CommunityDictionary dict,
                    core::InferenceConfig config, std::string source,
                    std::uint32_t seed_timestamp = 0);

  /// Apply one BGP4MP message (timestamp from its MRT header) and fold the
  /// route delta into every live structure.  Throws DecodeError on a
  /// malformed update with both the RIB and the live tier unchanged.
  void apply(std::uint32_t timestamp, const mrt::Bgp4mpMessage& msg);

  std::uint64_t applied() const { return applied_; }
  std::uint32_t last_timestamp() const { return last_timestamp_; }
  const LiveStats& stats() const { return stats_; }
  const ObservedRib& rib() const { return rib_; }

  /// Community-inferred relationship maps maintained by the live tier
  /// (no Rosetta).  For tests and staleness probes.
  const RelationshipMap& live_rels(IpVersion af) const {
    return af == IpVersion::V4 ? rels_v4_ : rels_v6_;
  }

  /// The authoritative epoch, and the cut that closes it: count the churn
  /// since the previous cut, fold the path overlays into the stores and run
  /// the census's back half on the maintained state, on `pool`.
  /// Byte-identical to core::run_census over rib().materialize(); the
  /// snapshot is stamped with the last applied MRT timestamp (or the seed
  /// timestamp before any applies) so identical streams produce identical
  /// bytes.
  EpochReport recompute(ThreadPool& pool);

 private:
  struct LinkState {
    std::array<std::uint32_t, 4> votes_v4{};
    std::array<std::uint32_t, 4> votes_v6{};
    std::uint64_t paths_v4 = 0;  ///< distinct v4 paths crossing this link
    std::uint64_t paths_v6 = 0;
    Relationship rel_v4 = Relationship::Unknown;
    Relationship rel_v6 = Relationship::Unknown;
    bool conflicted_v4 = false;  ///< votes present but no clear majority
    bool conflicted_v6 = false;
    bool hybrid = false;

    bool has_votes() const;
    bool dead() const;
  };

  /// A path's occurrence count at the last cut and now.
  struct PathCount {
    std::uint32_t before = 0;
    std::uint32_t now = 0;
  };
  using Overlay = std::map<std::vector<Asn>, PathCount>;

  /// One family's distinct paths: the store as of the last cut, plus the
  /// paths whose occurrence count changed since, with their counts then
  /// and now (0 = gone), in the lexicographic order PathStore::merged
  /// takes.
  struct FamilyPaths {
    PathStore base;
    Overlay overlay;

    /// The live count of `path`: its overlay entry, created from the base
    /// count (PathStore::count_of) if absent.
    std::uint32_t& overlay_count(const std::vector<Asn>& path);
    /// base = merged(base, overlay); returns the overlay, which empties.
    Overlay fold();
  };

  /// Vote totals of one family, maintained with sign.
  struct FamilyVotes {
    std::uint64_t tagged_routes = 0;
    std::uint64_t total_votes = 0;
  };

  void add_route(const mrt::ObservedRoute& route);
  void remove_route(const mrt::ObservedRoute& route);
  void apply_votes(const mrt::ObservedRoute& route, int sign);
  void retally(const LinkKey& key, LinkState& state);
  void update_derived(const LinkKey& key, LinkState& state);
  void classify_route(const mrt::ObservedRoute& route);
  /// Refcount the links of a path that appeared (+1) or vanished (-1).
  void count_path_links(const std::vector<Asn>& path, bool v4, int sign);
  /// The community half of the inference, read off the vote state.
  core::CommunityInference maintained_inference() const;
  /// Count the epoch's churn into `epoch` and start the next epoch's.  Runs
  /// before the overlays fold: their keys are then exactly the distinct
  /// paths of length >= 2 on the routes added or removed since the last cut.
  void take_churn(EpochReport& epoch);

  ObservedRib rib_;
  rpsl::CommunityDictionary dict_;
  core::InferenceConfig config_;
  std::string source_;

  FamilyPaths paths_v4_;
  FamilyPaths paths_v6_;
  std::unordered_map<LinkKey, LinkState, LinkKeyHash> links_;
  RelationshipMap rels_v4_;
  RelationshipMap rels_v6_;
  core::FirstHopTable first_hops_v4_;
  core::FirstHopTable first_hops_v6_;
  /// Links whose community relationship changed since the last cut.
  std::vector<LinkKey> retallied_v4_;
  std::vector<LinkKey> retallied_v6_;
  /// What the last cut's census leaves for the next one.
  core::CensusCarry carry_;
  FamilyVotes votes_v4_;
  FamilyVotes votes_v6_;
  std::vector<LinkKey> scratch_links_;  ///< reused by count_path_links

  LiveStats stats_;
  std::uint64_t applied_ = 0;
  std::uint32_t seed_timestamp_ = 0;
  std::uint32_t last_timestamp_ = 0;

  // What the overlays do not record about this epoch's churn: the prefix of
  // every route applied updates added or removed, and the lone AS of each
  // such route with a length-1 path.  Emptied at every cut.
  std::vector<Prefix> churn_prefixes_;
  std::vector<Asn> churn_lone_ases_;
};

}  // namespace htor::live
