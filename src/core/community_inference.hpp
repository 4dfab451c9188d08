// Relationship extraction from BGP Communities (the paper's §2 method).
//
// For an observed AS path  p0 p1 … pk  (p0 = vantage peer, pk = origin),
// a community  pi:v  whose mined meaning is a relationship ingress tag
// asserts how pi learned the route from p_{i+1}: "learned from customer"
// means p_{i+1} is pi's customer, i.e. rel(pi, p_{i+1}) = p2c.  Every
// observed route casts votes for the links its tags can localize; links are
// then typed by majority, and contradicting majorities are flagged instead
// of guessed.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mrt/rib_view.hpp"
#include "rpsl/community_dict.hpp"
#include "topology/relationship.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

struct CommunityInferenceParams {
  /// Minimum votes before a link is typed.
  std::uint32_t min_votes = 1;
  /// Majority requirement: winning relationship must hold at least this
  /// fraction of the link's votes.
  double majority = 0.6;
};

struct CommunityInferenceResult {
  RelationshipMap rels;
  std::size_t links_with_votes = 0;
  std::size_t conflicted_links = 0;  ///< votes present but no clear majority
  std::uint64_t tagged_routes = 0;   ///< routes that contributed >= 1 vote
  std::uint64_t total_votes = 0;
};

/// Raw vote state produced by scanning a batch of routes.  Scans over
/// disjoint route shards merge commutatively (per-link counts add), which is
/// what lets the per-route scan run sharded on a thread pool.
struct CommunityVotes {
  /// Votes per canonical link, indexed P2C/C2P/P2P/S2S.
  std::unordered_map<LinkKey, std::array<std::uint32_t, 4>, LinkKeyHash> votes;
  std::uint64_t tagged_routes = 0;
  std::uint64_t total_votes = 0;

  void merge(const CommunityVotes& other);
};

/// Add one route's localizable relationship tags to `out`.  A pure function
/// of the route, so a live census retracts exactly what it once added.
void count_route_votes(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
                       CommunityVotes& out);

/// Scan routes[begin, end) for localizable relationship tags.
CommunityVotes scan_community_votes(const std::vector<const mrt::ObservedRoute*>& routes,
                                    std::size_t begin, std::size_t end,
                                    const rpsl::CommunityDictionary& dict);

/// What the tally rule makes of one link's votes.
struct LinkTally {
  Relationship rel = Relationship::Unknown;  ///< the winner; Unknown if none
  bool conflicted = false;  ///< votes present but no clear majority
  bool any_votes = false;
};

/// The tally rule for one link's vote histogram (P2C/C2P/P2P/S2S slots):
/// the top relationship wins when it is unique, has at least
/// `params.min_votes` votes and holds at least `params.majority` of the
/// link's votes; anything else with votes is conflicted.  The batch tally
/// and the live tier both type links through this one function.
LinkTally tally_link(const std::array<std::uint32_t, 4>& votes,
                     const CommunityInferenceParams& params);

/// Majority-type every voted link.  Depends only on the merged vote totals,
/// so the sharding that produced them cannot change the outcome.
CommunityInferenceResult tally_community_votes(const CommunityVotes& votes,
                                               const CommunityInferenceParams& params = {});

/// Infer relationships for one address family's routes.
CommunityInferenceResult infer_from_communities(
    const std::vector<const mrt::ObservedRoute*>& routes,
    const rpsl::CommunityDictionary& dict, const CommunityInferenceParams& params = {});

/// Same inference with the route scan sharded on `pool` (deterministic:
/// identical to the sequential overload for any pool size).
CommunityInferenceResult infer_from_communities(
    const std::vector<const mrt::ObservedRoute*>& routes,
    const rpsl::CommunityDictionary& dict, const CommunityInferenceParams& params,
    ThreadPool& pool);

}  // namespace htor::core
