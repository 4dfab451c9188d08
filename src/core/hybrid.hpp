// Hybrid IPv4/IPv6 relationship detection and assessment (paper §3, ¶2-3).
//
// A dual-stack link is *hybrid* when its inferred IPv4 and IPv6
// relationships differ.  The report carries the paper's assessment angles:
// the class mix (peering-v4/transit-v6 dominates), path visibility (how many
// IPv6 AS paths cross at least one hybrid link), and the tier placement of
// hybrid endpoints.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topology/path_store.hpp"
#include "topology/relationship.hpp"
#include "topology/tier.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

enum class HybridClass : std::uint8_t {
  PeerV4TransitV6,  ///< p2p in IPv4, p2c/c2p in IPv6 (67% in the paper)
  TransitV4PeerV6,  ///< p2c/c2p in IPv4, p2p in IPv6
  Reversal,         ///< provider and customer swap roles across families
  OtherMix,         ///< any difference involving siblings
};

const char* to_string(HybridClass cls);

struct HybridFinding {
  LinkKey link;
  Relationship rel_v4 = Relationship::Unknown;  ///< rel(link.first->link.second), IPv4
  Relationship rel_v6 = Relationship::Unknown;
  HybridClass cls = HybridClass::OtherMix;
  std::uint64_t v6_path_visibility = 0;  ///< distinct IPv6 paths crossing the link

  friend bool operator==(const HybridFinding&, const HybridFinding&) = default;
};

struct HybridReport {
  std::vector<HybridFinding> hybrids;  ///< sorted by v6 path visibility, descending

  std::size_t dual_links_observed = 0;
  std::size_t dual_links_both_known = 0;  ///< relationship known in both families

  std::size_t peer_v4_transit_v6 = 0;
  std::size_t transit_v4_peer_v6 = 0;
  std::size_t reversals = 0;
  std::size_t other_mix = 0;

  std::uint64_t v6_paths_total = 0;
  std::uint64_t v6_paths_with_hybrid = 0;

  /// Histogram of hybrid endpoints per tier (each link counts twice).
  std::unordered_map<Tier, std::size_t> endpoint_tiers;

  double hybrid_fraction() const {
    return dual_links_both_known == 0
               ? 0.0
               : static_cast<double>(hybrids.size()) /
                     static_cast<double>(dual_links_both_known);
  }
};

/// The per-link half of the detection over the observed dual-stack links:
/// everything but v6_paths_with_hybrid, which is left 0.  `tiers`
/// (optional) attributes hybrid endpoints to tiers.
HybridReport classify_hybrid_links(const std::vector<LinkKey>& dual_links,
                                   const RelationshipMap& v4, const RelationshipMap& v6,
                                   const PathStore& v6_paths,
                                   const std::unordered_map<Asn, Tier>* tiers = nullptr);

/// The hybrid links of a report, sorted.  v6_paths_with_hybrid counts the
/// distinct IPv6 paths that cross one of them (crosses_link()).
std::vector<LinkKey> hybrid_links(const HybridReport& report);

/// Both halves: detect hybrids over the observed dual-stack links and count
/// the IPv6 paths that cross one, sharded on `pool` (the count is a sum, so
/// any pool size gives the same result).
HybridReport detect_hybrids(const std::vector<LinkKey>& dual_links, const RelationshipMap& v4,
                            const RelationshipMap& v6, const PathStore& v6_paths,
                            ThreadPool& pool,
                            const std::unordered_map<Asn, Tier>* tiers = nullptr);

}  // namespace htor::core
