// The LocPrf "Rosetta stone" (paper §2).
//
// LocPrf values are operator-local: 100 may mean "customer" at one AS and
// "backup provider" at another.  Routes whose first-hop relationship is
// already known from communities *translate* the vantage's LocPrf scheme:
// once a (vantage, LocPrf value) pair is seen consistently with one
// relationship, the value can type first-hop links that communities did not
// cover.  Routes carrying a traffic-engineering community that overrides
// LocPrf are excluded from both learning and application — without this
// filter the scheme learns noise (quantified by bench_ablation_inference).
//
// Rosetta reads a route only through its first hop (vantage, next AS) and
// its LocPrf, so it runs on a FirstHopTable: a family's routes collapsed to
// one count per (vantage, next hop, LocPrf), split into clean and
// TE-overridden routes.  The table is a sum over routes: the batch census
// builds it in its sharded route scan and merges the shards by adding, and
// the live census keeps it with signed deltas per applied route.  Learning,
// consolidation and application all walk the table (about a hundredth of
// the routes), never the routes themselves.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>

#include "mrt/rib_view.hpp"
#include "rpsl/community_dict.hpp"
#include "topology/relationship.hpp"

namespace htor::core {

struct RosettaParams {
  /// Samples required before a (vantage, value) pair is trusted.
  std::uint32_t min_samples = 3;
  /// Disable the TE filter (ablation only; keeps SetLocPref-tagged routes).
  bool filter_te = true;
};

/// A route's first hop and LocPrf: the key Rosetta learns and applies by.
struct FirstHop {
  Asn vantage = 0;
  Asn next = 0;  ///< the first AS after the vantage, prepends collapsed
  std::uint32_t local_pref = 0;

  friend bool operator==(const FirstHop&, const FirstHop&) = default;
  friend auto operator<=>(const FirstHop&, const FirstHop&) = default;
};

/// How many routes share one FirstHop: those without and those with a
/// LocPrf-overriding TE community (RosettaParams::filter_te decides at
/// translate time whether the latter count).
struct FirstHopRoutes {
  std::uint64_t clean = 0;
  std::uint64_t te = 0;

  friend bool operator==(const FirstHopRoutes&, const FirstHopRoutes&) = default;
};

/// One family's routes collapsed onto their first hops.  Routes without a
/// LocPrf or without a first hop (a path of one distinct AS) are not
/// counted: Rosetta can read nothing from them.
class FirstHopTable {
 public:
  /// Count `route` in (sign > 0) or out (sign < 0).  Counting a route out
  /// that was never counted in is a caller error.
  void count(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict, int sign);

  /// Add every count of `other` (shards of one scan merge this way).
  void merge(const FirstHopTable& other);

  const std::map<FirstHop, FirstHopRoutes>& entries() const { return entries_; }

 private:
  std::map<FirstHop, FirstHopRoutes> entries_;  ///< no all-zero entries
};

/// Visits one family's routes in canonical RIB order until the visitor
/// returns false.
using RouteVisitor = std::function<bool(const mrt::ObservedRoute&)>;
using RouteWalk = std::function<void(const RouteVisitor&)>;

/// What Rosetta reads of one family: its first-hop table, and a walk over
/// the same routes for settling conflicts.
struct RosettaInput {
  FirstHopTable first_hops;
  RouteWalk routes;
};

struct RosettaResult {
  /// First-hop links typed by LocPrf translation (links already covered by
  /// communities are never re-typed here).
  RelationshipMap first_hop_rels;
  std::size_t values_learned = 0;    ///< usable (vantage, value) entries
  std::size_t values_ambiguous = 0;  ///< value maps to >1 relationship
  std::uint64_t routes_te_filtered = 0;
  std::uint64_t routes_resolved = 0;  ///< routes whose first hop got typed
  /// First-hop links whose translated LocPrfs disagree; each is settled by
  /// the first translatable route in RIB order.
  std::size_t links_conflicted = 0;
};

/// Learn, consolidate and apply the translation over `input.first_hops`.
/// A link whose translatable routes all agree takes that relationship.  A
/// link whose translatable routes disagree takes the relationship of the
/// first such route in RIB order, so `input.routes` is walked only when
/// some link is conflicted.
RosettaResult run_rosetta(const RosettaInput& input, const rpsl::CommunityDictionary& dict,
                          const RelationshipMap& known, const RosettaParams& params = {});

}  // namespace htor::core
