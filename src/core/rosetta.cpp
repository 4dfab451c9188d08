#include "core/rosetta.hpp"

#include <array>
#include <utility>

namespace htor::core {

namespace {

std::size_t rel_index(Relationship rel) {
  switch (rel) {
    case Relationship::P2C: return 0;
    case Relationship::C2P: return 1;
    case Relationship::P2P: return 2;
    case Relationship::S2S: return 3;
    default: return 4;
  }
}

Relationship rel_from_index(std::size_t i) {
  constexpr std::array<Relationship, 4> kRels{Relationship::P2C, Relationship::C2P,
                                              Relationship::P2P, Relationship::S2S};
  return i < 4 ? kRels[i] : Relationship::Unknown;
}

/// The route's first hop: its LocPrf and first link after collapsing
/// prepends; false when there is no LocPrf or the path is too short.
bool first_hop(const mrt::ObservedRoute& route, FirstHop& out) {
  const auto& p = route.as_path;
  if (!route.local_pref || p.empty()) return false;
  out.vantage = p.front();
  out.local_pref = *route.local_pref;
  for (Asn a : p) {
    if (a != out.vantage) {
      out.next = a;
      return true;
    }
  }
  return false;
}

/// Does the route carry a LocPrf-overriding TE community issued by `asn`?
bool has_te_override(const mrt::ObservedRoute& route, Asn asn,
                     const rpsl::CommunityDictionary& dict) {
  for (bgp::Community c : route.communities) {
    if (c.asn() != asn) continue;
    const rpsl::CommunityMeaning* meaning = dict.lookup(c);
    if (meaning != nullptr && meaning->kind == rpsl::CommunityTagKind::SetLocPref) return true;
  }
  // Well-known scoping communities also disqualify a route from calibration.
  for (bgp::Community c : route.communities) {
    if (c == bgp::kNoExport || c == bgp::kNoAdvertise) return true;
  }
  return false;
}

/// The routes of `n` Rosetta may read under `params`.
std::uint64_t usable(const FirstHopRoutes& n, const RosettaParams& params) {
  return n.clean + (params.filter_te ? 0 : n.te);
}

}  // namespace

void FirstHopTable::count(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
                          int sign) {
  FirstHop hop;
  if (!first_hop(route, hop)) return;
  const bool te = has_te_override(route, hop.vantage, dict);
  if (sign > 0) {
    FirstHopRoutes& n = entries_[hop];
    ++(te ? n.te : n.clean);
    return;
  }
  auto it = entries_.find(hop);
  if (it == entries_.end()) return;
  --(te ? it->second.te : it->second.clean);
  if (it->second == FirstHopRoutes{}) entries_.erase(it);
}

void FirstHopTable::merge(const FirstHopTable& other) {
  for (const auto& [hop, n] : other.entries_) {
    FirstHopRoutes& mine = entries_[hop];
    mine.clean += n.clean;
    mine.te += n.te;
  }
}

RosettaResult run_rosetta(const RosettaInput& input, const rpsl::CommunityDictionary& dict,
                          const RelationshipMap& known, const RosettaParams& params) {
  RosettaResult result;
  const FirstHopTable& table = input.first_hops;

  // Learning: (vantage, locpref) -> per-relationship sample counts.
  std::map<std::pair<Asn, std::uint32_t>, std::array<std::uint64_t, 4>> samples;
  for (const auto& [hop, n] : table.entries()) {
    if (params.filter_te) result.routes_te_filtered += n.te;
    const std::uint64_t count = usable(n, params);
    if (count == 0) continue;
    const std::size_t idx = rel_index(known.get(hop.vantage, hop.next));
    if (idx >= 4) continue;
    samples[{hop.vantage, hop.local_pref}][idx] += count;
  }

  // Consolidate: a value is usable when exactly one relationship explains
  // all its samples and the sample count clears the threshold.
  std::map<std::pair<Asn, std::uint32_t>, Relationship> translation;
  for (const auto& [key, counts] : samples) {
    std::size_t nonzero = 0;
    std::size_t winner = 0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      total += counts[i];
      if (counts[i] > 0) {
        ++nonzero;
        winner = i;
      }
    }
    if (nonzero != 1) {
      ++result.values_ambiguous;
      continue;
    }
    if (total < params.min_samples) continue;
    translation.emplace(key, rel_from_index(winner));
    ++result.values_learned;
  }
  const auto translate = [&translation](const FirstHop& hop) {
    const auto it = translation.find({hop.vantage, hop.local_pref});
    return it == translation.end() ? Relationship::Unknown : it->second;
  };

  // Application: type each uncovered first-hop link by its translated
  // LocPrf values, oriented onto the link's canonical direction.
  struct Fill {
    Relationship rel = Relationship::Unknown;
    bool conflicted = false;
  };
  std::map<LinkKey, Fill> fills;
  for (const auto& [hop, n] : table.entries()) {
    const std::uint64_t count = usable(n, params);
    if (count == 0 || known.get(hop.vantage, hop.next) != Relationship::Unknown) continue;
    const Relationship rel = translate(hop);
    if (rel == Relationship::Unknown) continue;
    result.routes_resolved += count;
    const LinkKey key(hop.vantage, hop.next);
    const Relationship canonical = key.first == hop.vantage ? rel : reverse(rel);
    const auto [it, inserted] = fills.try_emplace(key, Fill{canonical});
    if (!inserted && it->second.rel != canonical) it->second.conflicted = true;
  }
  std::size_t pending = 0;
  for (const auto& [key, fill] : fills) {
    if (fill.conflicted) {
      ++pending;
    } else {
      result.first_hop_rels.set(key.first, key.second, fill.rel);
    }
  }
  result.links_conflicted = pending;
  if (pending == 0) return result;

  // A conflicted link takes the translation of its first translatable
  // route in RIB order.
  input.routes([&](const mrt::ObservedRoute& route) {
    FirstHop hop;
    if (!first_hop(route, hop)) return true;
    const LinkKey key(hop.vantage, hop.next);
    const auto it = fills.find(key);
    if (it == fills.end() || !it->second.conflicted) return true;
    if (params.filter_te && has_te_override(route, hop.vantage, dict)) return true;
    const Relationship rel = translate(hop);
    if (rel == Relationship::Unknown) return true;
    result.first_hop_rels.set(hop.vantage, hop.next, rel);
    it->second.conflicted = false;
    return --pending > 0;
  });
  return result;
}

}  // namespace htor::core
