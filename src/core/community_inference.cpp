#include "core/community_inference.hpp"

#include <algorithm>

#include "core/parallel.hpp"

namespace htor::core {

namespace {

std::vector<Asn> collapse(const std::vector<Asn>& path) {
  std::vector<Asn> out;
  out.reserve(path.size());
  for (Asn a : path) {
    if (out.empty() || out.back() != a) out.push_back(a);
  }
  return out;
}

std::size_t rel_index(Relationship rel) {
  switch (rel) {
    case Relationship::P2C: return 0;
    case Relationship::C2P: return 1;
    case Relationship::P2P: return 2;
    case Relationship::S2S: return 3;
    case Relationship::Unknown: break;
  }
  return 4;
}

Relationship rel_from_index(std::size_t i) {
  switch (i) {
    case 0: return Relationship::P2C;
    case 1: return Relationship::C2P;
    case 2: return Relationship::P2P;
    case 3: return Relationship::S2S;
    default: return Relationship::Unknown;
  }
}

}  // namespace

void CommunityVotes::merge(const CommunityVotes& other) {
  for (const auto& [key, vote] : other.votes) {
    auto& mine = votes[key];
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] += vote[i];
  }
  tagged_routes += other.tagged_routes;
  total_votes += other.total_votes;
}

void count_route_votes(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
                       CommunityVotes& out) {
  const std::vector<Asn> chain = collapse(route.as_path);
  if (chain.size() < 2) return;

  bool contributed = false;
  for (bgp::Community community : route.communities) {
    const rpsl::CommunityMeaning* meaning = dict.lookup(community);
    if (meaning == nullptr || !rpsl::is_relationship_tag(meaning->kind)) continue;

    // Localize: the tagging AS must sit on this path exactly once, with a
    // next hop toward the origin.  An ASN appearing twice post-collapse
    // means a looped/poisoned path: its tag cannot be localized to one link.
    const auto first = std::find(chain.begin(), chain.end(), community.asn());
    if (first == chain.end() || first + 1 == chain.end() ||
        std::find(first + 1, chain.end(), community.asn()) != chain.end()) {
      continue;
    }
    const Asn tagger = *first;
    const Asn from = *(first + 1);

    const Relationship rel = rpsl::relationship_of(meaning->kind);  // rel(tagger, from)
    const LinkKey key(tagger, from);
    const Relationship canonical = key.first == tagger ? rel : reverse(rel);
    const std::size_t idx = rel_index(canonical);
    if (idx >= 4) continue;
    ++out.votes[key][idx];
    ++out.total_votes;
    contributed = true;
  }
  if (contributed) ++out.tagged_routes;
}

CommunityVotes scan_community_votes(const std::vector<const mrt::ObservedRoute*>& routes,
                                    std::size_t begin, std::size_t end,
                                    const rpsl::CommunityDictionary& dict) {
  CommunityVotes out;
  for (std::size_t r = begin; r < end && r < routes.size(); ++r) {
    count_route_votes(*routes[r], dict, out);
  }
  return out;
}

LinkTally tally_link(const std::array<std::uint32_t, 4>& votes,
                     const CommunityInferenceParams& params) {
  LinkTally out;
  std::uint64_t total = 0;
  std::size_t best = 0;
  std::size_t with_max = 0;  // how many relationships share the top count
  for (std::size_t i = 0; i < 4; ++i) {
    total += votes[i];
    if (votes[i] > votes[best]) best = i;
  }
  if (total == 0) return out;
  out.any_votes = true;
  for (std::size_t i = 0; i < 4; ++i) {
    if (votes[i] == votes[best]) ++with_max;
  }
  // A tie for the top count (e.g. 1×P2C vs 1×P2P) is a contradiction, not
  // a winner — resolving it by enum order would silently prefer P2C.
  if (with_max > 1 || votes[best] < params.min_votes ||
      static_cast<double>(votes[best]) < params.majority * static_cast<double>(total)) {
    out.conflicted = true;
    return out;
  }
  out.rel = rel_from_index(best);
  return out;
}

CommunityInferenceResult tally_community_votes(const CommunityVotes& votes,
                                               const CommunityInferenceParams& params) {
  CommunityInferenceResult result;
  result.tagged_routes = votes.tagged_routes;
  result.total_votes = votes.total_votes;
  result.links_with_votes = votes.votes.size();
  for (const auto& [key, vote] : votes.votes) {
    const LinkTally tally = tally_link(vote, params);
    if (tally.conflicted) {
      ++result.conflicted_links;
    } else if (tally.rel != Relationship::Unknown) {
      result.rels.set(key.first, key.second, tally.rel);
    }
  }
  return result;
}

CommunityInferenceResult infer_from_communities(
    const std::vector<const mrt::ObservedRoute*>& routes,
    const rpsl::CommunityDictionary& dict, const CommunityInferenceParams& params) {
  return tally_community_votes(scan_community_votes(routes, 0, routes.size(), dict), params);
}

CommunityInferenceResult infer_from_communities(
    const std::vector<const mrt::ObservedRoute*>& routes,
    const rpsl::CommunityDictionary& dict, const CommunityInferenceParams& params,
    ThreadPool& pool) {
  CommunityVotes merged = shard_map_reduce(
      pool, routes.size(),
      [&routes, &dict](const ShardRange& range) {
        return scan_community_votes(routes, range.begin, range.end, dict);
      },
      CommunityVotes{},
      [](CommunityVotes& acc, CommunityVotes&& shard) { acc.merge(shard); });
  return tally_community_votes(merged, params);
}

}  // namespace htor::core
