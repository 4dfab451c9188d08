#include "core/pipeline.hpp"

#include <algorithm>
#include <iterator>

#include "core/parallel.hpp"
#include "mrt/stream_reader.hpp"
#include "obs/trace.hpp"

namespace htor::core {

StampedRib load_stamped_rib(const std::string& path, ThreadPool& pool) {
  mrt::MrtStreamReader stream(path);
  StampedRib out{mrt::rib_from_stream(stream, pool)};
  out.first_timestamp = stream.first_timestamp();
  return out;
}

mrt::ObservedRib load_rib(const std::string& path, ThreadPool& pool) {
  return load_stamped_rib(path, pool).rib;
}

InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config, ThreadPool& pool) {
  return finish_inference(scan_inference_inputs(rib, dict, config.community, pool), dict, config);
}

void TopLinkVotes::offer(const LinkKey& link, std::uint64_t votes) {
  const auto before = [](const LinkVotes& a, const LinkVotes& b) {
    return a.votes != b.votes ? a.votes > b.votes : a.link < b.link;
  };
  const LinkVotes item{link, votes};
  if (votes == 0 || (top_.size() == kTopLinkVotes && !before(item, top_.back()))) return;
  top_.insert(std::upper_bound(top_.begin(), top_.end(), item, before), item);
  if (top_.size() > kTopLinkVotes) top_.pop_back();
}

std::uint64_t vote_total(const std::array<std::uint32_t, 4>& votes) {
  std::uint64_t total = 0;
  for (const std::uint32_t n : votes) total += n;
  return total;
}

namespace {

/// One shard of the route scan: both families' votes and first-hop tables.
struct RouteScan {
  CommunityVotes v4_votes;
  CommunityVotes v6_votes;
  FirstHopTable v4_first_hops;
  FirstHopTable v6_first_hops;
};

}  // namespace

InferenceInputs scan_inference_inputs(const mrt::ObservedRib& rib,
                                      const rpsl::CommunityDictionary& dict,
                                      const CommunityInferenceParams& params, ThreadPool& pool) {
  OBS_SPAN("census.infer.community");
  const std::vector<mrt::ObservedRoute>& routes = rib.routes();
  RouteScan scan = shard_map_reduce(
      pool, routes.size(),
      [&routes, &dict](const ShardRange& range) {
        RouteScan shard;
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const mrt::ObservedRoute& route = routes[i];
          const bool v4 = route.af == IpVersion::V4;
          count_route_votes(route, dict, v4 ? shard.v4_votes : shard.v6_votes);
          (v4 ? shard.v4_first_hops : shard.v6_first_hops).count(route, dict, +1);
        }
        return shard;
      },
      RouteScan{},
      [](RouteScan& acc, RouteScan&& shard) {
        acc.v4_votes.merge(shard.v4_votes);
        acc.v6_votes.merge(shard.v6_votes);
        acc.v4_first_hops.merge(shard.v4_first_hops);
        acc.v6_first_hops.merge(shard.v6_first_hops);
      });

  const auto walk = [&routes](IpVersion af) -> RouteWalk {
    return [&routes, af](const RouteVisitor& visit) {
      for (const mrt::ObservedRoute& route : routes) {
        if (route.af == af && !visit(route)) return;
      }
    };
  };
  InferenceInputs out;
  out.community = tally_communities(scan.v4_votes, scan.v6_votes, params);
  out.v4_rosetta = {std::move(scan.v4_first_hops), walk(IpVersion::V4)};
  out.v6_rosetta = {std::move(scan.v6_first_hops), walk(IpVersion::V6)};
  return out;
}

CommunityInference tally_communities(const CommunityVotes& v4_votes,
                                     const CommunityVotes& v6_votes,
                                     const CommunityInferenceParams& params) {
  CommunityInference out;
  // A link voted in both families is offered once, from its v4 entry.
  TopLinkVotes top;
  for (const auto& [key, tallies] : v4_votes.votes) {
    const auto v6 = v6_votes.votes.find(key);
    top.offer(key, vote_total(tallies) +
                       (v6 == v6_votes.votes.end() ? 0 : vote_total(v6->second)));
  }
  for (const auto& [key, tallies] : v6_votes.votes) {
    if (!v4_votes.votes.contains(key)) top.offer(key, vote_total(tallies));
  }
  out.top_link_votes = top.take();
  out.v4 = tally_community_votes(v4_votes, params);
  out.v6 = tally_community_votes(v6_votes, params);
  return out;
}

InferredRelationships finish_inference(InferenceInputs inputs,
                                       const rpsl::CommunityDictionary& dict,
                                       const InferenceConfig& config) {
  InferredRelationships out;
  out.top_link_votes = std::move(inputs.community.top_link_votes);
  out.community_v4 = std::move(inputs.community.v4);
  out.community_v6 = std::move(inputs.community.v6);
  out.v4 = out.community_v4.rels;
  out.v6 = out.community_v6.rels;
  if (!config.use_rosetta) return out;

  // Rosetta fills only links communities left Unknown, v4 first, then v6.
  OBS_SPAN("census.infer.rosetta");
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const bool v4 = af == IpVersion::V4;
    auto& rels = v4 ? out.v4 : out.v6;
    auto& rosetta = v4 ? out.rosetta_v4 : out.rosetta_v6;
    rosetta = run_rosetta(v4 ? inputs.v4_rosetta : inputs.v6_rosetta, dict, rels, config.rosetta);
    rosetta.first_hop_rels.for_each([&rels](const LinkKey& key, Relationship rel) {
      if (rels.get(key.first, key.second) == Relationship::Unknown) {
        rels.set(key.first, key.second, rel);
      }
    });
  }
  return out;
}

PathStore paths_of(const mrt::ObservedRib& rib, IpVersion af, ThreadPool& pool) {
  std::vector<std::span<const Asn>> occurrences;
  occurrences.reserve(rib.size_of(af));
  for (const auto& route : rib.routes()) {
    if (route.af == af) occurrences.emplace_back(route.as_path);
  }
  return PathStore(occurrences, pool);
}

CoverageStats coverage(const std::vector<LinkKey>& links, const RelationshipMap& rels) {
  CoverageStats stats;
  stats.observed_links = links.size();
  for (const LinkKey& key : links) {
    if (rels.get(key.first, key.second) != Relationship::Unknown) ++stats.covered_links;
  }
  return stats;
}

std::vector<LinkKey> dual_stack_links(const std::vector<LinkKey>& v4_links,
                                      const std::vector<LinkKey>& v6_links) {
  std::vector<LinkKey> out;
  std::set_intersection(v4_links.begin(), v4_links.end(), v6_links.begin(), v6_links.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace htor::core
