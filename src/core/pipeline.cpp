#include "core/pipeline.hpp"

#include <algorithm>
#include <iterator>

#include "core/parallel.hpp"
#include "mrt/stream_reader.hpp"
#include "obs/sketch/telemetry.hpp"
#include "obs/trace.hpp"

namespace htor::core {

mrt::ObservedRib load_rib(const std::string& path, ThreadPool& pool) {
  mrt::MrtStreamReader stream(path);
  return mrt::rib_from_stream(stream, pool);
}

namespace {

/// Merge every shard future in order; on failure keep draining (the tasks
/// reference caller-owned route lists) and rethrow the first error.
CommunityVotes collect_votes(std::vector<std::future<CommunityVotes>>& futures,
                             std::exception_ptr& first_error) {
  CommunityVotes merged;
  for (auto& future : futures) {
    try {
      merged.merge(future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  return merged;
}

}  // namespace

InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config) {
  ThreadPool pool(config.threads);
  return infer_relationships(rib, dict, config, pool);
}

InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config, ThreadPool& pool) {
  const auto v4_routes = rib.routes_of(IpVersion::V4);
  const auto v6_routes = rib.routes_of(IpVersion::V6);
  return finish_inference(infer_communities(v4_routes, v6_routes, dict, config.community, pool),
                          v4_routes, v6_routes, dict, config, pool);
}

void add_link_votes(LinkVoteFeed& feed, const LinkKey& key,
                    const std::array<std::uint32_t, 4>& votes) {
  std::uint64_t total = 0;
  for (const std::uint32_t n : votes) total += n;
  if (total > 0) feed.emplace_back(obs::sketch::link_item(key.first, key.second), total);
}

CommunityInference infer_communities(const std::vector<const mrt::ObservedRoute*>& v4_routes,
                                     const std::vector<const mrt::ObservedRoute*>& v6_routes,
                                     const rpsl::CommunityDictionary& dict,
                                     const CommunityInferenceParams& params, ThreadPool& pool) {
  OBS_SPAN("census.infer.community");
  auto submit_scans = [&pool, &dict](const std::vector<const mrt::ObservedRoute*>& routes) {
    std::vector<std::future<CommunityVotes>> futures;
    for (const ShardRange& range : shard_ranges(routes.size())) {
      futures.push_back(pool.submit([&routes, &dict, range] {
        return scan_community_votes(routes, range.begin, range.end, dict);
      }));
    }
    return futures;
  };
  std::exception_ptr first_error;
  auto v4_futures = submit_scans(v4_routes);
  auto v6_futures = submit_scans(v6_routes);
  const CommunityVotes v4_votes = collect_votes(v4_futures, first_error);
  const CommunityVotes v6_votes = collect_votes(v6_futures, first_error);
  if (first_error) std::rethrow_exception(first_error);

  CommunityInference out;
  out.link_votes.reserve(v4_votes.votes.size() + v6_votes.votes.size());
  for (const CommunityVotes* family : {&v4_votes, &v6_votes}) {
    for (const auto& [key, tallies] : family->votes) add_link_votes(out.link_votes, key, tallies);
  }
  // Sorted, so the heavy-hitter candidate set never depends on
  // unordered_map iteration order (or on the ingest path taken).
  std::sort(out.link_votes.begin(), out.link_votes.end());
  out.v4 = tally_community_votes(v4_votes, params);
  out.v6 = tally_community_votes(v6_votes, params);
  return out;
}

InferredRelationships finish_inference(CommunityInference community,
                                       const std::vector<const mrt::ObservedRoute*>& v4_routes,
                                       const std::vector<const mrt::ObservedRoute*>& v6_routes,
                                       const rpsl::CommunityDictionary& dict,
                                       const InferenceConfig& config, ThreadPool& pool) {
  obs::sketch::Telemetry::global().feed_link_votes(community.link_votes);
  InferredRelationships out;
  out.community_v4 = std::move(community.v4);
  out.community_v6 = std::move(community.v6);
  out.v4 = out.community_v4.rels;
  out.v6 = out.community_v6.rels;
  if (!config.use_rosetta) return out;

  // Two independent pool tasks: each reads only its own family's routes and
  // community map.
  OBS_SPAN("census.infer.rosetta");
  auto v4_rosetta =
      pool.submit([&] { return run_rosetta(v4_routes, dict, out.v4, config.rosetta); });
  auto v6_rosetta =
      pool.submit([&] { return run_rosetta(v6_routes, dict, out.v6, config.rosetta); });
  std::exception_ptr first_error;
  try {
    out.rosetta_v4 = v4_rosetta.get();
  } catch (...) {
    first_error = std::current_exception();
  }
  try {
    out.rosetta_v6 = v6_rosetta.get();
  } catch (...) {
    if (!first_error) first_error = std::current_exception();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Deterministic merge: Rosetta fills only links communities left
  // Unknown, applied v4 first, then v6.
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    auto& rels = af == IpVersion::V4 ? out.v4 : out.v6;
    const auto& rosetta = af == IpVersion::V4 ? out.rosetta_v4 : out.rosetta_v6;
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
