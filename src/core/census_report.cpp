#include "core/census_report.hpp"

#include <algorithm>
#include <iterator>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

CensusReport run_census(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                        const InferenceConfig& config, ThreadPool& pool) {
  OBS_SPAN("census");
  return census_back(census_front(rib, dict, config, pool), dict, config, pool);
}

CensusFront census_front(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                         const InferenceConfig& config, ThreadPool& pool) {
  CensusFront front;
  {
    OBS_SPAN("census.paths");
    front.v4_paths = paths_of(rib, IpVersion::V4, pool);
    front.v6_paths = paths_of(rib, IpVersion::V6, pool);
  }
  front.inference = scan_inference_inputs(rib, dict, config.community, pool);
  return front;
}

std::vector<LinkKey> CensusCarry::retyped(const Family& family,
                                          const std::vector<LinkKey>& retallied,
                                          const RelationshipMap& rels,
                                          const RelationshipMap& rosetta) {
  // A final relationship is the community one, else Rosetta's fill, so it
  // can change only on a retallied link or an old or new fill.
  std::vector<LinkKey> candidates = retallied;
  const auto add = [&candidates](const LinkKey& key, Relationship) { candidates.push_back(key); };
  family.rosetta.for_each(add);
  rosetta.for_each(add);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  std::erase_if(candidates, [&](const LinkKey& key) {
    return family.rels.get(key.first, key.second) == rels.get(key.first, key.second);
  });
  return candidates;
}

void CensusCarry::recount(Family& family, bool v6, const PathStore& store,
                          std::span<const PathDelta> changed, const std::vector<LinkKey>& moved,
                          const std::vector<LinkKey>& retyped, const RelationshipMap& rels,
                          const std::vector<LinkKey>& hybrids, ThreadPool& pool) {
  // One path's contribution to every sum, counted in or out.
  const auto tally = [&](std::span<const Asn> path, const RelationshipMap& path_rels,
                         const std::vector<LinkKey>& path_hybrids, int sign) {
    const PathVerdict verdict = classify_path(path, path_rels);
    family.valleys.count(verdict, sign);
    if (verdict.testable) family.necessity.count(path.front(), path.back(), sign);
    if (v6 && crosses_link(path, path_hybrids)) {
      if (sign > 0) {
        ++v6_paths_with_hybrid_;
      } else {
        --v6_paths_with_hybrid_;
      }
    }
  };
  const auto recount_path = [&](std::span<const Asn> path, bool before, bool after) {
    if (before) tally(path, family.rels, hybrids_, -1);
    if (after) tally(path, rels, hybrids, +1);
  };

  if (!retyped.empty()) family.necessity.invalidate();
  for (const PathDelta& delta : changed) recount_path(delta.path, delta.before > 0, delta.after > 0);
  if (!moved.empty()) {
    // One pass over the store for the unchanged paths that cross a moved
    // link; both the store and `changed` ascend, so the changed paths
    // (already recounted) are skipped in step.
    std::size_t next = 0;
    for (std::size_t i = 0; i < store.unique_paths(); ++i) {
      const std::span<const Asn> path = store.path(i);
      while (next < changed.size() && path_less(changed[next].path, path)) ++next;
      if (next < changed.size() && std::ranges::equal(changed[next].path, path)) continue;
      if (crosses_link(path, moved)) recount_path(path, true, true);
    }
  }
  for (const LinkKey& key : retyped) {
    const Relationship rel = rels.get(key.first, key.second);
    if (rel == Relationship::Unknown) {
      family.rels.erase(key.first, key.second);
    } else {
      family.rels.set(key.first, key.second, rel);
    }
  }
  if (!retyped.empty()) family.necessity.rebuild(family.rels, pool);
  family.valleys.necessary_valleys = family.necessity.necessary();
}

CensusReport census_back(CensusFront front, const rpsl::CommunityDictionary& dict,
                         const InferenceConfig& config, ThreadPool& pool, CensusCarry* carry) {
  CensusReport report;
  report.v4_path_store = std::move(front.v4_paths);
  report.v6_path_store = std::move(front.v6_paths);
  report.v4_paths = report.v4_path_store.unique_paths();
  report.v6_paths = report.v6_path_store.unique_paths();
  const std::vector<LinkKey>& v4_links = report.v4_path_store.links();
  const std::vector<LinkKey>& v6_links = report.v6_path_store.links();
  std::vector<LinkKey> duals;
  {
    OBS_SPAN("census.duals");
    duals = dual_stack_links(v4_links, v6_links);
  }
  report.v4_links = v4_links.size();
  report.v6_links = v6_links.size();
  report.dual_links = duals.size();

  report.inferred = finish_inference(std::move(front.inference), dict, config);
  {
    OBS_SPAN("census.coverage");
    report.v4_coverage = coverage(v4_links, report.inferred.v4);
    report.v6_coverage = coverage(v6_links, report.inferred.v6);

    // Dual coverage in the paper's sense: both the IPv4 and the IPv6
    // relationship of the link are known.
    report.dual_coverage.observed_links = duals.size();
    for (const LinkKey& key : duals) {
      if (report.inferred.v4.get(key.first, key.second) != Relationship::Unknown &&
          report.inferred.v6.get(key.first, key.second) != Relationship::Unknown) {
        ++report.dual_coverage.covered_links;
      }
    }
  }

  const bool delta = carry != nullptr && carry->seeded_;
  // Until this census has fully landed in the carry, the next one must not
  // count on from it: a throw below leaves the carry to be rebuilt whole.
  if (carry != nullptr) carry->seeded_ = false;
  std::vector<LinkKey> v4_retyped;
  std::vector<LinkKey> v6_retyped;
  if (delta) {
    v4_retyped = CensusCarry::retyped(carry->v4_, front.v4_retallied, report.inferred.v4,
                                      report.inferred.rosetta_v4.first_hop_rels);
    v6_retyped = CensusCarry::retyped(carry->v6_, front.v6_retallied, report.inferred.v6,
                                      report.inferred.rosetta_v6.first_hop_rels);
  }

  std::vector<LinkKey> hybrids;
  {
    OBS_SPAN("census.hybrids");
    // Tier attribution from the richer (IPv4) inferred map, reused while
    // that map is unchanged.
    std::unordered_map<Asn, Tier> tiers;
    const bool fresh_tiers = !delta || !v4_retyped.empty();
    if (fresh_tiers) tiers = classify_tiers(report.inferred.v4);
    const auto& used = fresh_tiers ? tiers : carry->tiers_;
    if (delta) {
      report.hybrids = classify_hybrid_links(duals, report.inferred.v4, report.inferred.v6,
                                             report.v6_path_store, &used);
    } else {
      report.hybrids = detect_hybrids(duals, report.inferred.v4, report.inferred.v6,
                                      report.v6_path_store, pool, &used);
    }
    hybrids = hybrid_links(report.hybrids);
    if (carry != nullptr && fresh_tiers) carry->tiers_ = std::move(tiers);
  }

  {
    OBS_SPAN("census.valleys");
    if (delta) {
      // The v6 paths to recount also include those crossing a link whose
      // hybrid status changed.
      std::vector<LinkKey> v6_moved;
      std::set_symmetric_difference(carry->hybrids_.begin(), carry->hybrids_.end(),
                                    hybrids.begin(), hybrids.end(),
                                    std::back_inserter(v6_moved));
      v6_moved.insert(v6_moved.end(), v6_retyped.begin(), v6_retyped.end());
      std::sort(v6_moved.begin(), v6_moved.end());
      v6_moved.erase(std::unique(v6_moved.begin(), v6_moved.end()), v6_moved.end());
      carry->recount(carry->v6_, true, report.v6_path_store, front.v6_changed_paths, v6_moved,
                     v6_retyped, report.inferred.v6, hybrids, pool);
      carry->recount(carry->v4_, false, report.v4_path_store, front.v4_changed_paths,
                     v4_retyped, v4_retyped, report.inferred.v4, hybrids, pool);
      report.v6_valleys = carry->v6_.valleys;
      report.v4_valleys = carry->v4_.valleys;
      report.hybrids.v6_paths_with_hybrid = carry->v6_paths_with_hybrid_;
    } else {
      report.v6_valleys = census_valleys(report.v6_path_store, report.inferred.v6, pool,
                                         carry != nullptr ? &carry->v6_.necessity : nullptr);
      report.v4_valleys = census_valleys(report.v4_path_store, report.inferred.v4, pool,
                                         carry != nullptr ? &carry->v4_.necessity : nullptr);
    }
  }

  if (carry != nullptr) {
    if (!delta) {
      carry->v4_.rels = report.inferred.v4;
      carry->v6_.rels = report.inferred.v6;
      carry->v4_.valleys = report.v4_valleys;
      carry->v6_.valleys = report.v6_valleys;
      carry->v6_paths_with_hybrid_ = report.hybrids.v6_paths_with_hybrid;
    }
    carry->v4_.rosetta = report.inferred.rosetta_v4.first_hop_rels;
    carry->v6_.rosetta = report.inferred.rosetta_v6.first_hop_rels;
    carry->hybrids_ = std::move(hybrids);
    carry->seeded_ = true;
  }
  return report;
}

}  // namespace htor::core
