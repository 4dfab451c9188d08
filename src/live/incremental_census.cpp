#include "live/incremental_census.hpp"

#include <algorithm>
#include <utility>

#include "core/community_inference.hpp"
#include "core/snapshot_bridge.hpp"
#include "obs/trace.hpp"
#include "topology/valley.hpp"

namespace htor::live {

bool IncrementalCensus::LinkState::has_votes() const {
  for (std::uint32_t v : votes_v4) {
    if (v != 0) return true;
  }
  for (std::uint32_t v : votes_v6) {
    if (v != 0) return true;
  }
  return false;
}

bool IncrementalCensus::LinkState::dead() const {
  return paths_v4 == 0 && paths_v6 == 0 && !has_votes();
}

std::uint32_t& IncrementalCensus::FamilyPaths::overlay_count(const std::vector<Asn>& path) {
  auto [it, inserted] = overlay.try_emplace(path);
  if (inserted) it->second.before = it->second.now = base.count_of(path);
  return it->second.now;
}

IncrementalCensus::Overlay IncrementalCensus::FamilyPaths::fold() {
  Overlay folded = std::move(overlay);
  overlay.clear();
  if (folded.empty()) return folded;
  std::vector<PathChange> changes;
  changes.reserve(folded.size());
  for (const auto& [path, count] : folded) changes.push_back(PathChange{path, count.now});
  base = PathStore::merged(base, changes);
  return folded;
}

IncrementalCensus::IncrementalCensus(const mrt::ObservedRib& rib,
                                     rpsl::CommunityDictionary dict,
                                     core::InferenceConfig config, std::string source,
                                     std::uint32_t seed_timestamp)
    : dict_(std::move(dict)),
      config_(std::move(config)),
      source_(std::move(source)),
      seed_timestamp_(seed_timestamp) {
  rib_.seed(rib);
  // Fold the *table* (post last-wins dedup), not the input vector: the live
  // tier must describe what the RIB holds, and seed() may have collapsed
  // duplicate (family, prefix, peer) rows.
  {
    std::vector<std::span<const Asn>> v4;
    std::vector<std::span<const Asn>> v6;
    rib_.for_each([&](const mrt::ObservedRoute& route) {
      (route.af == IpVersion::V4 ? v4 : v6).emplace_back(route.as_path);
    });
    ThreadPool pool(config_.threads);
    paths_v4_.base = PathStore(v4, pool);
    paths_v6_.base = PathStore(v6, pool);
  }
  for (const bool v4 : {true, false}) {
    const PathStore& store = (v4 ? paths_v4_ : paths_v6_).base;
    (v4 ? stats_.v4_paths : stats_.v6_paths) = store.unique_paths();
    (v4 ? stats_.v4_links : stats_.v6_links) = store.links().size();
    for (std::size_t i = 0; i < store.links().size(); ++i) {
      LinkState& state = links_[store.links()[i]];
      (v4 ? state.paths_v4 : state.paths_v6) = store.link_path_counts()[i];
      if (state.paths_v4 > 0 && state.paths_v6 > 0) stats_.dual_links++;
    }
  }
  rib_.for_each([this](const mrt::ObservedRoute& route) {
    if (route.as_path.size() >= 2) classify_route(route);
    apply_votes(route, +1);
    (route.af == IpVersion::V4 ? first_hops_v4_ : first_hops_v6_).count(route, dict_, +1);
  });
  // The first cut counts everything; only later ones count what changed.
  retallied_v4_.clear();
  retallied_v6_.clear();
  stats_.routes = rib_.size();
}

void IncrementalCensus::apply(std::uint32_t timestamp, const mrt::Bgp4mpMessage& msg) {
  ApplyDelta delta = rib_.apply(msg);  // throws before any mutation
  for (const auto& route : delta.removed) remove_route(route);
  for (const auto& route : delta.added) add_route(route);
  // Churn is counted at the cut; the path overlays already record every
  // path of length >= 2 these routes carry.
  for (const auto* routes : {&delta.removed, &delta.added}) {
    for (const auto& route : *routes) {
      churn_prefixes_.push_back(route.prefix);
      if (route.as_path.size() == 1) churn_lone_ases_.push_back(route.as_path.front());
    }
  }
  ++applied_;
  last_timestamp_ = timestamp;
  stats_.routes = rib_.size();
}

void IncrementalCensus::add_route(const mrt::ObservedRoute& route) {
  const bool v4 = route.af == IpVersion::V4;
  if (route.as_path.size() >= 2) {  // PathStore ignores shorter paths
    if ((v4 ? paths_v4_ : paths_v6_).overlay_count(route.as_path)++ == 0) {
      (v4 ? stats_.v4_paths : stats_.v6_paths)++;
      count_path_links(route.as_path, v4, +1);
    }
    classify_route(route);
  }
  apply_votes(route, +1);
  (v4 ? first_hops_v4_ : first_hops_v6_).count(route, dict_, +1);
}

void IncrementalCensus::remove_route(const mrt::ObservedRoute& route) {
  const bool v4 = route.af == IpVersion::V4;
  if (route.as_path.size() >= 2) {
    std::uint32_t& count = (v4 ? paths_v4_ : paths_v6_).overlay_count(route.as_path);
    if (count > 0 && --count == 0) {
      (v4 ? stats_.v4_paths : stats_.v6_paths)--;
      count_path_links(route.as_path, v4, -1);
    }
  }
  apply_votes(route, -1);
  (v4 ? first_hops_v4_ : first_hops_v6_).count(route, dict_, -1);
}

void IncrementalCensus::count_path_links(const std::vector<Asn>& path, bool v4, int sign) {
  path_links(path, scratch_links_);
  for (const LinkKey& key : scratch_links_) {
    if (sign > 0) {
      LinkState& state = links_[key];
      if ((v4 ? state.paths_v4 : state.paths_v6)++ == 0) {
        (v4 ? stats_.v4_links : stats_.v6_links)++;
        if ((v4 ? state.paths_v6 : state.paths_v4) > 0) stats_.dual_links++;
      }
      update_derived(key, state);
      continue;
    }
    auto it = links_.find(key);
    if (it == links_.end()) continue;
    LinkState& state = it->second;
    std::uint64_t& refs = v4 ? state.paths_v4 : state.paths_v6;
    if (refs > 0 && --refs == 0) {
      (v4 ? stats_.v4_links : stats_.v6_links)--;
      if ((v4 ? state.paths_v6 : state.paths_v4) > 0) stats_.dual_links--;
    }
    update_derived(key, state);
    if (state.dead()) links_.erase(it);
  }
}

void IncrementalCensus::apply_votes(const mrt::ObservedRoute& route, int sign) {
  core::CommunityVotes votes;
  core::count_route_votes(route, dict_, votes);
  if (votes.votes.empty()) return;
  // The scan is a pure function of the route, so the histogram subtracted at
  // withdraw time is exactly the one added at announce time — retraction is
  // exact, never approximate.
  const bool v4 = route.af == IpVersion::V4;
  FamilyVotes& family = v4 ? votes_v4_ : votes_v6_;
  if (sign > 0) {
    stats_.total_votes += votes.total_votes;
    family.total_votes += votes.total_votes;
    family.tagged_routes += votes.tagged_routes;
  } else {
    stats_.total_votes -= votes.total_votes;
    family.total_votes -= votes.total_votes;
    family.tagged_routes -= votes.tagged_routes;
  }
  for (const auto& [key, vote] : votes.votes) {
    LinkState& state = links_[key];
    auto& slots = v4 ? state.votes_v4 : state.votes_v6;
    for (std::size_t i = 0; i < 4; ++i) {
      if (sign > 0) {
        slots[i] += vote[i];
      } else {
        slots[i] -= vote[i];
      }
    }
    retally(key, state);
    auto it = links_.find(key);
    if (it != links_.end() && it->second.dead()) links_.erase(it);
  }
}

void IncrementalCensus::retally(const LinkKey& key, LinkState& state) {
  const auto& params = config_.community;
  const core::LinkTally v4 = core::tally_link(state.votes_v4, params);
  const core::LinkTally v6 = core::tally_link(state.votes_v6, params);

  // Diff old state -> new outcome, keeping every aggregate exact.
  const bool had_votes_v4 = state.rel_v4 != Relationship::Unknown || state.conflicted_v4;
  const bool had_votes_v6 = state.rel_v6 != Relationship::Unknown || state.conflicted_v6;
  if (v4.any_votes != had_votes_v4) stats_.links_with_votes_v4 += v4.any_votes ? 1 : -1;
  if (v6.any_votes != had_votes_v6) stats_.links_with_votes_v6 += v6.any_votes ? 1 : -1;

  if ((v4.rel != Relationship::Unknown) != (state.rel_v4 != Relationship::Unknown)) {
    stats_.typed_links_v4 += v4.rel != Relationship::Unknown ? 1 : -1;
  }
  if ((v6.rel != Relationship::Unknown) != (state.rel_v6 != Relationship::Unknown)) {
    stats_.typed_links_v6 += v6.rel != Relationship::Unknown ? 1 : -1;
  }
  if (v4.conflicted != state.conflicted_v4) stats_.conflicted_links_v4 += v4.conflicted ? 1 : -1;
  if (v6.conflicted != state.conflicted_v6) stats_.conflicted_links_v6 += v6.conflicted ? 1 : -1;

  if (v4.rel != state.rel_v4) {
    retallied_v4_.push_back(key);
    if (v4.rel == Relationship::Unknown) {
      rels_v4_.erase(key.first, key.second);
    } else {
      rels_v4_.set(key.first, key.second, v4.rel);
    }
    state.rel_v4 = v4.rel;
  }
  if (v6.rel != state.rel_v6) {
    retallied_v6_.push_back(key);
    if (v6.rel == Relationship::Unknown) {
      rels_v6_.erase(key.first, key.second);
    } else {
      rels_v6_.set(key.first, key.second, v6.rel);
    }
    state.rel_v6 = v6.rel;
  }
  state.conflicted_v4 = v4.conflicted;
  state.conflicted_v6 = v6.conflicted;

  update_derived(key, state);
}

void IncrementalCensus::update_derived(const LinkKey& key, LinkState& state) {
  (void)key;
  const bool hybrid = state.paths_v4 > 0 && state.paths_v6 > 0 &&
                      state.rel_v4 != Relationship::Unknown &&
                      state.rel_v6 != Relationship::Unknown && state.rel_v4 != state.rel_v6;
  if (hybrid != state.hybrid) {
    stats_.hybrid_links += hybrid ? 1 : -1;
    state.hybrid = hybrid;
  }
}

void IncrementalCensus::classify_route(const mrt::ObservedRoute& route) {
  const RelationshipMap& rels = route.af == IpVersion::V4 ? rels_v4_ : rels_v6_;
  switch (check_valley_free(route.as_path, rels).cls) {
    case PathPolicyClass::ValleyFree: stats_.valley_free_seen++; break;
    case PathPolicyClass::Valley: stats_.valleys_seen++; break;
    case PathPolicyClass::Incomplete: stats_.incomplete_seen++; break;
  }
}

core::CommunityInference IncrementalCensus::maintained_inference() const {
  core::CommunityInference out;
  out.v4.rels = rels_v4_;
  out.v4.links_with_votes = stats_.links_with_votes_v4;
  out.v4.conflicted_links = stats_.conflicted_links_v4;
  out.v4.tagged_routes = votes_v4_.tagged_routes;
  out.v4.total_votes = votes_v4_.total_votes;
  out.v6.rels = rels_v6_;
  out.v6.links_with_votes = stats_.links_with_votes_v6;
  out.v6.conflicted_links = stats_.conflicted_links_v6;
  out.v6.tagged_routes = votes_v6_.tagged_routes;
  out.v6.total_votes = votes_v6_.total_votes;
  core::TopLinkVotes top;
  for (const auto& [key, state] : links_) {
    top.offer(key, core::vote_total(state.votes_v4) + core::vote_total(state.votes_v6));
  }
  out.top_link_votes = top.take();
  return out;
}

void IncrementalCensus::take_churn(EpochReport& epoch) {
  const auto distinct = [](auto& items) {
    std::sort(items.begin(), items.end());
    return static_cast<std::uint64_t>(std::unique(items.begin(), items.end()) - items.begin());
  };
  std::vector<Asn> ases = std::move(churn_lone_ases_);
  std::vector<LinkKey> links;
  for (const FamilyPaths* family : {&paths_v4_, &paths_v6_}) {
    for (const auto& [path, count] : family->overlay) {
      ases.insert(ases.end(), path.begin(), path.end());
      path_links(path, scratch_links_);
      links.insert(links.end(), scratch_links_.begin(), scratch_links_.end());
    }
  }
  epoch.churn_ases = distinct(ases);
  epoch.churn_links = distinct(links);
  epoch.churn_prefixes = distinct(churn_prefixes_);
  churn_lone_ases_.clear();
  churn_prefixes_.clear();
}

EpochReport IncrementalCensus::recompute(ThreadPool& pool) {
  EpochReport epoch;
  epoch.applied = applied_;
  epoch.last_timestamp = applied_ == 0 ? seed_timestamp_ : last_timestamp_;
  {
    OBS_SPAN("live.epoch.churn");
    take_churn(epoch);
  }
  {
    OBS_SPAN("census");
    core::CensusFront front;
    // The folded overlays: the census's changed paths point into their keys.
    Overlay v4_folded;
    Overlay v6_folded;
    {
      OBS_SPAN("census.paths");
      v4_folded = paths_v4_.fold();
      v6_folded = paths_v6_.fold();
      front.v4_paths = paths_v4_.base;
      front.v6_paths = paths_v6_.base;
      for (const auto& [folded, changed] :
           {std::pair{&v4_folded, &front.v4_changed_paths},
            std::pair{&v6_folded, &front.v6_changed_paths}}) {
        changed->reserve(folded->size());
        for (const auto& [path, count] : *folded) {
          changed->push_back(core::PathDelta{path, count.before, count.now});
        }
      }
    }
    {
      OBS_SPAN("census.infer.community");
      front.inference.community = maintained_inference();
    }
    if (config_.use_rosetta) {
      const auto walk = [this](IpVersion af) -> core::RouteWalk {
        return [this, af](const core::RouteVisitor& visit) { rib_.visit(af, visit); };
      };
      front.inference.v4_rosetta = {first_hops_v4_, walk(IpVersion::V4)};
      front.inference.v6_rosetta = {first_hops_v6_, walk(IpVersion::V6)};
    }
    front.v4_retallied = std::move(retallied_v4_);
    front.v6_retallied = std::move(retallied_v6_);
    retallied_v4_.clear();
    retallied_v6_.clear();
    epoch.report = core::census_back(std::move(front), dict_, config_, pool, &carry_);
  }
  {
    OBS_SPAN("live.epoch.snapshot");
    epoch.snap = core::to_snapshot(epoch.report, source_, epoch.last_timestamp);
  }
  return epoch;
}

}  // namespace htor::live
