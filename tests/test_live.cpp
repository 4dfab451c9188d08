// Tests for the continuous-census subsystem (src/live/): BGP4MP apply
// semantics on the live ObservedRib, the IncrementalCensus epoch report
// against a batch census of the materialized RIB, and the pipeline's
// equivalence oracle — every epoch's snapshot is byte-identical to an
// independent sequential replay of the same update prefix, at any ring
// capacity and any pool size, including under adversarial churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/message.hpp"
#include "core/census_report.hpp"
#include "core/community_inference.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "live/incremental_census.hpp"
#include "live/observed_rib.hpp"
#include "live/pipeline.hpp"
#include "mrt/writer.hpp"
#include "obs/metrics.hpp"
#include "rpsl/object.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/writer.hpp"

namespace htor::live {
namespace {

constexpr std::uint32_t kSeedTimestamp = 1281052800u;
constexpr char kSource[] = "live-test";

/// Shared fixture: a small synthetic internet, its mined dictionary, and a
/// deterministic update schedule over its collector RIB.
struct World {
  mrt::ObservedRib rib;
  rpsl::CommunityDictionary dict;
  std::vector<mrt::Record> updates;
};

const World& world() {
  static const World w = [] {
    const auto net = gen::SyntheticInternet::generate(gen::small_params(7));
    World out;
    out.rib = net.collect();
    out.dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
    gen::UpdateScheduleParams params;
    params.events = 400;
    out.updates = gen::synthesize_updates(out.rib, params);
    return out;
  }();
  return w;
}

std::string write_updates_file(const std::vector<mrt::Record>& records, const std::string& name) {
  mrt::MrtWriter writer;
  for (const auto& record : records) writer.write(record);
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out);
  const auto& bytes = writer.data();
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return path;
}

// ------------------------------------------------------- message builders

mrt::Bgp4mpMessage wrap_update(Asn peer, bgp::UpdateMessage update) {
  mrt::Bgp4mpMessage msg;
  msg.peer_as = peer;
  msg.local_as = 64500;
  msg.peer_ip = IpAddress::parse("10.0.0.1");
  msg.local_ip = IpAddress::parse("10.0.0.2");
  msg.message = std::move(update);
  return msg;
}

mrt::Bgp4mpMessage v4_announce(Asn peer, const std::string& prefix, std::vector<Asn> path,
                               std::optional<std::uint32_t> local_pref = {}) {
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::Igp;
  update.attrs.as_path = bgp::AsPath::sequence(std::move(path));
  update.attrs.next_hop = IpAddress::parse("10.0.0.1");
  update.attrs.local_pref = local_pref;
  update.nlri.push_back(Prefix::parse(prefix));
  return wrap_update(peer, std::move(update));
}

mrt::Bgp4mpMessage v4_withdraw(Asn peer, const std::string& prefix) {
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse(prefix));
  return wrap_update(peer, std::move(update));
}

/// An UPDATE announcing `route` as its peer would send it.
mrt::Bgp4mpMessage announce_route(const mrt::ObservedRoute& route) {
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::Igp;
  update.attrs.as_path = bgp::AsPath::sequence(route.as_path);
  update.attrs.local_pref = route.local_pref;
  update.attrs.communities = route.communities;
  if (route.af == IpVersion::V4) {
    update.attrs.next_hop = IpAddress::parse("10.0.0.1");
    update.nlri.push_back(route.prefix);
  } else {
    bgp::MpReachNlri reach;
    reach.next_hops.push_back(IpAddress::parse("2001:db8::1"));
    reach.nlri.push_back(route.prefix);
    update.attrs.mp_reach = std::move(reach);
  }
  return wrap_update(route.peer_asn, std::move(update));
}

/// An UPDATE withdrawing `route`'s (family, prefix) from its peer.
mrt::Bgp4mpMessage withdraw_route(const mrt::ObservedRoute& route) {
  bgp::UpdateMessage update;
  if (route.af == IpVersion::V4) {
    update.withdrawn.push_back(route.prefix);
  } else {
    bgp::MpUnreachNlri unreach;
    unreach.withdrawn.push_back(route.prefix);
    update.attrs.mp_unreach = std::move(unreach);
  }
  return wrap_update(route.peer_asn, std::move(update));
}

// --------------------------------------------------------- apply semantics

TEST(ObservedRibApply, AnnounceReplaceDuplicateWithdrawCounters) {
  ObservedRib rib;
  rib.apply(v4_announce(65001, "10.1.0.0/16", {65001, 65002}));
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.stats().announced, 1u);

  rib.apply(v4_announce(65001, "10.1.0.0/16", {65001, 65002}));
  EXPECT_EQ(rib.stats().duplicates, 1u);
  EXPECT_EQ(rib.size(), 1u);

  rib.apply(v4_announce(65001, "10.1.0.0/16", {65001, 65002}, 120));
  EXPECT_EQ(rib.stats().replaced, 1u);
  EXPECT_EQ(rib.size(), 1u);

  // Same prefix from a different peer is a distinct route.
  rib.apply(v4_announce(65009, "10.1.0.0/16", {65009, 65002}));
  EXPECT_EQ(rib.size(), 2u);

  rib.apply(v4_withdraw(65001, "10.1.0.0/16"));
  EXPECT_EQ(rib.stats().withdrawn, 1u);
  EXPECT_EQ(rib.size(), 1u);

  rib.apply(v4_withdraw(65001, "10.1.0.0/16"));
  EXPECT_EQ(rib.stats().withdrawn_missing, 1u);
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.stats().messages, 6u);
}

TEST(ObservedRibApply, NonUpdateMessagesAreCountedAndIgnored) {
  ObservedRib rib;
  mrt::Bgp4mpMessage keepalive;
  keepalive.peer_as = 65001;
  keepalive.message = bgp::KeepaliveMessage{};
  const auto delta = rib.apply(keepalive);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(rib.stats().non_updates, 1u);
  EXPECT_EQ(rib.stats().messages, 0u);
}

TEST(ObservedRibApply, WithdrawAndAnnounceOfSamePrefixAnnouncementWins) {
  ObservedRib rib;
  rib.apply(v4_announce(65001, "10.2.0.0/16", {65001, 65003}));
  // One UPDATE listing the prefix both withdrawn and announced (RFC 4271:
  // the announcement wins — withdraw first, then install).
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("10.2.0.0/16"));
  update.attrs.origin = bgp::Origin::Igp;
  update.attrs.as_path = bgp::AsPath::sequence({65001, 65004});
  update.attrs.next_hop = IpAddress::parse("10.0.0.1");
  update.nlri.push_back(Prefix::parse("10.2.0.0/16"));
  const auto delta = rib.apply(wrap_update(65001, std::move(update)));
  EXPECT_EQ(rib.size(), 1u);
  ASSERT_EQ(delta.removed.size(), 1u);
  ASSERT_EQ(delta.added.size(), 1u);
  EXPECT_EQ(delta.removed[0].as_path, (std::vector<Asn>{65001, 65003}));
  EXPECT_EQ(delta.added[0].as_path, (std::vector<Asn>{65001, 65004}));
}

TEST(ObservedRibApply, MissingAsPathThrowsWithoutMutating) {
  ObservedRib rib;
  rib.apply(v4_announce(65001, "10.3.0.0/16", {65001, 65002}));
  const auto before = rib.materialize();

  // Announce without an AS_PATH, which *also* withdraws the held route: the
  // validation must reject the whole message before the withdraw runs.
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("10.3.0.0/16"));
  update.nlri.push_back(Prefix::parse("10.4.0.0/16"));
  EXPECT_THROW(rib.apply(wrap_update(65001, std::move(update))), DecodeError);

  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.materialize().routes(), before.routes());
  EXPECT_EQ(rib.stats().withdrawn, 0u);
}

TEST(ObservedRibApply, FamilyMismatchThrowsWithoutMutating) {
  ObservedRib rib;
  // A v6 prefix in the v4 NLRI field.
  bgp::UpdateMessage update;
  update.attrs.as_path = bgp::AsPath::sequence({65001, 65002});
  update.nlri.push_back(Prefix::parse("2001:db8::/32"));
  EXPECT_THROW(rib.apply(wrap_update(65001, std::move(update))), DecodeError);
  // A v6 prefix in the v4 withdrawn field.
  bgp::UpdateMessage withdraw;
  withdraw.withdrawn.push_back(Prefix::parse("2001:db8::/32"));
  EXPECT_THROW(rib.apply(wrap_update(65001, std::move(withdraw))), DecodeError);
  EXPECT_EQ(rib.size(), 0u);
}

TEST(ObservedRibApply, SeedIsLastWinsPerKey) {
  const World& w = world();
  ObservedRib rib;
  rib.seed(w.rib);
  EXPECT_EQ(rib.size(), w.rib.size());  // the generator dedups per key upstream
  EXPECT_EQ(rib.size_of(IpVersion::V4), w.rib.size_of(IpVersion::V4));
  EXPECT_EQ(rib.size_of(IpVersion::V6), w.rib.size_of(IpVersion::V6));
}

// --------------------------------------------- independent replay oracle

/// A route table keyed like the live one, kept by test-local logic.
using Table = std::map<RouteKey, mrt::ObservedRoute>;

RouteKey key_of(const mrt::ObservedRoute& route) {
  return RouteKey{route.af, route.prefix, route.peer_asn};
}

Table seed_table(const World& w) {
  Table table;
  for (const auto& route : w.rib.routes()) table.insert_or_assign(key_of(route), route);
  return table;
}

/// The BATCH census over `table`, encoded as the epoch stamped `last_ts`
/// would be.
std::vector<std::uint8_t> reference_bytes(const Table& table, std::uint32_t last_ts,
                                          const rpsl::CommunityDictionary& dict,
                                          ThreadPool& pool) {
  mrt::ObservedRib rib;
  for (const auto& [key, route] : table) rib.add(route);
  core::InferenceConfig config;
  const auto report = core::run_census(rib, dict, config, pool);
  return snapshot::Writer::encode(core::to_snapshot(report, kSource, last_ts));
}

/// Applies the first `count` update records to the seed RIB with
/// test-local logic (an insert-or-assign/erase map keyed like the live
/// table), then runs the BATCH census over the result.  This shares no
/// apply code with src/live/ — it is the ground truth the pipeline's
/// epochs are measured against.
std::vector<std::uint8_t> replay_reference(const World& w, std::size_t count,
                                           ThreadPool& pool) {
  Table table = seed_table(w);
  std::uint32_t last_ts = kSeedTimestamp;
  for (std::size_t i = 0; i < count && i < w.updates.size(); ++i) {
    const auto& record = w.updates[i];
    const auto& msg = std::get<mrt::Bgp4mpMessage>(record.body);
    const auto& update = std::get<bgp::UpdateMessage>(msg.message);
    for (const auto& p : update.withdrawn) {
      table.erase(RouteKey{IpVersion::V4, p, msg.peer_as});
    }
    if (update.attrs.mp_unreach) {
      for (const auto& p : update.attrs.mp_unreach->withdrawn) {
        table.erase(RouteKey{IpVersion::V6, p, msg.peer_as});
      }
    }
    const auto announce = [&](IpVersion af, const Prefix& p) {
      mrt::ObservedRoute route;
      route.af = af;
      route.prefix = p;
      route.peer_asn = msg.peer_as;
      route.as_path = update.attrs.as_path.flatten();
      route.local_pref = update.attrs.local_pref;
      route.communities = update.attrs.communities;
      table.insert_or_assign(RouteKey{af, p, msg.peer_as}, std::move(route));
    };
    for (const auto& p : update.nlri) announce(IpVersion::V4, p);
    if (update.attrs.mp_reach) {
      for (const auto& p : update.attrs.mp_reach->nlri) announce(IpVersion::V6, p);
    }
    last_ts = record.timestamp;
  }

  return reference_bytes(table, last_ts, w.dict, pool);
}

TEST(IncrementalCensus, SeedEpochMatchesBatchCensus) {
  const World& w = world();
  ThreadPool pool(1);
  core::InferenceConfig config;
  IncrementalCensus census(w.rib, w.dict, config, kSource, kSeedTimestamp);
  const auto epoch = census.recompute(pool);
  EXPECT_EQ(epoch.applied, 0u);
  EXPECT_EQ(epoch.last_timestamp, kSeedTimestamp);
  EXPECT_EQ(snapshot::Writer::encode(epoch.snap), replay_reference(w, 0, pool))
      << "epoch 0 must equal the batch census over the seed RIB";
}

// The acceptance matrix: every epoch the pipeline cuts — at ring capacity
// 2 (maximal stage interleaving), 64, and the 1024 default, with the epoch
// pool at 1 and 4 workers — is byte-identical to the independent replay of
// the same update prefix.
TEST(LivePipeline, EpochsMatchIndependentReplayAtAnyCapacityAndJobs) {
  const World& w = world();
  const std::string path = write_updates_file(w.updates, "live_equiv_updates.mrt");

  // Ground truth, computed once per distinct epoch boundary.
  std::map<std::uint64_t, std::vector<std::uint8_t>> reference;

  for (const std::size_t capacity : {std::size_t{2}, std::size_t{64}, std::size_t{1024}}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool(jobs);
      core::InferenceConfig config;
      config.threads = jobs;
      IncrementalCensus census(w.rib, w.dict, config, kSource, kSeedTimestamp);
      PipelineConfig pipeline_config;
      pipeline_config.ring_capacity = capacity;
      pipeline_config.epoch_every = 150;
      Pipeline pipeline(census, pipeline_config);

      std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> epochs;
      const auto result = pipeline.run({path}, pool, [&](const EpochReport& epoch) {
        epochs.emplace_back(epoch.applied, snapshot::Writer::encode(epoch.snap));
      });
      ASSERT_FALSE(result.stopped);
      ASSERT_EQ(result.applied, w.updates.size());
      ASSERT_EQ(result.records, w.updates.size());
      ASSERT_GE(epochs.size(), 2u) << "expected mid-stream epochs plus the final one";
      ASSERT_EQ(epochs.back().first, w.updates.size());

      ThreadPool reference_pool(1);
      for (const auto& [applied, bytes] : epochs) {
        auto it = reference.find(applied);
        if (it == reference.end()) {
          it = reference.emplace(applied, replay_reference(w, applied, reference_pool)).first;
        }
        EXPECT_EQ(bytes, it->second)
            << "epoch at applied=" << applied << " diverged from the sequential replay"
            << " (capacity=" << capacity << ", jobs=" << jobs << ")";
      }
    }
  }
  std::remove(path.c_str());
}

// ----------------------------------------------- report-level oracle

/// The epoch report against core::run_census over the materialized RIB, on
/// what no snapshot carries: the path stores, the community tallies, the
/// Rosetta and valley counters, and the whole hybrid report.
void expect_report_matches_batch(const core::CensusReport& live,
                                 const core::CensusReport& batch) {
  EXPECT_TRUE(live.v4_path_store == batch.v4_path_store);
  EXPECT_TRUE(live.v6_path_store == batch.v6_path_store);

  const core::HybridReport& hybrids = live.hybrids;
  const core::HybridReport& hybrids_want = batch.hybrids;
  EXPECT_EQ(hybrids.hybrids, hybrids_want.hybrids);
  EXPECT_EQ(hybrids.dual_links_observed, hybrids_want.dual_links_observed);
  EXPECT_EQ(hybrids.dual_links_both_known, hybrids_want.dual_links_both_known);
  EXPECT_EQ(hybrids.peer_v4_transit_v6, hybrids_want.peer_v4_transit_v6);
  EXPECT_EQ(hybrids.transit_v4_peer_v6, hybrids_want.transit_v4_peer_v6);
  EXPECT_EQ(hybrids.reversals, hybrids_want.reversals);
  EXPECT_EQ(hybrids.other_mix, hybrids_want.other_mix);
  EXPECT_EQ(hybrids.v6_paths_total, hybrids_want.v6_paths_total);
  EXPECT_EQ(hybrids.v6_paths_with_hybrid, hybrids_want.v6_paths_with_hybrid);
  EXPECT_EQ(hybrids.endpoint_tiers, hybrids_want.endpoint_tiers);
  for (const bool v4 : {true, false}) {
    SCOPED_TRACE(v4 ? "v4" : "v6");
    const auto& got = v4 ? live.inferred.community_v4 : live.inferred.community_v6;
    const auto& want = v4 ? batch.inferred.community_v4 : batch.inferred.community_v6;
    EXPECT_EQ(got.tagged_routes, want.tagged_routes);
    EXPECT_EQ(got.total_votes, want.total_votes);
    EXPECT_EQ(got.links_with_votes, want.links_with_votes);
    EXPECT_EQ(got.conflicted_links, want.conflicted_links);
    EXPECT_EQ(snapshot::sorted_entries(got.rels), snapshot::sorted_entries(want.rels));

    const auto& rosetta = v4 ? live.inferred.rosetta_v4 : live.inferred.rosetta_v6;
    const auto& rosetta_want = v4 ? batch.inferred.rosetta_v4 : batch.inferred.rosetta_v6;
    EXPECT_EQ(rosetta.values_learned, rosetta_want.values_learned);
    EXPECT_EQ(rosetta.values_ambiguous, rosetta_want.values_ambiguous);
    EXPECT_EQ(rosetta.routes_te_filtered, rosetta_want.routes_te_filtered);
    EXPECT_EQ(rosetta.routes_resolved, rosetta_want.routes_resolved);
    EXPECT_EQ(rosetta.links_conflicted, rosetta_want.links_conflicted);
    EXPECT_EQ(snapshot::sorted_entries(rosetta.first_hop_rels),
              snapshot::sorted_entries(rosetta_want.first_hop_rels));

    const auto& valleys = v4 ? live.v4_valleys : live.v6_valleys;
    const auto& valleys_want = v4 ? batch.v4_valleys : batch.v6_valleys;
    EXPECT_EQ(valleys.paths, valleys_want.paths);
    EXPECT_EQ(valleys.valley_free, valleys_want.valley_free);
    EXPECT_EQ(valleys.valley, valleys_want.valley);
    EXPECT_EQ(valleys.incomplete, valleys_want.incomplete);
    EXPECT_EQ(valleys.classified_valleys, valleys_want.classified_valleys);
    EXPECT_EQ(valleys.necessary_valleys, valleys_want.necessary_valleys);
  }
}

class LiveReportOracle : public ::testing::TestWithParam<bool> {};

// Epochs cut every 100 updates (so the path overlays are folded many times)
// match a batch census of the same RIB, with Rosetta on and off.  The live
// counters match it too; the live hybrid count is community-only, so it is
// compared with Rosetta off.
TEST_P(LiveReportOracle, EpochReportMatchesBatchCensusOfMaterializedRib) {
  const World& w = world();
  ThreadPool pool(1);
  core::InferenceConfig config;
  config.use_rosetta = GetParam();
  IncrementalCensus census(w.rib, w.dict, config, kSource, kSeedTimestamp);

  const auto check = [&](std::size_t applied) {
    SCOPED_TRACE(applied);
    const auto epoch = census.recompute(pool);
    const auto batch = core::run_census(census.rib().materialize(), w.dict, config, pool);
    expect_report_matches_batch(epoch.report, batch);

    const auto& stats = census.stats();
    EXPECT_EQ(stats.routes, census.rib().size());
    EXPECT_EQ(stats.v4_paths, batch.v4_paths);
    EXPECT_EQ(stats.v6_paths, batch.v6_paths);
    EXPECT_EQ(stats.v4_links, batch.v4_links);
    EXPECT_EQ(stats.v6_links, batch.v6_links);
    EXPECT_EQ(stats.dual_links, batch.dual_links);
    EXPECT_EQ(stats.typed_links_v4, batch.inferred.community_v4.rels.size());
    EXPECT_EQ(stats.typed_links_v6, batch.inferred.community_v6.rels.size());
    EXPECT_EQ(stats.total_votes, batch.inferred.community_v4.total_votes +
                                     batch.inferred.community_v6.total_votes);
    if (!config.use_rosetta) {
      EXPECT_EQ(stats.hybrid_links, batch.hybrids.hybrids.size());
    }
  };

  check(0);
  for (std::size_t i = 0; i < w.updates.size(); ++i) {
    const auto& record = w.updates[i];
    census.apply(record.timestamp, std::get<mrt::Bgp4mpMessage>(record.body));
    if ((i + 1) % 100 == 0) check(i + 1);
  }
  check(w.updates.size());
}

INSTANTIATE_TEST_SUITE_P(Rosetta, LiveReportOracle, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "On" : "Off"; });

// ------------------------------------------------------ adversarial churn

/// A live census and the test's own mirror of its table, stepped together;
/// every cut is checked byte for byte against the batch census of the
/// mirror.
struct ChurnRig {
  ChurnRig(const World& w, std::size_t jobs)
      : world(w), pool(jobs), census(w.rib, w.dict, config_for(jobs), kSource, kSeedTimestamp),
        table(seed_table(w)) {}

  static core::InferenceConfig config_for(std::size_t jobs) {
    core::InferenceConfig config;
    config.threads = jobs;
    return config;
  }

  void announce(const mrt::ObservedRoute& route) {
    census.apply(++timestamp, announce_route(route));
    table.insert_or_assign(key_of(route), route);
  }
  void withdraw(const mrt::ObservedRoute& route) {
    census.apply(++timestamp, withdraw_route(route));
    table.erase(key_of(route));
  }
  /// Cut an epoch; it must equal the batch census of the mirror.
  std::vector<std::uint8_t> cut() {
    const auto bytes = snapshot::Writer::encode(census.recompute(pool).snap);
    ThreadPool reference_pool(1);
    const std::uint32_t stamp = census.applied() == 0 ? kSeedTimestamp : timestamp;
    EXPECT_EQ(bytes, reference_bytes(table, stamp, world.dict, reference_pool))
        << "epoch at applied=" << census.applied() << " diverged from the batch census";
    return bytes;
  }

  const World& world;
  ThreadPool pool;
  IncrementalCensus census;
  Table table;
  std::uint32_t timestamp = kSeedTimestamp;
};

/// A route of `af` with communities and a path of at least three ASes.
const mrt::ObservedRoute& tagged_route(const World& w, IpVersion af) {
  for (const auto& route : w.rib.routes()) {
    if (route.af == af && !route.communities.empty() && route.as_path.size() >= 3) return route;
  }
  throw std::logic_error("world has no tagged route of the family");
}

// One link flaps 50 times inside one epoch: each flap withdraws a route and
// re-announces it through an AS no other path crosses.
TEST(AdversarialChurn, OneLinkFlapsFiftyTimesInOneEpoch) {
  const World& w = world();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    ChurnRig rig(w, jobs);
    rig.cut();
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) {
      const mrt::ObservedRoute& original = tagged_route(w, af);
      mrt::ObservedRoute detour = original;
      detour.as_path.insert(detour.as_path.begin() + 1, 4200000001u);
      for (int flap = 0; flap < 50; ++flap) {
        rig.withdraw(original);
        rig.announce(detour);
      }
    }
    rig.cut();
  }
}

// Every route withdrawn, an epoch cut on the empty RIB, then every route
// re-announced in reverse key order.
TEST(AdversarialChurn, WithdrawEverythingThenReannounceInReverse) {
  const World& w = world();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    ChurnRig rig(w, jobs);
    std::vector<mrt::ObservedRoute> routes;
    for (const auto& [key, route] : rig.table) routes.push_back(route);
    for (const auto& route : routes) rig.withdraw(route);
    ASSERT_EQ(rig.census.rib().size(), 0u);
    rig.cut();
    const auto& stats = rig.census.stats();
    EXPECT_EQ(stats.v4_paths + stats.v6_paths + stats.v4_links + stats.v6_links, 0u);
    EXPECT_EQ(stats.total_votes, 0u);
    for (auto it = routes.rbegin(); it != routes.rend(); ++it) rig.announce(*it);
    rig.cut();
  }
}

// Two cuts with no apply between them publish the same bytes.
TEST(AdversarialChurn, RecomputeTwiceWithoutApplyIsIdentical) {
  const World& w = world();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    ThreadPool pool(jobs);
    IncrementalCensus census(w.rib, w.dict, ChurnRig::config_for(jobs), kSource,
                             kSeedTimestamp);
    const std::size_t half = w.updates.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      census.apply(w.updates[i].timestamp, std::get<mrt::Bgp4mpMessage>(w.updates[i].body));
    }
    const auto first = snapshot::Writer::encode(census.recompute(pool).snap);
    const auto second = snapshot::Writer::encode(census.recompute(pool).snap);
    EXPECT_EQ(first, second);
    ThreadPool reference_pool(1);
    EXPECT_EQ(first, replay_reference(w, half, reference_pool));
  }
}

// Rosetta types a link from the first route that crosses it, so the order
// it reads routes in is part of the census.  Here two untagged routes cross
// link 1-2 with LocPrf values that translate to different relationships;
// the epoch must read them in canonical key order, as the batch census over
// the materialized RIB does, in both families.
TEST(IncrementalCensus, RosettaReadsRoutesInCanonicalOrder) {
  const auto dict = rpsl::mine_dictionary(rpsl::parse_objects(
      "aut-num:        AS1\n"
      "remarks:        1:100   routes learned from customers\n"
      "remarks:        1:200   routes learned from peers\n"));
  mrt::ObservedRib rib;
  for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const auto prefix = [af](int i) {
      return Prefix::parse(af == IpVersion::V4 ? "10." + std::to_string(i) + ".0.0/16"
                                               : "2001:db8:" + std::to_string(i) + "::/48");
    };
    const auto add = [&](int i, std::vector<Asn> path, std::uint32_t local_pref,
                         std::vector<bgp::Community> communities) {
      mrt::ObservedRoute route;
      route.af = af;
      route.prefix = prefix(i);
      route.peer_asn = 1;
      route.as_path = std::move(path);
      route.local_pref = local_pref;
      route.communities = std::move(communities);
      rib.add(std::move(route));
    };
    // Three tagged samples teach each LocPrf value (Rosetta's min_samples).
    for (int i = 0; i < 3; ++i) {
      add(10 + i, {1, static_cast<Asn>(11 + i)}, 100, {bgp::Community(1, 100)});
      add(20 + i, {1, static_cast<Asn>(21 + i)}, 200, {bgp::Community(1, 200)});
    }
    // Added in reverse key order: in key order 30 comes first.
    add(40, {1, 2, 3}, 200, {});
    add(30, {1, 2, 4}, 100, {});
  }

  ThreadPool pool(1);
  const core::InferenceConfig config;
  IncrementalCensus census(rib, dict, config, kSource, kSeedTimestamp);
  const auto batch = core::run_census(census.rib().materialize(), dict, config, pool);
  ASSERT_EQ(batch.inferred.v4.get(1, 2), Relationship::P2C);
  ASSERT_EQ(batch.inferred.v6.get(1, 2), Relationship::P2C);

  const auto epoch = census.recompute(pool);
  EXPECT_EQ(epoch.report.inferred.v4.get(1, 2), Relationship::P2C);
  EXPECT_EQ(epoch.report.inferred.v6.get(1, 2), Relationship::P2C);
  EXPECT_EQ(snapshot::Writer::encode(epoch.snap),
            snapshot::Writer::encode(core::to_snapshot(batch, kSource, kSeedTimestamp)));
}

// ------------------------------------------------------- epoch deltas
//
// An epoch recounts only what changed since the previous cut (the carried
// census state).  Each case below builds the change that one piece of that
// delta must catch, and every cut is checked against the batch census of
// the materialized RIB on the same pool, at one and at four workers.

/// A route of `af` for prefix number `i`, announced by the path's first AS.
mrt::ObservedRoute delta_route(IpVersion af, int i, std::vector<Asn> path,
                               std::optional<std::uint32_t> local_pref,
                               std::vector<bgp::Community> communities) {
  mrt::ObservedRoute route;
  route.af = af;
  route.prefix = Prefix::parse(af == IpVersion::V4 ? "10." + std::to_string(i) + ".0.0/16"
                                                   : "2001:db8:" + std::to_string(i) + "::/48");
  route.peer_asn = path.front();
  route.as_path = std::move(path);
  route.local_pref = local_pref;
  route.communities = std::move(communities);
  return route;
}

/// A live census over a hand-built RIB whose cuts must each equal the batch
/// census of its materialized RIB.
struct DeltaRig {
  DeltaRig(const mrt::ObservedRib& rib, rpsl::CommunityDictionary dictionary, std::size_t jobs)
      : dict(std::move(dictionary)), pool(jobs), census(rib, dict, {}, kSource, kSeedTimestamp) {}

  void announce(const mrt::ObservedRoute& route) {
    census.apply(++timestamp, announce_route(route));
  }
  void withdraw(const mrt::ObservedRoute& route) {
    census.apply(++timestamp, withdraw_route(route));
  }
  /// Cut an epoch, check it against the batch census and return it.
  core::CensusReport cut() {
    EpochReport epoch = census.recompute(pool);
    const auto batch = core::run_census(census.rib().materialize(), dict, {}, pool);
    expect_report_matches_batch(epoch.report, batch);
    EXPECT_EQ(snapshot::Writer::encode(epoch.snap),
              snapshot::Writer::encode(core::to_snapshot(batch, kSource, epoch.last_timestamp)));
    return std::move(epoch.report);
  }

  rpsl::CommunityDictionary dict;
  ThreadPool pool;
  IncrementalCensus census;
  std::uint32_t timestamp = kSeedTimestamp;
};

rpsl::CommunityDictionary delta_dict() {
  std::string irr;
  for (const int asn : {1, 8, 9}) {
    const std::string as = std::to_string(asn);
    irr += "aut-num:        AS" + as + "\n" + "remarks:        " + as +
           ":100   routes learned from customers\n" + "remarks:        " + as +
           ":200   routes learned from peers\n" + "remarks:        " + as +
           ":300   routes learned from upstream providers\n" + "remarks:        " + as +
           ":70    local-pref 70 applied on ingress\n\n";
  }
  return rpsl::mine_dictionary(rpsl::parse_objects(irr));
}

// (a) Two untagged routes give first hop 1-2 LocPrfs that translate to
// different relationships, so the first in RIB order decides.  Withdrawing
// it hands the link to the other LocPrf; re-announcing takes it back.
TEST(EpochDelta, WithdrawingTheFirstRouteOfAConflictedFirstHop) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    mrt::ObservedRib rib;
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) {
      for (int i = 0; i < 3; ++i) {
        rib.add(delta_route(af, 10 + i, {1, static_cast<Asn>(11 + i)}, 100,
                            {bgp::Community(1, 100)}));
        rib.add(delta_route(af, 20 + i, {1, static_cast<Asn>(21 + i)}, 200,
                            {bgp::Community(1, 200)}));
      }
      rib.add(delta_route(af, 40, {1, 2, 3}, 200, {}));
      rib.add(delta_route(af, 50, {1, 2, 5}, 100, {}));
    }
    const auto first = [](IpVersion af) { return delta_route(af, 30, {1, 2, 4}, 100, {}); };
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) rib.add(first(af));

    DeltaRig rig(rib, delta_dict(), jobs);
    auto report = rig.cut();
    EXPECT_EQ(report.inferred.v4.get(1, 2), Relationship::P2C);
    EXPECT_EQ(report.inferred.rosetta_v6.links_conflicted, 1u);
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) rig.withdraw(first(af));
    report = rig.cut();
    EXPECT_EQ(report.inferred.v4.get(1, 2), Relationship::P2P);
    EXPECT_EQ(report.inferred.v6.get(1, 2), Relationship::P2P);
    EXPECT_EQ(report.inferred.rosetta_v4.links_conflicted, 1u);
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) rig.announce(first(af));
    report = rig.cut();
    EXPECT_EQ(report.inferred.v6.get(1, 2), Relationship::P2C);
  }
}

// (b) Link 1-2 is typed provider-to-customer by one vote, in both families.
// New IPv4 routes vote it customer-to-provider and flip its IPv4 type: the
// seed path 8 1 2, which no update touches, turns from valley-free into a
// valley in IPv4, and link 1-2 turns hybrid, so the IPv6 copy of that path
// now crosses a hybrid link.  Withdrawing the voters flips both back, and
// then the only paths crossing 1-2 are ones no update touched.
TEST(EpochDelta, VoteFlipRetypesALinkCrossedOnlyByUntouchedPaths) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    mrt::ObservedRib rib;
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) {
      rib.add(delta_route(af, 1, {8, 1, 2}, {}, {bgp::Community(8, 100), bgp::Community(1, 100)}));
    }
    std::vector<mrt::ObservedRoute> voters;
    for (int i = 0; i < 2; ++i) {
      voters.push_back(delta_route(IpVersion::V4, 60 + i, {1, 2, static_cast<Asn>(60 + i)}, {},
                                   {bgp::Community(1, 300)}));
    }

    DeltaRig rig(rib, delta_dict(), jobs);
    auto report = rig.cut();
    EXPECT_EQ(report.v4_valleys.valley, 0u);
    EXPECT_EQ(report.hybrids.v6_paths_with_hybrid, 0u);
    for (const auto& route : voters) rig.announce(route);
    report = rig.cut();
    EXPECT_EQ(report.inferred.v4.get(1, 2), Relationship::C2P);
    EXPECT_EQ(report.v4_valleys.valley, 1u);
    EXPECT_EQ(report.v4_valleys.necessary_valleys, 1u);
    EXPECT_EQ(report.hybrids.hybrids.size(), 1u);
    EXPECT_EQ(report.hybrids.v6_paths_with_hybrid, 1u);
    for (const auto& route : voters) rig.withdraw(route);
    report = rig.cut();
    EXPECT_EQ(report.v4_valleys.valley, 0u);
    EXPECT_EQ(report.hybrids.v6_paths_with_hybrid, 0u);
  }
}

// (c) The valley 8 1 2 (8 provides for 1, 2 provides for 1) is unnecessary
// while 8 9 2 is valley-free (8 peers with 9, 2 is 9's customer).  New
// routes retype 9-2 customer-to-provider: the valley path is unchanged and
// crosses no retyped link, yet its necessity flips, because the only
// valley-free way from 8 to 2 is gone.
TEST(EpochDelta, RelationshipChangeFlipsTheNecessityOfAnUnchangedValley) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    mrt::ObservedRib rib;
    std::vector<mrt::ObservedRoute> voters;
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) {
      rib.add(delta_route(af, 1, {8, 1, 2}, {}, {bgp::Community(8, 100), bgp::Community(1, 300)}));
      rib.add(delta_route(af, 2, {8, 9, 2}, {}, {bgp::Community(8, 200), bgp::Community(9, 100)}));
      for (int i = 0; i < 2; ++i) {
        voters.push_back(delta_route(af, 70 + i, {9, 2, static_cast<Asn>(70 + i)}, {},
                                     {bgp::Community(9, 300)}));
      }
    }

    DeltaRig rig(rib, delta_dict(), jobs);
    auto report = rig.cut();
    EXPECT_EQ(report.v4_valleys.classified_valleys, 1u);
    EXPECT_EQ(report.v4_valleys.necessary_valleys, 0u);
    for (const auto& route : voters) rig.announce(route);
    report = rig.cut();
    EXPECT_EQ(report.inferred.v6.get(9, 2), Relationship::C2P);
    EXPECT_EQ(report.v6_valleys.classified_valleys, 2u);
    EXPECT_EQ(report.v6_valleys.necessary_valleys, 2u);
    for (const auto& route : voters) rig.withdraw(route);
    report = rig.cut();
    EXPECT_EQ(report.v4_valleys.necessary_valleys, 0u);
  }
}

// (d) A route whose vantage overrides its LocPrf (a set-locpref community)
// is filtered out of Rosetta: announcing and withdrawing it moves
// routes_te_filtered and nothing else.
TEST(EpochDelta, TeTaggedRouteMovesOnlyTheTeFilterCount) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    mrt::ObservedRib rib;
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) {
      for (int i = 0; i < 3; ++i) {
        rib.add(delta_route(af, 10 + i, {1, static_cast<Asn>(11 + i)}, 120,
                            {bgp::Community(1, 100)}));
      }
      rib.add(delta_route(af, 20, {1, 2}, 120, {}));
    }
    const auto te_route = [](IpVersion af) {
      return delta_route(af, 30, {1, 3}, 120, {bgp::Community(1, 200), bgp::Community(1, 70)});
    };

    DeltaRig rig(rib, delta_dict(), jobs);
    const auto before = rig.cut();
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) rig.announce(te_route(af));
    const auto with_te = rig.cut();
    for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) rig.withdraw(te_route(af));
    const auto after = rig.cut();
    for (const bool v4 : {true, false}) {
      SCOPED_TRACE(v4 ? "v4" : "v6");
      const auto& r0 = v4 ? before.inferred.rosetta_v4 : before.inferred.rosetta_v6;
      const auto& r1 = v4 ? with_te.inferred.rosetta_v4 : with_te.inferred.rosetta_v6;
      const auto& r2 = v4 ? after.inferred.rosetta_v4 : after.inferred.rosetta_v6;
      EXPECT_EQ(r0.routes_te_filtered, 0u);
      EXPECT_EQ(r1.routes_te_filtered, 1u);
      EXPECT_EQ(r2.routes_te_filtered, 0u);
      for (const auto* r : {&r1, &r2}) {
        EXPECT_EQ(r->values_learned, r0.values_learned);
        EXPECT_EQ(r->values_ambiguous, r0.values_ambiguous);
        EXPECT_EQ(r->routes_resolved, r0.routes_resolved);
        EXPECT_EQ(snapshot::sorted_entries(r->first_hop_rels),
                  snapshot::sorted_entries(r0.first_hop_rels));
      }
      EXPECT_EQ(r0.first_hop_rels.get(1, 2), Relationship::P2C);
    }
  }
}

// A malformed update mid-stream surfaces from apply() with the census (and
// its RIB) exactly as before the bad message.
TEST(IncrementalCensus, RejectedUpdateLeavesCensusUntouched) {
  const World& w = world();
  ThreadPool pool(1);
  core::InferenceConfig config;
  IncrementalCensus census(w.rib, w.dict, config, kSource, kSeedTimestamp);
  const auto before = census.stats();
  const auto size_before = census.rib().size();

  bgp::UpdateMessage bad;  // announce with no AS_PATH
  bad.nlri.push_back(Prefix::parse("10.99.0.0/16"));
  EXPECT_THROW(census.apply(kSeedTimestamp + 1, wrap_update(65001, std::move(bad))),
               DecodeError);

  EXPECT_EQ(census.applied(), 0u);
  EXPECT_EQ(census.rib().size(), size_before);
  EXPECT_EQ(census.stats().routes, before.routes);
  EXPECT_EQ(census.stats().total_votes, before.total_votes);
  EXPECT_EQ(census.stats().v6_links, before.v6_links);
}

// Valley telemetry is monotonic and counts every announced route once.
TEST(IncrementalCensus, ValleyTelemetryIsMonotonic) {
  const World& w = world();
  core::InferenceConfig config;
  IncrementalCensus census(w.rib, w.dict, config, kSource, kSeedTimestamp);
  const auto& stats = census.stats();
  std::uint64_t last_total = stats.valley_free_seen + stats.valleys_seen +
                             stats.incomplete_seen;
  EXPECT_GT(last_total, 0u) << "the seed fold classifies every seeded route";
  for (const auto& record : w.updates) {
    census.apply(record.timestamp, std::get<mrt::Bgp4mpMessage>(record.body));
    const std::uint64_t total =
        stats.valley_free_seen + stats.valleys_seen + stats.incomplete_seen;
    ASSERT_GE(total, last_total);
    last_total = total;
  }
}

// ------------------------------------------------- exact churn and top-10

/// Brute-force epoch churn: a separate live RIB replays the same messages,
/// and the churn of an epoch is the union of the prefixes, ASes and links
/// (prepends collapsed) of every route its ApplyDeltas added or removed.
struct ChurnOracle {
  explicit ChurnOracle(const mrt::ObservedRib& seed) { rib.seed(seed); }

  void apply(const mrt::Bgp4mpMessage& msg) {
    const ApplyDelta delta = rib.apply(msg);
    for (const auto* routes : {&delta.added, &delta.removed}) {
      for (const auto& route : *routes) {
        prefixes.insert(route.prefix);
        for (std::size_t i = 0; i < route.as_path.size(); ++i) {
          ases.insert(route.as_path[i]);
          if (i > 0 && route.as_path[i] != route.as_path[i - 1]) {
            links.insert(LinkKey(route.as_path[i - 1], route.as_path[i]));
          }
        }
      }
    }
  }

  /// `epoch` must carry the union since the previous cut; then start over.
  void expect_cut(const EpochReport& epoch) {
    EXPECT_EQ(epoch.churn_prefixes, prefixes.size()) << "applied=" << epoch.applied;
    EXPECT_EQ(epoch.churn_ases, ases.size()) << "applied=" << epoch.applied;
    EXPECT_EQ(epoch.churn_links, links.size()) << "applied=" << epoch.applied;
    prefixes.clear();
    ases.clear();
    links.clear();
  }

  ObservedRib rib;
  std::set<Prefix> prefixes;
  std::set<Asn> ases;
  std::set<LinkKey> links;
};

// Every epoch of the seeded stream, cut by hand and by the pipeline, carries
// the exact churn; the pipeline's gauges describe the epoch just cut.
TEST(IncrementalCensus, EpochChurnIsTheUnionOfAppliedDeltas) {
  const World& w = world();
  {
    ThreadPool pool(1);
    IncrementalCensus census(w.rib, w.dict, {}, kSource, kSeedTimestamp);
    ChurnOracle oracle(w.rib);
    oracle.expect_cut(census.recompute(pool));  // nothing applied yet
    std::uint64_t churned_prefixes = 0;
    for (std::size_t i = 0; i < w.updates.size(); ++i) {
      const auto& msg = std::get<mrt::Bgp4mpMessage>(w.updates[i].body);
      census.apply(w.updates[i].timestamp, msg);
      oracle.apply(msg);
      if ((i + 1) % 60 == 0 || i + 1 == w.updates.size()) {
        const auto epoch = census.recompute(pool);
        churned_prefixes += epoch.churn_prefixes;
        oracle.expect_cut(epoch);
      }
    }
    EXPECT_GT(churned_prefixes, 0u);
  }

  const std::string path = write_updates_file(w.updates, "live_churn_updates.mrt");
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    IncrementalCensus census(w.rib, w.dict, {}, kSource, kSeedTimestamp);
    PipelineConfig pipeline_config;
    pipeline_config.ring_capacity = 2;
    pipeline_config.epoch_every = 150;
    Pipeline pipeline(census, pipeline_config);
    ChurnOracle oracle(w.rib);
    std::size_t replayed = 0;
    const auto& registry = obs::MetricsRegistry::global();
    pipeline.run({path}, pool, [&](const EpochReport& epoch) {
      for (; replayed < epoch.applied; ++replayed) {
        oracle.apply(std::get<mrt::Bgp4mpMessage>(w.updates[replayed].body));
      }
      oracle.expect_cut(epoch);
      EXPECT_EQ(registry.gauge_value("htor_live_epoch_churn", {{"kind", "as"}}),
                static_cast<std::int64_t>(epoch.churn_ases));
      EXPECT_EQ(registry.gauge_value("htor_live_epoch_churn", {{"kind", "prefix"}}),
                static_cast<std::int64_t>(epoch.churn_prefixes));
      EXPECT_EQ(registry.gauge_value("htor_live_epoch_churn", {{"kind", "link"}}),
                static_cast<std::int64_t>(epoch.churn_links));
    });
    EXPECT_EQ(replayed, w.updates.size());
  }
  std::remove(path.c_str());
}

// The cases a per-hop count gets wrong: a flap inside one epoch counts each
// entity once, prepends add no AS or link, a length-1 path adds its lone AS,
// a duplicate re-announce (no delta) adds nothing, and withdrawing every
// route churns every prefix, AS and link of the RIB.
TEST(IncrementalCensus, EpochChurnEdgeCases) {
  const World& w = world();
  ThreadPool pool(1);
  IncrementalCensus census(w.rib, w.dict, {}, kSource, kSeedTimestamp);
  ChurnOracle oracle(w.rib);
  std::uint32_t timestamp = kSeedTimestamp;
  const auto step = [&](const mrt::Bgp4mpMessage& msg) {
    census.apply(++timestamp, msg);
    oracle.apply(msg);
  };
  const auto cut = [&] {
    const auto epoch = census.recompute(pool);
    oracle.expect_cut(epoch);
    return epoch;
  };

  // A flap: withdrawn and re-announced three times.
  const mrt::ObservedRoute& flapping = tagged_route(w, IpVersion::V4);
  for (int flap = 0; flap < 3; ++flap) {
    step(withdraw_route(flapping));
    step(announce_route(flapping));
  }
  const std::set<Asn> flap_ases(flapping.as_path.begin(), flapping.as_path.end());
  auto epoch = cut();
  EXPECT_EQ(epoch.churn_prefixes, 1u);
  EXPECT_EQ(epoch.churn_ases, flap_ases.size());

  // A prepended path and a length-1 path.
  const auto prepended =
      v4_announce(4200000001u, "10.200.0.0/16", {4200000001u, 4200000001u, 4200000002u,
                                                 4200000002u, 4200000002u, 4200000003u});
  const auto lone = v4_announce(4200000010u, "10.201.0.0/16", {4200000010u});
  step(prepended);
  step(lone);
  epoch = cut();
  EXPECT_EQ(epoch.churn_prefixes, 2u);
  EXPECT_EQ(epoch.churn_ases, 4u);
  EXPECT_EQ(epoch.churn_links, 2u);

  // The same two announced again: duplicates, no delta, no churn.
  const std::uint64_t duplicates = census.rib().stats().duplicates;
  step(prepended);
  step(lone);
  EXPECT_EQ(census.rib().stats().duplicates, duplicates + 2);
  epoch = cut();
  EXPECT_EQ(epoch.churn_prefixes + epoch.churn_ases + epoch.churn_links, 0u);

  // Withdraw everything: the churn is the whole RIB.
  std::vector<mrt::ObservedRoute> routes;
  census.rib().for_each([&](const mrt::ObservedRoute& route) { routes.push_back(route); });
  std::set<Prefix> all_prefixes;
  for (const auto& route : routes) all_prefixes.insert(route.prefix);
  for (const auto& route : routes) step(withdraw_route(route));
  ASSERT_EQ(census.rib().size(), 0u);
  epoch = cut();
  EXPECT_EQ(epoch.churn_prefixes, all_prefixes.size());
}

/// The top-10 by brute force: every route's votes scanned again, summed per
/// link over both families, sorted by votes descending then link.
std::vector<core::LinkVotes> brute_force_top_link_votes(const mrt::ObservedRib& rib,
                                                        const rpsl::CommunityDictionary& dict) {
  std::map<LinkKey, std::uint64_t> totals;
  for (const IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const auto routes = rib.routes_of(af);
    for (const auto& [key, votes] :
         core::scan_community_votes(routes, 0, routes.size(), dict).votes) {
      for (const std::uint32_t n : votes) totals[key] += n;
    }
  }
  std::vector<core::LinkVotes> all;
  for (const auto& [key, total] : totals) {
    if (total > 0) all.push_back(core::LinkVotes{key, total});
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.votes > b.votes;
  });
  all.resize(std::min(all.size(), core::kTopLinkVotes));
  return all;
}

// The live epoch's most-voted links equal the batch census's over the
// materialized RIB at any pool size, and a brute-force re-scan.
TEST(IncrementalCensus, TopLinkVotesMatchBatchAndBruteForce) {
  const World& w = world();
  ThreadPool one(1);
  ThreadPool four(4);
  IncrementalCensus census(w.rib, w.dict, {}, kSource, kSeedTimestamp);
  const auto check = [&] {
    const auto live = census.recompute(one).report.inferred.top_link_votes;
    const auto rib = census.rib().materialize();
    EXPECT_EQ(live.size(), core::kTopLinkVotes);
    EXPECT_EQ(live, brute_force_top_link_votes(rib, w.dict));
    for (ThreadPool* pool : {&one, &four}) {
      EXPECT_EQ(live, core::run_census(rib, w.dict, {}, *pool).inferred.top_link_votes);
    }
  };
  check();
  for (std::size_t i = 0; i < w.updates.size(); ++i) {
    census.apply(w.updates[i].timestamp, std::get<mrt::Bgp4mpMessage>(w.updates[i].body));
    if (i + 1 == w.updates.size() / 2) check();
  }
  check();
}

}  // namespace
}  // namespace htor::live
