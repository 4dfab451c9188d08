// Tests for the parallel census subsystem: the thread pool itself, the
// deterministic shard planner, and — the property the whole design hangs on —
// that every pool-sharded pipeline stage reproduces its sequential twin
// exactly, for any job count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

#include "core/census_report.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "core/valley_census.hpp"
#include "gen/internet.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "util/thread_pool.hpp"

namespace htor {
namespace {

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, InlineModeSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, RunsSubmittedTasksOnWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ExceptionsSurfaceAtGet) {
  for (std::size_t jobs : {1u, 3u}) {
    ThreadPool pool(jobs);
    auto future = pool.submit([]() -> int { throw Error("boom"); });
    EXPECT_THROW(future.get(), Error);
  }
}

TEST(ThreadPool, ZeroMeansHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.concurrency(), 1u);
}

// The pool's observability accessors: executed() counts completed tasks in
// both worker and inline modes, and after a blocking shard_map_reduce the
// queue has drained back to zero (every submitted shard was consumed — the
// htor_threadpool_queue_depth gauge reads 0 between requests).
TEST(ThreadPool, QueueDrainsToZeroAfterShardMapReduce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.executed(), 0u);

  std::vector<int> data(997);
  std::iota(data.begin(), data.end(), 1);
  const long total = core::shard_map_reduce(
      pool, data.size(),
      [&data](const core::ShardRange& r) {
        long sum = 0;
        for (std::size_t i = r.begin; i < r.end; ++i) sum += data[i];
        return sum;
      },
      0L, [](long& acc, long part) { acc += part; });

  EXPECT_EQ(total, 997L * 998 / 2);
  EXPECT_EQ(pool.queued(), 0u);
  // Every shard task ran on the pool (shard count = kCensusShards plan for
  // 997 items; at least one per worker, at most one per item).
  EXPECT_GE(pool.executed(), 4u);
  const auto after_reduce = pool.executed();

  auto f = pool.submit([] {});
  f.get();
  EXPECT_EQ(pool.executed(), after_reduce + 1);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPool, InlineModeCountsExecutedTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.executed(), 0u);
  pool.submit([] {}).get();
  pool.submit([] {}).get();
  EXPECT_EQ(pool.executed(), 2u);
  EXPECT_EQ(pool.queued(), 0u);
}

// ----------------------------------------------------------- shard planner

TEST(ShardRanges, CoversRangeExactlyOnceInOrder) {
  for (std::size_t n : {0u, 1u, 5u, 31u, 32u, 33u, 1000u}) {
    const auto ranges = core::shard_ranges(n);
    std::size_t expect_begin = 0;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_EQ(ranges[i].index, i);
      EXPECT_EQ(ranges[i].begin, expect_begin);
      EXPECT_LT(ranges[i].begin, ranges[i].end);
      expect_begin = ranges[i].end;
    }
    EXPECT_EQ(expect_begin, n);
    EXPECT_LE(ranges.size(), core::kCensusShards);
    if (n > 0) {
      EXPECT_EQ(ranges.size(), std::min(n, core::kCensusShards));
    }
  }
}

TEST(ShardRanges, PlanIsIndependentOfJobCount) {
  // The planner takes no thread count at all — document that by equality of
  // repeated plans.
  const auto a = core::shard_ranges(977);
  const auto b = core::shard_ranges(977);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(ShardMap, MergesInShardOrder) {
  ThreadPool pool(4);
  std::vector<int> data(250);
  std::iota(data.begin(), data.end(), 0);
  const auto shards = core::shard_map(pool, data.size(), [&data](const core::ShardRange& r) {
    return std::vector<int>(data.begin() + static_cast<long>(r.begin),
                            data.begin() + static_cast<long>(r.end));
  });
  std::vector<int> merged;
  for (const auto& shard : shards) merged.insert(merged.end(), shard.begin(), shard.end());
  EXPECT_EQ(merged, data);
}

TEST(ShardMap, PropagatesFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(core::shard_map(pool, 100,
                               [](const core::ShardRange& r) -> int {
                                 if (r.index == 3) throw Error("shard 3 failed");
                                 return 0;
                               }),
               Error);
}

// ------------------------------------------- sequential == parallel twins

struct ParallelFixture : public ::testing::Test {
  static const gen::SyntheticInternet& net() {
    static const gen::SyntheticInternet instance =
        gen::SyntheticInternet::generate(gen::small_params(11));
    return instance;
  }
  static const mrt::ObservedRib& rib() {
    static const mrt::ObservedRib instance = net().collect();
    return instance;
  }
  static const rpsl::CommunityDictionary& dict() {
    static const rpsl::CommunityDictionary instance =
        rpsl::mine_dictionary(rpsl::parse_objects(net().irr_dump()));
    return instance;
  }
};

void expect_same_rels(const RelationshipMap& a, const RelationshipMap& b) {
  EXPECT_EQ(a.size(), b.size());
  a.for_each([&b](const LinkKey& key, Relationship rel) {
    EXPECT_EQ(rel, b.get(key.first, key.second))
        << "link AS" << key.first << "-AS" << key.second;
  });
}

TEST_F(ParallelFixture, RibJoinMatchesAcrossJobCounts) {
  mrt::MrtWriter writer;
  for (const auto& rec : mrt::records_from_rib(rib(), 1, "par", 0)) writer.write(rec);
  const auto bytes = writer.take();
  const auto join = [&bytes](ThreadPool& pool) {
    mrt::MrtStreamReader stream(bytes);
    return mrt::rib_from_stream(stream, pool);
  };

  ThreadPool one(1);
  const auto sequential = join(one);
  ThreadPool pool(4);
  const auto sharded = join(pool);
  ASSERT_EQ(sharded.size(), sequential.size());
  EXPECT_EQ(sharded.size_of(IpVersion::V6), sequential.size_of(IpVersion::V6));
  // Route order must match the inline join exactly.
  EXPECT_EQ(sharded.routes(), sequential.routes());
}

TEST_F(ParallelFixture, PathsOfMatchesAcrossJobCounts) {
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    ThreadPool one(1);
    const auto sequential = core::paths_of(rib(), af, one);
    ThreadPool pool(4);
    const auto sharded = core::paths_of(rib(), af, pool);
    EXPECT_EQ(sharded.unique_paths(), sequential.unique_paths());
    EXPECT_EQ(sharded.total_occurrences(), sequential.total_occurrences());
    EXPECT_EQ(sharded.links(), sequential.links());  // links() is canonical
  }
}

TEST_F(ParallelFixture, DualStackLinksMatchesAcrossJobCounts) {
  ThreadPool one(1);
  const auto sequential = core::dual_stack_links(core::paths_of(rib(), IpVersion::V4, one).links(),
                                                 core::paths_of(rib(), IpVersion::V6, one).links());
  ThreadPool pool(4);
  EXPECT_EQ(core::dual_stack_links(core::paths_of(rib(), IpVersion::V4, pool).links(),
                                   core::paths_of(rib(), IpVersion::V6, pool).links()),
            sequential);
}

TEST_F(ParallelFixture, CommunityInferenceMatchesSequential) {
  const auto routes = rib().routes_of(IpVersion::V6);
  const auto sequential = core::infer_from_communities(routes, dict());
  for (std::size_t jobs : {1u, 4u}) {
    ThreadPool pool(jobs);
    const auto sharded = core::infer_from_communities(routes, dict(), {}, pool);
    EXPECT_EQ(sharded.links_with_votes, sequential.links_with_votes);
    EXPECT_EQ(sharded.conflicted_links, sequential.conflicted_links);
    EXPECT_EQ(sharded.tagged_routes, sequential.tagged_routes);
    EXPECT_EQ(sharded.total_votes, sequential.total_votes);
    expect_same_rels(sharded.rels, sequential.rels);
  }
}

TEST_F(ParallelFixture, InferRelationshipsMatchesSequential) {
  core::InferenceConfig sequential_config;  // threads = 1
  const auto sequential = core::infer_relationships(rib(), dict(), sequential_config);

  core::InferenceConfig parallel_config;
  parallel_config.threads = 4;
  const auto sharded = core::infer_relationships(rib(), dict(), parallel_config);

  expect_same_rels(sharded.v4, sequential.v4);
  expect_same_rels(sharded.v6, sequential.v6);
  EXPECT_EQ(sharded.rosetta_v6.values_learned, sequential.rosetta_v6.values_learned);
  EXPECT_EQ(sharded.rosetta_v6.routes_resolved, sequential.rosetta_v6.routes_resolved);
}

TEST_F(ParallelFixture, ValleyCensusMatchesAcrossJobCounts) {
  ThreadPool one(1);
  const auto paths = core::paths_of(rib(), IpVersion::V6, one);
  const auto inferred = core::infer_relationships(rib(), dict());
  const auto sequential = core::census_valleys(paths, inferred.v6, one);
  ThreadPool pool(4);
  const auto sharded = core::census_valleys(paths, inferred.v6, pool);
  EXPECT_EQ(sharded.paths, sequential.paths);
  EXPECT_EQ(sharded.valley_free, sequential.valley_free);
  EXPECT_EQ(sharded.valley, sequential.valley);
  EXPECT_EQ(sharded.incomplete, sequential.incomplete);
  EXPECT_EQ(sharded.classified_valleys, sequential.classified_valleys);
  EXPECT_EQ(sharded.necessary_valleys, sequential.necessary_valleys);
}

TEST_F(ParallelFixture, FullCensusMatchesAcrossJobCounts) {
  core::InferenceConfig config;
  config.threads = 1;
  const auto base = core::run_census(rib(), dict(), config);
  for (std::size_t jobs : {4u, 8u}) {
    config.threads = jobs;
    const auto report = core::run_census(rib(), dict(), config);
    EXPECT_EQ(report.v6_paths, base.v6_paths);
    EXPECT_EQ(report.v4_paths, base.v4_paths);
    EXPECT_EQ(report.v6_links, base.v6_links);
    EXPECT_EQ(report.dual_links, base.dual_links);
    EXPECT_EQ(report.v6_coverage.covered_links, base.v6_coverage.covered_links);
    EXPECT_EQ(report.dual_coverage.covered_links, base.dual_coverage.covered_links);
    EXPECT_EQ(report.hybrids.hybrids.size(), base.hybrids.hybrids.size());
    EXPECT_EQ(report.hybrids.v6_paths_with_hybrid, base.hybrids.v6_paths_with_hybrid);
    EXPECT_EQ(report.v6_valleys.valley, base.v6_valleys.valley);
    EXPECT_EQ(report.v6_valleys.necessary_valleys, base.v6_valleys.necessary_valleys);
    ASSERT_EQ(report.hybrids.hybrids.size(), base.hybrids.hybrids.size());
    for (std::size_t i = 0; i < report.hybrids.hybrids.size(); ++i) {
      EXPECT_EQ(report.hybrids.hybrids[i].link, base.hybrids.hybrids[i].link);
      EXPECT_EQ(report.hybrids.hybrids[i].rel_v4, base.hybrids.hybrids[i].rel_v4);
      EXPECT_EQ(report.hybrids.hybrids[i].rel_v6, base.hybrids.hybrids[i].rel_v6);
    }
  }
}

}  // namespace
}  // namespace htor
