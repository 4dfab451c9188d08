// Tests for the probabilistic sketch layer (src/obs/sketch/): HyperLogLog
// and count-min determinism and merge discipline, and the process-wide
// Telemetry owner.
//
// The claims under test are the ones the telemetry design rests on
// (telemetry.hpp header comment):
//   * merge() is associative, commutative, and (for HLL) idempotent, so
//     per-shard sketches merged in shard order are byte-identical to a
//     sequential feed — at every shard count and every --jobs value;
//   * estimates stay within the repo's 2%-of-exact acceptance bound at
//     10k / 100k / 1M items on pinned seeds;
//   * ingest feeds no sketch: loading a RIB at any --jobs leaves the
//     Telemetry snapshot exactly as reset() left it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gen/internet.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/writer.hpp"
#include "obs/sketch/cms.hpp"
#include "obs/sketch/hll.hpp"
#include "obs/sketch/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace htor::obs::sketch {
namespace {

// Pinned, structure-free item streams: distinct by construction (an offset
// range), scrambled only by the sketch's own hash.
std::vector<std::uint64_t> item_stream(std::uint64_t base, std::size_t n) {
  std::vector<std::uint64_t> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) items.push_back(base + i);
  return items;
}

// ------------------------------------------------------------------- HLL

TEST(Hll, SmallRangeUsesLinearCountingExactly) {
  Hll hll(Hll::kDefaultPrecision, kTelemetrySeed);
  EXPECT_TRUE(hll.empty());
  EXPECT_EQ(hll.estimate_count(), 0);

  for (std::uint64_t item : item_stream(100, 1000)) hll.add(item);
  EXPECT_FALSE(hll.empty());
  // 1000 items in 16384 registers sit deep in the linear-counting regime:
  // the estimate is within a fraction of a percent of exact.
  EXPECT_NEAR(static_cast<double>(hll.estimate_count()), 1000.0, 20.0);

  // Re-adding the same stream is a no-op: the registers saturate.
  const auto before = hll.registers();
  for (std::uint64_t item : item_stream(100, 1000)) hll.add(item);
  EXPECT_EQ(hll.registers(), before);
}

TEST(Hll, ErrorWithinTwoPercentAt10k100k1M) {
  // Two pinned bases per size: different streams, same bound.  p=14 has a
  // standard error of ~0.81%, so 2% is ~2.5 sigma — comfortably stable for
  // fixed seeds.
  const std::uint64_t bases[] = {0x12345678ull, 0xdeadbeef0000ull};
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
    for (const std::uint64_t base : bases) {
      Hll hll(Hll::kDefaultPrecision, kTelemetrySeed);
      for (std::uint64_t item : item_stream(base, n)) hll.add(item);
      const double estimate = hll.estimate();
      const double error = std::abs(estimate - static_cast<double>(n)) / static_cast<double>(n);
      EXPECT_LE(error, 0.02) << "n=" << n << " base=" << base << " estimate=" << estimate;
    }
  }
}

TEST(Hll, MergeIsCommutativeAssociativeIdempotent) {
  Hll a(Hll::kDefaultPrecision, kTelemetrySeed);
  Hll b(Hll::kDefaultPrecision, kTelemetrySeed);
  Hll c(Hll::kDefaultPrecision, kTelemetrySeed);
  for (std::uint64_t item : item_stream(0, 5000)) a.add(item);
  for (std::uint64_t item : item_stream(3000, 5000)) b.add(item);  // overlaps a
  for (std::uint64_t item : item_stream(90000, 2000)) c.add(item);

  // Commutative: a∪b == b∪a, register for register.
  Hll ab = a;
  ab.merge(b);
  Hll ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.registers(), ba.registers());

  // Associative: (a∪b)∪c == a∪(b∪c).
  Hll abc_left = ab;
  abc_left.merge(c);
  Hll bc = b;
  bc.merge(c);
  Hll abc_right = a;
  abc_right.merge(bc);
  EXPECT_EQ(abc_left.registers(), abc_right.registers());

  // Idempotent: merging a sketch into itself changes nothing.
  Hll aa = a;
  aa.merge(a);
  EXPECT_EQ(aa.registers(), a.registers());
}

TEST(Hll, ShardedFeedsMergeByteIdenticalAtEveryShardCount) {
  const auto items = item_stream(0xc0ffee, 50'000);

  Hll sequential(Hll::kDefaultPrecision, kTelemetrySeed);
  for (std::uint64_t item : items) sequential.add(item);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
    std::vector<Hll> parts(shards, Hll(Hll::kDefaultPrecision, kTelemetrySeed));
    // Round-robin partition: each shard sees an interleaved slice, i.e. a
    // feed order very different from sequential.
    for (std::size_t i = 0; i < items.size(); ++i) parts[i % shards].add(items[i]);
    Hll merged(Hll::kDefaultPrecision, kTelemetrySeed);
    for (const Hll& part : parts) merged.merge(part);
    EXPECT_EQ(merged.registers(), sequential.registers()) << "shards=" << shards;
  }
}

TEST(Hll, MergeRejectsShapeMismatch) {
  Hll a(14, kTelemetrySeed);
  Hll precision(12, kTelemetrySeed);
  Hll seed(14, kTelemetrySeed + 1);
  EXPECT_THROW(a.merge(precision), std::invalid_argument);
  EXPECT_THROW(a.merge(seed), std::invalid_argument);
  EXPECT_THROW(Hll(3), std::invalid_argument);
  EXPECT_THROW(Hll(19), std::invalid_argument);
}

// ------------------------------------------------------------------- CMS

TEST(Cms, NeverUndercountsAndRecoversPlantedHeavyHitters) {
  Cms cms(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed);
  const struct {
    std::uint64_t item;
    std::uint64_t weight;
  } planted[] = {{1, 5000}, {2, 3000}, {3, 2000}};
  for (const auto& p : planted) cms.update(p.item, p.weight);
  // Uniform noise: 10k singleton items.
  std::uint64_t noise_total = 0;
  for (std::uint64_t item : item_stream(1000, 10'000)) {
    cms.update(item);
    ++noise_total;
  }
  EXPECT_EQ(cms.total_weight(), 5000u + 3000u + 2000u + noise_total);

  // Point queries only overcount, and by at most 2N/width with high
  // probability (N = 20000, width 4096 -> bound ~10; allow 4x slack).
  for (const auto& p : planted) {
    EXPECT_GE(cms.query(p.item), p.weight);
    EXPECT_LE(cms.query(p.item), p.weight + 40);
  }

  // The heavy hitters dominate the top list, in weight order.
  const auto top = cms.top();
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(top[0].item, 1u);
  EXPECT_EQ(top[1].item, 2u);
  EXPECT_EQ(top[2].item, 3u);
}

TEST(Cms, ShardedSortedFeedsMergeToIdenticalCounters) {
  // The counter plane is pure addition, so any partition of the stream
  // merges to byte-identical counters and total weight.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> feed;
  for (std::uint64_t i = 0; i < 20'000; ++i) feed.emplace_back(i * 7 + 1, (i % 13) + 1);

  Cms sequential(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed);
  for (const auto& [item, weight] : feed) sequential.update(item, weight);

  for (const std::size_t shards : {std::size_t{4}, std::size_t{32}}) {
    std::vector<Cms> parts(
        shards, Cms(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed));
    // Contiguous ranges, like core::shard_ranges cuts record batches.
    const std::size_t chunk = feed.size() / shards;
    for (std::size_t i = 0; i < feed.size(); ++i) {
      parts[std::min(i / chunk, shards - 1)].update(feed[i].first, feed[i].second);
    }
    Cms merged(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed);
    for (const Cms& part : parts) merged.merge(part);
    EXPECT_EQ(merged.counters(), sequential.counters()) << "shards=" << shards;
    EXPECT_EQ(merged.total_weight(), sequential.total_weight());
  }
}

TEST(Cms, IdenticalFeedsGiveIdenticalTopLists) {
  auto run = [] {
    Cms cms(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed);
    for (std::uint64_t i = 0; i < 5000; ++i) cms.update(i % 600, 1 + i % 3);
    return cms.top();
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].item, second[i].item);
    EXPECT_EQ(first[i].estimate, second[i].estimate);
  }
}

TEST(Cms, MergeRejectsShapeMismatch) {
  Cms a(12, 4, 16, kTelemetrySeed);
  EXPECT_THROW(a.merge(Cms(11, 4, 16, kTelemetrySeed)), std::invalid_argument);
  EXPECT_THROW(a.merge(Cms(12, 3, 16, kTelemetrySeed)), std::invalid_argument);
  EXPECT_THROW(a.merge(Cms(12, 4, 8, kTelemetrySeed)), std::invalid_argument);
  EXPECT_THROW(a.merge(Cms(12, 4, 16, kTelemetrySeed + 1)), std::invalid_argument);
}

// -------------------------------------------------------------- Telemetry

TEST(Telemetry, LinkIdentityIsDirectionless) {
  EXPECT_EQ(link_item(10, 20), link_item(20, 10));
  EXPECT_NE(link_item(10, 20), link_item(10, 30));
}

// Regression: ingest used to feed three HLLs and a CMS per route and a
// mutex-guarded Bloom per AS hop.  Loading a RIB at --jobs 1 and 4 must now
// leave the process telemetry exactly as reset() left it.
TEST(Telemetry, IngestLeavesTelemetryUntouched) {
  const auto rib = gen::SyntheticInternet::generate(gen::small_params(7)).collect();
  mrt::MrtWriter writer;
  for (const auto& record : mrt::records_from_rib(rib, 1, "sketch-test", 1281052800u)) {
    writer.write(record);
  }
  const std::string path = ::testing::TempDir() + "/sketch_ingest.mrt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    const auto& bytes = writer.data();
    out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  }

  auto& telemetry = Telemetry::global();
  telemetry.reset();
  const Telemetry::Snapshot fresh = telemetry.snapshot();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    const auto loaded = core::load_rib(path, pool);
    EXPECT_EQ(loaded.size(), rib.size());
    EXPECT_EQ(telemetry.snapshot(), fresh) << "jobs=" << jobs;
  }
  std::remove(path.c_str());
}

TEST(Telemetry, SketchGaugesReachThePrometheusExposition) {
  auto& telemetry = Telemetry::global();
  telemetry.reset();
  telemetry.feed_link_votes({{link_item(10, 20), 5}, {link_item(10, 30), 2}});
  telemetry.set_epoch_churn(7, 8, 9);
  const auto snap = telemetry.snapshot();
  ASSERT_EQ(snap.top_link_votes.size(), 2u);
  EXPECT_EQ(snap.top_link_votes[0], (Cms::HeavyHitter{link_item(10, 20), 5}));

  const std::string text = MetricsRegistry::global().render_prometheus();
  EXPECT_NE(text.find("htor_sketch_top_link_votes 5"), std::string::npos);
  EXPECT_NE(text.find("htor_sketch_epoch_churn_estimate{kind=\"as\"} 7"), std::string::npos);
  EXPECT_NE(text.find("htor_sketch_epoch_churn_estimate{kind=\"prefix\"} 8"), std::string::npos);
  EXPECT_NE(text.find("htor_sketch_epoch_churn_estimate{kind=\"link\"} 9"), std::string::npos);
  EXPECT_NE(text.find("htor_sketch_memory_bytes"), std::string::npos);

  telemetry.reset();
  // reset() zeroes the sketches themselves; the registrations persist and
  // the next scrape polls fresh zeros.
  const std::string after = MetricsRegistry::global().render_prometheus();
  EXPECT_NE(after.find("htor_sketch_top_link_votes 0"), std::string::npos);
  EXPECT_NE(after.find("htor_sketch_epoch_churn_estimate{kind=\"as\"} 0"), std::string::npos);
}

}  // namespace
}  // namespace htor::obs::sketch
