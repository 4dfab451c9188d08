// Tests for the ToR baselines (Gao, degree-rank): correctness on handcrafted
// path sets and behaviour on generated topologies.
#include <gtest/gtest.h>

#include "baselines/degree_rank.hpp"
#include "baselines/gao.hpp"
#include "gen/internet.hpp"
#include "propagation/engine.hpp"

namespace htor::baselines {
namespace {

PathStore store_of(const std::vector<std::vector<Asn>>& paths) {
  ThreadPool pool(1);
  return PathStore(paths, pool);
}

// A star hierarchy: big provider 1 with customers 2..9; 2 also provides for
// 20, 3 provides for 30.  Vantage-style paths climb to 1 and descend.
PathStore star_paths() {
  std::vector<std::vector<Asn>> paths;
  paths.push_back({20, 2, 1, 3, 30});
  paths.push_back({30, 3, 1, 2, 20});
  for (Asn c = 4; c <= 9; ++c) {
    paths.push_back({20, 2, 1, c});
    paths.push_back({30, 3, 1, c});
  }
  return store_of(paths);
}

TEST(Gao, InfersStarHierarchy) {
  const auto result = infer_gao(star_paths());
  EXPECT_EQ(result.rels.get(1, 2), Relationship::P2C);
  EXPECT_EQ(result.rels.get(1, 3), Relationship::P2C);
  EXPECT_EQ(result.rels.get(2, 20), Relationship::P2C);
  EXPECT_EQ(result.rels.get(3, 30), Relationship::P2C);
  EXPECT_EQ(result.rels.get(1, 7), Relationship::P2C);
  EXPECT_GT(result.transit_links, 0u);
}

TEST(Gao, PeakLinkBecomesPeering) {
  // Two comparable mid-size ASes 2 and 3 exchange traffic across their
  // mutual link at the top of every path: classic p2p.
  const PathStore store = store_of({
      {20, 2, 3, 30},
      {30, 3, 2, 20},
      {21, 2, 3, 31},
      {31, 3, 2, 21},
      {20, 2, 3, 31},
      {21, 2, 3, 30},
  });
  const auto result = infer_gao(store);
  EXPECT_EQ(result.rels.get(2, 3), Relationship::P2P);
  EXPECT_EQ(result.rels.get(2, 20), Relationship::P2C);
  EXPECT_EQ(result.rels.get(3, 30), Relationship::P2C);
}

TEST(Gao, SiblingWhenVotesSplit) {
  // Votes flow both ways across 2-3 in comparable volume.
  const PathStore store = store_of({
      {20, 2, 3, 9},  // peak at 9? degrees decide; craft both climbs
      {9, 3, 2, 20},
      {21, 2, 3, 9},
      {9, 3, 2, 21},
      {30, 3, 2, 8},
      {8, 2, 3, 30},
  });
  GaoParams params;
  params.sibling_ratio = 0.3;
  const auto result = infer_gao(store, params);
  // Whatever the exact volume split, the 2-3 link must not be one-way
  // transit here; accept s2s or p2p.
  const Relationship rel = result.rels.get(2, 3);
  EXPECT_TRUE(rel == Relationship::S2S || rel == Relationship::P2P)
      << to_string(rel);
}

TEST(Gao, EmptyPathStore) {
  const auto result = infer_gao(PathStore{});
  EXPECT_EQ(result.rels.size(), 0u);
}

TEST(Gao, CoversEveryObservedLink) {
  const auto store = star_paths();
  const auto result = infer_gao(store);
  for (const auto& link : store.links()) {
    EXPECT_NE(result.rels.get(link.first, link.second), Relationship::Unknown);
  }
}

TEST(DegreeRank, BigSmallIsTransit) {
  const auto result = infer_degree_rank(star_paths());
  EXPECT_EQ(result.rels.get(1, 2), Relationship::P2C);
  EXPECT_EQ(result.rels.get(2, 20), Relationship::P2C);
  EXPECT_GT(result.transit_links, 0u);
}

TEST(DegreeRank, ComparableTransitDegreesArePeers) {
  // 2 and 3 both transit for two customers each and interconnect.
  const PathStore store = store_of({
      {20, 2, 3, 30},
      {21, 2, 3, 31},
      {30, 3, 2, 20},
      {31, 3, 2, 21},
  });
  const auto result = infer_degree_rank(store);
  EXPECT_EQ(result.rels.get(2, 3), Relationship::P2P);
}

// On a generated topology the AF-agnostic baselines must stamp ONE
// relationship per link — which on hybrid links is wrong in at least one
// address family.  This is the paper's core argument, stated as a property.
class BaselineCannotSeeHybrids : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineCannotSeeHybrids, OneLabelPerLink) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(GetParam()));
  const auto rib = net.collect();
  std::vector<std::vector<Asn>> paths;
  for (const auto& route : rib.routes()) paths.push_back(route.as_path);
  const PathStore mixed = store_of(paths);
  const auto gao = infer_gao(mixed);

  std::size_t observed_hybrids = 0;
  std::size_t wrong_somewhere = 0;
  for (const auto& h : net.hybrid_links()) {
    const Relationship got = gao.rels.get(h.link.first, h.link.second);
    if (got == Relationship::Unknown) continue;  // not observed
    ++observed_hybrids;
    if (got != h.rel_v4 || got != h.rel_v6) ++wrong_somewhere;
  }
  // A single label can never match two different truths.
  EXPECT_EQ(wrong_somewhere, observed_hybrids);
  EXPECT_GT(observed_hybrids, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineCannotSeeHybrids, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace htor::baselines
