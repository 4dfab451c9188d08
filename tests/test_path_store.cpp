// Property test for the flat PathStore: on seeded random path multisets it
// must agree exactly with a naive std::map reference — distinct paths in
// lexicographic order with their counts, the sorted link table, and the
// distinct-path count of every link — at every pool size and for every
// order of the input.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "topology/path_store.hpp"
#include "util/rng.hpp"

namespace htor {
namespace {

using Paths = std::vector<std::vector<Asn>>;

struct Reference {
  std::map<std::vector<Asn>, std::uint64_t> paths;
  std::uint64_t total = 0;
  std::map<LinkKey, std::uint64_t> link_paths;  ///< distinct paths per link
};

Reference reference_of(const Paths& occurrences) {
  Reference ref;
  for (const auto& path : occurrences) {
    if (path.size() < 2) continue;
    ++ref.paths[path];
    ++ref.total;
  }
  for (const auto& [path, count] : ref.paths) {
    std::set<LinkKey> links;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] != path[i + 1]) links.insert(LinkKey(path[i], path[i + 1]));
    }
    for (const LinkKey& key : links) ++ref.link_paths[key];
  }
  return ref;
}

/// Random paths over ASNs 1..`alphabet`, with prepends, duplicates, and
/// the edge cases every run must hold: lengths 0 and 1, and a path that
/// repeats a link.
Paths random_paths(std::uint64_t seed, std::size_t n, std::uint32_t alphabet) {
  Rng rng(seed);
  Paths out = {{}, {7}, {1, 2, 1, 2}, {1, 2, 1, 2}, {3, 3, 3}, {4, 4, 5}};
  while (out.size() < n) {
    if (!out.empty() && rng.chance(0.2)) {  // a duplicate of an earlier path
      out.push_back(out[rng.index(out.size())]);
      continue;
    }
    std::vector<Asn> path;
    const std::uint32_t length = rng.uniform(0, 8);
    for (std::uint32_t i = 0; i < length; ++i) {
      if (!path.empty() && rng.chance(0.15)) {
        path.push_back(path.back());  // prepend
      } else {
        path.push_back(rng.uniform(1, alphabet));
      }
    }
    out.push_back(std::move(path));
  }
  return out;
}

void expect_matches(const PathStore& store, const Reference& ref, std::uint32_t alphabet) {
  EXPECT_EQ(store.unique_paths(), ref.paths.size());
  EXPECT_EQ(store.total_occurrences(), ref.total);

  std::vector<std::pair<std::vector<Asn>, std::uint64_t>> got;
  store.for_each([&got](std::span<const Asn> path, std::uint64_t count) {
    got.emplace_back(std::vector<Asn>(path.begin(), path.end()), count);
  });
  const std::vector<std::pair<std::vector<Asn>, std::uint64_t>> want(ref.paths.begin(),
                                                                     ref.paths.end());
  EXPECT_EQ(got, want);

  std::vector<LinkKey> want_links;
  for (const auto& [key, count] : ref.link_paths) {
    want_links.push_back(key);
    EXPECT_EQ(store.paths_containing(key.first, key.second), count);
    EXPECT_EQ(store.paths_containing(key.second, key.first), count);
  }
  EXPECT_EQ(store.links(), want_links);

  // Absent pairs: self pairs, ASNs outside the alphabet, and every pair of
  // the first few ASNs that no path crosses.
  EXPECT_EQ(store.paths_containing(0, 1), 0u);
  EXPECT_EQ(store.paths_containing(alphabet + 1, alphabet + 2), 0u);
  for (Asn a = 1; a <= 12; ++a) {
    EXPECT_EQ(store.paths_containing(a, a), 0u);
    for (Asn b = a + 1; b <= 12; ++b) {
      if (!ref.link_paths.count(LinkKey(a, b))) {
        EXPECT_EQ(store.paths_containing(a, b), 0u) << a << "-" << b;
      }
    }
  }
}

struct Shape {
  std::uint64_t seed;
  std::size_t paths;
  std::uint32_t alphabet;
};

class PathStoreProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(PathStoreProperty, MatchesMapReferenceAtEveryJobCountAndOrder) {
  const Shape shape = GetParam();
  Paths occurrences = random_paths(shape.seed, shape.paths, shape.alphabet);
  const Reference ref = reference_of(occurrences);

  for (std::size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE(jobs);
    ThreadPool pool(jobs);
    expect_matches(PathStore(occurrences, pool), ref, shape.alphabet);
  }

  Rng rng(shape.seed + 1);
  rng.shuffle(occurrences);
  ThreadPool pool(4);
  SCOPED_TRACE("shuffled");
  expect_matches(PathStore(occurrences, pool), ref, shape.alphabet);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PathStoreProperty,
    ::testing::Values(Shape{1, 6, 8},        // the fixed edge cases alone
                      Shape{2, 40, 6},       // fewer paths than shards
                      Shape{3, 3000, 12},    // heavy duplication, shared links
                      Shape{4, 3000, 5000},  // mostly distinct paths
                      Shape{5, 20000, 300}));

TEST(PathStoreProperty, EmptyAndShortInputsBuildEmptyStores) {
  ThreadPool pool(2);
  for (const Paths& occurrences : {Paths{}, Paths{{}, {9}, {9}, {}}}) {
    const PathStore store(occurrences, pool);
    EXPECT_EQ(store.unique_paths(), 0u);
    EXPECT_EQ(store.total_occurrences(), 0u);
    EXPECT_TRUE(store.links().empty());
    EXPECT_EQ(store.paths_containing(9, 9), 0u);
  }
  const PathStore empty;
  EXPECT_EQ(empty.unique_paths(), 0u);
  EXPECT_TRUE(empty.links().empty());
  EXPECT_EQ(empty.paths_containing(1, 2), 0u);
}

}  // namespace
}  // namespace htor
