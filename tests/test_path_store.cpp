// Property tests for the flat PathStore: on seeded random path multisets it
// must agree exactly with a naive std::map reference — distinct paths in
// lexicographic order with their counts, the sorted link table, and the
// distinct-path count of every link — at every pool size and for every
// order of the input; and PathStore::merged must build, field for field,
// the store a from-scratch build over the changed multiset builds.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "topology/path_store.hpp"
#include "util/error.hpp"
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

// ------------------------------------------------------------ merged()

/// Field-by-field equality of two stores: distinct paths (arena and
/// offsets) with their counts, total, links and link counts.
void expect_same_store(const PathStore& got, const PathStore& want) {
  ASSERT_EQ(got.unique_paths(), want.unique_paths());
  for (std::size_t i = 0; i < want.unique_paths(); ++i) {
    const auto a = got.path(i);
    const auto b = want.path(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "path " << i;
    ASSERT_EQ(got.count_of(a), want.count_of(b)) << "count of path " << i;
  }
  EXPECT_EQ(got.total_occurrences(), want.total_occurrences());
  EXPECT_EQ(got.links(), want.links());
  EXPECT_EQ(got.link_path_counts(), want.link_path_counts());
  EXPECT_TRUE(got == want) << "raw arena, offsets or counts differ";
}

using Multiset = std::map<std::vector<Asn>, std::uint32_t>;

Paths occurrences_of(const Multiset& multiset) {
  Paths out;
  for (const auto& [path, count] : multiset) out.insert(out.end(), count, path);
  return out;
}

std::vector<Asn> random_path(Rng& rng, std::uint32_t alphabet) {
  std::vector<Asn> path;
  const std::uint32_t length = rng.uniform(0, 7);
  for (std::uint32_t i = 0; i < length; ++i) {
    if (!path.empty() && rng.chance(0.15)) {
      path.push_back(path.back());  // prepend
    } else {
      path.push_back(rng.uniform(1, alphabet));
    }
  }
  return path;
}

/// Seeded rounds of churn over a path multiset: count changes, removals,
/// new paths (prepends, single-AS and empty ones among them) and re-adds of
/// removed paths; one round removes everything and the next re-adds.  After
/// every round merged(store, changes) must equal a from-scratch build over
/// the new multiset, which the next round merges into.
TEST(PathStoreMerge, EqualsFromScratchBuildUnderChurn) {
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    ThreadPool pool(jobs);
    Rng rng(11);
    constexpr std::uint32_t kAlphabet = 40;

    Multiset multiset;
    for (const auto& path : random_paths(12, 400, kAlphabet)) ++multiset[path];
    PathStore store(occurrences_of(multiset), pool);
    std::vector<std::vector<Asn>> removed;

    for (int round = 0; round < 30; ++round) {
      SCOPED_TRACE(round);
      Multiset changes;  // path -> new absolute count
      if (round == 20) {
        for (const auto& [path, count] : multiset) changes[path] = 0;
      } else if (round == 21) {
        for (const auto& path : removed) changes[path] = 1 + rng.uniform(0, 2);
      } else {
        const std::size_t edits = 1 + rng.index(40);
        for (std::size_t e = 0; e < edits; ++e) {
          const std::size_t kind = rng.index(4);
          if (kind == 0 || multiset.empty()) {
            changes[random_path(rng, kAlphabet)] = 1 + rng.uniform(0, 3);
          } else if (kind == 1 && !removed.empty()) {
            changes[removed[rng.index(removed.size())]] = 1;
          } else {
            auto it = multiset.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(rng.index(multiset.size())));
            changes[it->first] = kind == 2 ? 0 : 1 + rng.uniform(0, 4);
          }
        }
      }

      for (const auto& [path, count] : changes) {
        if (count == 0) {
          if (multiset.erase(path) != 0) removed.push_back(path);
        } else {
          multiset[path] = count;
        }
      }
      std::vector<PathChange> sorted;
      for (const auto& [path, count] : changes) sorted.push_back(PathChange{path, count});

      const PathStore merged = PathStore::merged(store, sorted);
      const PathStore scratch(occurrences_of(multiset), pool);
      expect_same_store(merged, scratch);
      if (round == 20) {
        EXPECT_EQ(merged.unique_paths(), 0u);
      }
      store = merged;
    }
  }
}

TEST(PathStoreMerge, NoChangesCopiesAndUnsortedChangesThrow) {
  ThreadPool pool(1);
  const Paths occurrences = {{1, 2, 3}, {1, 2, 3}, {2, 3}, {4, 4, 5}};
  const PathStore base(occurrences, pool);
  expect_same_store(PathStore::merged(base, {}), base);

  const std::vector<Asn> a = {1, 2};
  const std::vector<Asn> b = {2, 3};
  const std::vector<PathChange> unsorted = {PathChange{b, 1}, PathChange{a, 1}};
  EXPECT_THROW(PathStore::merged(base, unsorted), InvalidArgument);
  const std::vector<PathChange> repeated = {PathChange{a, 1}, PathChange{a, 2}};
  EXPECT_THROW(PathStore::merged(base, repeated), InvalidArgument);
}

TEST(PathStoreMerge, CountOfFindsStoredPathsOnly) {
  ThreadPool pool(1);
  const PathStore store(Paths{{1, 2, 3}, {1, 2, 3}, {2, 3}, {7}, {}}, pool);
  EXPECT_EQ(store.count_of(std::vector<Asn>{1, 2, 3}), 2u);
  EXPECT_EQ(store.count_of(std::vector<Asn>{2, 3}), 1u);
  EXPECT_EQ(store.count_of(std::vector<Asn>{1, 2}), 0u);
  EXPECT_EQ(store.count_of(std::vector<Asn>{7}), 0u);
  EXPECT_EQ(store.count_of(std::vector<Asn>{9, 9, 9}), 0u);
  EXPECT_EQ(PathStore().count_of(std::vector<Asn>{1, 2}), 0u);
}

TEST(PathLinks, DistinctSortedLinksWithoutPrepends) {
  std::vector<LinkKey> links;
  path_links(std::vector<Asn>{5, 5, 3, 1, 3, 5}, links);
  EXPECT_EQ(links, (std::vector<LinkKey>{LinkKey(1, 3), LinkKey(3, 5)}));
  path_links(std::vector<Asn>{4}, links);
  EXPECT_TRUE(links.empty());
}

}  // namespace
}  // namespace htor
