#include "topology/path_store.hpp"

#include <algorithm>
#include <limits>

#include "core/parallel.hpp"
#include "util/error.hpp"

namespace htor {

namespace {

using core::kCensusShards;
using core::ShardRange;
using Path = std::span<const Asn>;

/// Splitters cut the input into this many ordered key ranges ("buckets").
constexpr std::size_t kBuckets = kCensusShards;
/// Sampled keys per bucket when choosing the splitters.
constexpr std::size_t kSamplesPerBucket = 64;

bool path_less(Path a, Path b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool path_equal(Path a, Path b) { return std::equal(a.begin(), a.end(), b.begin(), b.end()); }

/// LinkKey packed so that integer order is LinkKey order.
std::uint64_t pack(const LinkKey& key) {
  return static_cast<std::uint64_t>(key.first) << 32 | key.second;
}

LinkKey unpack(std::uint64_t packed) {
  return LinkKey(static_cast<Asn>(packed >> 32), static_cast<Asn>(packed));
}

/// Append the links of `path` (prepends skipped, repeats kept).
void append_links(Path path, std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] != path[i + 1]) out.push_back(pack(LinkKey(path[i], path[i + 1])));
  }
}

/// kBuckets - 1 evenly spaced splitters from `samples` (sorted here).
template <typename Key, typename Less>
std::vector<Key> splitters_of(std::vector<Key> samples, Less less) {
  std::sort(samples.begin(), samples.end(), less);
  std::vector<Key> out;
  if (samples.empty()) return out;
  for (std::size_t b = 1; b < kBuckets; ++b) out.push_back(samples[b * samples.size() / kBuckets]);
  return out;
}

/// The bucket of `key`: the number of splitters not greater than it.  Equal
/// keys share a bucket, and every key of bucket b sorts before every key of
/// bucket b + 1.
template <typename Key, typename Less>
std::size_t bucket_of(const std::vector<Key>& splitters, const Key& key, Less less) {
  return static_cast<std::size_t>(
      std::upper_bound(splitters.begin(), splitters.end(), key, less) - splitters.begin());
}

/// One bucket's distinct paths in order, their counts, and each distinct
/// path's distinct links, already cut into link buckets.
struct PathBucket {
  std::vector<Path> paths;
  std::vector<std::uint32_t> counts;
  std::vector<std::vector<std::uint64_t>> links;
};

/// One bucket's distinct links in order with their distinct-path counts.
struct LinkBucket {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> paths;
};

}  // namespace

// A parallel sample sort.  Splitters drawn from an evenly spaced sample of
// the input cut paths (and links) into kBuckets ordered ranges; each bucket
// is then sorted and deduplicated on its own, and the buckets are
// concatenated in order.  Shard boundaries, samples and splitters depend on
// the input alone, so the pool size changes only what runs at once.
PathStore::PathStore(std::span<const Path> occurrences, ThreadPool& pool) {
  std::vector<Path> path_splitters;
  std::vector<std::uint64_t> link_splitters;
  {
    const std::size_t stride =
        std::max<std::size_t>(1, occurrences.size() / (kBuckets * kSamplesPerBucket));
    std::vector<Path> paths;
    std::vector<std::uint64_t> links;
    for (std::size_t i = 0; i < occurrences.size(); i += stride) {
      if (occurrences[i].size() < 2) continue;
      paths.push_back(occurrences[i]);
      append_links(occurrences[i], links);
    }
    path_splitters = splitters_of(std::move(paths), path_less);
    link_splitters = splitters_of(std::move(links), std::less<>{});
  }

  // Route shards cut their paths into buckets.
  const auto routed = core::shard_map(pool, occurrences.size(), [&](const ShardRange& range) {
    std::vector<std::vector<Path>> buckets(kBuckets);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const Path path = occurrences[i];
      if (path.size() >= 2) buckets[bucket_of(path_splitters, path, path_less)].push_back(path);
    }
    return buckets;
  });

  // Path buckets: sort, dedupe with counts, extract each distinct path's
  // distinct links.
  auto path_buckets = core::shard_map(
      pool, kBuckets,
      [&](const ShardRange& range) {
        std::vector<Path> sorted;
        for (const auto& buckets : routed) {
          const auto& part = buckets[range.begin];
          sorted.insert(sorted.end(), part.begin(), part.end());
        }
        std::sort(sorted.begin(), sorted.end(), path_less);

        PathBucket out;
        out.links.resize(kBuckets);
        std::vector<std::uint64_t> own;
        for (std::size_t i = 0; i < sorted.size();) {
          std::size_t j = i + 1;
          while (j < sorted.size() && path_equal(sorted[j], sorted[i])) ++j;
          out.paths.push_back(sorted[i]);
          out.counts.push_back(static_cast<std::uint32_t>(j - i));
          own.clear();
          append_links(sorted[i], own);
          std::sort(own.begin(), own.end());
          own.erase(std::unique(own.begin(), own.end()), own.end());
          for (const std::uint64_t key : own) {
            out.links[bucket_of(link_splitters, key, std::less<>{})].push_back(key);
          }
          i = j;
        }
        return out;
      },
      kBuckets);

  // Link buckets: a link appears once per distinct path that crosses it.
  const auto link_buckets = core::shard_map(
      pool, kBuckets,
      [&](const ShardRange& range) {
        std::vector<std::uint64_t> keys;
        for (auto& bucket : path_buckets) {
          auto& part = bucket.links[range.begin];  // only this task touches it
          keys.insert(keys.end(), part.begin(), part.end());
          std::vector<std::uint64_t>().swap(part);
        }
        std::sort(keys.begin(), keys.end());
        LinkBucket out;
        for (std::size_t i = 0; i < keys.size();) {
          std::size_t j = i + 1;
          while (j < keys.size() && keys[j] == keys[i]) ++j;
          out.keys.push_back(keys[i]);
          out.paths.push_back(static_cast<std::uint32_t>(j - i));
          i = j;
        }
        return out;
      },
      kBuckets);

  std::size_t n_paths = 0;
  std::size_t n_asns = 0;
  for (const auto& bucket : path_buckets) {
    n_paths += bucket.paths.size();
    for (const Path path : bucket.paths) n_asns += path.size();
  }
  if (n_asns > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument("path store: more ASNs than a u32 offset can address");
  }
  arena_.reserve(n_asns);
  offsets_.reserve(n_paths + 1);
  counts_.reserve(n_paths);
  offsets_.push_back(0);
  for (const auto& bucket : path_buckets) {
    for (const Path path : bucket.paths) {
      arena_.insert(arena_.end(), path.begin(), path.end());
      offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
    }
    counts_.insert(counts_.end(), bucket.counts.begin(), bucket.counts.end());
    for (const std::uint32_t count : bucket.counts) total_ += count;
  }
  for (const auto& bucket : link_buckets) {
    for (const std::uint64_t key : bucket.keys) links_.push_back(unpack(key));
    link_paths_.insert(link_paths_.end(), bucket.paths.begin(), bucket.paths.end());
  }
}

PathStore::PathStore(const std::vector<std::vector<Asn>>& occurrences, ThreadPool& pool)
    : PathStore(std::vector<Path>(occurrences.begin(), occurrences.end()), pool) {}

void PathStore::for_each(const std::function<void(Path, std::uint64_t)>& fn) const {
  for (std::size_t i = 0; i < unique_paths(); ++i) fn(path(i), counts_[i]);
}

std::uint64_t PathStore::paths_containing(Asn a, Asn b) const {
  const LinkKey key(a, b);
  const auto it = std::lower_bound(links_.begin(), links_.end(), key);
  if (it == links_.end() || *it != key) return 0;
  return link_paths_[static_cast<std::size_t>(it - links_.begin())];
}

}  // namespace htor
