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

bool path_equal(Path a, Path b) { return std::equal(a.begin(), a.end(), b.begin(), b.end()); }

/// LinkKey packed so that integer order is LinkKey order.
std::uint64_t pack(const LinkKey& key) {
  return static_cast<std::uint64_t>(key.first) << 32 | key.second;
}

LinkKey unpack(std::uint64_t packed) {
  return LinkKey(static_cast<Asn>(packed >> 32), static_cast<Asn>(packed));
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

/// Arena offsets are u32: refuse a store whose arena they cannot address.
void check_arena_size(std::size_t n_asns) {
  if (n_asns > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument("path store: more ASNs than a u32 offset can address");
  }
}

}  // namespace

void path_links(Path path, std::vector<LinkKey>& out) {
  out.clear();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] != path[i + 1]) out.emplace_back(path[i], path[i + 1]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool crosses_link(Path path, const std::vector<LinkKey>& links) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] != path[i + 1] &&
        std::binary_search(links.begin(), links.end(), LinkKey(path[i], path[i + 1]))) {
      return true;
    }
  }
  return false;
}

bool path_less(Path a, Path b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

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
    std::vector<LinkKey> own;
    for (std::size_t i = 0; i < occurrences.size(); i += stride) {
      if (occurrences[i].size() < 2) continue;
      paths.push_back(occurrences[i]);
      path_links(occurrences[i], own);
      for (const LinkKey& key : own) links.push_back(pack(key));
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
        std::vector<LinkKey> own;
        for (std::size_t i = 0; i < sorted.size();) {
          std::size_t j = i + 1;
          while (j < sorted.size() && path_equal(sorted[j], sorted[i])) ++j;
          out.paths.push_back(sorted[i]);
          out.counts.push_back(static_cast<std::uint32_t>(j - i));
          path_links(sorted[i], own);
          for (const LinkKey& link : own) {
            const std::uint64_t key = pack(link);
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
  check_arena_size(n_asns);
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

// The changes cut the base into untouched runs, each copied as one block;
// a changed path is written with its new count, or dropped at 0.  A path
// that appears or disappears moves the distinct-path count of each of its
// links by one; those moves are summed per link and merged into the base
// link table the same way.
PathStore PathStore::merged(const PathStore& base, std::span<const PathChange> changes) {
  PathStore out;
  out.arena_.reserve(base.arena_.size());
  out.offsets_.reserve(base.offsets_.size());
  out.counts_.reserve(base.counts_.size());
  out.offsets_.push_back(0);
  out.total_ = base.total_;

  // Base paths [from, to) as one block, offsets rebased onto the output.
  const auto copy_paths = [&](std::size_t from, std::size_t to) {
    if (from >= to) return;
    const std::uint32_t first = base.offsets_[from];
    const std::size_t at = out.arena_.size();
    out.arena_.insert(out.arena_.end(), base.arena_.begin() + first,
                      base.arena_.begin() + base.offsets_[to]);
    check_arena_size(out.arena_.size());
    for (std::size_t k = from + 1; k <= to; ++k) {
      out.offsets_.push_back(static_cast<std::uint32_t>(base.offsets_[k] - first + at));
    }
    out.counts_.insert(out.counts_.end(), base.counts_.begin() + static_cast<std::ptrdiff_t>(from),
                       base.counts_.begin() + static_cast<std::ptrdiff_t>(to));
  };

  std::vector<std::pair<std::uint64_t, std::int64_t>> link_moves;
  std::vector<LinkKey> own;
  const auto move_links = [&](Path path, std::int64_t by) {
    path_links(path, own);
    for (const LinkKey& key : own) link_moves.emplace_back(pack(key), by);
  };

  std::size_t next = 0;  // first base path not yet copied or replaced
  Path previous;
  for (const PathChange& change : changes) {
    if (change.path.size() < 2) continue;
    if (!previous.empty() && !path_less(previous, change.path)) {
      throw InvalidArgument("path store merge: changes are not strictly ascending");
    }
    previous = change.path;

    const std::size_t at = base.lower_index(change.path, next);
    copy_paths(next, at);
    const bool held = at < base.unique_paths() && path_equal(base.path(at), change.path);
    const std::uint32_t old_count = held ? base.counts_[at] : 0;
    next = held ? at + 1 : at;

    out.total_ = out.total_ - old_count + change.count;
    if (change.count > 0) {
      out.arena_.insert(out.arena_.end(), change.path.begin(), change.path.end());
      check_arena_size(out.arena_.size());
      out.offsets_.push_back(static_cast<std::uint32_t>(out.arena_.size()));
      out.counts_.push_back(change.count);
    }
    if (old_count == 0 && change.count > 0) move_links(change.path, +1);
    if (old_count > 0 && change.count == 0) move_links(change.path, -1);
  }
  copy_paths(next, base.unique_paths());

  std::sort(link_moves.begin(), link_moves.end());
  out.links_.reserve(base.links_.size());
  out.link_paths_.reserve(base.link_paths_.size());
  std::size_t kept = 0;  // first base link not yet copied
  const auto copy_links = [&](std::size_t to) {
    out.links_.insert(out.links_.end(), base.links_.begin() + static_cast<std::ptrdiff_t>(kept),
                      base.links_.begin() + static_cast<std::ptrdiff_t>(to));
    out.link_paths_.insert(out.link_paths_.end(),
                           base.link_paths_.begin() + static_cast<std::ptrdiff_t>(kept),
                           base.link_paths_.begin() + static_cast<std::ptrdiff_t>(to));
    kept = to;
  };
  for (std::size_t i = 0; i < link_moves.size();) {
    const std::uint64_t packed = link_moves[i].first;
    const LinkKey key = unpack(packed);
    std::int64_t paths = 0;
    for (; i < link_moves.size() && link_moves[i].first == packed; ++i) {
      paths += link_moves[i].second;
    }
    copy_links(static_cast<std::size_t>(
        std::lower_bound(base.links_.begin() + static_cast<std::ptrdiff_t>(kept),
                         base.links_.end(), key) -
        base.links_.begin()));
    if (kept < base.links_.size() && base.links_[kept] == key) {
      paths += base.link_paths_[kept];
      ++kept;
    }
    if (paths > 0) {
      out.links_.push_back(key);
      out.link_paths_.push_back(static_cast<std::uint32_t>(paths));
    }
  }
  copy_links(base.links_.size());
  return out;
}

std::size_t PathStore::lower_index(Path path, std::size_t from) const {
  std::size_t lo = from;
  std::size_t hi = unique_paths();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (path_less(this->path(mid), path)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint32_t PathStore::count_of(Path path) const {
  const std::size_t i = lower_index(path);
  return i < unique_paths() && path_equal(this->path(i), path) ? counts_[i] : 0;
}

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
