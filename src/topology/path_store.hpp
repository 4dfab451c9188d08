// Distinct observed AS paths with occurrence counts, and the links they cross.
//
// The paper's path-level statistics ("13% of the IPv6 paths…", ">28% of the
// IPv6 paths contain at least one hybrid link") are computed over the set of
// distinct AS paths extracted from the collector dumps; this container is
// that set.
//
// The store is read-only and flat.  One Asn arena holds every distinct path
// back to back in canonical lexicographic order, with a u32 offset and an
// occurrence count per path.  Beside it sits the sorted table of distinct
// links with the number of distinct paths that cross each one.  Both are
// built once, sharded on a pool under a fixed shard plan, so every pool size
// builds the same bytes.  A store that changes (the live census) is carried
// forward by merged(), a linear merge of the changed paths into the old
// store, which yields the bytes a from-scratch build would.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netbase/asn.hpp"
#include "topology/relationship.hpp"
#include "util/thread_pool.hpp"

namespace htor {

/// The distinct links of one path, adjacent repeats (prepends) skipped,
/// sorted into `out` (cleared first).  The one link rule of the path store
/// and of the live census.
void path_links(std::span<const Asn> path, std::vector<LinkKey>& out);

/// Does `path` cross (as adjacent distinct ASes) a link of `links`, which
/// must be sorted?
bool crosses_link(std::span<const Asn> path, const std::vector<LinkKey>& links);

/// Lexicographic path order: the order of a PathStore.
bool path_less(std::span<const Asn> a, std::span<const Asn> b);

/// One path whose occurrence count changed, for PathStore::merged().
struct PathChange {
  std::span<const Asn> path;
  std::uint32_t count = 0;  ///< the new absolute count; 0 means gone
};

class PathStore {
 public:
  /// The empty store.
  PathStore() = default;

  /// Build from every observed occurrence of a path (one entry per route,
  /// stored verbatim: prepends are kept).  Empty and single-AS paths are
  /// ignored.  The spans need only outlive the constructor.
  PathStore(std::span<const std::span<const Asn>> occurrences, ThreadPool& pool);

  /// Same over owned paths.
  PathStore(const std::vector<std::vector<Asn>>& occurrences, ThreadPool& pool);

  /// `base` with `changes` applied.  `changes` must be strictly ascending
  /// in lexicographic path order (InvalidArgument otherwise); paths shorter
  /// than two ASes are ignored.  Linear in the size of `base` plus the
  /// changes, and byte-identical to a from-scratch build over the resulting
  /// occurrence multiset.
  static PathStore merged(const PathStore& base, std::span<const PathChange> changes);

  /// Number of distinct paths.
  std::size_t unique_paths() const { return counts_.size(); }

  /// Total occurrences.
  std::uint64_t total_occurrences() const { return total_; }

  /// Distinct path `i` (0 <= i < unique_paths()), in lexicographic order.
  std::span<const Asn> path(std::size_t i) const {
    return {arena_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Occurrences of `path` (0 when it is not stored).  Binary search.
  std::uint32_t count_of(std::span<const Asn> path) const;

  /// Visit every distinct path with its count, in lexicographic order.
  void for_each(const std::function<void(std::span<const Asn>, std::uint64_t)>& fn) const;

  /// Distinct links (adjacent distinct ASes) of the stored paths, sorted.
  const std::vector<LinkKey>& links() const { return links_; }

  /// Number of distinct paths crossing each link, parallel to links().
  const std::vector<std::uint32_t>& link_path_counts() const { return link_paths_; }

  /// Number of distinct paths containing link (a, b) as adjacent ASes.
  std::uint64_t paths_containing(Asn a, Asn b) const;

  friend bool operator==(const PathStore&, const PathStore&) = default;

 private:
  /// First index in [from, unique_paths()) whose path is not less than `path`.
  std::size_t lower_index(std::span<const Asn> path, std::size_t from = 0) const;

  std::vector<Asn> arena_;
  std::vector<std::uint32_t> offsets_;  ///< unique_paths() + 1 entries once built
  std::vector<std::uint32_t> counts_;
  std::uint64_t total_ = 0;

  std::vector<LinkKey> links_;
  std::vector<std::uint32_t> link_paths_;  ///< parallel to links_
};

}  // namespace htor
