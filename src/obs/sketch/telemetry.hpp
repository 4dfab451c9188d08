// Process-wide sketch telemetry: the probabilistic counterpart of
// obs::MetricsRegistry for values that are *sets*, not scalars.
//
// Sketches sit only where fixed memory over an unbounded or unsorted stream
// is the point: a count-min sketch over the census's community-vote tallies
// (most-voted links) and the live tier's per-epoch churn cardinalities.
// Ingest feeds nothing here — the RIB it builds is held in full, so its
// counts are exact (the CLI prints them from the RIB and the census).
//
// The CMS heavy-hitter *candidate* set depends on feed order, which is why
// feed_link_votes takes a caller-sorted stream: the estimates are then
// byte-identical at every --jobs value.
//
// Everything surfaces as `htor_sketch_*` callback metrics on
// MetricsRegistry::global(), so GET /metrics and /v1/metrics pick the
// estimates up without the daemon knowing any sketch exists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "netbase/prefix.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch/cms.hpp"
#include "obs/sketch/hash.hpp"

namespace htor::obs::sketch {

/// Item derivations — the single definition of how census entities map into
/// the uint64 sketch item space, shared by the census, the live tier, and
/// tests.
inline std::uint64_t as_item(std::uint32_t asn) { return asn; }

/// Canonical (unordered) link identity: smaller ASN in the high word.
inline std::uint64_t link_item(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  return (std::uint64_t{lo} << 32) | hi;
}

/// Prefix identity from the canonical (version, length, network bytes) form.
inline std::uint64_t prefix_item(const Prefix& prefix) {
  std::uint64_t h = hash_mix(static_cast<std::uint64_t>(prefix.version()) << 8 |
                                 prefix.length(),
                             0);
  for (std::uint8_t b : prefix.address().bytes()) h = hash_mix(h, b);
  return h;
}

/// Global owner of the process's sketches.  All access is mutex-guarded;
/// each feed is one call per census run or per published epoch.
class Telemetry {
 public:
  /// Never destroyed, like MetricsRegistry::global(): callback metrics
  /// registered in the constructor stay valid through static teardown.
  static Telemetry& global();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Feed the post-merge community-vote tallies (item = packed LinkKey,
  /// weight = total votes).  The caller sorts by item first so the CMS
  /// heavy-hitter candidate set never depends on map iteration order.
  void feed_link_votes(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& votes);

  /// Publish the latest live-census epoch's churn cardinality estimates
  /// (from the epoch-scoped HLLs the live tier owns).
  void set_epoch_churn(std::int64_t ases, std::int64_t prefixes, std::int64_t links);

  /// Everything the census report needs, captured under one lock.
  struct Snapshot {
    std::vector<Cms::HeavyHitter> top_link_votes;
    std::int64_t epoch_churn_ases = 0;
    std::int64_t epoch_churn_prefixes = 0;
    std::int64_t epoch_churn_links = 0;
    std::size_t memory_bytes = 0;

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };
  Snapshot snapshot() const;

  /// Zero every sketch and counter (a fresh census run, test isolation).
  /// Callback registrations persist.
  void reset();

 private:
  Telemetry();

  mutable std::mutex mutex_;
  Cms link_votes_;
  std::int64_t epoch_churn_ases_ = 0;
  std::int64_t epoch_churn_prefixes_ = 0;
  std::int64_t epoch_churn_links_ = 0;

  std::vector<CallbackMetric> registrations_;
};

}  // namespace htor::obs::sketch
