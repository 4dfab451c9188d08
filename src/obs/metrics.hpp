// Process-wide observability: a registry of named counters, gauges, and
// log2-bucket histograms, shared by every subsystem (MRT ingest, the census
// pipeline, the snapshot store, the thread pool, the query daemon).
//
// Design goals, in order:
//
//   1. Hot-path increments must be uncontended.  Counters and histograms are
//      *sharded*: each metric owns a fixed array of cache-line-aligned
//      atomic cells, a thread picks its cell by a thread-local shard id, and
//      increments are relaxed fetch_adds on a line no other hot thread
//      touches.  Scrapes merge the shards — the same shard-then-merge
//      discipline as core/parallel.hpp, applied to telemetry.  An increment
//      costs a handful of nanoseconds (BM_MetricsIncrement pins this).
//   2. Handles are cheap and safe.  counter()/gauge()/histogram() return
//      trivially copyable handles pointing at registry-owned storage;
//      looking a metric up twice yields handles to the same cells.  The
//      registry must outlive its handles (the process-global one trivially
//      does).
//   3. Rendering is deterministic.  Metrics render in (name, labels) order,
//      so the Prometheus text exposition for a given set of values is
//      byte-stable — the golden-text test depends on it.
//
// The process-global instance is MetricsRegistry::global().  Library code
// (stream reader, snapshot store, spans) records there; the daemon's
// GET /metrics renders it.  Tests that assert absolute values either use a
// private registry instance or call reset_values() for isolation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace htor::obs {

/// Label set for one metric instance, e.g. {{"endpoint", "link"}}.  Order is
/// preserved as given (callers pass a canonical order; the registry treats
/// the rendered label string as part of the metric's identity).
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Shard count for counter/histogram cells.  A power of two comfortably
/// above the worker counts this project runs with; per-thread shard ids map
/// onto it with a mask.
inline constexpr std::size_t kShards = 16;

/// First call on a thread: claim the next shard id off the process counter.
std::size_t claim_shard() noexcept;

/// Index of the calling thread's shard.  Thread ids are handed out once per
/// thread from a process counter, so two threads only share a cell when
/// more than kShards threads exist — and even then the cell is an atomic,
/// so sharing costs throughput, never correctness.  Inline on purpose: this
/// sits inside every counter increment, and an out-of-line call here is
/// measurable against the <10ns BM_MetricsIncrement budget.
inline std::size_t shard_index() noexcept {
  thread_local const std::size_t shard = claim_shard();
  return shard;
}

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct CounterCells {
  std::array<CounterCell, kShards> cells;

  void add(std::uint64_t n) noexcept {
    cells[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& cell : cells) sum += cell.value.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() noexcept {
    for (auto& cell : cells) cell.value.store(0, std::memory_order_relaxed);
  }
};

/// Histograms bucket by log2: bucket i counts samples with value <= 2^i
/// (exclusive buckets, not cumulative), one overflow bucket past the last
/// bound, plus a running sum for mean/rate math.  16 value buckets cover
/// 1 µs .. ~32 ms, matching the daemon's original latency histogram.
inline constexpr std::size_t kHistogramBuckets = 16;

struct alignas(64) HistogramShard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets + 1> buckets{};
  std::atomic<std::uint64_t> sum{0};
};

struct HistogramCells {
  std::array<HistogramShard, kShards> shards;

  void record(std::uint64_t value) noexcept;
  void reset() noexcept;
};

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
};

}  // namespace detail

/// Monotonic counter handle.  Default-constructed handles are inert no-ops
/// so instrumented code never needs a "metrics enabled?" branch.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const noexcept {
    if (cells_ != nullptr) cells_->add(n);
  }
  std::uint64_t value() const noexcept { return cells_ == nullptr ? 0 : cells_->total(); }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCells* cells) : cells_(cells) {}

  detail::CounterCells* cells_ = nullptr;  ///< owned by the registry
};

/// Set/add gauge handle (a single atomic — set() cannot merge shards).
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) const noexcept {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) const noexcept {
    if (cell_ != nullptr) cell_->value.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}

  detail::GaugeCell* cell_ = nullptr;
};

/// Log2 histogram handle.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = detail::kHistogramBuckets;

  Histogram() = default;

  void record(std::uint64_t value) const noexcept {
    if (cells_ != nullptr) cells_->record(value);
  }

  /// Merged view across shards.  counts[i] holds samples <= 2^i that missed
  /// every smaller bucket (exclusive); `overflow` is everything past the
  /// last bound.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t overflow = 0;
    std::uint64_t sum = 0;

    std::uint64_t total() const {
      std::uint64_t n = overflow;
      for (const auto c : counts) n += c;
      return n;
    }
  };
  Snapshot snapshot() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCells* cells) : cells_(cells) {}

  detail::HistogramCells* cells_ = nullptr;
};

class MetricsRegistry;

/// RAII registration of a *polled* metric: the callback runs at scrape time
/// (queue depths, epochs — values owned by some live object rather than
/// accumulated in the registry).  Destroying the handle unregisters the
/// callback, so an owner registers in its constructor and can never leave a
/// dangling callback behind.  Several live registrations may share one
/// (name, labels) identity; scrapes sum them (two daemons' pools of the
/// same name report their combined depth).
class CallbackMetric {
 public:
  CallbackMetric() = default;
  CallbackMetric(CallbackMetric&& other) noexcept;
  CallbackMetric& operator=(CallbackMetric&& other) noexcept;
  CallbackMetric(const CallbackMetric&) = delete;
  CallbackMetric& operator=(const CallbackMetric&) = delete;
  ~CallbackMetric();

 private:
  friend class MetricsRegistry;
  CallbackMetric(MetricsRegistry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}

  MetricsRegistry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem shares.  Never destroyed
  /// (handles into it stay valid through static teardown).
  static MetricsRegistry& global();

  /// Find-or-create.  Re-requesting a name+labels pair returns a handle to
  /// the same cells; requesting it as a different metric kind throws
  /// InvalidArgument.
  Counter counter(std::string_view name, Labels labels = {});
  Gauge gauge(std::string_view name, Labels labels = {});
  Histogram histogram(std::string_view name, Labels labels = {});

  /// Register a polled metric; `kind` picks the exposition TYPE.  The
  /// callback must stay valid until the returned handle is destroyed and
  /// must be safe to call from any thread.
  enum class Kind { Counter, Gauge };
  CallbackMetric callback(std::string_view name, Labels labels, Kind kind,
                          std::function<std::int64_t()> fn);

  /// Prometheus text exposition (version 0.0.4) of every metric, in
  /// deterministic (name, labels) order: # TYPE line once per family, then
  /// one sample per label set; histograms render cumulative `le` buckets
  /// plus _sum and _count.
  std::string render_prometheus() const;

  /// Value lookup for tests and JSON rendering; zero / empty snapshot when
  /// the metric does not exist.
  std::uint64_t counter_value(std::string_view name, const Labels& labels = {}) const;
  std::int64_t gauge_value(std::string_view name, const Labels& labels = {}) const;
  Histogram::Snapshot histogram_snapshot(std::string_view name, const Labels& labels = {}) const;

  /// Last value a scrape observed for callback metric (name, labels) — the
  /// cached last-scrape state, NOT a fresh poll.  Zero before the first
  /// scrape and after reset_values().
  std::int64_t polled_value(std::string_view name, const Labels& labels = {}) const;

  /// One histogram family member, for the census --stats stage table.
  struct HistogramRow {
    std::string labels;  ///< rendered label string, "" when unlabeled
    Histogram::Snapshot values;
  };
  /// All label sets of histogram family `name`, in label order.
  std::vector<HistogramRow> histogram_family(std::string_view name) const;

  /// Zero every counter/gauge/histogram value and drop callback metrics'
  /// cached last-scrape state.  Handles stay valid; metric identities and
  /// callback registrations persist (the next scrape re-polls them).  For
  /// test isolation against the global registry — concurrent increments
  /// during a reset land before or after it, never corrupt state.
  void reset_values();

 private:
  friend class CallbackMetric;

  enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

  struct Metric {
    MetricKind kind;
    std::unique_ptr<detail::CounterCells> counter;
    std::unique_ptr<detail::GaugeCell> gauge;
    std::unique_ptr<detail::HistogramCells> histogram;
  };

  struct CallbackEntry {
    std::uint64_t id = 0;
    Kind kind = Kind::Gauge;
    std::function<std::int64_t()> fn;
  };

  /// Identity key: name first so families group; the rendered label string
  /// second so members order deterministically within a family.
  using Key = std::pair<std::string, std::string>;

  Metric& find_or_create(std::string_view name, const Labels& labels, MetricKind kind);
  const Metric* find(std::string_view name, const Labels& labels, MetricKind kind) const;
  void unregister_callback(std::uint64_t id);

  mutable std::mutex mutex_;
  std::map<Key, Metric> metrics_;
  std::map<Key, std::vector<CallbackEntry>> callbacks_;
  /// Last-scrape values of callback metrics, keyed like callbacks_.  Filled
  /// by render_prometheus(), read by polled_value(), cleared by
  /// reset_values().  Mutable: scrapes are logically const.
  mutable std::map<Key, std::int64_t> last_polled_;
  std::uint64_t next_callback_id_ = 1;
};

/// Render `labels` as the canonical `{k="v",...}` string ("" when empty).
/// Values are escaped per the exposition format: backslash, quote, newline.
std::string render_labels(const Labels& labels);

}  // namespace htor::obs
