#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace htor::obs {

namespace detail {

std::size_t claim_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
}

namespace {

/// Bucket index for a sample: smallest i with value <= 2^i, or kBuckets for
/// overflow.  Matches the daemon's original latency bucketing exactly.
std::size_t bucket_for(std::uint64_t value) noexcept {
  std::uint64_t bound = 1;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i, bound <<= 1) {
    if (value <= bound) return i;
  }
  return kHistogramBuckets;
}

}  // namespace

void HistogramCells::record(std::uint64_t value) noexcept {
  auto& shard = shards[shard_index()];
  shard.buckets[bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

void HistogramCells::reset() noexcept {
  for (auto& shard : shards) {
    for (auto& bucket : shard.buckets) bucket.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

}  // namespace detail

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  if (cells_ == nullptr) return out;
  for (const auto& shard : cells_->shards) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out.counts[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    out.overflow += shard.buckets[kBuckets].load(std::memory_order_relaxed);
    out.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return out;
}

CallbackMetric::CallbackMetric(CallbackMetric&& other) noexcept
    : registry_(other.registry_), id_(other.id_) {
  other.registry_ = nullptr;
  other.id_ = 0;
}

CallbackMetric& CallbackMetric::operator=(CallbackMetric&& other) noexcept {
  if (this != &other) {
    if (registry_ != nullptr) registry_->unregister_callback(id_);
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

CallbackMetric::~CallbackMetric() {
  if (registry_ != nullptr) registry_->unregister_callback(id_);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    for (const char c : value) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

MetricsRegistry::Metric& MetricsRegistry::find_or_create(std::string_view name,
                                                         const Labels& labels,
                                                         MetricKind kind) {
  // Caller holds mutex_.
  Key key{std::string(name), render_labels(labels)};
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    if (it->second.kind != kind) {
      throw InvalidArgument("metric '" + key.first + "' already registered as a different kind");
    }
    return it->second;
  }
  // A family must be homogeneous: reject "foo" as a counter when any other
  // label set of "foo" exists as a gauge (the TYPE line would lie).
  auto family = metrics_.lower_bound(Key{key.first, ""});
  if (family != metrics_.end() && family->first.first == key.first &&
      family->second.kind != kind) {
    throw InvalidArgument("metric family '" + key.first + "' has mixed kinds");
  }
  Metric metric;
  metric.kind = kind;
  switch (kind) {
    case MetricKind::Counter:
      metric.counter = std::make_unique<detail::CounterCells>();
      break;
    case MetricKind::Gauge:
      metric.gauge = std::make_unique<detail::GaugeCell>();
      break;
    case MetricKind::Histogram:
      metric.histogram = std::make_unique<detail::HistogramCells>();
      break;
  }
  return metrics_.emplace(std::move(key), std::move(metric)).first->second;
}

const MetricsRegistry::Metric* MetricsRegistry::find(std::string_view name,
                                                     const Labels& labels,
                                                     MetricKind kind) const {
  // Caller holds mutex_.
  const auto it = metrics_.find(Key{std::string(name), render_labels(labels)});
  if (it == metrics_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

Counter MetricsRegistry::counter(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Counter(find_or_create(name, labels, MetricKind::Counter).counter.get());
}

Gauge MetricsRegistry::gauge(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Gauge(find_or_create(name, labels, MetricKind::Gauge).gauge.get());
}

Histogram MetricsRegistry::histogram(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Histogram(find_or_create(name, labels, MetricKind::Histogram).histogram.get());
}

CallbackMetric MetricsRegistry::callback(std::string_view name, Labels labels, Kind kind,
                                         std::function<std::int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_callback_id_++;
  auto& entries = callbacks_[Key{std::string(name), render_labels(labels)}];
  if (!entries.empty() && entries.front().kind != kind) {
    throw InvalidArgument("callback metric '" + std::string(name) +
                          "' already registered as a different kind");
  }
  entries.push_back(CallbackEntry{id, kind, std::move(fn)});
  return CallbackMetric(this, id);
}

void MetricsRegistry::unregister_callback(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = callbacks_.begin(); it != callbacks_.end(); ++it) {
    auto& entries = it->second;
    const auto entry = std::find_if(entries.begin(), entries.end(),
                                    [id](const CallbackEntry& e) { return e.id == id; });
    if (entry != entries.end()) {
      entries.erase(entry);
      if (entries.empty()) callbacks_.erase(it);
      return;
    }
  }
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name, const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Metric* metric = find(name, labels, MetricKind::Counter);
  return metric == nullptr ? 0 : metric->counter->total();
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name, const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Metric* metric = find(name, labels, MetricKind::Gauge);
  return metric == nullptr ? 0 : metric->gauge->value.load(std::memory_order_relaxed);
}

Histogram::Snapshot MetricsRegistry::histogram_snapshot(std::string_view name,
                                                        const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Metric* metric = find(name, labels, MetricKind::Histogram);
  return metric == nullptr ? Histogram::Snapshot{} : Histogram(metric->histogram.get()).snapshot();
}

std::vector<MetricsRegistry::HistogramRow> MetricsRegistry::histogram_family(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HistogramRow> rows;
  for (auto it = metrics_.lower_bound(Key{std::string(name), ""});
       it != metrics_.end() && it->first.first == name; ++it) {
    if (it->second.kind != MetricKind::Histogram) continue;
    rows.push_back(HistogramRow{it->first.second,
                                Histogram(it->second.histogram.get()).snapshot()});
  }
  return rows;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, metric] : metrics_) {
    switch (metric.kind) {
      case MetricKind::Counter: metric.counter->reset(); break;
      case MetricKind::Gauge:
        metric.gauge->value.store(0, std::memory_order_relaxed);
        break;
      case MetricKind::Histogram: metric.histogram->reset(); break;
    }
  }
  // Callback metrics keep their registrations (the values live with the
  // callers), but the cached last-scrape state is registry state and must
  // not leak across test boundaries.
  last_polled_.clear();
}

std::int64_t MetricsRegistry::polled_value(std::string_view name, const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = last_polled_.find(Key{std::string(name), render_labels(labels)});
  return it == last_polled_.end() ? 0 : it->second;
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);

  // Merge accumulated metrics and polled callbacks into one ordered plan so
  // families interleave correctly whatever mix they come from.
  struct Sample {
    MetricKind kind;
    const Metric* metric = nullptr;                     // accumulated
    const std::vector<CallbackEntry>* polled = nullptr; // or callback-backed
  };
  std::map<Key, Sample> plan;
  for (const auto& [key, metric] : metrics_) {
    plan[key] = Sample{metric.kind, &metric, nullptr};
  }
  for (const auto& [key, entries] : callbacks_) {
    // Accumulated identity wins on collision; callbacks are for values the
    // registry does not own, so colliding names indicate caller error and
    // the deterministic choice keeps rendering total.
    auto [it, inserted] = plan.emplace(
        key, Sample{entries.front().kind == Kind::Counter ? MetricKind::Counter
                                                          : MetricKind::Gauge,
                    nullptr, &entries});
    (void)it;
    (void)inserted;
  }

  std::ostringstream out;
  std::string last_family;
  for (const auto& [key, sample] : plan) {
    const auto& [name, labels] = key;
    if (name != last_family) {
      const char* type = sample.kind == MetricKind::Counter ? "counter"
                         : sample.kind == MetricKind::Gauge ? "gauge"
                                                            : "histogram";
      out << "# TYPE " << name << ' ' << type << '\n';
      last_family = name;
    }
    if (sample.polled != nullptr) {
      std::int64_t total = 0;
      for (const auto& entry : *sample.polled) total += entry.fn();
      last_polled_[key] = total;
      out << name << labels << ' ' << total << '\n';
      continue;
    }
    switch (sample.kind) {
      case MetricKind::Counter:
        out << name << labels << ' ' << sample.metric->counter->total() << '\n';
        break;
      case MetricKind::Gauge:
        out << name << labels << ' '
            << sample.metric->gauge->value.load(std::memory_order_relaxed) << '\n';
        break;
      case MetricKind::Histogram: {
        const auto snap = Histogram(sample.metric->histogram.get()).snapshot();
        // Prometheus buckets are cumulative; ours are exclusive — sum up.
        const std::string prefix =
            labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
        std::uint64_t cumulative = 0;
        std::uint64_t bound = 1;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i, bound <<= 1) {
          cumulative += snap.counts[i];
          out << name << "_bucket" << prefix << "le=\"" << bound << "\"} "
              << cumulative << '\n';
        }
        cumulative += snap.overflow;
        out << name << "_bucket" << prefix << "le=\"+Inf\"} " << cumulative << '\n';
        out << name << "_sum" << labels << ' ' << snap.sum << '\n';
        out << name << "_count" << labels << ' ' << cumulative << '\n';
        break;
      }
    }
  }
  return out.str();
}

}  // namespace htor::obs
