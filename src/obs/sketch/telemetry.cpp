#include "obs/sketch/telemetry.hpp"

namespace htor::obs::sketch {

Telemetry& Telemetry::global() {
  static Telemetry* instance = new Telemetry();  // never destroyed
  return *instance;
}

Telemetry::Telemetry()
    : link_votes_(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK,
                  kTelemetrySeed) {
  auto& registry = MetricsRegistry::global();
  using Kind = MetricsRegistry::Kind;
  // Callbacks run at scrape time under the registry's lock and take ours —
  // never the other way around, so the lock order is acyclic.
  registrations_.push_back(registry.callback(
      "htor_sketch_top_link_votes", {}, Kind::Gauge, [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto top = link_votes_.top();
        return top.empty() ? std::int64_t{0} : static_cast<std::int64_t>(top.front().estimate);
      }));
  for (const char* kind : {"as", "prefix", "link"}) {
    registrations_.push_back(registry.callback(
        "htor_sketch_epoch_churn_estimate", {{"kind", kind}}, Kind::Gauge,
        [this, kind] {
          std::lock_guard<std::mutex> lock(mutex_);
          if (kind[0] == 'a') return epoch_churn_ases_;
          if (kind[0] == 'p') return epoch_churn_prefixes_;
          return epoch_churn_links_;
        }));
  }
  registrations_.push_back(registry.callback(
      "htor_sketch_memory_bytes", {}, Kind::Gauge, [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<std::int64_t>(link_votes_.memory_bytes());
      }));
}

void Telemetry::feed_link_votes(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& votes) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [item, weight] : votes) link_votes_.update(item, weight);
}

void Telemetry::set_epoch_churn(std::int64_t ases, std::int64_t prefixes, std::int64_t links) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_churn_ases_ = ases;
  epoch_churn_prefixes_ = prefixes;
  epoch_churn_links_ = links;
}

Telemetry::Snapshot Telemetry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  out.top_link_votes = link_votes_.top();
  out.epoch_churn_ases = epoch_churn_ases_;
  out.epoch_churn_prefixes = epoch_churn_prefixes_;
  out.epoch_churn_links = epoch_churn_links_;
  out.memory_bytes = link_votes_.memory_bytes();
  return out;
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  link_votes_.reset();
  epoch_churn_ases_ = 0;
  epoch_churn_prefixes_ = 0;
  epoch_churn_links_ = 0;
}

}  // namespace htor::obs::sketch
