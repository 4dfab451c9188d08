#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace perfbench {

std::int64_t SpanLog::begin(const std::string& name, std::uint64_t unit, std::int64_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.unit = unit;
  span.parent = parent;
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

double SpanLog::total(const std::string& name) const {
  double sum = 0;
  for (const auto& span : spans_) {
    if (span.name == name) sum += (span.end_us - span.start_us) / 1e6;
  }
  return sum;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& span : spans_) {
    if (span.name == name) out.push_back((span.end_us - span.start_us) / 1e6);
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << (i ? "," : "") << "{\"name\":" << htor::JsonWriter::quote(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.unit << "," << times
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::map<std::string, StageTotal> stage_totals() {
  std::map<std::string, StageTotal> out;
  constexpr std::string_view kPrefix = "{stage=\"";
  for (const auto& row :
       htor::obs::MetricsRegistry::global().histogram_family(htor::obs::kStageDurationMetric)) {
    std::string stage = row.labels;
    if (stage.rfind(kPrefix, 0) == 0 && stage.size() >= kPrefix.size() + 2) {
      stage = stage.substr(kPrefix.size(), stage.size() - kPrefix.size() - 2);
    }
    out[stage] = StageTotal{static_cast<double>(row.values.sum),
                            static_cast<double>(row.values.total())};
  }
  return out;
}

std::map<std::string, StageTotal> stage_delta(const std::map<std::string, StageTotal>& before,
                                              const std::map<std::string, StageTotal>& after) {
  std::map<std::string, StageTotal> out;
  for (const auto& [stage, total] : after) {
    StageTotal d = total;
    if (const auto it = before.find(stage); it != before.end()) {
      d.sum_us -= it->second.sum_us;
      d.calls -= it->second.calls;
    }
    out[stage] = d;
  }
  return out;
}

double stage_seconds(const std::map<std::string, StageTotal>& totals, const std::string& stage) {
  const auto it = totals.find(stage);
  return it == totals.end() ? 0 : it->second.sum_us / 1e6;
}

double stage_calls(const std::map<std::string, StageTotal>& totals, const std::string& stage) {
  const auto it = totals.find(stage);
  return it == totals.end() ? 0 : it->second.calls;
}

}  // namespace perfbench
