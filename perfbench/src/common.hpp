// Shared pieces of the end-to-end benchmark: the run result, the
// benchmark's own span recorder, and small measurement helpers.
//
// The benchmark drives the program only through the public functions of
// each layer (mrt, core, snapshot, live, server).  Spans are recorded here,
// around those calls, never inside src/; per-stage detail inside a layer is
// read from the `htor_stage_duration_us{stage}` histograms the program
// already exports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one `run` invocation reports.  `metrics` holds every metric the
/// workload measured, keyed by name; run.py reports the per-layer metrics
/// of layers a workload does not run as 0.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  ///< one line per failed check
  std::vector<double> unit_ms;        ///< every timed unit of work, in order

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed correctness check; the run then exits non-zero.
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

struct RunOptions {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  std::uint64_t seed = 1;
};

/// The benchmark's span log: name, start, end, parent span and one id per
/// iteration or request.  Kept in memory and written as a Chrome trace when
/// the run ends.  Only the traced run records spans.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
    std::uint64_t unit = 0;    ///< iteration / stream / request id
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Open a span; returns its index (or -1 when disabled).
  std::int64_t begin(const std::string& name, std::uint64_t unit, std::int64_t parent = -1);
  /// Close span `index` (a no-op for -1).
  void end(std::int64_t index);

  /// Sum of the durations (seconds) of spans named `name`.
  double total(const std::string& name) const;
  /// Durations (seconds) of spans named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, one tid per unit).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Peak resident set of this process so far (VmHWM), in MB.
double peak_rss_mb();

std::vector<std::uint8_t> read_file_bytes(const std::string& path);
std::string read_text(const std::string& path);

/// Sum (µs) and call count of one `htor_stage_duration_us{stage}` series.
struct StageTotal {
  double sum_us = 0;
  double calls = 0;
};
std::map<std::string, StageTotal> stage_totals();
/// Per-stage difference `after - before`.
std::map<std::string, StageTotal> stage_delta(const std::map<std::string, StageTotal>& before,
                                              const std::map<std::string, StageTotal>& after);

/// Total seconds and call count of `stage` in a stage map (0 when absent).
double stage_seconds(const std::map<std::string, StageTotal>& totals, const std::string& stage);
double stage_calls(const std::map<std::string, StageTotal>& totals, const std::string& stage);

// Workloads.  Each runs in the current directory, which holds the inputs
// `gen` wrote.
void run_batch(const RunOptions& options, Result& result, SpanLog& spans);
void run_live(const RunOptions& options, Result& result, SpanLog& spans);
void run_serve(const RunOptions& options, Result& result, SpanLog& spans);

}  // namespace perfbench
