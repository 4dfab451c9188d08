// perfbench: the end-to-end benchmark binary.  perfbench/run.py drives it;
// each subcommand runs in its own fresh process.
//
//   perfbench gen --workload W --seed N --out DIR
//       Generate the workload's inputs with the seeded `gen` module and
//       write them to DIR (rib.mrt, irr.txt, and updates.mrt or snap.bin
//       where the workload needs them).  Prints one JSON object: generation
//       times and input sizes.
//   perfbench run --workload W --inputs DIR --seconds S --trace 0|1
//       Run the workload on DIR's inputs for about S seconds, check every
//       output, and print one JSON object with the measured metrics, the
//       checks' verdict and the build fingerprint.
//
// Exit codes: 0 success, 1 a correctness check failed, 2 usage or I/O
// error.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/census_report.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "snapshot/writer.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

/// The RIB epoch every generated dump carries (the paper's August 2010).
constexpr std::uint32_t kRibTimestamp = 1281052800u;
/// Update events for live-churn; flaps emit two records, so ~23k records.
constexpr std::size_t kUpdateEvents = 20000;
/// ASes of the batch-wide graph (gen::scale_params).
constexpr std::size_t kWideAses = 100000;

bool is_debug_or_sanitized() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::string fingerprint_json() {
  htor::JsonWriter json;
  json.begin_object();
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
#ifdef __clang__
  json.key("compiler").value("clang " __VERSION__);
#else
  json.key("compiler").value("gcc " __VERSION__);
#endif
  json.key("ndebug").value(
#ifdef NDEBUG
      true
#else
      false
#endif
  );
  json.key("valid_build").value(!is_debug_or_sanitized());
  json.end_object();
  return json.str();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void write_mrt(const htor::mrt::ObservedRib& rib, const std::string& path) {
  htor::mrt::MrtWriter writer;
  for (const auto& record : htor::mrt::records_from_rib(rib, 0x0a0a0a0au, "hybridtor",
                                                        kRibTimestamp)) {
    writer.write(record);
  }
  writer.save(path);
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// The serve-mix snapshot: the batch census of the batch-dual inputs, made
/// exactly as `hybridtor census --snapshot-out` makes it.
std::uint64_t write_serve_snapshot() {
  htor::ThreadPool pool(4);
  const auto rib = htor::core::load_rib("rib.mrt", pool);
  const auto dict = htor::rpsl::mine_dictionary(htor::rpsl::parse_objects(read_text("irr.txt")));
  htor::core::InferenceConfig config;
  config.threads = 4;
  const auto census = htor::core::run_census(rib, dict, config, pool);
  htor::snapshot::Writer::write_file(htor::core::to_snapshot(census, "rib.mrt", kRibTimestamp),
                                     "snap.bin");
  return std::filesystem::file_size("snap.bin");
}

int cmd_gen(const std::string& workload, std::uint64_t seed) {
  const bool wide = workload == "batch-wide";
  const auto t0 = Clock::now();
  htor::gen::GenParams params = wide ? htor::gen::scale_params(kWideAses, seed)
                                     : htor::gen::GenParams{};
  params.seed = seed;
  const auto net = htor::gen::SyntheticInternet::generate(params);
  const auto rib = wide ? net.collect_scaled() : net.collect();
  write_mrt(rib, "rib.mrt");
  write_text("irr.txt", net.irr_dump());
  const double internet_s = seconds_between(t0, Clock::now());

  double updates_s = 0;
  std::uint64_t update_records = 0;
  std::uint64_t snapshot_bytes = 0;
  if (workload == "live-churn") {
    const auto t1 = Clock::now();
    htor::gen::UpdateScheduleParams schedule;
    schedule.seed = seed;
    schedule.events = kUpdateEvents;
    const auto updates = htor::gen::synthesize_updates(rib, schedule);
    htor::mrt::MrtWriter writer;
    for (const auto& record : updates) writer.write(record);
    writer.save("updates.mrt");
    update_records = updates.size();
    updates_s = seconds_between(t1, Clock::now());
  }
  if (workload == "serve-mix") snapshot_bytes = write_serve_snapshot();

  std::cout << "{\"gen.internet_s\":" << number(internet_s)
            << ",\"gen.updates_s\":" << number(updates_s) << ",\"ases\":" << params.total_ases()
            << ",\"routes\":" << rib.size()
            << ",\"routes_v6\":" << rib.size_of(htor::IpVersion::V6)
            << ",\"mrt_bytes\":" << std::filesystem::file_size("rib.mrt")
            << ",\"irr_bytes\":" << std::filesystem::file_size("irr.txt")
            << ",\"update_records\":" << update_records
            << ",\"snapshot_bytes\":" << snapshot_bytes << "}\n";
  return 0;
}

int cmd_run(const RunOptions& options) {
  Result result;
  SpanLog spans(options.trace);
  if (options.workload == "batch-dual" || options.workload == "batch-wide") {
    run_batch(options, result, spans);
  } else if (options.workload == "live-churn") {
    run_live(options, result, spans);
  } else if (options.workload == "serve-mix") {
    run_serve(options, result, spans);
  } else {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  if (!result.metrics.count("peak_rss_mb")) result.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (spans.enabled()) spans.write_chrome_trace("trace.json");

  std::ostringstream out;
  out << "{\"correct\":" << (result.correct ? "true" : "false")
      << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
      << ",\"fingerprint\":" << fingerprint_json() << ",\"problems\":[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    out << (i ? "," : "") << htor::JsonWriter::quote(result.problems[i]);
  }
  out << "],\"unit_ms\":[";
  for (std::size_t i = 0; i < result.unit_ms.size(); ++i) {
    out << (i ? "," : "") << number(result.unit_ms[i]);
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out << (first ? "" : ",") << htor::JsonWriter::quote(name) << ":{\"value\":"
        << number(metric.value) << ",\"unit\":" << htor::JsonWriter::quote(metric.unit) << "}";
    first = false;
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;
  return result.correct ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --inputs DIR --seconds S --trace 0|1"
               " [--seed N]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  RunOptions options;
  std::optional<std::string> dir;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--out" || flag == "--inputs") {
        dir = value;
      } else {
        return usage();
      }
    }
    if (options.workload.empty() || !dir) return usage();
    if (cmd == "gen") std::filesystem::create_directories(*dir);
    if (chdir(dir->c_str()) != 0) {
      std::cerr << "perfbench: cannot enter " << *dir << ": " << std::strerror(errno) << "\n";
      return 2;
    }
    if (cmd == "gen") return cmd_gen(options.workload, options.seed);
    if (cmd == "run") return cmd_run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
