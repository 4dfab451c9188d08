// live-churn: live::FollowService (what `hybridtor serve --follow` runs)
// over the batch-dual RIB and a generated BGP4MP update stream, cutting an
// epoch every 1000 applied updates.  One stream is construct -> start() ->
// wait(); streams repeat, each on a fresh service, until the run's time is
// spent.  The unit of work is the interval between two epoch swaps as seen
// through daemon().epoch().
//
// Check (outside the timed window): after wait(), the epoch the daemon
// serves must equal a batch census of census().rib() — core::run_census +
// core::to_snapshot — answer for answer: the summary and every AS's
// neighbor list, rendered as the daemon renders them (live≡batch).

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "common.hpp"
#include "core/census_report.hpp"
#include "core/snapshot_bridge.hpp"
#include "live/follow.hpp"
#include "obs/metrics.hpp"
#include "rpsl/object.hpp"
#include "server/render.hpp"
#include "snapshot/query.hpp"
#include "snapshot/writer.hpp"

namespace perfbench {
namespace {

/// `serve --follow` runs its census at --jobs 1 by default.  With more jobs
/// the census pool competes for the cores with the pipeline's reader and
/// decoder threads, which spin on full rings while an epoch is cut, and the
/// epoch interval spread over 20% between runs on 4 vCPUs; at --jobs 1 it
/// spreads ~6%.
constexpr std::size_t kJobs = 1;
/// The live≡batch reference census runs outside the timed window; its
/// output is byte-identical at any job count.
constexpr std::size_t kCheckJobs = 4;
constexpr std::uint64_t kEpochEvery = 1000;
constexpr const char* kRib = "rib.mrt";

std::string get_body(htor::server::QueryDaemon& daemon, const std::string& target, int& status) {
  htor::server::HttpRequest request;
  request.method = "GET";
  request.target = target;
  const auto response = daemon.handle(request);
  status = response.status;
  return response.body;
}

/// Compare what `daemon` serves with the batch reference `ref`; returns ""
/// when every answer matches.  `corrupt` flips one byte of one expected
/// body: the negative control that proves the comparison can fail.
std::string compare_served(htor::server::QueryDaemon& daemon, const htor::snapshot::Snapshot& snap,
                           bool corrupt) {
  const htor::snapshot::QueryIndex ref(snap);
  int status = 0;
  std::string expected = htor::server::summary_json(ref);
  if (corrupt) expected[expected.size() / 2] ^= 0x01;
  if (get_body(daemon, "/v1/summary", status) != expected || status != 200) {
    return "served summary differs from the batch census";
  }
  std::set<htor::Asn> ases;
  for (const auto* rels : {&snap.rels_v4, &snap.rels_v6}) {
    rels->for_each([&](const htor::LinkKey& key, htor::Relationship) {
      ases.insert(key.first);
      ases.insert(key.second);
    });
  }
  for (const htor::Asn asn : ases) {
    const std::string body = get_body(daemon, "/v1/neighbors/" + std::to_string(asn), status);
    if (status != 200 || body != htor::server::neighbors_json(asn, ref.neighbors(asn))) {
      return "served neighbors of AS" + std::to_string(asn) + " differ from the batch census";
    }
  }
  return "";
}

/// Records the time of every epoch swap the daemon makes visible.
class EpochWatcher {
 public:
  explicit EpochWatcher(htor::server::QueryDaemon& daemon)
      : daemon_(daemon), thread_([this] { watch(); }) {}
  ~EpochWatcher() { stop(); }
  EpochWatcher(const EpochWatcher&) = delete;
  EpochWatcher& operator=(const EpochWatcher&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Intervals (seconds) between consecutive swaps seen one epoch apart.
  std::vector<double> intervals() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < swaps_.size(); ++i) {
      if (swaps_[i].first == swaps_[i - 1].first + 1) {
        out.push_back(seconds_between(swaps_[i - 1].second, swaps_[i].second));
      }
    }
    return out;
  }

 private:
  void watch() {
    std::uint64_t last = daemon_.epoch();
    while (!stop_.load()) {
      const std::uint64_t now = daemon_.epoch();
      if (now != last) {
        swaps_.emplace_back(now, Clock::now());
        last = now;
      }
      // 1 ms resolution on ~300 ms intervals; polling faster would take
      // CPU from the census pool being measured.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  htor::server::QueryDaemon& daemon_;
  std::atomic<bool> stop_{false};
  std::vector<std::pair<std::uint64_t, Clock::time_point>> swaps_;
  std::thread thread_;  // declared last: starts after the members it uses
};

}  // namespace

void run_live(const RunOptions& options, Result& result, SpanLog& spans) {
  htor::live::FollowConfig config;
  config.daemon.port = 0;
  config.daemon.jobs = 2;
  config.jobs = kJobs;
  config.inference.threads = kJobs;
  config.pipeline.epoch_every = kEpochEvery;
  const auto dict = htor::rpsl::mine_dictionary(htor::rpsl::parse_objects(read_text("irr.txt")));
  auto& registry = htor::obs::MetricsRegistry::global();

  std::vector<double> setup;
  const auto construct = [&] {
    const auto t0 = Clock::now();
    auto service = std::make_unique<htor::live::FollowService>(
        kRib, "irr.txt", std::vector<std::string>{"updates.mrt"}, config);
    setup.push_back(seconds_between(t0, Clock::now()));
    return service;
  };
  // Two extra constructions so setup_s is a median even when one stream
  // fills the run.
  construct();
  construct();

  std::vector<double> intervals_untraced;
  std::vector<double> intervals_traced;
  double applied_total = 0;
  double stream_seconds = 0;
  double epochs_per_stream = 0;
  double waits_decode = 0;
  double waits_apply = 0;
  double bridge_ms = 0;
  double encode_ms = 0;
  double snapshot_bytes = 0;
  double stream_peak_mb = 0;
  double seed_records = 0;
  htor::core::CensusReport last_report;
  std::map<std::string, StageTotal> epoch_stages;
  std::map<std::string, StageTotal> setup_stages;

  const auto run_start = Clock::now();
  for (std::uint64_t stream = 0;; ++stream) {
    if (stream >= (options.trace ? 2u : 1u) &&
        seconds_between(run_start, Clock::now()) >= options.seconds) {
      break;
    }
    const bool traced = options.trace && stream % 2 == 0;
    const std::int64_t root = traced ? spans.begin("live.stream", stream) : -1;

    const auto before_setup = stage_totals();
    const auto records_before = registry.counter_value("htor_ingest_records_total");
    std::int64_t s = traced ? spans.begin("live.construct", stream, root) : -1;
    auto service = construct();
    spans.end(s);
    const auto before = stage_totals();
    seed_records += static_cast<double>(registry.counter_value("htor_ingest_records_total") -
                                        records_before);
    for (const auto& [stage, total] : stage_delta(before_setup, before)) {
      setup_stages[stage].sum_us += total.sum_us;
      setup_stages[stage].calls += total.calls;
    }
    const auto decode_before = registry.counter_value("htor_live_push_waits_total",
                                                      {{"stage", "decode"}});
    const auto apply_before = registry.counter_value("htor_live_push_waits_total",
                                                     {{"stage", "apply"}});

    std::vector<double> intervals;
    s = traced ? spans.begin("live.follow", stream, root) : -1;
    const auto t0 = Clock::now();
    {
      EpochWatcher watcher(service->daemon());
      service->start();
      try {
        service->wait();
      } catch (const std::exception& e) {
        result.fail(std::string("stream threw: ") + e.what());
        ++result.failed;
      }
      watcher.stop();
      intervals = watcher.intervals();
    }
    stream_seconds += seconds_between(t0, Clock::now());
    spans.end(s);
    for (const auto& [stage, total] : stage_delta(before, stage_totals())) {
      epoch_stages[stage].sum_us += total.sum_us;
      epoch_stages[stage].calls += total.calls;
    }
    waits_decode += static_cast<double>(
        registry.counter_value("htor_live_push_waits_total", {{"stage", "decode"}}) -
        decode_before);
    waits_apply += static_cast<double>(
        registry.counter_value("htor_live_push_waits_total", {{"stage", "apply"}}) -
        apply_before);

    const auto outcome = service->result();
    const auto& census = service->census();
    const std::uint64_t epochs = service->epochs_published();
    const std::uint64_t expected_epochs = (outcome.applied + kEpochEvery - 1) / kEpochEvery;
    const std::uint64_t missing = census.rib().stats().withdrawn_missing;
    result.attempted += outcome.records + expected_epochs;
    result.failed += (outcome.records - outcome.applied) + missing;
    if (outcome.applied != outcome.records || missing != 0) {
      result.fail("stream " + std::to_string(stream) + ": " +
                  std::to_string(outcome.records - outcome.applied) + " updates not applied, " +
                  std::to_string(missing) + " withdraws of missing routes");
    }
    if (epochs != expected_epochs) {
      result.fail("stream " + std::to_string(stream) + ": published " + std::to_string(epochs) +
                  " epochs, expected " + std::to_string(expected_epochs));
    }
    // Peak memory of one whole stream, set-up included.  Later streams
    // repeat the same work, so they only add allocator noise to the peak.
    if (stream == 0) stream_peak_mb = peak_rss_mb();
    applied_total += static_cast<double>(outcome.applied);
    epochs_per_stream = static_cast<double>(epochs);
    auto& pooled = traced ? intervals_traced : intervals_untraced;
    pooled.insert(pooled.end(), intervals.begin(), intervals.end());
    for (const double interval : intervals) result.unit_ms.push_back(interval * 1e3);

    // live≡batch on the final epoch, outside the timed window.
    s = traced ? spans.begin("live.check", stream, root) : -1;
    htor::ThreadPool pool(kCheckJobs);
    const auto rib = census.rib().materialize();
    last_report = htor::core::run_census(rib, dict, config.inference, pool);
    const auto c1 = Clock::now();
    const auto snap = htor::core::to_snapshot(last_report, kRib, census.last_timestamp());
    const auto c2 = Clock::now();
    snapshot_bytes = static_cast<double>(htor::snapshot::Writer::encode(snap).size());
    const auto c3 = Clock::now();
    bridge_ms = seconds_between(c1, c2) * 1e3;
    encode_ms = seconds_between(c2, c3) * 1e3;
    const std::string why = compare_served(service->daemon(), snap, false);
    if (!why.empty()) {
      result.fail("stream " + std::to_string(stream) + ": " + why);
      ++result.failed;
    }
    if (stream == 0 && compare_served(service->daemon(), snap, true).empty()) {
      result.fail("negative control: a corrupted reference answer was not caught");
    }
    spans.end(s);
    service->stop();
    spans.end(root);
  }

  std::vector<double> all = intervals_untraced;
  all.insert(all.end(), intervals_traced.begin(), intervals_traced.end());
  result.set("setup_s", median(setup), "s");
  result.set("peak_rss_mb", stream_peak_mb, "MB");
  result.set("unit_p50_ms", median(options.trace ? all : intervals_untraced) * 1e3, "ms");
  result.set("unit.samples", static_cast<double>(all.size()), "count");
  if (!options.trace) return;

  result.set("live.updates_per_s", stream_seconds > 0 ? applied_total / stream_seconds : 0,
             "1/s");
  // Seed-RIB ingest happens inside FollowService construction.
  const double ingests = stage_calls(setup_stages, "ingest");
  const auto per_ingest = [&](const char* stage) {
    return ingests > 0 ? stage_seconds(setup_stages, stage) / ingests : 0.0;
  };
  const double ingest_s = per_ingest("ingest");
  result.set("mrt.ingest_s", ingest_s, "s");
  result.set("mrt.decode_s", per_ingest("ingest.decode"), "s");
  result.set("mrt.join_s", per_ingest("ingest.apply"), "s");
  result.set("mrt.records", ingests > 0 ? seed_records / ingests : 0, "count");
  result.set("mrt.mb_per_s",
             ingest_s > 0 ? static_cast<double>(read_file_bytes(kRib).size()) / 1e6 / ingest_s : 0,
             "MB/s");

  // Census stages inside the epochs (construction's epoch 0 excluded).
  const double censuses = stage_calls(epoch_stages, "census");
  const auto per_census = [&](const char* stage) {
    return censuses > 0 ? stage_seconds(epoch_stages, stage) / censuses : 0.0;
  };
  result.set("core.census_s", per_census("census"), "s");
  result.set("core.paths_s", per_census("census.paths"), "s");
  result.set("core.infer_community_s", per_census("census.infer.community"), "s");
  result.set("core.infer_rosetta_s", per_census("census.infer.rosetta"), "s");
  result.set("core.valleys_s", per_census("census.valleys"), "s");
  result.set("core.duals_s", per_census("census.duals"), "s");
  result.set("core.hybrids_s", per_census("census.hybrids"), "s");
  result.set("core.v4_paths", static_cast<double>(last_report.v4_paths), "count");
  result.set("core.v6_paths", static_cast<double>(last_report.v6_paths), "count");
  result.set("core.typed_v4", static_cast<double>(last_report.v4_coverage.covered_links), "count");
  result.set("core.typed_v6", static_cast<double>(last_report.v6_coverage.covered_links), "count");
  result.set("core.hybrids", static_cast<double>(last_report.hybrids.hybrids.size()), "count");

  result.set("snapshot.bridge_ms", bridge_ms, "ms");
  result.set("snapshot.write_ms", encode_ms, "ms");
  result.set("snapshot.bytes", snapshot_bytes, "bytes");

  const double run_s = stage_seconds(epoch_stages, "live.run");
  const double epoch_s = stage_seconds(epoch_stages, "live.epoch");
  const double epoch_calls = stage_calls(epoch_stages, "live.epoch");
  const double streams = stage_calls(epoch_stages, "live.run");
  result.set("live.apply_us", applied_total > 0 ? (run_s - epoch_s) / applied_total * 1e6 : 0,
             "us");
  result.set("live.epoch_ms", epoch_calls > 0 ? epoch_s / epoch_calls * 1e3 : 0, "ms");
  result.set("live.epoch_share", run_s > 0 ? epoch_s / run_s : 0, "ratio");
  result.set("live.epochs", epochs_per_stream, "count");
  result.set("live.push_waits_decode", streams > 0 ? waits_decode / streams : 0, "count");
  result.set("live.push_waits_apply", streams > 0 ? waits_apply / streams : 0, "count");

  result.set("trace.span_share", stream_seconds > 0 ? run_s / stream_seconds : 0, "ratio");
  result.set("trace.overhead",
             median(intervals_untraced) > 0
                 ? median(intervals_traced) / median(intervals_untraced) - 1
                 : 0,
             "ratio");
}

}  // namespace perfbench
