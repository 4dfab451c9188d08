// batch-dual / batch-wide: MRT file -> core::load_rib -> core::run_census
// -> core::to_snapshot -> snapshot::Writer::write_file -> QueryIndex::open
// -> one lookup, at --jobs 4.  The unit of work is one such iteration.
//
// Checks (outside the timed window): every iteration's snapshot bytes and
// census counts equal a --jobs 1 reference made before timing starts, and
// the lookup answers the same.  batch-wide's snapshot is nearly empty by
// design (no communities, so nothing is typed), which is why the counts are
// compared too.

#include <algorithm>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/census_report.hpp"
#include "core/snapshot_bridge.hpp"
#include "mrt/stream_reader.hpp"
#include "obs/metrics.hpp"
#include "rpsl/object.hpp"
#include "snapshot/query.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 4;
constexpr const char* kRib = "rib.mrt";
constexpr const char* kOut = "out.snap";
constexpr int kSetupsBefore = 9;
constexpr int kSetupsBetween = 2;

/// What an iteration produced that the checks compare.
struct Outcome {
  double seconds = 0;
  std::size_t routes = 0;
  std::uint64_t v4_paths = 0;
  std::uint64_t v6_paths = 0;
  std::uint64_t v4_links = 0;
  std::uint64_t v6_links = 0;
  std::uint64_t typed_v4 = 0;
  std::uint64_t typed_v6 = 0;
  std::uint64_t hybrids = 0;
  std::optional<htor::snapshot::QueryIndex::LinkInfo> answer;

  bool same_counts(const Outcome& o) const {
    return routes == o.routes && v4_paths == o.v4_paths && v6_paths == o.v6_paths &&
           v4_links == o.v4_links && v6_links == o.v6_links && typed_v4 == o.typed_v4 &&
           typed_v6 == o.typed_v6 && hybrids == o.hybrids;
  }
};

struct Inputs {
  htor::rpsl::CommunityDictionary dict;
  htor::core::InferenceConfig config;
  std::uint64_t epoch = 0;
  htor::LinkKey probe{1, 2};  ///< the link every iteration looks up
};

/// One iteration.  With `traced`, spans are recorded around each layer call
/// under one root span per iteration.
Outcome iterate(htor::ThreadPool& pool, const Inputs& in, SpanLog& spans, std::uint64_t id,
                bool traced) {
  Outcome out;
  const auto t0 = Clock::now();
  const std::int64_t root = traced ? spans.begin("batch.iteration", id) : -1;
  const auto begin = [&](const char* name) { return traced ? spans.begin(name, id, root) : -1; };

  std::int64_t s = begin("mrt.ingest");
  std::optional<htor::mrt::ObservedRib> rib = htor::core::load_rib(kRib, pool);
  spans.end(s);

  s = begin("core.census");
  std::optional<htor::core::CensusReport> census =
      htor::core::run_census(*rib, in.dict, in.config, pool);
  spans.end(s);

  s = begin("snapshot.bridge");
  std::optional<htor::snapshot::Snapshot> snap = htor::core::to_snapshot(*census, kRib, in.epoch);
  spans.end(s);

  s = begin("snapshot.write");
  htor::snapshot::Writer::write_file(*snap, kOut);
  spans.end(s);

  s = begin("snapshot.open");
  std::optional<htor::snapshot::QueryIndex> index = htor::snapshot::QueryIndex::open(kOut);
  spans.end(s);

  s = begin("snapshot.lookup");
  out.answer = index->lookup(in.probe.first, in.probe.second);
  spans.end(s);

  out.routes = rib->size();
  out.v4_paths = census->v4_paths;
  out.v6_paths = census->v6_paths;
  out.v4_links = census->v4_links;
  out.v6_links = census->v6_links;
  out.typed_v4 = census->v4_coverage.covered_links;
  out.typed_v6 = census->v6_coverage.covered_links;
  out.hybrids = census->hybrids.hybrids.size();

  // Releasing the RIB and census is part of the iteration's cost, and of
  // the layer that built them.
  index.reset();
  snap.reset();
  s = begin("core.free");
  census.reset();
  spans.end(s);
  s = begin("mrt.free");
  rib.reset();
  spans.end(s);

  out.seconds = seconds_between(t0, Clock::now());
  spans.end(root);
  return out;
}

/// The link to look up: a hybrid when the census found one (the paper's
/// subject), else the smallest typed link, else a pair that is absent.
htor::LinkKey pick_probe(const htor::snapshot::Snapshot& snap) {
  if (!snap.hybrids.empty()) return snap.hybrids.front().link;
  std::optional<htor::LinkKey> best;
  snap.rels_v4.for_each([&](const htor::LinkKey& key, htor::Relationship) {
    if (!best || key < *best) best = key;
  });
  return best.value_or(htor::LinkKey{1, 2});
}

/// Compare one iteration against the reference; returns "" when equal.
std::string check(const Outcome& got, const std::vector<std::uint8_t>& bytes,
                  const Outcome& ref, const std::vector<std::uint8_t>& ref_bytes) {
  if (bytes != ref_bytes) return "snapshot bytes differ from the --jobs 1 reference";
  if (!got.same_counts(ref)) return "census counts differ from the --jobs 1 reference";
  if (got.answer != ref.answer) return "lookup answer differs from the --jobs 1 reference";
  return "";
}

}  // namespace

void run_batch(const RunOptions& options, Result& result, SpanLog& spans) {
  const std::uint64_t mrt_bytes = read_file_bytes(kRib).size();
  Inputs in;
  in.config.threads = kJobs;
  {
    htor::mrt::MrtStreamReader stream(kRib);
    if (const auto frame = stream.next()) in.epoch = frame->timestamp;
  }

  // Set-up: dictionary mining and pool creation.  It is repeated before the
  // first iteration and again after every timed one, so its samples span
  // the run the way the iterations do; setup_s is their median and the
  // latest pool and dictionary are the ones in use.
  std::vector<double> setup;
  std::unique_ptr<htor::ThreadPool> pool;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    pool.reset();
    pool = std::make_unique<htor::ThreadPool>(kJobs);
    in.dict = htor::rpsl::mine_dictionary(htor::rpsl::parse_objects(read_text("irr.txt")));
    setup.push_back(seconds_between(t0, Clock::now()));
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();

  double mrt_peak_mb = 0;
  if (options.trace) {
    const auto rib = htor::core::load_rib(kRib, *pool);
    mrt_peak_mb = peak_rss_mb();
  }

  // The --jobs 1 reference every iteration is checked against.
  Outcome ref;
  std::vector<std::uint8_t> ref_bytes;
  double census_jobs1_s = 0;
  {
    htor::ThreadPool sequential(1);
    in.probe = htor::LinkKey{1, 2};
    const auto before = stage_totals();
    ref = iterate(sequential, in, spans, 0, false);
    census_jobs1_s = stage_seconds(stage_delta(before, stage_totals()), "census");
    ref_bytes = read_file_bytes(kOut);
    in.probe = pick_probe(htor::snapshot::Reader::decode(ref_bytes));
    ref.answer = htor::snapshot::QueryIndex::open(kOut).lookup(in.probe.first, in.probe.second);
  }

  // Negative control: a flipped snapshot byte and a wrong count must both
  // be caught by the same check the iterations go through.
  {
    std::vector<std::uint8_t> flipped = ref_bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    Outcome miscounted = ref;
    miscounted.v4_paths += 1;
    if (check(ref, flipped, ref, ref_bytes).empty() ||
        check(miscounted, ref_bytes, ref, ref_bytes).empty() ||
        !check(ref, ref_bytes, ref, ref_bytes).empty()) {
      result.fail("negative control: the snapshot check missed a corrupted output");
    }
  }

  const auto run_one = [&](std::uint64_t id, bool traced) -> std::optional<Outcome> {
    ++result.attempted;
    try {
      Outcome got = iterate(*pool, in, spans, id, traced);
      const std::string why = check(got, read_file_bytes(kOut), ref, ref_bytes);
      if (why.empty()) return got;
      result.fail("iteration " + std::to_string(id) + ": " + why);
    } catch (const std::exception& e) {
      result.fail("iteration " + std::to_string(id) + " threw: " + e.what());
    }
    ++result.failed;
    return std::nullopt;
  };

  run_one(1, false);  // warm-up, discarded

  // Timed iterations.  The traced run alternates traced and untraced
  // iterations so the difference is the tracing overhead.
  std::vector<double> untraced;
  std::vector<double> traced;
  const auto before = stage_totals();
  const auto records_before =
      htor::obs::MetricsRegistry::global().counter_value("htor_ingest_records_total");
  const auto start = Clock::now();
  for (std::uint64_t id = 2;; ++id) {
    const std::uint64_t done = id - 2;
    if (seconds_between(start, Clock::now()) >= options.seconds &&
        done >= (options.trace ? 4u : 3u)) {
      break;
    }
    const bool trace_this = options.trace && id % 2 == 0;
    if (const auto got = run_one(id, trace_this)) {
      (trace_this ? traced : untraced).push_back(got->seconds);
      result.unit_ms.push_back(got->seconds * 1e3);
    }
    for (int i = 0; i < kSetupsBetween; ++i) set_up();
  }
  const auto delta = stage_delta(before, stage_totals());
  const double records =
      static_cast<double>(htor::obs::MetricsRegistry::global().counter_value(
                              "htor_ingest_records_total") -
                          records_before);

  result.set("setup_s", median(setup), "s");
  result.set("unit_p50_ms", median(untraced) * 1e3, "ms");
  result.set("unit.samples", static_cast<double>(untraced.size()), "count");
  if (!options.trace) return;

  // Per-layer: the benchmark's own spans around each layer call (medians
  // over traced iterations), and the stage histograms the program exports
  // (means per census / per ingest over every timed iteration).
  const double censuses = stage_calls(delta, "census");
  const double ingests = stage_calls(delta, "ingest");
  const auto per = [&](const char* stage, double calls) {
    return calls > 0 ? stage_seconds(delta, stage) / calls : 0.0;
  };
  const double ingest_s = median(spans.durations("mrt.ingest"));
  result.set("mrt.ingest_s", ingest_s, "s");
  result.set("mrt.decode_s", per("ingest.decode", ingests), "s");
  result.set("mrt.join_s", per("ingest.apply", ingests), "s");
  result.set("mrt.records", ingests > 0 ? records / ingests : 0, "count");
  result.set("mrt.mb_per_s", ingest_s > 0 ? static_cast<double>(mrt_bytes) / 1e6 / ingest_s : 0,
             "MB/s");
  result.set("mrt.peak_rss_mb", mrt_peak_mb, "MB");
  result.set("mrt.free_ms", median(spans.durations("mrt.free")) * 1e3, "ms");

  const double census_s = median(spans.durations("core.census"));
  result.set("core.census_s", census_s, "s");
  result.set("core.paths_s", per("census.paths", censuses), "s");
  result.set("core.infer_community_s", per("census.infer.community", censuses), "s");
  result.set("core.infer_rosetta_s", per("census.infer.rosetta", censuses), "s");
  result.set("core.valleys_s", per("census.valleys", censuses), "s");
  result.set("core.duals_s", per("census.duals", censuses), "s");
  result.set("core.hybrids_s", per("census.hybrids", censuses), "s");
  result.set("core.free_ms", median(spans.durations("core.free")) * 1e3, "ms");
  result.set("core.census_s_jobs1", census_jobs1_s, "s");
  result.set("core.speedup", census_s > 0 ? census_jobs1_s / census_s : 0, "ratio");
  result.set("core.v4_paths", static_cast<double>(ref.v4_paths), "count");
  result.set("core.v6_paths", static_cast<double>(ref.v6_paths), "count");
  result.set("core.typed_v4", static_cast<double>(ref.typed_v4), "count");
  result.set("core.typed_v6", static_cast<double>(ref.typed_v6), "count");
  result.set("core.hybrids", static_cast<double>(ref.hybrids), "count");

  result.set("snapshot.bridge_ms", median(spans.durations("snapshot.bridge")) * 1e3, "ms");
  result.set("snapshot.write_ms", median(spans.durations("snapshot.write")) * 1e3, "ms");
  result.set("snapshot.open_ms", median(spans.durations("snapshot.open")) * 1e3, "ms");
  result.set("snapshot.bytes", static_cast<double>(ref_bytes.size()), "bytes");

  // How much of a traced iteration the layer spans cover, and what tracing
  // costs against the untraced iterations of the same run.
  double covered = 0;
  for (const char* name : {"mrt.ingest", "core.census", "snapshot.bridge", "snapshot.write",
                           "snapshot.open", "snapshot.lookup", "core.free", "mrt.free"}) {
    covered += spans.total(name);
  }
  const double iterations_s = spans.total("batch.iteration");
  result.set("trace.span_share", iterations_s > 0 ? covered / iterations_s : 0, "ratio");
  result.set("trace.overhead", median(untraced) > 0 ? median(traced) / median(untraced) - 1 : 0,
             "ratio");
}

}  // namespace perfbench
