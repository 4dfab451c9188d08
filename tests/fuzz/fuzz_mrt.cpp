// Fuzz target: the MRT ingest path (mrt::MrtStreamReader framing plus the
// rib_from_stream decode + join), differentially against the test-side
// reference join.
//
// Contract asserted per input: the bytes are ingested twice through
// rib_from_stream over an in-memory MrtStreamReader — at batch size 1 on an
// inline pool (every record its own flush, so each PEER_INDEX_TABLE is
// carried across batches) and at the default batch size on a two-worker
// pool — and once through the reference join (read_all + sequential
// join_rib_record).  Either all three reject with a reasoned DecodeError, or
// all three give the same RIB.  Any divergence, any other exception type, or
// a crash fails the run.
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "fuzz/driver.hpp"
#include "mrt/stream_reader.hpp"
#include "reference_join.hpp"

using namespace htor;

namespace {

/// One ingest's result: the RIB, or the DecodeError it rejected with.
struct Ingest {
  std::optional<mrt::ObservedRib> rib;
  std::exception_ptr error;
  std::string what;

  std::string describe() const { return rib ? "parsed" : "rejected (" + what + ")"; }

  bool same_as(const Ingest& other) const {
    if (rib.has_value() != other.rib.has_value()) return false;
    return !rib.has_value() || rib->routes() == other.rib->routes();
  }
};

template <typename Run>
Ingest ingest(Run run) {
  Ingest out;
  try {
    out.rib = run();
  } catch (const DecodeError& e) {
    out.error = std::current_exception();
    out.what = e.what();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ThreadPool inline_pool(1);
  ThreadPool pool(2);
  return fuzz::run_target("fuzz_mrt", argc, argv, [&](const std::vector<std::uint8_t>& input) {
    const Ingest per_record = ingest([&] {
      mrt::MrtStreamReader stream(input);
      return mrt::rib_from_stream(stream, inline_pool, 1);
    });
    const Ingest batched = ingest([&] {
      mrt::MrtStreamReader stream(input);
      return mrt::rib_from_stream(stream, pool);
    });
    const Ingest reference = ingest([&] { return test::reference_rib(input); });
    if (!per_record.same_as(batched) || !batched.same_as(reference)) {
      throw std::logic_error("ingest diverged: batch 1 " + per_record.describe() +
                             ", default batch " + batched.describe() + ", reference " +
                             reference.describe());
    }
    if (!batched.rib) std::rethrow_exception(batched.error);
    return fuzz::Outcome::Parsed;
  });
}
