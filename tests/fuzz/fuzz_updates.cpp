// Fuzz target: the BGP4MP update path — MRT framing, BGP UPDATE decode,
// live::ObservedRib::apply, and the live census built on it.
//
// Contract asserted per input: the buffer decodes into records and every
// BGP4MP message applies to the live RIB, or a reasoned DecodeError is
// thrown — no other exception type, no crash.  On top of the decoder
// contract this target asserts the apply-side strong exception guarantee:
// when apply() rejects a message, the observed RIB must be byte-identical
// to its state before the call (a torn table would silently poison every
// later census epoch, which is why the validation happens before any
// mutation), and so must the live census's counters and the bytes of its
// next epoch.
//
// It is also a differential oracle for the epoch tier.  An IncrementalCensus
// over a small fixed dictionary (mined from the IRR text below, whose tags
// the committed corpus carries) follows the same messages.  Its recompute()
// snapshot must equal core::run_census + to_snapshot over
// rib().materialize(), byte for byte, after every third message (so later
// cuts merge changes, removals included, into stores folded earlier) and
// after each input, and so must its Rosetta counters and first-hop links.
#include "fuzz/driver.hpp"

#include <stdexcept>

#include "core/census_report.hpp"
#include "core/snapshot_bridge.hpp"
#include "live/incremental_census.hpp"
#include "live/observed_rib.hpp"
#include "mrt/reader.hpp"
#include "rpsl/object.hpp"
#include "snapshot/writer.hpp"

using namespace htor;

namespace {

constexpr char kSource[] = "fuzz";

// Ingress tags of the ASes that tag most routes in the committed corpus,
// one TE LocPrf override, and one remark no miner can type.
constexpr char kIrr[] = R"(aut-num:        AS10
remarks:        10:100   routes learned from customers
remarks:        10:200   routes learned from peers
remarks:        10:300   routes learned from upstream providers

aut-num:        AS11
remarks:        11:65101   customer routes
remarks:        11:65102   peer routes received at public peering

aut-num:        AS12
remarks:        12:1000   received from customer
remarks:        12:2000   received from peering partner
remarks:        12:3000   received from upstream transit
remarks:        12:70   local-pref 70 applied on ingress

aut-num:        AS116
remarks:        116:100   routes learned from customers
remarks:        116:200   routes learned from peers
remarks:        116:300   routes learned from upstream providers

aut-num:        AS124
remarks:        124:1000   received from customer
remarks:        124:2000   received from peering partner
remarks:        124:3000   received from upstream transit

aut-num:        AS1054
remarks:        1054:200   routes learned from peers
remarks:        1054:300   routes learned from upstream providers
remarks:        1054:900   type A routes
)";

const rpsl::CommunityDictionary& dictionary() {
  static const rpsl::CommunityDictionary dict = [] {
    auto mined = rpsl::mine_dictionary(rpsl::parse_objects(kIrr));
    if (mined.size() != 18) {
      throw std::logic_error("the fuzz IRR text no longer mines 18 entries");
    }
    return mined;
  }();
  return dict;
}

std::vector<std::uint8_t> epoch_bytes(live::IncrementalCensus& census, ThreadPool& pool) {
  return snapshot::Writer::encode(census.recompute(pool).snap);
}

/// Rosetta's outcome for one family: the counters and the typed links, which
/// no snapshot byte carries.
bool same_rosetta(const core::RosettaResult& a, const core::RosettaResult& b) {
  return a.values_learned == b.values_learned && a.values_ambiguous == b.values_ambiguous &&
         a.routes_te_filtered == b.routes_te_filtered &&
         a.routes_resolved == b.routes_resolved && a.links_conflicted == b.links_conflicted &&
         snapshot::sorted_entries(a.first_hop_rels) == snapshot::sorted_entries(b.first_hop_rels);
}

/// The differential oracle: the live epoch equals the batch census of the
/// live RIB's materialized copy, in its snapshot bytes and in Rosetta.
void check_against_batch(live::IncrementalCensus& census, ThreadPool& pool) {
  const auto report =
      core::run_census(census.rib().materialize(), dictionary(), core::InferenceConfig{}, pool);
  const auto batch =
      snapshot::Writer::encode(core::to_snapshot(report, kSource, census.last_timestamp()));
  const live::EpochReport epoch = census.recompute(pool);
  if (snapshot::Writer::encode(epoch.snap) != batch) {
    throw std::logic_error("live epoch differs from the batch census of the materialized RIB");
  }
  if (!same_rosetta(epoch.report.inferred.rosetta_v4, report.inferred.rosetta_v4) ||
      !same_rosetta(epoch.report.inferred.rosetta_v6, report.inferred.rosetta_v6)) {
    throw std::logic_error("live Rosetta differs from the batch census of the materialized RIB");
  }
}

}  // namespace

int main(int argc, char** argv) {
  return fuzz::run_target(
      "fuzz_updates", argc, argv, [](const std::vector<std::uint8_t>& input) {
        const auto records = mrt::read_all(input);
        ThreadPool pool(1);
        live::IncrementalCensus census(mrt::ObservedRib{}, dictionary(), core::InferenceConfig{},
                                       kSource);
        std::size_t applied = 0;
        for (const auto& record : records) {
          const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record.body);
          if (msg == nullptr) continue;
          const auto before = census.rib().materialize();
          live::IncrementalCensus untouched = census;
          try {
            census.apply(record.timestamp, *msg);
          } catch (const DecodeError&) {
            // The strong guarantee: a rejected update leaves no trace.
            if (census.rib().materialize().routes() != before.routes()) {
              throw std::logic_error("apply() threw but mutated the observed RIB");
            }
            if (!(census.stats() == untouched.stats())) {
              throw std::logic_error("apply() threw but moved the live counters");
            }
            if (epoch_bytes(census, pool) != epoch_bytes(untouched, pool)) {
              throw std::logic_error("apply() threw but changed the next epoch");
            }
            check_against_batch(census, pool);
            throw;  // still a reasoned rejection for the harness tally
          }
          if (++applied % 3 == 0) check_against_batch(census, pool);
        }
        check_against_batch(census, pool);
        return fuzz::Outcome::Parsed;
      });
}
