#include "harness.hpp"

#include <iostream>

#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"

namespace htor::bench {

Dataset make_dataset(const gen::GenParams& params) {
  Dataset ds{gen::SyntheticInternet::generate(params), {}, {}, 0, 0};

  // Full wire round trip: the analysis below only ever sees bytes a real
  // collector could have produced.
  const mrt::ObservedRib direct = ds.net.collect();
  mrt::MrtWriter writer;
  for (const auto& record :
       mrt::records_from_rib(direct, /*collector_bgp_id=*/0x0a0a0a0au, "synthetic-rib",
                             /*timestamp=*/1281052800u /* 2010-08-06, the paper's month */)) {
    writer.write(record);
  }
  ds.mrt_bytes = writer.data().size();
  mrt::MrtStreamReader stream(writer.data());
  ThreadPool pool(1);
  ds.rib = mrt::rib_from_stream(stream, pool);
  ds.mrt_records = stream.records_read();

  ds.dict = rpsl::mine_dictionary(rpsl::parse_objects(ds.net.irr_dump()));
  return ds;
}

Dataset make_dataset(std::uint64_t seed) {
  gen::GenParams params;
  params.seed = seed;
  return make_dataset(params);
}

void print_header(const std::string& experiment_id, const std::string& claim) {
  std::cout << "==============================================================\n"
            << experiment_id << "\n"
            << "paper: " << claim << "\n"
            << "==============================================================\n";
}

}  // namespace htor::bench
