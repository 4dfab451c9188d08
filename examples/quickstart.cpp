// Quickstart: the whole hybridtor pipeline in one page.
//
//   1. generate a small synthetic Internet (two address planes, hybrid
//      relationships planted on dual-stack links),
//   2. let its collector observe both planes and serialize the RIB to real
//      MRT TABLE_DUMP_V2 bytes,
//   3. parse the bytes back, mine the IRR dump's community documentation,
//   4. run the paper's census: coverage, hybrid links, valley paths.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/census_report.hpp"
#include "gen/internet.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "util/strings.hpp"

int main() {
  using namespace htor;

  // 1. A small deterministic Internet (~300 ASes).
  const auto net = gen::SyntheticInternet::generate(gen::small_params(/*seed=*/42));
  std::cout << "synthetic Internet: " << net.graph().as_count() << " ASes, "
            << net.graph().link_count(IpVersion::V4) << " v4 links, "
            << net.graph().link_count(IpVersion::V6) << " v6 links, "
            << net.hybrid_links().size() << " planted hybrid links\n";

  // 2. Observe it and write genuine MRT bytes (what RouteViews would serve).
  mrt::MrtWriter writer;
  for (const auto& record :
       mrt::records_from_rib(net.collect(), 0xc0ffee01u, "quickstart", 1281052800u)) {
    writer.write(record);
  }
  std::cout << "collector RIB: " << writer.data().size() << " bytes of MRT\n";

  // 3. Parse the bytes back and mine the IRR text.
  mrt::MrtStreamReader stream(writer.data());
  ThreadPool pool(1);
  const auto rib = mrt::rib_from_stream(stream, pool);
  const auto dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
  std::cout << "community dictionary: " << dict.size() << " entries from "
            << dict.documented_asns().size() << " documented ASes\n";

  // 4. The paper's census.
  const auto census = core::run_census(rib, dict);
  std::cout << "\n--- census ---\n";
  std::cout << "IPv6 AS paths:        " << census.v6_paths << "\n";
  std::cout << "IPv6 AS links:        " << census.v6_links << " ("
            << fmt_pct(census.v6_coverage.covered_links, census.v6_coverage.observed_links)
            << " with a relationship)\n";
  std::cout << "dual-stack links:     " << census.dual_links << "\n";
  std::cout << "hybrid links:         " << census.hybrids.hybrids.size() << " ("
            << fmt_pct(census.hybrids.hybrids.size(), census.hybrids.dual_links_both_known)
            << " of those typed in both planes)\n";
  std::cout << "IPv6 valley paths:    " << census.v6_valleys.valley << " ("
            << fmt_pct(census.v6_valleys.valley, census.v6_valleys.paths) << ")\n";
  std::cout << "IPv4 valley paths:    " << census.v4_valleys.valley << " (should be 0)\n";

  if (!census.hybrids.hybrids.empty()) {
    const auto& top = census.hybrids.hybrids.front();
    std::cout << "\nmost visible hybrid link: AS" << top.link.first << " - AS"
              << top.link.second << "  v4=" << to_string(top.rel_v4)
              << " v6=" << to_string(top.rel_v6) << " (" << to_string(top.cls) << ", on "
              << top.v6_path_visibility << " IPv6 paths)\n";
  }
  return 0;
}
