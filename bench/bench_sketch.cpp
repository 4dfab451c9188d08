// Sketch-layer microbenchmarks.
//
// The BM_Hll* / BM_Cms* benches time the per-item hot paths (one add or
// update per entity: live churn feeds the HLLs per applied route, the census
// feeds the CMS once per voted link) and the merge step a shard-order merge
// pays per shard.
//
// They double as the CTest bench-smoke step (the ASan CI job runs them with
// --benchmark_filter), so they stay self-contained and fast.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "obs/sketch/cms.hpp"
#include "obs/sketch/hll.hpp"

namespace {

using namespace htor;
using namespace htor::obs::sketch;

constexpr std::size_t kItems = 1 << 16;

std::vector<std::uint64_t> make_items(std::uint64_t base) {
  std::vector<std::uint64_t> items;
  items.reserve(kItems);
  for (std::size_t i = 0; i < kItems; ++i) items.push_back(splitmix64(base + i));
  return items;
}

void BM_HllAdd(benchmark::State& state) {
  const auto items = make_items(1);
  Hll hll(Hll::kDefaultPrecision, kTelemetrySeed);
  for (auto _ : state) {
    for (const std::uint64_t item : items) hll.add(item);
    benchmark::DoNotOptimize(hll);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * items.size()));
}
BENCHMARK(BM_HllAdd);

void BM_HllMerge(benchmark::State& state) {
  Hll a(Hll::kDefaultPrecision, kTelemetrySeed);
  Hll b(Hll::kDefaultPrecision, kTelemetrySeed);
  for (const std::uint64_t item : make_items(2)) a.add(item);
  for (const std::uint64_t item : make_items(3)) b.add(item);
  for (auto _ : state) {
    Hll merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * a.memory_bytes()));
}
BENCHMARK(BM_HllMerge);

void BM_HllEstimate(benchmark::State& state) {
  Hll hll(Hll::kDefaultPrecision, kTelemetrySeed);
  for (const std::uint64_t item : make_items(4)) hll.add(item);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hll.estimate());
  }
}
BENCHMARK(BM_HllEstimate);

void BM_CmsUpdate(benchmark::State& state) {
  const auto items = make_items(5);
  Cms cms(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed);
  for (auto _ : state) {
    for (const std::uint64_t item : items) cms.update(item & 0xffff);  // skewed stream
    benchmark::DoNotOptimize(cms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * items.size()));
}
BENCHMARK(BM_CmsUpdate);

void BM_CmsMerge(benchmark::State& state) {
  Cms a(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed);
  Cms b(Cms::kDefaultWidthLog2, Cms::kDefaultDepth, Cms::kDefaultTopK, kTelemetrySeed);
  for (const std::uint64_t item : make_items(6)) a.update(item & 0xffff);
  for (const std::uint64_t item : make_items(7)) b.update(item & 0xffff);
  for (auto _ : state) {
    Cms merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_CmsMerge);

}  // namespace

BENCHMARK_MAIN();
