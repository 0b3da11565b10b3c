// Micro benches for the lane-level SIMT executor: warp-reduction distance
// vs the scalar kernel (host overhead of the simulation), warp probe
// rounds, and the full warp-executed kernel vs the host searcher.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "data/synthetic.h"
#include "gpusim/simt_kernel.h"
#include "gpusim/simt_warp.h"
#include "graph/nsw_builder.h"
#include "song/song_searcher.h"

namespace song {
namespace {

void BM_WarpReduceL2(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  std::mt19937 rng(7);
  std::normal_distribution<float> d;
  std::vector<float> a(dim), b(dim);
  for (size_t i = 0; i < dim; ++i) {
    a[i] = d(rng);
    b[i] = d(rng);
  }
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  for (auto _ : state) {
    benchmark::DoNotOptimize(warp.ReduceL2(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_WarpReduceL2)->Arg(128)->Arg(960);

void BM_WarpParallelProbe(benchmark::State& state) {
  const size_t slots_n = static_cast<size_t>(state.range(0));
  std::vector<idx_t> slots(slots_n, kInvalidIdx);
  for (size_t i = 0; i < slots_n / 4; ++i) slots[i * 2] = static_cast<idx_t>(i);
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  idx_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(warp.ParallelProbe(
        slots.data(), slots_n, (key * 7) % slots_n, key, kInvalidIdx));
    key = (key + 1) % static_cast<idx_t>(slots_n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarpParallelProbe)->Arg(128)->Arg(1024);

struct KernelFixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;
  static KernelFixture& Get() {
    static KernelFixture* f = [] {
      auto* fx = new KernelFixture();
      SyntheticSpec spec;
      spec.dim = 96;
      spec.num_points = 4000;
      spec.num_queries = 32;
      spec.num_clusters = 16;
      spec.seed = 70;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, {});
      return fx;
    }();
    return *f;
  }
};

void BM_SimtKernelSearch(benchmark::State& state) {
  auto& fx = KernelFixture::Get();
  SimtSongKernel kernel(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = static_cast<size_t>(state.range(0));
  size_t qi = 0;
  for (auto _ : state) {
    const auto r = kernel.Search(
        fx.queries.Row(static_cast<idx_t>(qi % fx.queries.num())), 10,
        options);
    benchmark::DoNotOptimize(r.topk.data());
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimtKernelSearch)->Arg(64)->Arg(256);

void BM_HostSearcherForComparison(benchmark::State& state) {
  auto& fx = KernelFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = static_cast<size_t>(state.range(0));
  SongWorkspace ws;
  size_t qi = 0;
  for (auto _ : state) {
    const auto r = searcher.TrySearch(
        fx.queries.Row(static_cast<idx_t>(qi % fx.queries.num())), 10,
        options, &ws);
    benchmark::DoNotOptimize(r->data());
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostSearcherForComparison)->Arg(64)->Arg(256);

}  // namespace
}  // namespace song

BENCHMARK_MAIN();
