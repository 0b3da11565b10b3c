// Fig 13 reproduction: SONG across GPU generations — V100, P40, TITAN X —
// on SIFT and GloVe200, top-10. The search executes once per queue size;
// each GpuSpec prices the same measured counters, so the curves share a
// trend and their gaps reflect the cards' compute/bandwidth ratios (the
// paper: "gaps of these lines are consistent with the computation power of
// the GPUs").

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/recall.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::DefaultQueueSizes;
using song::bench::PrintHeader;

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  constexpr size_t kTop = 10;
  const std::vector<song::GpuSpec> gpus = {
      song::GpuSpec::V100(), song::GpuSpec::P40(), song::GpuSpec::TitanX()};

  for (const char* preset : {"sift", "glove200"}) {
    BenchContext ctx(preset, env);
    song::SongSearcher searcher(&ctx.workload().data, &ctx.graph(),
                                ctx.workload().metric);
    PrintHeader("Fig 13: SONG on different GPUs, " + ctx.workload().name +
                " top-10");
    std::printf("%10s %10s", "queue", "recall");
    for (const auto& gpu : gpus) std::printf(" %14s", gpu.name.c_str());
    std::printf("\n");
    for (const size_t qs : DefaultQueueSizes(kTop)) {
      song::SongSearchOptions options =
          song::SongSearchOptions::HashTableSelDel();
      options.queue_size = qs;
      // One native execution; price its counters on every card.
      const song::SimulatedRun base =
          TrySimulateBatch(searcher, ctx.workload().queries, kTop, options,
                           env.gpu, env.threads)
              .value();
      const double recall = song::MeanRecallAtK(
          base.batch.Ids(), ctx.workload().ground_truth, kTop);
      std::printf("%10zu %10.4f", qs, recall);
      song::WorkloadShape shape;
      shape.num_queries = ctx.workload().queries.num();
      shape.dim = ctx.workload().data.dim();
      shape.point_bytes = shape.dim * sizeof(float);
      shape.k = kTop;
      shape.queue_size = qs;
      shape.degree = ctx.graph().degree();
      for (const auto& gpu : gpus) {
        const song::CostModel model(gpu);
        const song::KernelBreakdown b =
            model.Estimate(base.batch.stats, shape);
        std::printf(" %14.0f", b.Qps(shape.num_queries));
      }
      std::printf("\n");
    }
  }
  return 0;
}
