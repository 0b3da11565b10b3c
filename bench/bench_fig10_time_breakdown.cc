// Fig 10 reproduction: where does the time go? For GloVe200 and GIST at
// K (queue size) in {50, 100, 500, 1000}:
//  (left)  HtoD / kernel / DtoH split — kernel dominates (>89%), HtoD share
//          shrinks as K grows, DtoH share grows slightly with K.
//  (right) inside the kernel: candidate locating / bulk distance / data
//          structure maintenance — maintenance is the largest share, and
//          GIST's 960 dims push the distance share well above GloVe200's.

#include <cstdio>
#include <string>

#include "bench_common.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::PrintHeader;

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  for (const char* preset : {"glove200", "gist"}) {
    BenchContext ctx(preset, env);
    song::SongSearcher searcher(&ctx.workload().data, &ctx.graph(),
                                ctx.workload().metric);
    PrintHeader("Fig 10: time distribution, " + ctx.workload().name);
    std::printf("%8s | %8s %8s %8s | %10s %10s %10s\n", "top-K", "HtoD%",
                "Kernel%", "DtoH%", "Locating%", "Distance%", "Maintain%");
    for (const size_t k : {50, 100, 500, 1000}) {
      song::SongSearchOptions options =
          song::SongSearchOptions::HashTableSelDel();
      options.queue_size = k;
      const song::SimulatedRun run =
          TrySimulateBatch(searcher, ctx.workload().queries, k, options,
                           env.gpu, env.threads)
              .value();
      std::printf("%8zu | %8.2f %8.2f %8.2f | %10.2f %10.2f %10.2f\n", k,
                  run.gpu.HtodPct(), run.gpu.KernelPct(), run.gpu.DtohPct(),
                  run.gpu.LocatePct(), run.gpu.DistancePct(),
                  run.gpu.MaintainPct());
    }
  }
  std::printf(
      "\nPaper reference (V100): kernel > 89%% everywhere; HtoD%% falls as K\n"
      "grows; maintenance is the largest kernel stage; GIST's distance share\n"
      "is ~8-20 points higher than GloVe200's.\n");
  return 0;
}
