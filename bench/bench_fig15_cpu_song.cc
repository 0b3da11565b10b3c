// Fig 15 reproduction: the CPU implementation of SONG vs HNSW, both single
// thread, on NYTimes and UQ_V, top-10 — real wall-clock throughput, no GPU
// model involved. The paper shows the engineered SONG CPU pipeline beating
// HNSW on both datasets.

#include <string>

#include "bench_common.h"
#include "core/recall.h"
#include "song/batch_engine.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::Curve;
using song::bench::CurvePoint;
using song::bench::DefaultQueueSizes;
using song::bench::PrintCurve;
using song::bench::PrintHeader;

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  constexpr size_t kTop = 10;
  for (const char* preset : {"nytimes", "uq_v"}) {
    BenchContext ctx(preset, env);
    const song::Workload& w = ctx.workload();
    PrintHeader("Fig 15: SONG-cpu vs HNSW (both 1 thread), " + w.name +
                " top-10");

    song::SongSearcher searcher(&w.data, &ctx.graph(), w.metric);
    song::BatchEngine engine(&searcher, /*num_threads=*/1);
    Curve song_curve;
    song_curve.label = "SONG-cpu";
    for (const size_t qs : DefaultQueueSizes(kTop)) {
      // The CPU build: epoch-array visited, no recomputation trade-offs
      // (the GPU memory optimizations only pay off on the card).
      song::SongSearchOptions options =
          song::SongSearchOptions::CpuEngineered();
      options.queue_size = qs;
      const song::BatchResult batch =
          engine.TrySearch(w.queries, kTop, options).value();
      CurvePoint pt;
      pt.param = qs;
      pt.recall = song::MeanRecallAtK(batch.Ids(), w.ground_truth, kTop);
      pt.qps = batch.Qps();
      pt.cpu_qps = batch.Qps();
      song_curve.points.push_back(pt);
    }
    PrintCurve(song_curve, "queue");
    PrintCurve(ctx.SweepHnsw(kTop, DefaultQueueSizes(kTop)), "ef");
  }
  return 0;
}
