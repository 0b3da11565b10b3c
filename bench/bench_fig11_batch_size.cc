// Fig 11 reproduction: query-batch-size impact on SIFT top-100. Small
// batches underutilize the GPU (too few warps to fill the SMs, and the
// fixed transfer latency is not amortized); QPS rises with batch size and
// saturates around 100k queries — 1m adds nothing.
//
// Methodology: the native run executes the real query set; for larger
// batches the query set is tiled (counters scale linearly — each tile is
// the same work) and the cost model prices the scaled batch.

#include <cstdio>

#include "bench_common.h"
#include "core/recall.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::PrintHeader;

namespace {

song::SearchStats ScaleStats(const song::SearchStats& base, double factor) {
  song::SearchStats s = base;
  auto scale = [factor](size_t& v) {
    v = static_cast<size_t>(static_cast<double>(v) * factor);
  };
  scale(s.iterations);
  scale(s.vertices_expanded);
  scale(s.graph_rows_loaded);
  scale(s.graph_bytes_loaded);
  scale(s.q_pops);
  scale(s.distance_computations);
  scale(s.data_bytes_loaded);
  scale(s.q_pushes);
  scale(s.q_evictions);
  scale(s.q_rejections);
  scale(s.topk_pushes);
  scale(s.topk_evictions);
  scale(s.visited_tests);
  scale(s.visited_insertions);
  scale(s.visited_deletions);
  // capacity fields are per-query maxima: unchanged.
  return s;
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  BenchContext ctx("sift", env);
  constexpr size_t kTop = 100;

  song::SongSearcher searcher(&ctx.workload().data, &ctx.graph(),
                              ctx.workload().metric);
  PrintHeader("Fig 11: batch size impact, sift top-100");
  std::printf("%10s %10s %14s %12s %12s\n", "batch", "recall", "QPS",
              "kernel(ms)", "xfer(ms)");

  for (const size_t queue : {size_t{100}, size_t{256}}) {
    song::SongSearchOptions options =
        song::SongSearchOptions::HashTableSelDel();
    options.queue_size = queue;
    const song::SimulatedRun base = TrySimulateBatch(
        searcher, ctx.workload().queries, kTop, options, env.gpu,
        env.threads).value();
    const double recall = song::MeanRecallAtK(
        base.batch.Ids(), ctx.workload().ground_truth, kTop);
    std::printf("-- queue=%zu (recall %.3f) --\n", queue, recall);
    const size_t base_nq = ctx.workload().queries.num();
    for (const size_t batch :
         {size_t{100}, size_t{1000}, size_t{10000}, size_t{100000},
          size_t{1000000}}) {
      const double factor =
          static_cast<double>(batch) / static_cast<double>(base_nq);
      const song::SearchStats scaled = ScaleStats(base.batch.stats, factor);
      song::WorkloadShape shape;
      shape.num_queries = batch;
      shape.dim = ctx.workload().data.dim();
      shape.point_bytes = shape.dim * sizeof(float);
      shape.k = kTop;
      shape.queue_size = queue;
      shape.degree = ctx.graph().degree();
      shape.saturated = false;  // model THIS batch size, waves and all
      const song::CostModel model(env.gpu);
      const song::KernelBreakdown b = model.Estimate(scaled, shape);
      std::printf("%10zu %10.3f %14.0f %12.3f %12.3f\n", batch, recall,
                  b.Qps(batch), b.kernel_seconds * 1e3,
                  (b.htod_seconds + b.dtoh_seconds) * 1e3);
    }
  }
  return 0;
}
