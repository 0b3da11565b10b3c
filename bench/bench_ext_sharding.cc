// Extension bench (not a paper figure): multi-GPU sharding, the scalability
// path §VII sketches in one sentence. Splits SIFT across 1/2/4 simulated
// V100s and reports recall + aggregate QPS. Sharding buys CAPACITY (each
// card only holds 1/S of the data — the §VII out-of-memory story), not
// throughput: every shard is searched with the full queue budget, so total
// work grows with S while the cards run in parallel; recall holds and QPS
// pays a modest merge/duplication cost.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/recall.h"
#include "gpusim/sharded.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::PrintHeader;

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  BenchContext ctx("sift", env);
  const song::Workload& w = ctx.workload();
  constexpr size_t kTop = 10;

  PrintHeader("Extension: multi-GPU sharding, sift top-10 (V100s)");
  std::printf("%8s %8s | %10s %14s %16s\n", "shards", "queue", "recall",
              "QPS", "slowest kernel");
  for (const size_t shards : {1, 2, 4}) {
    song::ShardedBuildOptions build;
    build.num_shards = shards;
    build.num_threads = env.threads;
    song::ShardedSongIndex index(&w.data, w.metric, build);
    const std::vector<song::GpuSpec> gpus(shards, song::GpuSpec::V100());
    for (const size_t queue : {size_t{32}, size_t{64}, size_t{128}}) {
      song::SongSearchOptions options =
          song::SongSearchOptions::HashTableSelDel();
      options.queue_size = queue;
      const song::ShardedSearchResult result =
          index.TrySearch(w.queries, kTop, options, {}, env.threads).value();
      std::vector<std::vector<song::idx_t>> ids(result.results.size());
      for (size_t q = 0; q < result.results.size(); ++q) {
        for (const song::Neighbor& n : result.results[q]) {
          ids[q].push_back(n.id);
        }
      }
      const song::ShardedGpuEstimate est =
          index.EstimateGpu(result, gpus, w.queries.num(), kTop, options);
      std::printf("%8zu %8zu | %10.4f %14.0f %13.3f ms\n", shards, queue,
                  song::MeanRecallAtK(ids, w.ground_truth, kTop),
                  est.Qps(w.queries.num()), est.kernel_seconds * 1e3);
    }
  }
  std::printf(
      "\nSharding scales CAPACITY: each card holds 1/S of the vectors. Every\n"
      "shard is searched with the full queue budget, so recall holds while\n"
      "QPS pays a modest duplication+merge cost.\n");
  return 0;
}
