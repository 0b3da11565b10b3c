// End-to-end reproduction smoke test: runs the full experiment flow at tiny
// scale on every Table I preset and asserts the qualitative claims the
// benches rely on. This guards the figure harnesses against regressions in
// any layer (data generation, graph build, search, baselines, cost model).

#include <string>

#include "baselines/flat_index.h"
#include "baselines/hnsw.h"
#include "baselines/ivfpq.h"
#include "core/recall.h"
#include "data/workload.h"
#include "gpusim/simulator.h"
#include "graph/graph_stats.h"
#include "gtest/gtest.h"

namespace song {
namespace {

class PresetSmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PresetSmokeTest, FullFlowHoldsQualitativeClaims) {
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.12;  // ~1k-1.5k points per preset
  opts.num_threads = 1;
  opts.use_cache = false;
  const Workload w = GetWorkload(GetParam(), opts);
  ASSERT_GT(w.data.num(), 0u);
  ASSERT_EQ(w.ground_truth.size(), w.queries.num());

  // Graph must be fully navigable.
  const FixedDegreeGraph graph = GetOrBuildNswGraph(w, 16, opts);
  EXPECT_EQ(CountReachable(graph, 0), w.data.num()) << GetParam();

  // SONG: recall rises with queue size and reaches a usable level.
  SongSearcher searcher(&w.data, &graph, w.metric);
  auto recall_at = [&](size_t queue) {
    SongSearchOptions options = SongSearchOptions::HashTableSelDel();
    options.queue_size = queue;
    const SimulatedRun run = TrySimulateBatch(searcher, w.queries, 10,
                                              options, GpuSpec::V100(), 1)
                                 .value();
    return std::make_pair(
        MeanRecallAtK(run.batch.Ids(), w.ground_truth, 10), run.SimQps());
  };
  const auto [recall_small, qps_small] = recall_at(16);
  const auto [recall_large, qps_large] = recall_at(128);
  EXPECT_GE(recall_large + 1e-9, recall_small) << GetParam();
  EXPECT_GE(recall_large, 0.85) << GetParam();
  // More work can only cost simulated throughput.
  EXPECT_LE(qps_large, qps_small * 1.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetSmokeTest,
                         ::testing::Values("nytimes", "sift", "glove200",
                                           "uq_v", "gist", "mnist"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(ReproductionSmoke, HighRecallRegimeBelongsToGraphSearch) {
  // The central comparison of the paper, end to end on one preset: at its
  // reachable ceiling the quantization baseline stops while SONG keeps
  // climbing; and simulated-GPU SONG dwarfs single-thread HNSW.
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.25;
  opts.num_threads = 1;
  opts.use_cache = false;
  const Workload w = GetWorkload("sift", opts);
  const FixedDegreeGraph graph = GetOrBuildNswGraph(w, 16, opts);

  // SONG at a large queue.
  SongSearcher searcher(&w.data, &graph, w.metric);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 192;
  const SimulatedRun song_run = TrySimulateBatch(searcher, w.queries, 10,
                                                 options, GpuSpec::V100(), 1)
                                    .value();
  const double song_recall =
      MeanRecallAtK(song_run.batch.Ids(), w.ground_truth, 10);

  // IVFPQ probing every list: its ceiling.
  IvfPqOptions ivf_opts;
  ivf_opts.nlist = 64;
  ivf_opts.pq_m = 16;
  ivf_opts.num_threads = 1;
  const IvfPqIndex ivfpq(&w.data, w.metric, ivf_opts);
  const auto faiss_results =
      ivfpq.BatchSearch(w.queries, 10, ivfpq.nlist(), 1);
  const double faiss_ceiling =
      MeanRecallAtK(FlatIndex::Ids(faiss_results), w.ground_truth, 10);

  EXPECT_GT(song_recall, faiss_ceiling) << "graph search must out-recall "
                                           "the quantization ceiling";

  // HNSW single thread at a comparable recall.
  HnswBuildOptions hnsw_opts;
  hnsw_opts.num_threads = 1;
  const Hnsw hnsw(&w.data, w.metric, hnsw_opts);
  Timer timer;
  std::vector<std::vector<idx_t>> hnsw_ids(w.queries.num());
  for (size_t q = 0; q < w.queries.num(); ++q) {
    for (const Neighbor& n :
         hnsw.Search(w.queries.Row(static_cast<idx_t>(q)), 10, 192)) {
      hnsw_ids[q].push_back(n.id);
    }
  }
  const double hnsw_qps =
      static_cast<double>(w.queries.num()) / timer.ElapsedSeconds();
  EXPECT_GE(MeanRecallAtK(hnsw_ids, w.ground_truth, 10), 0.9);
  EXPECT_GT(song_run.SimQps(), 5.0 * hnsw_qps)
      << "simulated V100 must clearly outrun single-thread CPU";
}

}  // namespace
}  // namespace song
