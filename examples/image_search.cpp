// Image-descriptor search: the paper's motivating SIFT-style workload.
// Demonstrates the full production path — build the index once, persist it
// to disk, reload, and serve large query batches through the thread-pool
// batch engine with GPU cost simulation alongside, comparing SONG against
// the single-thread HNSW baseline the paper uses.
//
// Run: ./build/examples/example_image_search

#include <cstdio>
#include <filesystem>

#include "baselines/flat_index.h"
#include "baselines/hnsw.h"
#include "core/recall.h"
#include "core/timer.h"
#include "data/synthetic.h"
#include "gpusim/simulator.h"
#include "graph/graph_stats.h"
#include "graph/nsw_builder.h"

int main() {
  using namespace song;

  // A SIFT-like workload: 128-dim local descriptors, ANN-friendly spread.
  SyntheticSpec spec = PresetSpec("sift", 0.5);
  spec.num_queries = 500;
  SyntheticData gen = GenerateSynthetic(spec);
  std::printf("image descriptors: %zu x %zu\n", gen.points.num(),
              gen.points.dim());

  // Build once, persist, reload — the index outlives the process.
  const std::string index_path =
      (std::filesystem::temp_directory_path() / "image_search.nsw").string();
  Timer build_timer;
  {
    const FixedDegreeGraph graph =
        NswBuilder::Build(gen.points, Metric::kL2, {});
    const Status saved = graph.Save(index_path);
    SONG_CHECK_MSG(saved.ok(), saved.ToString().c_str());
  }
  std::printf("index built + saved in %.2fs -> %s\n",
              build_timer.ElapsedSeconds(), index_path.c_str());

  auto loaded = FixedDegreeGraph::Load(index_path);
  SONG_CHECK(loaded.ok());
  const FixedDegreeGraph graph = std::move(loaded.value());
  const GraphStats gstats = ComputeGraphStats(graph);
  std::printf("reloaded: %zu vertices, avg degree %.1f, reachable %zu\n",
              gstats.num_vertices, gstats.avg_degree, gstats.reachable);

  // Ground truth for quality reporting.
  FlatIndex flat(&gen.points, Metric::kL2);
  const auto truth = FlatIndex::Ids(flat.BatchSearch(gen.queries, 10));

  // Serve the batch: native CPU throughput + simulated V100 numbers.
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  std::printf("\n%10s %10s %14s %14s\n", "queue", "recall@10", "CPU QPS",
              "sim V100 QPS");
  for (const size_t queue : {16, 32, 64, 128, 256}) {
    SongSearchOptions options = SongSearchOptions::HashTableSelDel();
    options.queue_size = queue;
    const SimulatedRun run = TrySimulateBatch(searcher, gen.queries, 10,
                                              options, GpuSpec::V100())
                                 .value();
    const double recall = MeanRecallAtK(run.batch.Ids(), truth, 10);
    std::printf("%10zu %10.3f %14.0f %14.0f\n", queue, recall,
                run.batch.Qps(), run.SimQps());
  }

  // The paper's CPU baseline for context.
  Hnsw hnsw(&gen.points, Metric::kL2, {});
  Timer hnsw_timer;
  std::vector<std::vector<idx_t>> hnsw_ids(gen.queries.num());
  for (size_t q = 0; q < gen.queries.num(); ++q) {
    const auto found =
        hnsw.Search(gen.queries.Row(static_cast<idx_t>(q)), 10, 64);
    for (const Neighbor& n : found) hnsw_ids[q].push_back(n.id);
  }
  std::printf("\nHNSW(ef=64, 1 thread): recall %.3f, %0.f QPS\n",
              MeanRecallAtK(hnsw_ids, truth, 10),
              gen.queries.num() / hnsw_timer.ElapsedSeconds());
  std::remove(index_path.c_str());
  return 0;
}
