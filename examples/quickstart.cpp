// Quickstart: the minimal SONG workflow.
//   1. make (or load) a float dataset
//   2. build an NSW proximity graph (the index SONG searches)
//   3. create a SongSearcher and run top-k queries
//   4. check quality against exact brute force
//
// Build & run:  cmake --build build && ./build/examples/example_quickstart

#include <cstdio>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "song/song_searcher.h"

int main() {
  using namespace song;

  // 1. A small synthetic dataset: 10k points, 64 dims, mild clustering.
  SyntheticSpec spec;
  spec.name = "quickstart";
  spec.dim = 64;
  spec.num_points = 10000;
  spec.num_queries = 100;
  spec.num_clusters = 50;
  spec.cluster_std = 0.6;
  SyntheticData gen = GenerateSynthetic(spec);
  std::printf("dataset: %zu points x %zu dims, %zu queries\n",
              gen.points.num(), gen.points.dim(), gen.queries.num());

  // 2. Build the proximity graph (degree 16, as in the paper).
  NswBuildOptions build;
  build.degree = 16;
  const FixedDegreeGraph graph = NswBuilder::Build(gen.points, Metric::kL2,
                                                   build);
  std::printf("graph: degree %zu, %.1f MB\n", graph.degree(),
              graph.MemoryBytes() / (1024.0 * 1024.0));

  // 3. Search. queue_size is the recall knob (the paper's K).
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 64;

  // TrySearch is the one search entry point: malformed input (k = 0, a
  // NaN component, an oversized queue) comes back as a Status, never an
  // abort. The workspace is reused across calls on this thread.
  SongWorkspace ws;
  const float* first_query = gen.queries.Row(0);
  const StatusOr<std::vector<Neighbor>> top5 =
      searcher.TrySearch(first_query, 5, options, &ws);
  if (!top5.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 top5.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntop-5 for query 0:\n");
  for (const Neighbor& n : *top5) {
    std::printf("  id=%6u  dist=%.4f\n", n.id, n.dist);
  }

  // 4. Recall@10 across all queries vs exact search.
  FlatIndex flat(&gen.points, Metric::kL2);
  const auto exact = FlatIndex::Ids(flat.BatchSearch(gen.queries, 10));
  std::vector<std::vector<idx_t>> results(gen.queries.num());
  SearchStats stats;
  for (size_t q = 0; q < gen.queries.num(); ++q) {
    const auto found = searcher.TrySearch(
        gen.queries.Row(static_cast<idx_t>(q)), 10, options, &ws, &stats);
    for (const Neighbor& n : found.value()) results[q].push_back(n.id);
  }
  std::printf("\nrecall@10 = %.3f\n", MeanRecallAtK(results, exact, 10));
  std::printf("avg distance computations per query: %.0f\n",
              static_cast<double>(stats.distance_computations) /
                  gen.queries.num());
  return 0;
}
