// Edge-case and failure-injection tests for the search pipeline: degenerate
// datasets (single point, all-identical points = maximal distance ties),
// tiny queues, k >= n, saturated visited structures, disconnected graphs,
// and probabilistic-structure misbehaviour under pressure.

#include <algorithm>
#include <set>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "song/song_searcher.h"

namespace song {
namespace {

Dataset MakePoints(const std::vector<std::vector<float>>& rows) {
  Dataset data(rows.size(), rows.empty() ? 1 : rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    data.SetRow(static_cast<idx_t>(i), rows[i].data());
  }
  return data;
}

/// Runs SongSearchCore directly with exact L2 distances from vertex 0. For
/// the cases SongSearcher::TrySearch rightly refuses (k larger than the
/// dataset), where the core itself must still return what it reaches.
std::vector<Neighbor> CoreSearch(const Dataset& data,
                                 const FixedDegreeGraph& graph,
                                 const float* query, size_t k,
                                 const SongSearchOptions& options) {
  SongWorkspace ws;
  const auto distance = [&](idx_t v) {
    return L2Sqr(query, data.Row(v), data.dim());
  };
  return SongSearchCore(graph, /*entry=*/0, data.num(),
                        data.dim() * sizeof(float), distance, k, options, &ws,
                        /*stats=*/nullptr);
}

TEST(SearchCoreEdge, SinglePointDataset) {
  Dataset data = MakePoints({{1.0f, 2.0f}});
  FixedDegreeGraph graph(1, 4);
  const float query[2] = {0.0f, 0.0f};
  const auto result = CoreSearch(data, graph, query, 5, {});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0u);
  EXPECT_FLOAT_EQ(result[0].dist, 5.0f);
}

TEST(SearchCoreEdge, TwoPointsLinked) {
  Dataset data = MakePoints({{0.0f}, {10.0f}});
  FixedDegreeGraph graph(2, 2);
  graph.SetNeighbors(0, {1});
  graph.SetNeighbors(1, {0});
  SongSearcher searcher(&data, &graph, Metric::kL2);
  const float query[1] = {9.0f};
  SongWorkspace ws;
  const auto result = searcher.TrySearch(query, 2, {}, &ws).value();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1u);
  EXPECT_EQ(result[1].id, 0u);
}

TEST(SearchCoreEdge, AllIdenticalPointsTerminates) {
  // Every distance ties: the strict-> termination and the never-erase-ties
  // rule must still terminate and return k distinct vertices.
  std::vector<std::vector<float>> rows(64, {3.0f, 3.0f, 3.0f});
  Dataset data = MakePoints(rows);
  NswBuildOptions nsw;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph = NswBuilder::Build(data, Metric::kL2, nsw);
  SongSearcher searcher(&data, &graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 16;
  const float query[3] = {0.0f, 0.0f, 0.0f};
  SongWorkspace ws;
  const auto result = searcher.TrySearch(query, 10, options, &ws).value();
  ASSERT_LE(result.size(), 10u);
  std::set<idx_t> ids;
  for (const Neighbor& n : result) {
    EXPECT_FLOAT_EQ(n.dist, 27.0f);
    ids.insert(n.id);
  }
  EXPECT_EQ(ids.size(), result.size());
}

TEST(SearchCoreEdge, QueueSizeOneStillWorks) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_points = 300;
  spec.num_queries = 5;
  spec.seed = 3;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 1;
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(gen.queries.Row(0), 1, options, &ws).value();
  ASSERT_EQ(result.size(), 1u);  // ef clamps to k=1: pure greedy descent
}

TEST(SearchCoreEdge, KEqualsDatasetSizeReturnsEverythingReachable) {
  SyntheticSpec spec;
  spec.dim = 4;
  spec.num_points = 50;
  spec.num_queries = 1;
  spec.seed = 9;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 100;
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(gen.queries.Row(0), 50, options, &ws).value();
  EXPECT_EQ(result.size(), 50u);
  std::set<idx_t> ids;
  for (const Neighbor& n : result) ids.insert(n.id);
  EXPECT_EQ(ids.size(), 50u);
}

TEST(SearchCoreEdge, DisconnectedComponentIsInvisible) {
  // Vertices 4,5 form an island; the search can only return the connected
  // component of the entry.
  Dataset data = MakePoints({{0.f}, {1.f}, {2.f}, {3.f}, {100.f}, {101.f}});
  FixedDegreeGraph graph(6, 2);
  graph.SetNeighbors(0, {1});
  graph.SetNeighbors(1, {0, 2});
  graph.SetNeighbors(2, {1, 3});
  graph.SetNeighbors(3, {2});
  graph.SetNeighbors(4, {5});
  graph.SetNeighbors(5, {4});
  SongSearcher searcher(&data, &graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 16;
  const float query[1] = {100.0f};  // true NN is in the island
  SongWorkspace ws;
  const auto result = searcher.TrySearch(query, 2, options, &ws).value();
  ASSERT_EQ(result.size(), 2u);
  for (const Neighbor& n : result) EXPECT_LT(n.id, 4u);
}

TEST(SearchCoreEdge, TinyHashCapacityDegradesGracefully) {
  // Forcing a far-too-small exact visited table must not crash or loop;
  // recall may suffer (saturation treats vertices as visited).
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_points = 1000;
  spec.num_queries = 10;
  spec.seed = 21;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  options.hash_capacity = 8;  // absurd
  SearchStats stats;
  SongWorkspace ws;
  for (size_t q = 0; q < gen.queries.num(); ++q) {
    const auto result = searcher
                            .TrySearch(gen.queries.Row(static_cast<idx_t>(q)),
                                       5, options, &ws, &stats)
                            .value();
    EXPECT_LE(result.size(), 5u);
  }
  EXPECT_GT(stats.visited_insert_failures, 0u);
}

TEST(SearchCoreEdge, TinyBloomFilterStillNoCrashLowRecall) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_points = 1000;
  spec.num_queries = 10;
  spec.seed = 22;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::Bloom();
  options.queue_size = 64;
  options.bloom_bits = 64;  // saturates almost immediately
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(gen.queries.Row(0), 5, options, &ws).value();
  // False positives prune the search; results may be short but valid.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].dist, result[i].dist);
  }
}

TEST(SearchCoreEdge, ZeroDegreeEntryReturnsJustEntry) {
  Dataset data = MakePoints({{0.f}, {1.f}, {2.f}});
  FixedDegreeGraph graph(3, 2);  // no edges at all
  SongSearcher searcher(&data, &graph, Metric::kL2);
  const float query[1] = {1.5f};
  SongWorkspace ws;
  const auto result = searcher.TrySearch(query, 3, {}, &ws).value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0u);
}

TEST(SearchCoreEdge, RepeatedSearchesReuseWorkspaceCleanly) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_points = 500;
  spec.num_queries = 20;
  spec.seed = 23;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongWorkspace ws;
  // Alternate configurations through ONE workspace: stale state in the
  // reused heaps/tables would corrupt results.
  FlatIndex flat(&gen.points, Metric::kL2);
  for (size_t q = 0; q < gen.queries.num(); ++q) {
    const float* query = gen.queries.Row(static_cast<idx_t>(q));
    SongSearchOptions options =
        (q % 2 == 0) ? SongSearchOptions::HashTableSelDel()
                     : SongSearchOptions::Cuckoo();
    options.queue_size = (q % 3 == 0) ? 32 : 96;
    const auto result = searcher.TrySearch(query, 5, options, &ws).value();
    ASSERT_FALSE(result.empty());
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_LE(result[i - 1].dist, result[i].dist);
    }
    // Every reported distance must be genuine.
    for (const Neighbor& n : result) {
      EXPECT_FLOAT_EQ(n.dist,
                      L2Sqr(query, gen.points.Row(n.id), gen.points.dim()));
    }
  }
}

TEST(SearchCoreEdge, MultiStepLargerThanQueueIsSafe) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_points = 400;
  spec.num_queries = 3;
  spec.seed = 24;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 8;
  options.multi_step_probe = 64;  // far larger than the queue
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(gen.queries.Row(0), 5, options, &ws).value();
  EXPECT_FALSE(result.empty());
}

}  // namespace
}  // namespace song
