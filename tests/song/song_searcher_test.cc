// End-to-end correctness of the SONG 3-stage pipeline: agreement with the
// reference Algorithm-1 search, recall against exact ground truth, the
// semantics of the §IV-C/D/E optimizations, and multi-step probing.

#include "song/song_searcher.h"

#include <algorithm>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "graph/graph_search.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"

namespace song {
namespace {

struct Fixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;
  std::vector<std::vector<idx_t>> ground_truth;

  static const Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      SyntheticSpec spec;
      spec.name = "test";
      spec.dim = 24;
      spec.num_points = 3000;
      spec.num_queries = 40;
      spec.num_clusters = 12;
      spec.cluster_std = 0.4;
      spec.seed = 77;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      NswBuildOptions nsw;
      nsw.degree = 16;
      nsw.num_threads = 1;  // deterministic graph
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, nsw);
      FlatIndex flat(&fx->data, Metric::kL2);
      fx->ground_truth =
          FlatIndex::Ids(flat.BatchSearch(fx->queries, 10, 1));
      return fx;
    }();
    return *f;
  }
};

double MeasureRecall(const SongSearchOptions& options, size_t k = 10) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongWorkspace ws;
  std::vector<std::vector<idx_t>> results(fx.queries.num());
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const auto found = searcher.TrySearch(
        fx.queries.Row(static_cast<idx_t>(q)), k, options, &ws);
    for (const Neighbor& n : found.value()) results[q].push_back(n.id);
  }
  return MeanRecallAtK(results, fx.ground_truth, k);
}

TEST(SongSearcher, ReturnsSortedResults) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 32;
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(fx.queries.Row(0), 10, options, &ws).value();
  ASSERT_LE(result.size(), 10u);
  ASSERT_GE(result.size(), 1u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].dist, result[i].dist);
  }
}

TEST(SongSearcher, NoDuplicateResults) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  SongWorkspace ws;
  for (size_t q = 0; q < 10; ++q) {
    const auto result = searcher
                            .TrySearch(fx.queries.Row(static_cast<idx_t>(q)),
                                       10, options, &ws)
                            .value();
    std::vector<idx_t> ids;
    for (const Neighbor& n : result) ids.push_back(n.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  }
}

TEST(SongSearcher, DistancesAreExact) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(fx.queries.Row(3), 5, options, &ws).value();
  for (const Neighbor& n : result) {
    const float expect =
        L2Sqr(fx.queries.Row(3), fx.data.Row(n.id), fx.data.dim());
    EXPECT_FLOAT_EQ(n.dist, expect);
  }
}

TEST(SongSearcher, MatchesReferenceGraphSearch) {
  // With the plain hash table and a single probe step, the bounded pipeline
  // explores the same frontier as the reference Algorithm 1 with ef =
  // queue_size, so the returned top-k should agree on distance.
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  VisitedBuffer visited;
  SongWorkspace ws;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const float* query = fx.queries.Row(static_cast<idx_t>(q));
    const auto song = searcher.TrySearch(query, 10, options, &ws).value();
    const auto ref = GraphSearch(fx.data, Metric::kL2, fx.graph, 0, query,
                                 64, 10, &visited);
    ASSERT_EQ(song.size(), ref.size());
    for (size_t i = 0; i < song.size(); ++i) {
      EXPECT_FLOAT_EQ(song[i].dist, ref[i].dist) << "query " << q << " pos "
                                                 << i;
    }
  }
}

TEST(SongSearcher, HighRecallWithLargeQueue) {
  SongSearchOptions options;
  options.queue_size = 256;
  EXPECT_GE(MeasureRecall(options), 0.95);
}

TEST(SongSearcher, RecallGrowsWithQueueSize) {
  SongSearchOptions small;
  small.queue_size = 10;
  SongSearchOptions large;
  large.queue_size = 160;
  EXPECT_GE(MeasureRecall(large), MeasureRecall(small));
}

// ---- Optimization semantics across all Fig 7 configurations. ----

struct ConfigCase {
  const char* name;
  SongSearchOptions options;
};

class SearcherConfigTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(SearcherConfigTest, ReachesGoodRecall) {
  SongSearchOptions options = GetParam().options;
  options.queue_size = 128;
  // Probabilistic structures may lose a little recall to false positives.
  EXPECT_GE(MeasureRecall(options), 0.9) << GetParam().name;
}

TEST_P(SearcherConfigTest, ResultsSortedAndUnique) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = GetParam().options;
  options.queue_size = 48;
  SongWorkspace ws;
  for (size_t q = 0; q < 8; ++q) {
    const auto result = searcher
                            .TrySearch(fx.queries.Row(static_cast<idx_t>(q)),
                                       10, options, &ws)
                            .value();
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_LE(result[i - 1].dist, result[i].dist);
    }
  }
}

TEST_P(SearcherConfigTest, StatsAreConsistent) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = GetParam().options;
  options.queue_size = 64;
  SearchStats stats;
  SongWorkspace ws;
  ASSERT_TRUE(
      searcher.TrySearch(fx.queries.Row(0), 10, options, &ws, &stats).ok());
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_EQ(stats.graph_rows_loaded, stats.vertices_expanded);
  EXPECT_GE(stats.visited_tests,
            stats.vertices_expanded);  // >= one test per expanded row slot
  EXPECT_GT(stats.data_bytes_loaded, 0u);
  EXPECT_EQ(stats.graph_bytes_loaded,
            stats.graph_rows_loaded * fx.graph.degree() * sizeof(idx_t));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SearcherConfigTest,
    ::testing::Values(
        ConfigCase{"hashtable", SongSearchOptions::HashTable()},
        ConfigCase{"hashtable_sel", SongSearchOptions::HashTableSel()},
        ConfigCase{"hashtable_sel_del", SongSearchOptions::HashTableSelDel()},
        ConfigCase{"bloom", SongSearchOptions::Bloom()},
        ConfigCase{"cuckoo", SongSearchOptions::Cuckoo()}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
      return info.param.name;
    });

TEST(SongSearcherOptimizations, SelectedInsertionShrinksVisitedSet) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions plain = SongSearchOptions::HashTable();
  SongSearchOptions sel = SongSearchOptions::HashTableSel();
  plain.queue_size = sel.queue_size = 64;
  SearchStats plain_stats, sel_stats;
  SongWorkspace ws;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const float* query = fx.queries.Row(static_cast<idx_t>(q));
    ASSERT_TRUE(searcher.TrySearch(query, 10, plain, &ws, &plain_stats).ok());
    ASSERT_TRUE(searcher.TrySearch(query, 10, sel, &ws, &sel_stats).ok());
  }
  // §IV-D: fewer insertions, possibly more (recomputed) distances.
  EXPECT_LT(sel_stats.visited_insertions, plain_stats.visited_insertions);
  EXPECT_GE(sel_stats.distance_computations,
            plain_stats.distance_computations);
  EXPECT_GT(sel_stats.selected_insertion_skips, 0u);
}

TEST(SongSearcherOptimizations, VisitedDeletionBoundsLiveEntries) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 32;
  SearchStats stats;
  SongWorkspace ws;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    ASSERT_TRUE(searcher
                    .TrySearch(fx.queries.Row(static_cast<idx_t>(q)), 10,
                               options, &ws, &stats)
                    .ok());
  }
  // §IV-E: visited = q ∪ topk, each bounded by queue_size.
  EXPECT_LE(stats.peak_visited_size, 2 * options.queue_size + 1);
  EXPECT_GT(stats.visited_deletions, 0u);
}

TEST(SongSearcherOptimizations, SelDelUsesLessVisitedMemoryThanPlain) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions plain = SongSearchOptions::HashTable();
  SongSearchOptions seldel = SongSearchOptions::HashTableSelDel();
  plain.queue_size = seldel.queue_size = 64;
  SearchStats plain_stats, seldel_stats;
  SongWorkspace ws;
  ASSERT_TRUE(
      searcher.TrySearch(fx.queries.Row(0), 10, plain, &ws, &plain_stats)
          .ok());
  ASSERT_TRUE(
      searcher.TrySearch(fx.queries.Row(0), 10, seldel, &ws, &seldel_stats)
          .ok());
  EXPECT_LT(seldel_stats.visited_capacity_bytes,
            plain_stats.visited_capacity_bytes);
}

TEST(SongSearcherOptimizations, BloomUsesConstantSmallMemory) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions bloom = SongSearchOptions::Bloom();
  bloom.queue_size = 256;
  SearchStats stats;
  SongWorkspace ws;
  ASSERT_TRUE(
      searcher.TrySearch(fx.queries.Row(0), 10, bloom, &ws, &stats).ok());
  // Paper: ~300 u32 (1.2 KB); ours rounds to u64 words.
  EXPECT_LE(stats.visited_capacity_bytes, 2048u);
}

// ---- Multi-step probing / multi-query plumbing. ----

class MultiStepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MultiStepTest, StillReachesHighRecall) {
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 128;
  options.multi_step_probe = GetParam();
  EXPECT_GE(MeasureRecall(options), 0.9) << "probe=" << GetParam();
}

TEST_P(MultiStepTest, MoreStepsDoNotReduceWorkPerIteration) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  options.multi_step_probe = GetParam();
  SearchStats stats;
  SongWorkspace ws;
  ASSERT_TRUE(
      searcher.TrySearch(fx.queries.Row(0), 10, options, &ws, &stats).ok());
  EXPECT_LE(stats.iterations, stats.vertices_expanded + 1);
}

INSTANTIATE_TEST_SUITE_P(ProbeWidths, MultiStepTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(SongSearcher, MultiStepReducesIterations) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions one;
  one.queue_size = 64;
  SongSearchOptions four = one;
  four.multi_step_probe = 4;
  SearchStats s1, s4;
  SongWorkspace ws;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const float* query = fx.queries.Row(static_cast<idx_t>(q));
    ASSERT_TRUE(searcher.TrySearch(query, 10, one, &ws, &s1).ok());
    ASSERT_TRUE(searcher.TrySearch(query, 10, four, &ws, &s4).ok());
  }
  EXPECT_LT(s4.iterations, s1.iterations);
  // §V: extra probes waste distance computations on suboptimal candidates.
  EXPECT_GE(s4.distance_computations, s1.distance_computations);
}

TEST(SongSearcher, KLargerThanQueueSizeIsClamped) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 4;  // < k
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(fx.queries.Row(0), 20, options, &ws).value();
  EXPECT_LE(result.size(), 20u);
  EXPECT_GE(result.size(), 10u);  // ef clamped up to k=20
}

TEST(SongSearcher, EntryPointIsConfigurable) {
  const Fixture& fx = Fixture::Get();
  const idx_t entry = static_cast<idx_t>(fx.data.num() / 2);
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2, entry);
  SongSearchOptions options;
  options.queue_size = 96;
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(fx.queries.Row(0), 10, options, &ws).value();
  EXPECT_FALSE(result.empty());
}

TEST(SongSearcher, WorksWithInnerProductMetric) {
  const Fixture& fx = Fixture::Get();
  NswBuildOptions nsw;
  nsw.degree = 16;
  nsw.num_threads = 1;
  const FixedDegreeGraph ip_graph =
      NswBuilder::Build(fx.data, Metric::kInnerProduct, nsw);
  SongSearcher searcher(&fx.data, &ip_graph, Metric::kInnerProduct);
  SongSearchOptions options;
  options.queue_size = 64;
  SongWorkspace ws;
  const auto result =
      searcher.TrySearch(fx.queries.Row(0), 5, options, &ws).value();
  ASSERT_FALSE(result.empty());
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].dist, result[i].dist);
  }
}

}  // namespace
}  // namespace song
