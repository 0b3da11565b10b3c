// Tests for the multi-GPU sharding extension (paper §VII's scalability
// suggestion): shard construction, global-id translation, merge semantics,
// recall parity with the single-index deployment, and the parallel-cards
// cost model.

#include "gpusim/sharded.h"

#include <set>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"

namespace song {
namespace {

struct ShardFixture {
  Dataset data;
  Dataset queries;
  std::vector<std::vector<idx_t>> gt10;

  static const ShardFixture& Get() {
    static ShardFixture* f = [] {
      auto* fx = new ShardFixture();
      SyntheticSpec spec;
      spec.name = "shards";
      spec.dim = 32;
      spec.num_points = 4000;
      spec.num_queries = 30;
      spec.num_clusters = 12;
      spec.cluster_std = 0.5;
      spec.seed = 555;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      FlatIndex flat(&fx->data, Metric::kL2);
      fx->gt10 = FlatIndex::Ids(flat.BatchSearch(fx->queries, 10, 1));
      return fx;
    }();
    return *f;
  }
};

TEST(ShardedSongIndex, SplitsDataAcrossShards) {
  const ShardFixture& fx = ShardFixture::Get();
  ShardedBuildOptions options;
  options.num_shards = 4;
  options.num_threads = 1;
  ShardedSongIndex index(&fx.data, Metric::kL2, options);
  EXPECT_EQ(index.num_shards(), 4u);
  size_t total = 0;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    total += index.shard_data(s).num();
    EXPECT_EQ(index.shard_graph(s).num_vertices(), index.shard_data(s).num());
  }
  EXPECT_EQ(total, fx.data.num());
}

TEST(ShardedSongIndex, MoreShardsThanPointsClamped) {
  Dataset tiny(3, 4);
  ShardedBuildOptions options;
  options.num_shards = 10;
  ShardedSongIndex index(&tiny, Metric::kL2, options);
  EXPECT_LE(index.num_shards(), 3u);
}

TEST(ShardedSongIndex, ResultsUseGlobalIdsSortedUnique) {
  const ShardFixture& fx = ShardFixture::Get();
  ShardedBuildOptions options;
  options.num_shards = 3;
  options.num_threads = 1;
  ShardedSongIndex index(&fx.data, Metric::kL2, options);
  SongSearchOptions search = SongSearchOptions::HashTableSelDel();
  search.queue_size = 64;
  const ShardedSearchResult result =
      index.TrySearch(fx.queries, 10, search, {}, 1).value();
  ASSERT_EQ(result.results.size(), fx.queries.num());
  for (const auto& neighbors : result.results) {
    EXPECT_EQ(neighbors.size(), 10u);
    std::set<idx_t> ids;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_LT(neighbors[i].id, fx.data.num());  // global range
      ids.insert(neighbors[i].id);
      if (i > 0) EXPECT_LE(neighbors[i - 1].dist, neighbors[i].dist);
    }
    EXPECT_EQ(ids.size(), neighbors.size());  // merge produced no dups
  }
}

TEST(ShardedSongIndex, DistancesMatchGlobalData) {
  const ShardFixture& fx = ShardFixture::Get();
  ShardedBuildOptions options;
  options.num_shards = 2;
  options.num_threads = 1;
  ShardedSongIndex index(&fx.data, Metric::kL2, options);
  SongSearchOptions search;
  search.queue_size = 32;
  const ShardedSearchResult result =
      index.TrySearch(fx.queries, 5, search, {}, 1).value();
  for (size_t q = 0; q < 5; ++q) {
    for (const Neighbor& n : result.results[q]) {
      const float expect = L2Sqr(fx.queries.Row(static_cast<idx_t>(q)),
                                 fx.data.Row(n.id), fx.data.dim());
      EXPECT_FLOAT_EQ(n.dist, expect);
    }
  }
}

TEST(ShardedSongIndex, RecallComparableToSingleIndex) {
  const ShardFixture& fx = ShardFixture::Get();
  ShardedBuildOptions options;
  options.num_shards = 4;
  options.num_threads = 1;
  ShardedSongIndex index(&fx.data, Metric::kL2, options);
  SongSearchOptions search = SongSearchOptions::HashTableSelDel();
  search.queue_size = 96;
  const ShardedSearchResult result =
      index.TrySearch(fx.queries, 10, search, {}, 1).value();
  std::vector<std::vector<idx_t>> ids(result.results.size());
  for (size_t q = 0; q < result.results.size(); ++q) {
    for (const Neighbor& n : result.results[q]) ids[q].push_back(n.id);
  }
  // Sharding searches every shard with the full budget, so recall is at
  // least as good as a single index at the same queue size.
  EXPECT_GE(MeanRecallAtK(ids, fx.gt10, 10), 0.9);
}

TEST(ShardedSongIndex, GpuEstimateTakesSlowestCard) {
  const ShardFixture& fx = ShardFixture::Get();
  ShardedBuildOptions options;
  options.num_shards = 2;
  options.num_threads = 1;
  ShardedSongIndex index(&fx.data, Metric::kL2, options);
  SongSearchOptions search = SongSearchOptions::HashTableSelDel();
  search.queue_size = 64;
  const ShardedSearchResult result =
      index.TrySearch(fx.queries, 10, search, {}, 1).value();

  const ShardedGpuEstimate fast = index.EstimateGpu(
      result, {GpuSpec::V100(), GpuSpec::V100()}, fx.queries.num(), 10,
      search);
  const ShardedGpuEstimate mixed = index.EstimateGpu(
      result, {GpuSpec::V100(), GpuSpec::P40()}, fx.queries.num(), 10,
      search);
  EXPECT_EQ(fast.shard_kernel_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(
      fast.kernel_seconds,
      std::max(fast.shard_kernel_seconds[0], fast.shard_kernel_seconds[1]));
  // A slower card in the pair cannot make the deployment faster.
  EXPECT_GE(mixed.kernel_seconds, fast.kernel_seconds);
  EXPECT_GT(fast.Qps(fx.queries.num()), 0.0);
  EXPECT_GT(fast.merge_seconds, 0.0);
}

TEST(ShardedSongIndex, MismatchedGpuCountAborts) {
  const ShardFixture& fx = ShardFixture::Get();
  ShardedBuildOptions options;
  options.num_shards = 2;
  options.num_threads = 1;
  ShardedSongIndex index(&fx.data, Metric::kL2, options);
  SongSearchOptions search;
  const ShardedSearchResult result =
      index.TrySearch(fx.queries, 5, search, {}, 1).value();
  EXPECT_DEATH(index.EstimateGpu(result, {GpuSpec::V100()},
                                 fx.queries.num(), 5, search),
               "one GpuSpec per shard");
}

}  // namespace
}  // namespace song
