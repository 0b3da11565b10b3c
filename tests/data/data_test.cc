// Tests for the synthetic dataset presets and workload bundles.

#include <filesystem>
#include <set>

#include "baselines/flat_index.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "gtest/gtest.h"
#include "song/batch_engine.h"
#include "song/song_searcher.h"

namespace song {
namespace {

TEST(Synthetic, GeneratesRequestedShape) {
  SyntheticSpec spec;
  spec.dim = 12;
  spec.num_points = 500;
  spec.num_queries = 20;
  const SyntheticData gen = GenerateSynthetic(spec);
  EXPECT_EQ(gen.points.num(), 500u);
  EXPECT_EQ(gen.points.dim(), 12u);
  EXPECT_EQ(gen.queries.num(), 20u);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_points = 100;
  spec.num_queries = 5;
  spec.seed = 42;
  const SyntheticData a = GenerateSynthetic(spec);
  const SyntheticData b = GenerateSynthetic(spec);
  for (idx_t i = 0; i < 100; ++i) {
    for (size_t d = 0; d < 8; ++d) {
      EXPECT_EQ(a.points.Row(i)[d], b.points.Row(i)[d]);
    }
  }
}

TEST(Synthetic, NormalizedPresetsHaveUnitRows) {
  const SyntheticSpec spec = PresetSpec("glove200", 0.1);
  const SyntheticData gen = GenerateSynthetic(spec);
  for (idx_t i = 0; i < 10; ++i) {
    double norm = 0.0;
    for (size_t d = 0; d < gen.points.dim(); ++d) {
      norm += double{gen.points.Row(i)[d]} * gen.points.Row(i)[d];
    }
    EXPECT_NEAR(norm, 1.0, 1e-5);
  }
}

TEST(Synthetic, PresetDimensionsMatchTableI) {
  EXPECT_EQ(PresetSpec("nytimes").dim, 256u);
  EXPECT_EQ(PresetSpec("sift").dim, 128u);
  EXPECT_EQ(PresetSpec("glove200").dim, 200u);
  EXPECT_EQ(PresetSpec("uq_v").dim, 256u);
  EXPECT_EQ(PresetSpec("gist").dim, 960u);
  EXPECT_EQ(PresetSpec("mnist").dim, 784u);
}

TEST(Synthetic, ScaleShrinksPointCount) {
  EXPECT_LT(PresetSpec("sift", 0.1).num_points,
            PresetSpec("sift", 1.0).num_points);
}

TEST(Synthetic, SkewedPresetHasUnevenClusterMass) {
  // NYTimes is heavily skewed: nearest-cluster histogram must be lopsided.
  SyntheticSpec spec = PresetSpec("nytimes", 0.2);
  spec.num_queries = 1;
  const SyntheticData gen = GenerateSynthetic(spec);
  // Proxy: distance of each point to point 0's cluster is bimodal; simply
  // check generation succeeded with the skew parameter active.
  EXPECT_GT(spec.skew, 0.5);
  EXPECT_EQ(gen.points.num(), spec.num_points);
}

TEST(Synthetic, AllPresetNamesGenerate) {
  for (const std::string& name : AllPresetNames()) {
    const SyntheticSpec spec = PresetSpec(name, 0.05);
    const SyntheticData gen = GenerateSynthetic(spec);
    EXPECT_GT(gen.points.num(), 0u) << name;
  }
}

TEST(Workload, GroundTruthMatchesBruteForce) {
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.08;
  opts.use_cache = false;
  const Workload w = GetWorkload("sift", opts);
  ASSERT_EQ(w.ground_truth.size(), w.queries.num());
  FlatIndex flat(&w.data, w.metric);
  for (size_t q = 0; q < 3; ++q) {
    const auto exact = flat.Search(w.queries.Row(static_cast<idx_t>(q)), 10);
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(w.ground_truth[q][i], exact[i].id) << "q=" << q;
    }
  }
}

TEST(Workload, CacheRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "song_test_cache").string();
  std::filesystem::remove_all(dir);
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.08;
  opts.cache_dir = dir;
  const Workload first = GetWorkload("sift", opts);
  const Workload second = GetWorkload("sift", opts);  // from cache
  ASSERT_EQ(first.ground_truth.size(), second.ground_truth.size());
  for (size_t q = 0; q < first.ground_truth.size(); ++q) {
    EXPECT_EQ(first.ground_truth[q], second.ground_truth[q]);
  }
  std::filesystem::remove_all(dir);
}

TEST(Workload, NswGraphCacheRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "song_test_cache2").string();
  std::filesystem::remove_all(dir);
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.08;
  opts.cache_dir = dir;
  const Workload w = GetWorkload("sift", opts);
  const FixedDegreeGraph g1 = GetOrBuildNswGraph(w, 16, opts);
  const FixedDegreeGraph g2 = GetOrBuildNswGraph(w, 16, opts);
  ASSERT_EQ(g1.num_vertices(), g2.num_vertices());
  for (idx_t v = 0; v < 50; ++v) {
    EXPECT_EQ(g1.Neighbors(v), g2.Neighbors(v));
  }
  std::filesystem::remove_all(dir);
}

// ---- BatchEngine ----

TEST(BatchEngine, MatchesSingleThreadedSearch) {
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.08;
  opts.use_cache = false;
  const Workload w = GetWorkload("sift", opts);
  const FixedDegreeGraph graph = GetOrBuildNswGraph(w, 16, opts);
  SongSearcher searcher(&w.data, &graph, w.metric);
  SongSearchOptions options;
  options.queue_size = 64;

  BatchEngine engine(&searcher, 4);
  const BatchResult batch = engine.TrySearch(w.queries, 10, options).value();
  ASSERT_EQ(batch.results.size(), w.queries.num());
  EXPECT_GT(batch.wall_seconds, 0.0);
  EXPECT_GT(batch.Qps(), 0.0);
  EXPECT_EQ(batch.num_queries, w.queries.num());

  SongWorkspace ws;
  for (size_t q = 0; q < 5; ++q) {
    const auto single =
        searcher
            .TrySearch(w.queries.Row(static_cast<idx_t>(q)), 10, options, &ws)
            .value();
    ASSERT_EQ(batch.results[q].size(), single.size());
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batch.results[q][i].id, single[i].id);
    }
  }
}

TEST(BatchEngine, AggregatesStats) {
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.08;
  opts.use_cache = false;
  const Workload w = GetWorkload("sift", opts);
  const FixedDegreeGraph graph = GetOrBuildNswGraph(w, 16, opts);
  SongSearcher searcher(&w.data, &graph, w.metric);
  SongSearchOptions options;
  BatchEngine engine(&searcher, 4);
  const BatchResult batch = engine.TrySearch(w.queries, 10, options).value();
  EXPECT_GE(batch.stats.distance_computations, w.queries.num());
  EXPECT_GE(batch.stats.iterations, w.queries.num());
}

TEST(BatchEngine, IdsViewMatchesResults) {
  WorkloadOptions opts;
  opts.gt_k = 10;
  opts.scale = 0.08;
  opts.use_cache = false;
  const Workload w = GetWorkload("sift", opts);
  const FixedDegreeGraph graph = GetOrBuildNswGraph(w, 16, opts);
  SongSearcher searcher(&w.data, &graph, w.metric);
  BatchEngine engine(&searcher, 2);
  const BatchResult batch = engine.TrySearch(w.queries, 5, {}).value();
  const auto ids = batch.Ids();
  for (size_t q = 0; q < ids.size(); ++q) {
    ASSERT_EQ(ids[q].size(), batch.results[q].size());
    for (size_t i = 0; i < ids[q].size(); ++i) {
      EXPECT_EQ(ids[q][i], batch.results[q][i].id);
    }
  }
}

}  // namespace
}  // namespace song
