// Metamorphic properties of the SONG search: relations that must hold
// between *pairs* of runs on systematically transformed inputs, independent
// of any oracle. These target exactly the silent-recall-degradation class of
// bug that example-based tests miss: each property compares whole result
// sets, so a subtly corrupted queue or visited set shows up as a broken
// relation even when every individual run looks plausible.

#include <algorithm>
#include <set>
#include <vector>

#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "harness/fuzz.h"
#include "harness/reference_search.h"
#include "song/song_searcher.h"

namespace song::harness {
namespace {

constexpr size_t kGroundTruthK = 10;

class HarnessMetamorphic : public ::testing::Test {
 protected:
  struct World {
    SyntheticData gen;
    FixedDegreeGraph graph;
    std::vector<std::vector<Neighbor>> ground_truth;  // per query, top-10
  };

  // Built once per suite; tests only read it, so --gtest_shuffle is safe.
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.name = "harness-metamorphic";
    spec.dim = 16;
    spec.num_points = 2000;
    spec.num_queries = 40;
    spec.num_clusters = 8;
    spec.seed = 77;  // deterministic; independent of SONG_FUZZ_SEED
    world_ = new World;
    world_->gen = GenerateSynthetic(spec);
    NswBuildOptions nsw;
    nsw.num_threads = 1;
    world_->graph = NswBuilder::Build(world_->gen.points, Metric::kL2, nsw);
    for (size_t q = 0; q < world_->gen.queries.num(); ++q) {
      world_->ground_truth.push_back(BruteForceTopK(
          world_->gen.points.num(), kGroundTruthK,
          [&](idx_t v) {
            return L2Sqr(world_->gen.queries.Row(static_cast<idx_t>(q)),
                         world_->gen.points.Row(v),
                         world_->gen.points.dim());
          }));
    }
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  /// Share of `result` within the ground-truth k-th distance — recall by
  /// distance, so an equally-close duplicate counts as a hit.
  static double DistanceRecall(const std::vector<Neighbor>& result,
                               const std::vector<Neighbor>& ground_truth) {
    const float threshold = ground_truth.back().dist + 1e-6f;
    size_t hits = 0;
    for (const Neighbor& n : result) hits += n.dist <= threshold ? 1 : 0;
    return static_cast<double>(hits) /
           static_cast<double>(ground_truth.size());
  }

  static double IdRecall(const std::vector<Neighbor>& result,
                         const std::vector<Neighbor>& ground_truth) {
    std::set<idx_t> gt;
    for (const Neighbor& n : ground_truth) gt.insert(n.id);
    size_t hits = 0;
    for (const Neighbor& n : result) hits += gt.count(n.id);
    return static_cast<double>(hits) / static_cast<double>(gt.size());
  }

  /// One checked search on a fresh workspace, so every call starts from
  /// the same state.
  static std::vector<Neighbor> SearchFresh(const SongSearcher& searcher,
                                           const float* query, size_t k,
                                           const SongSearchOptions& options) {
    SongWorkspace ws;
    return searcher.TrySearch(query, k, options, &ws).value();
  }

  static double MeanRecall(const SongSearcher& searcher,
                           const SongSearchOptions& options, size_t k,
                           bool by_distance) {
    double sum = 0.0;
    for (size_t q = 0; q < world_->gen.queries.num(); ++q) {
      const auto result = SearchFresh(
          searcher, world_->gen.queries.Row(static_cast<idx_t>(q)), k,
          options);
      sum += by_distance
                 ? DistanceRecall(result, world_->ground_truth[q])
                 : IdRecall(result, world_->ground_truth[q]);
    }
    return sum / static_cast<double>(world_->gen.queries.num());
  }

  static World* world_;
};

HarnessMetamorphic::World* HarnessMetamorphic::world_ = nullptr;

TEST_F(HarnessMetamorphic, ShrinkingKIsPrefixOfLargerK) {
  SongSearcher searcher(&world_->gen.points, &world_->graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;  // fixed ef >= every k: identical search paths
  for (size_t q = 0; q < world_->gen.queries.num(); ++q) {
    const float* query = world_->gen.queries.Row(static_cast<idx_t>(q));
    const auto large = SearchFresh(searcher, query, 20, options);
    for (const size_t k : {1u, 3u, 10u}) {
      const auto small = SearchFresh(searcher, query, k, options);
      ASSERT_EQ(small.size(), std::min(k, large.size())) << "query " << q;
      for (size_t i = 0; i < small.size(); ++i) {
        EXPECT_TRUE(small[i] == large[i])
            << "query " << q << " k=" << k << " position " << i;
      }
    }
  }
}

TEST_F(HarnessMetamorphic, SelectedInsertionPreservesExactResults) {
  // §IV-D only skips candidates that are strictly worse than a full top-K;
  // such candidates can never enter topk later (its max only decreases) and
  // would terminate, not expand, when popped — so with an exact, ample
  // visited set the filter must not change the returned neighbors at all.
  SongSearcher searcher(&world_->gen.points, &world_->graph, Metric::kL2);
  SongSearchOptions plain;
  plain.queue_size = 64;
  plain.hash_capacity = world_->gen.points.num() + 1;
  SongSearchOptions selected = plain;
  selected.selected_insertion = true;
  for (size_t q = 0; q < world_->gen.queries.num(); ++q) {
    const float* query = world_->gen.queries.Row(static_cast<idx_t>(q));
    const auto a = SearchFresh(searcher, query, 10, plain);
    const auto b = SearchFresh(searcher, query, 10, selected);
    ASSERT_EQ(a.size(), b.size()) << "query " << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i] == b[i]) << "query " << q << " position " << i;
    }
  }
}

TEST_F(HarnessMetamorphic, VisitedDeletionKeepsRecallWithinTolerance) {
  // §IV-E changes which vertices get re-examined, so results may differ —
  // but the paper's claim is that recall is preserved. Hold it to that.
  SongSearcher searcher(&world_->gen.points, &world_->graph, Metric::kL2);
  SongSearchOptions sel = SongSearchOptions::HashTableSel();
  sel.queue_size = 64;
  SongSearchOptions seldel = SongSearchOptions::HashTableSelDel();
  seldel.queue_size = 64;
  const double recall_sel = MeanRecall(searcher, sel, 10, /*by_distance=*/false);
  const double recall_seldel =
      MeanRecall(searcher, seldel, 10, /*by_distance=*/false);
  EXPECT_NEAR(recall_sel, recall_seldel, 0.03)
      << "visited deletion moved recall from " << recall_sel << " to "
      << recall_seldel;
  EXPECT_GT(recall_seldel, 0.85);
}

TEST_F(HarnessMetamorphic, BloomRecallNeverExceedsExactVisited) {
  // A Bloom filter can only err toward "already visited", which prunes
  // exploration: on the same instance its recall must not beat the exact
  // hash table's.
  SongSearcher searcher(&world_->gen.points, &world_->graph, Metric::kL2);
  SongSearchOptions bloom = SongSearchOptions::Bloom();
  bloom.queue_size = 64;
  SongSearchOptions exact = bloom;
  exact.structure = VisitedStructure::kHashTable;
  exact.hash_capacity = world_->gen.points.num() + 1;
  const double recall_bloom =
      MeanRecall(searcher, bloom, 10, /*by_distance=*/false);
  const double recall_exact =
      MeanRecall(searcher, exact, 10, /*by_distance=*/false);
  EXPECT_LE(recall_bloom, recall_exact + 1e-9)
      << "bloom " << recall_bloom << " vs exact " << recall_exact;
  // The paper-sized filter (~9600 bits) must also stay useful, not just safe.
  EXPECT_GT(recall_bloom, 0.8);
}

TEST_F(HarnessMetamorphic, DuplicatingTrueNeighborsNeverLowersDistanceRecall) {
  // Append an exact duplicate of every query's true nearest neighbor, wired
  // next to its original. Measured by distance (a duplicate hit counts),
  // recall must not drop: the duplicates only add equally-good answers.
  const Dataset& points = world_->gen.points;
  const size_t n = points.num();
  const size_t dim = points.dim();
  const size_t degree = world_->graph.degree();

  std::set<idx_t> to_duplicate;
  for (const auto& gt : world_->ground_truth) to_duplicate.insert(gt[0].id);

  Dataset augmented(n + to_duplicate.size(), dim);
  for (idx_t v = 0; v < n; ++v) augmented.SetRow(v, points.Row(v));
  std::vector<std::vector<idx_t>> adjacency(n + to_duplicate.size());
  for (idx_t v = 0; v < n; ++v) adjacency[v] = world_->graph.Neighbors(v);
  idx_t next = static_cast<idx_t>(n);
  for (const idx_t original : to_duplicate) {
    augmented.SetRow(next, points.Row(original));
    adjacency[next] = world_->graph.Neighbors(original);
    adjacency[next].push_back(original);
    adjacency[original].push_back(next);
    ++next;
  }
  const FixedDegreeGraph augmented_graph =
      FixedDegreeGraph::FromAdjacency(adjacency, degree + 1);

  SongSearcher baseline(&world_->gen.points, &world_->graph, Metric::kL2);
  SongSearcher duplicated(&augmented, &augmented_graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  double recall_before = 0.0, recall_after = 0.0;
  for (size_t q = 0; q < world_->gen.queries.num(); ++q) {
    const float* query = world_->gen.queries.Row(static_cast<idx_t>(q));
    recall_before += DistanceRecall(SearchFresh(baseline, query, 10, options),
                                    world_->ground_truth[q]);
    recall_after +=
        DistanceRecall(SearchFresh(duplicated, query, 10, options),
                       world_->ground_truth[q]);
  }
  EXPECT_GE(recall_after, recall_before - 1e-9)
      << "duplicate insertion lowered aggregate distance-recall from "
      << recall_before << " to " << recall_after;
}

TEST_F(HarnessMetamorphic, IdenticalConfigurationsAreBitIdentical) {
  // Determinism is what makes every failure in this harness replayable:
  // the same query under the same options must be bit-identical, for all
  // five presets, including the probabilistic structures.
  SongSearcher searcher(&world_->gen.points, &world_->graph, Metric::kL2);
  const SongSearchOptions presets[] = {
      SongSearchOptions::HashTable(),     SongSearchOptions::HashTableSel(),
      SongSearchOptions::HashTableSelDel(), SongSearchOptions::Bloom(),
      SongSearchOptions::Cuckoo(),        SongSearchOptions::CpuEngineered()};
  for (const SongSearchOptions& preset : presets) {
    SongSearchOptions options = preset;
    options.queue_size = 48;
    for (size_t q = 0; q < 8; ++q) {
      const float* query = world_->gen.queries.Row(static_cast<idx_t>(q));
      const auto first = SearchFresh(searcher, query, 10, options);
      const auto second = SearchFresh(searcher, query, 10, options);
      ASSERT_EQ(first.size(), second.size())
          << options.Name() << " query " << q;
      for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(first[i] == second[i])
            << options.Name() << " query " << q << " position " << i;
      }
    }
  }
}

}  // namespace
}  // namespace song::harness
