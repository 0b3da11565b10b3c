// Recall-under-churn regression (ISSUE 6 satellite): after tombstoning 30%
// of a built index and reinserting replacements online, recall@10 against
// the exact oracle must stay within a fixed epsilon of the fresh-build
// recall on the same final point set. This is the guard against silent
// graph-quality decay in the online Insert path — a link policy that merely
// "doesn't crash" but routes poorly shows up here as a recall gap.

#include <cstddef>
#include <memory>
#include <vector>

#include "core/random.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "harness/oracles.h"
#include "song/index_snapshot.h"
#include "song/mutable_index.h"

namespace song {
namespace {

constexpr size_t kDim = 16;
constexpr size_t kNumPoints = 1200;
constexpr size_t kNumQueries = 60;
constexpr size_t kK = 10;
// Fresh-build and churned recall both sit near 1.0 at this queue size on the
// clustered synthetic set; the bound leaves room for seed jitter while still
// failing on any systematic link-quality regression.
constexpr double kEpsilon = 0.06;

double RecallVsOracle(const IndexSnapshot& snapshot,
                      const harness::OracleDynamicIndex& oracle,
                      const Dataset& queries) {
  SongWorkspace ws;
  SongSearchOptions options = SongSearchOptions::CpuEngineered();
  options.queue_size = 128;
  size_t hits = 0;
  for (size_t q = 0; q < queries.num(); ++q) {
    const float* query = queries.Row(static_cast<idx_t>(q));
    const std::vector<Neighbor> truth = oracle.TopK(query, kK);
    const std::vector<Neighbor> got =
        snapshot.TrySearch(query, kK, options, &ws).value();
    for (const Neighbor& n : got) {
      for (const Neighbor& t : truth) {
        if (n.id == t.id) {
          ++hits;
          break;
        }
      }
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(queries.num() * kK);
}

TEST(MutableIndexChurn, RecallAfterDeleteReinsertStaysNearFreshBuild) {
  SyntheticSpec spec;
  spec.name = "churn";
  spec.dim = kDim;
  spec.num_points = kNumPoints;
  spec.num_queries = kNumQueries;
  spec.num_clusters = 10;
  spec.cluster_std = 0.4;
  spec.seed = 4242;
  SyntheticData gen = GenerateSynthetic(spec);

  // Churned index: adopt the frozen build, tombstone 30%, reinsert fresh
  // replacement points online.
  NswBuildOptions nsw;
  nsw.degree = 16;
  nsw.num_threads = 1;
  MutableIndex churned(Metric::kL2, kDim,
                       MutableIndexOptions{.degree = 16,
                                           .ef_construction = 128});
  ASSERT_TRUE(churned
                  .AdoptFrozen(gen.points.CopyGrown(gen.points.num()),
                               NswBuilder::Build(gen.points, Metric::kL2, nsw))
                  .ok());

  harness::OracleDynamicIndex oracle(Metric::kL2, kDim);
  for (size_t i = 0; i < kNumPoints; ++i) {
    oracle.Insert(gen.points.Row(static_cast<idx_t>(i)));
  }

  RandomEngine rng(777);
  const size_t num_churn = kNumPoints * 30 / 100;
  std::vector<idx_t> victims;
  {
    // Distinct random victims.
    std::vector<idx_t> ids(kNumPoints);
    for (size_t i = 0; i < kNumPoints; ++i) ids[i] = static_cast<idx_t>(i);
    for (size_t i = 0; i < num_churn; ++i) {
      const size_t j = i + rng.NextUint(kNumPoints - i);
      std::swap(ids[i], ids[j]);
      victims.push_back(ids[i]);
    }
  }
  for (const idx_t id : victims) {
    ASSERT_TRUE(churned.Delete(id).ok());
    ASSERT_TRUE(oracle.Delete(id));
  }
  std::vector<float> point(kDim);
  for (size_t i = 0; i < num_churn; ++i) {
    for (size_t d = 0; d < kDim; ++d) {
      point[d] = static_cast<float>(rng.NextGaussian());
    }
    const StatusOr<idx_t> id = churned.Insert(point.data());
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(id.value(), oracle.Insert(point.data()));
  }
  const std::shared_ptr<const IndexSnapshot> churned_snapshot =
      churned.Acquire();
  ASSERT_EQ(churned_snapshot->live_points(), kNumPoints);
  ASSERT_EQ(churned_snapshot->num_points(), kNumPoints + num_churn);

  // Fresh-build baseline over the identical final live set.
  Dataset final_points(kNumPoints, kDim);
  {
    idx_t row = 0;
    for (const idx_t id : oracle.LiveIds()) {
      final_points.SetRow(row++, oracle.Vector(id));
    }
    ASSERT_EQ(static_cast<size_t>(row), kNumPoints);
  }
  MutableIndex fresh(Metric::kL2, kDim);
  ASSERT_TRUE(
      fresh
          .AdoptFrozen(final_points.CopyGrown(kNumPoints),
                       NswBuilder::Build(final_points, Metric::kL2, nsw))
          .ok());
  harness::OracleDynamicIndex fresh_oracle(Metric::kL2, kDim);
  for (size_t i = 0; i < kNumPoints; ++i) {
    fresh_oracle.Insert(final_points.Row(static_cast<idx_t>(i)));
  }

  const double churned_recall =
      RecallVsOracle(*churned_snapshot, oracle, gen.queries);
  const double fresh_recall =
      RecallVsOracle(*fresh.Acquire(), fresh_oracle, gen.queries);

  RecordProperty("churned_recall", std::to_string(churned_recall));
  RecordProperty("fresh_recall", std::to_string(fresh_recall));
  EXPECT_GT(fresh_recall, 0.90) << "baseline build unexpectedly weak";
  EXPECT_GE(churned_recall, fresh_recall - kEpsilon)
      << "online churn degraded recall: churned=" << churned_recall
      << " fresh=" << fresh_recall;
}

}  // namespace
}  // namespace song
