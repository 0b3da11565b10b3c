// Tests for MIPS support: the Möbius transformation's geometry and
// end-to-end inner-product search quality through the SONG pipeline.

#include "song/mips.h"

#include <cmath>

#include "baselines/flat_index.h"
#include "core/random.h"
#include "core/recall.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "song/song_searcher.h"

namespace song {
namespace {

TEST(Mobius, InvertsNorm) {
  Dataset data(2, 2);
  const float a[2] = {3.0f, 4.0f};  // norm 5
  const float z[2] = {0.0f, 0.0f};
  data.SetRow(0, a);
  data.SetRow(1, z);
  const Dataset t = MobiusTransform(data);
  // x / ||x||^2: norm becomes 1/||x|| = 0.2.
  const double norm = std::sqrt(double{t.Row(0)[0]} * t.Row(0)[0] +
                                double{t.Row(0)[1]} * t.Row(0)[1]);
  EXPECT_NEAR(norm, 0.2, 1e-6);
  // Direction preserved.
  EXPECT_NEAR(t.Row(0)[0] / t.Row(0)[1], 0.75, 1e-5);
  // Zero maps to zero.
  EXPECT_FLOAT_EQ(t.Row(1)[0], 0.0f);
  EXPECT_FLOAT_EQ(t.Row(1)[1], 0.0f);
}

TEST(Mobius, IsInvolutionUpToScale) {
  // Applying the transform twice restores the original vector.
  Dataset data(1, 3);
  const float a[3] = {1.0f, -2.0f, 0.5f};
  data.SetRow(0, a);
  const Dataset twice = MobiusTransform(MobiusTransform(data));
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(twice.Row(0)[d], a[d], 1e-5f);
  }
}

TEST(Mips, MobiusGraphReachesGoodRecall) {
  const size_t n = 3000, dim = 24, nq = 30;
  Dataset items(n, dim);
  Dataset users(nq, dim);
  RandomEngine rng(17);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    const float boost = static_cast<float>(0.5 + 2.0 * rng.NextUniform());
    for (auto& v : row) v = static_cast<float>(rng.NextGaussian()) * boost;
    items.SetRow(static_cast<idx_t>(i), row.data());
  }
  for (size_t i = 0; i < nq; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.NextGaussian());
    users.SetRow(static_cast<idx_t>(i), row.data());
  }
  FlatIndex flat(&items, Metric::kInnerProduct);
  const auto truth = FlatIndex::Ids(flat.BatchSearch(users, 10, 1));

  const Dataset mobius = MobiusTransform(items);
  NswBuildOptions build;
  build.num_threads = 1;
  const FixedDegreeGraph graph = NswBuilder::Build(mobius, Metric::kL2,
                                                   build);
  SongSearcher searcher(&items, &graph, Metric::kInnerProduct);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 128;
  SongWorkspace ws;
  std::vector<std::vector<idx_t>> ids(nq);
  for (size_t q = 0; q < nq; ++q) {
    const auto found =
        searcher.TrySearch(users.Row(static_cast<idx_t>(q)), 10, options, &ws)
            .value();
    for (const Neighbor& n : found) ids[q].push_back(n.id);
  }
  EXPECT_GE(MeanRecallAtK(ids, truth, 10), 0.7);
}

}  // namespace
}  // namespace song
