// Snapshot isolation contract of the online index (ROADMAP open item 2):
// a reader that pins version N sees bit-identical results forever, while a
// writer concurrently publishes N+1, N+2, ...; a retired version is never
// freed while a reader pins it (exercised by actually reading through the
// pin, so ASan catches a premature free); with zero mutations the snapshot
// layer is a strict no-op over a plain SongSearcher — element-for-element,
// bit-for-bit. Also pins the MutableIndex Status error codes and the
// song.index.* metrics wiring.

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/random.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "song/index_snapshot.h"
#include "song/mutable_index.h"
#include "song/song_searcher.h"

namespace song {
namespace {

std::vector<float> RandomPoint(RandomEngine& rng, size_t dim) {
  std::vector<float> v(dim);
  for (size_t d = 0; d < dim; ++d) {
    v[d] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  if (v[0] == 0.0f) v[0] = 0.5f;
  return v;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

TEST(SnapshotIsolation, FrozenAdoptionIsStrictNoOpOverSongSearcher) {
  SyntheticSpec spec;
  spec.name = "frozen";
  spec.dim = 12;
  spec.num_points = 600;
  spec.num_queries = 25;
  spec.num_clusters = 6;
  spec.seed = 1234;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.degree = 12;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);

  MutableIndex index(Metric::kL2, spec.dim);
  ASSERT_TRUE(index
                  .AdoptFrozen(gen.points.CopyGrown(gen.points.num()),
                               graph.CopyGrown(graph.num_vertices()))
                  .ok());
  const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
  ASSERT_EQ(snapshot->tombstone_count(), 0u);
  EXPECT_EQ(snapshot->CompensatedK(7), 7u);

  const SongSearcher plain(&gen.points, &graph, Metric::kL2);
  SongWorkspace ws;
  const SongSearchOptions presets[] = {
      SongSearchOptions{}, SongSearchOptions::HashTableSelDel(),
      SongSearchOptions::CpuEngineered()};
  for (const SongSearchOptions& options : presets) {
    for (size_t q = 0; q < gen.queries.num(); ++q) {
      const float* query = gen.queries.Row(static_cast<idx_t>(q));
      const std::vector<Neighbor> via_snapshot =
          snapshot->TrySearch(query, 10, options, &ws).value();
      // The reference runs on a fresh workspace per query.
      SongWorkspace fresh;
      const std::vector<Neighbor> via_searcher =
          plain.TrySearch(query, 10, options, &fresh).value();
      ASSERT_TRUE(SameNeighbors(via_snapshot, via_searcher))
          << "frozen snapshot diverged from plain searcher at query " << q;
    }
  }
}

TEST(SnapshotIsolation, PinnedVersionIsImmutableAcrossWriterPublishes) {
  constexpr size_t kDim = 8;
  MutableIndex index(Metric::kL2, kDim);
  RandomEngine rng(2026);
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(index.Insert(RandomPoint(rng, kDim).data()).ok());
  }

  const std::shared_ptr<const IndexSnapshot> pinned = index.Acquire();
  const uint64_t pinned_version = pinned->version();
  SongWorkspace ws;
  SongSearchOptions options;
  options.queue_size = 32;
  std::vector<std::vector<float>> queries;
  std::vector<std::vector<Neighbor>> before;
  for (size_t q = 0; q < 10; ++q) {
    queries.push_back(RandomPoint(rng, kDim));
    before.push_back(
        pinned->TrySearch(queries.back().data(), 5, options, &ws).value());
    ASSERT_FALSE(before.back().empty());
  }

  // Writer keeps publishing: inserts, deletes (including of ids the pinned
  // readers are currently returning), more inserts.
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(index.Insert(RandomPoint(rng, kDim).data()).ok());
  }
  for (idx_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(index.Delete(id).ok());
  }
  ASSERT_GT(index.version(), pinned_version);

  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<Neighbor> after =
        pinned->TrySearch(queries[q].data(), 5, options, &ws).value();
    EXPECT_TRUE(SameNeighbors(before[q], after))
        << "pinned snapshot result drifted at query " << q;
    // The pinned view still considers every returned id live even though
    // the current version tombstoned ids [0, 32).
    for (const Neighbor& n : after) EXPECT_TRUE(pinned->IsLive(n.id));
  }
  const std::shared_ptr<const IndexSnapshot> current = index.Acquire();
  for (idx_t id = 0; id < 32; ++id) EXPECT_FALSE(current->IsLive(id));
}

TEST(SnapshotIsolation, RetiredVersionSurvivesWhilePinnedAndFreesAfter) {
  constexpr size_t kDim = 6;
  MutableIndex index(Metric::kL2, kDim);
  RandomEngine rng(31337);
  for (size_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(index.Insert(RandomPoint(rng, kDim).data()).ok());
  }

  std::shared_ptr<const IndexSnapshot> pinned = index.Acquire();
  const uint64_t pinned_version = pinned->version();
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(index.Insert(RandomPoint(rng, kDim).data()).ok());
    // Publish sweeps opportunistically, yet the pinned version must survive
    // every sweep...
    ASSERT_GE(index.retired_versions(), 1u);
  }
  // The first explicit sweep may free the final insert's predecessor (the
  // mutator's own stack reference kept it alive through its Publish sweep),
  // but repeated sweeps must never free the pinned version.
  index.ReclaimRetired();
  ASSERT_GE(index.retired_versions(), 1u);
  ASSERT_EQ(index.ReclaimRetired(), 0u)
      << "explicit sweep reclaimed a pinned snapshot";

  // ...and stay fully readable: touch its payload under ASan.
  SongWorkspace ws;
  SongSearchOptions options;
  EXPECT_EQ(pinned->version(), pinned_version);
  EXPECT_EQ(pinned->num_points(), 24u);
  const std::vector<float> q = RandomPoint(rng, kDim);
  const std::vector<Neighbor> got =
      pinned->TrySearch(q.data(), 3, options, &ws).value();
  ASSERT_FALSE(got.empty());
  for (const Neighbor& n : got) {
    EXPECT_TRUE(std::isfinite(pinned->data().Row(n.id)[0]));
  }

  pinned.reset();
  EXPECT_GT(index.ReclaimRetired(), 0u);
  EXPECT_EQ(index.retired_versions(), 0u);
}

TEST(SnapshotIsolation, StatusCodesOnInvalidMutations) {
  constexpr size_t kDim = 4;
  MutableIndex index(Metric::kL2, kDim);
  RandomEngine rng(5);

  EXPECT_EQ(index.Insert(nullptr).status().code(),
            StatusCode::kInvalidArgument);
  float bad[kDim] = {1.0f, std::numeric_limits<float>::quiet_NaN(), 0.0f,
                     0.0f};
  EXPECT_EQ(index.Insert(bad).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Delete(0).code(), StatusCode::kOutOfRange);

  const StatusOr<idx_t> id = index.Insert(RandomPoint(rng, kDim).data());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 0u);
  EXPECT_TRUE(index.Delete(id.value()).ok());
  EXPECT_EQ(index.Delete(id.value()).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.Delete(99).code(), StatusCode::kOutOfRange);

  // AdoptFrozen is only legal while the index is empty.
  Dataset data(2, kDim);
  const float row[kDim] = {1, 2, 3, 4};
  data.SetRow(0, row);
  data.SetRow(1, row);
  FixedDegreeGraph graph(2, 4);
  graph.AddNeighbor(0, 1);
  graph.AddNeighbor(1, 0);
  EXPECT_EQ(index.AdoptFrozen(std::move(data), std::move(graph)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotIsolation, MetricsTrackMutationsAndReclamation) {
  constexpr size_t kDim = 5;
  obs::MetricsRegistry registry;
  MutableIndex index(Metric::kL2, kDim, MutableIndexOptions{}, &registry);
  RandomEngine rng(99);

  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Insert(RandomPoint(rng, kDim).data()).ok());
  }
  ASSERT_TRUE(index.Delete(2).ok());
  ASSERT_TRUE(index.Delete(7).ok());
  index.ReclaimRetired();

  EXPECT_EQ(registry.GetCounter("song.index.inserts").Value(), 10u);
  EXPECT_EQ(registry.GetCounter("song.index.deletes").Value(), 2u);
  EXPECT_GT(registry.GetCounter("song.index.snapshots_reclaimed").Value(), 0u);
  EXPECT_EQ(registry.GetGauge("song.index.live_points").Value(), 8.0);
  EXPECT_EQ(registry.GetGauge("song.index.snapshot_versions").Value(),
            static_cast<double>(index.version()));
  EXPECT_EQ(registry.GetGauge("song.index.retired_snapshots").Value(), 0.0);
}

TEST(SnapshotIsolation, SearchCapsKAtLivePointsAndFiltersTombstones) {
  constexpr size_t kDim = 3;
  MutableIndex index(Metric::kL2, kDim);
  RandomEngine rng(7);
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(index.Insert(RandomPoint(rng, kDim).data()).ok());
  }
  for (idx_t id = 0; id < 6; ++id) {
    ASSERT_TRUE(index.Delete(id).ok());
  }

  const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
  EXPECT_EQ(snapshot->live_points(), 6u);
  EXPECT_EQ(snapshot->tombstone_count(), 6u);
  EXPECT_EQ(snapshot->CompensatedK(4), 10u);
  EXPECT_EQ(snapshot->CompensatedK(100), 12u);  // capped at num_points

  SongWorkspace ws;
  SongSearchOptions options;
  options.queue_size = 64;  // ample: reach everything
  const std::vector<float> q = RandomPoint(rng, kDim);
  // Ask for more neighbors than live points: served, capped, and free of
  // tombstones.
  const std::vector<Neighbor> got =
      snapshot->TrySearch(q.data(), 50, options, &ws).value();
  EXPECT_EQ(got.size(), 6u);
  for (const Neighbor& n : got) {
    EXPECT_TRUE(snapshot->IsLive(n.id));
    EXPECT_GE(n.id, 6u);
  }
}

TEST(SnapshotIsolation, QuantizedSearchIsRejectedWithFailedPrecondition) {
  // Snapshots never carry a PQ codebook (online inserts would race the
  // pinned encoder), so quantized traversal must be refused up front with a
  // clear Status — and the same snapshot must keep serving exact search.
  constexpr size_t kDim = 16;
  MutableIndex index(Metric::kL2, kDim);
  RandomEngine rng(31);
  for (size_t i = 0; i < 48; ++i) {
    ASSERT_TRUE(index.Insert(RandomPoint(rng, kDim).data()).ok());
  }
  const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();

  SongWorkspace ws;
  SongSearchOptions options;
  options.queue_size = 32;
  options.quant = QuantizationMode::kPq;
  const std::vector<float> q = RandomPoint(rng, kDim);
  const auto rejected = snapshot->TrySearch(q.data(), 5, options, &ws);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  // The message should steer the caller toward the static-index path.
  EXPECT_NE(rejected.status().message().find("PQ"), std::string::npos);

  options.quant = QuantizationMode::kNone;
  const auto served = snapshot->TrySearch(q.data(), 5, options, &ws);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().size(), 5u);
}

}  // namespace
}  // namespace song
