// Tests for the lane-level SIMT executor: warp reductions must equal the
// scalar kernels, the warp probe must behave like linear probing, coalesced
// sector accounting must match the access footprint, and the full
// warp-executed SONG kernel must agree with the host-side searcher.

#include <cmath>
#include <random>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "gpusim/simt_kernel.h"
#include "gpusim/simt_warp.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "song/song_searcher.h"

namespace song {
namespace {

// ---- CycleCounter ----

TEST(CycleCounter, CoalescedLoadCountsUniqueSectors) {
  CycleCounter c(GpuSpec::V100());
  // 128 contiguous bytes starting sector-aligned: exactly 4 sectors.
  alignas(64) static float buffer[64];
  c.GlobalLoad(reinterpret_cast<uintptr_t>(buffer), 128);
  EXPECT_EQ(c.global_sectors(), 4u);
  EXPECT_EQ(c.global_transactions(), 1u);
  EXPECT_EQ(c.GlobalBytes(), 128u);
}

TEST(CycleCounter, MisalignedLoadTouchesExtraSector) {
  CycleCounter c(GpuSpec::V100());
  alignas(64) static float buffer[64];
  c.GlobalLoad(reinterpret_cast<uintptr_t>(buffer) + 4, 128);
  EXPECT_EQ(c.global_sectors(), 5u);
}

TEST(CycleCounter, TotalCyclesReflectsLatencies) {
  const GpuSpec spec = GpuSpec::V100();
  CycleCounter c(spec);
  c.SharedAccess(2);
  c.Fma(10);
  alignas(64) static float buffer[8];
  c.GlobalLoad(reinterpret_cast<uintptr_t>(buffer), 4);
  EXPECT_DOUBLE_EQ(c.TotalCycles(), 10.0 + 2.0 * spec.shared_latency_cycles +
                                        spec.global_latency_cycles);
}

TEST(CycleCounter, ResetClears) {
  CycleCounter c(GpuSpec::V100());
  c.Alu(5);
  c.Reset();
  EXPECT_DOUBLE_EQ(c.TotalCycles(), 0.0);
}

// ---- Warp reductions ----

class WarpReduceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WarpReduceTest, L2MatchesScalarKernel) {
  const size_t dim = GetParam();
  std::mt19937 rng(static_cast<uint32_t>(dim));
  std::normal_distribution<float> d;
  std::vector<float> a(dim), b(dim);
  for (size_t i = 0; i < dim; ++i) {
    a[i] = d(rng);
    b[i] = d(rng);
  }
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  const float got = warp.ReduceL2(a.data(), b.data(), dim);
  const float expect = L2Sqr(a.data(), b.data(), dim);
  EXPECT_NEAR(got, expect, 1e-3f * (1.0f + std::fabs(expect)));
  EXPECT_GT(counter.fma_ops(), 0u);
  EXPECT_GT(counter.shfl_ops(), 0u);
  EXPECT_GE(counter.GlobalBytes(), dim * sizeof(float));
}

TEST_P(WarpReduceTest, InnerProductMatchesScalarKernel) {
  const size_t dim = GetParam();
  std::mt19937 rng(static_cast<uint32_t>(dim) + 7);
  std::normal_distribution<float> d;
  std::vector<float> a(dim), b(dim);
  for (size_t i = 0; i < dim; ++i) {
    a[i] = d(rng);
    b[i] = d(rng);
  }
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  const float got = warp.ReduceInnerProduct(a.data(), b.data(), dim);
  const float expect = InnerProduct(a.data(), b.data(), dim);
  EXPECT_NEAR(got, expect, 1e-3f * (1.0f + std::fabs(expect)));
}

INSTANTIATE_TEST_SUITE_P(Dims, WarpReduceTest,
                         ::testing::Values(1, 7, 31, 32, 33, 64, 128, 200,
                                           784, 960));

TEST(WarpReduce, NarrowLanesForMultiQuery) {
  // 32/4 = 8 lanes must still produce the exact distance.
  const size_t dim = 128;
  std::vector<float> a(dim, 1.0f), b(dim, 3.0f);
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  EXPECT_NEAR(warp.ReduceL2(a.data(), b.data(), dim, 8),
              L2Sqr(a.data(), b.data(), dim), 1e-2f);
}

TEST(WarpReduce, NarrowLanesCostMoreFma) {
  const size_t dim = 128;
  std::vector<float> a(dim, 1.0f), b(dim, 2.0f);
  CycleCounter full(GpuSpec::V100()), narrow(GpuSpec::V100());
  SimtWarp full_warp(&full), narrow_warp(&narrow);
  full_warp.ReduceL2(a.data(), b.data(), dim, 32);
  narrow_warp.ReduceL2(a.data(), b.data(), dim, 8);
  EXPECT_GT(narrow.fma_ops(), full.fma_ops());
}

TEST(WarpReduce, ShflDownSumExact) {
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  std::array<float, 32> values{};
  float expect = 0.0f;
  for (size_t i = 0; i < 32; ++i) {
    values[i] = static_cast<float>(i + 1);
    expect += values[i];
  }
  EXPECT_FLOAT_EQ(warp.ShflDownSum(values), expect);
  EXPECT_EQ(counter.shfl_ops(), 5u);  // log2(32) levels
}

// ---- Warp probe ----

TEST(WarpProbe, FindsKeyAndEmpty) {
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  std::vector<idx_t> slots(64, kInvalidIdx);
  // Linear-probing layout: keys sit in a contiguous run from their probe
  // start (a probe stops at the first empty slot).
  slots[0] = 10;
  slots[1] = 11;
  slots[2] = 42;
  // Key present: lands on its slot.
  EXPECT_EQ(warp.ParallelProbe(slots.data(), slots.size(), 0, 42,
                               kInvalidIdx),
            2u);
  // Key absent: stops at the first empty slot after the run.
  EXPECT_EQ(warp.ParallelProbe(slots.data(), slots.size(), 0, 99,
                               kInvalidIdx),
            3u);
}

TEST(WarpProbe, WrapsAroundTable) {
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  std::vector<idx_t> slots(64, 1);  // all occupied by key 1
  slots[2] = kInvalidIdx;
  EXPECT_EQ(warp.ParallelProbe(slots.data(), slots.size(), 60, 7,
                               kInvalidIdx),
            2u);
}

TEST(WarpProbe, FullTableWithoutKeyReturnsSlotCount) {
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  std::vector<idx_t> slots(64, 1);
  EXPECT_EQ(warp.ParallelProbe(slots.data(), slots.size(), 0, 7,
                               kInvalidIdx),
            64u);
}

TEST(WarpProbe, InsertProbeReusesTombstoneBeforeEmptyOnly) {
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  const idx_t kEmpty = kInvalidIdx;
  const idx_t kTomb = kInvalidIdx - 1;
  // Probe order from 0: [tomb, occupied, empty, ...]: insert must land on
  // the tombstone (slot 0), not the empty.
  std::vector<idx_t> slots(64, kEmpty);
  slots[0] = kTomb;
  slots[1] = 7;
  auto r = warp.ParallelProbeInsert(slots.data(), slots.size(), 0, 9, kEmpty,
                                    kTomb);
  EXPECT_FALSE(r.found_key);
  EXPECT_EQ(r.insert_slot, 0u);
  // Key before the empty is found.
  r = warp.ParallelProbeInsert(slots.data(), slots.size(), 0, 7, kEmpty,
                               kTomb);
  EXPECT_TRUE(r.found_key);
  EXPECT_EQ(r.insert_slot, 1u);
  // A tombstone BEYOND the stopping empty must not be used: probe from 2.
  slots[5] = kTomb;
  r = warp.ParallelProbeInsert(slots.data(), slots.size(), 2, 9, kEmpty,
                               kTomb);
  EXPECT_EQ(r.insert_slot, 2u);  // the empty, not slot 5's tombstone
}

TEST(WarpProbe, FuzzInsertTestEraseAgainstOracle) {
  // The §IV-E workload: bounded insert/erase churn. The warp-probed slot
  // array must agree with a std::set at every step (this caught a real
  // wraparound bug during development).
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  const idx_t kEmpty = kInvalidIdx;
  const idx_t kTomb = kInvalidIdx - 1;
  std::vector<idx_t> slots(512, kEmpty);
  std::set<idx_t> oracle;
  std::mt19937 rng(99);
  auto home = [&](idx_t key) {
    uint64_t x = key;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return static_cast<size_t>(x) & (slots.size() - 1);
  };
  for (int op = 0; op < 100000; ++op) {
    const idx_t key = rng() % 2000;
    const int action = rng() % 3;
    if (action == 0 && oracle.size() < 192) {
      const auto r = warp.ParallelProbeInsert(slots.data(), slots.size(),
                                              home(key), key, kEmpty, kTomb);
      const bool oracle_inserted = oracle.insert(key).second;
      ASSERT_EQ(!r.found_key, oracle_inserted) << "op " << op;
      if (!r.found_key) {
        ASSERT_LT(r.insert_slot, slots.size());
        slots[r.insert_slot] = key;
      }
    } else if (action == 1) {
      const size_t pos = warp.ParallelProbe(slots.data(), slots.size(),
                                            home(key), key, kEmpty);
      const bool present = pos < slots.size() && slots[pos] == key;
      ASSERT_EQ(present, oracle.count(key) > 0) << "op " << op;
      if (present) {
        slots[pos] = kTomb;
        oracle.erase(key);
      }
    } else {
      const size_t pos = warp.ParallelProbe(slots.data(), slots.size(),
                                            home(key), key, kEmpty);
      const bool present = pos < slots.size() && slots[pos] == key;
      ASSERT_EQ(present, oracle.count(key) > 0) << "op " << op << " key "
                                                << key;
    }
  }
}

TEST(WarpProbe, OneRoundCostsOneSharedAccess) {
  CycleCounter counter(GpuSpec::V100());
  SimtWarp warp(&counter);
  std::vector<idx_t> slots(64, kInvalidIdx);
  warp.ParallelProbe(slots.data(), slots.size(), 0, 9, kInvalidIdx);
  EXPECT_EQ(counter.shared_accesses(), 1u);  // hit in the first 32 slots
}

// ---- Full kernel vs host searcher ----

struct SimtFixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;
  std::vector<std::vector<idx_t>> gt10;

  static const SimtFixture& Get() {
    static SimtFixture* f = [] {
      auto* fx = new SimtFixture();
      SyntheticSpec spec;
      spec.name = "simt";
      spec.dim = 48;
      spec.num_points = 2000;
      spec.num_queries = 25;
      spec.num_clusters = 10;
      spec.cluster_std = 0.5;
      spec.seed = 777;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      NswBuildOptions nsw;
      nsw.num_threads = 1;
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, nsw);
      FlatIndex flat(&fx->data, Metric::kL2);
      fx->gt10 = FlatIndex::Ids(flat.BatchSearch(fx->queries, 10, 1));
      return fx;
    }();
    return *f;
  }
};

TEST(SimtSongKernel, DistancesMatchScalarExactlyPerId) {
  const SimtFixture& fx = SimtFixture::Get();
  SimtSongKernel kernel(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 48;
  const SimtKernelResult result = kernel.Search(fx.queries.Row(0), 10,
                                                options);
  ASSERT_FALSE(result.topk.empty());
  for (const Neighbor& n : result.topk) {
    const float expect =
        L2Sqr(fx.queries.Row(0), fx.data.Row(n.id), fx.data.dim());
    EXPECT_NEAR(n.dist, expect, 1e-3f * (1.0f + expect));
  }
}

TEST(SimtSongKernel, RecallMatchesHostSearcher) {
  const SimtFixture& fx = SimtFixture::Get();
  SimtSongKernel kernel(&fx.data, &fx.graph, Metric::kL2);
  SongSearcher host(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 64;
  std::vector<std::vector<idx_t>> warp_ids(fx.queries.num());
  std::vector<std::vector<idx_t>> host_ids(fx.queries.num());
  SongWorkspace ws;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const float* query = fx.queries.Row(static_cast<idx_t>(q));
    for (const Neighbor& n : kernel.Search(query, 10, options).topk) {
      warp_ids[q].push_back(n.id);
    }
    const std::vector<Neighbor> found =
        host.TrySearch(query, 10, options, &ws).value();
    for (const Neighbor& n : found) host_ids[q].push_back(n.id);
  }
  const double warp_recall = MeanRecallAtK(warp_ids, fx.gt10, 10);
  const double host_recall = MeanRecallAtK(host_ids, fx.gt10, 10);
  // Summation order differs (strided lanes vs unrolled scalar), so ties may
  // resolve differently; recall must agree closely.
  EXPECT_NEAR(warp_recall, host_recall, 0.03);
  EXPECT_GE(warp_recall, 0.85);
}

TEST(SimtSongKernel, StageCyclesArePositiveAndOrdered) {
  const SimtFixture& fx = SimtFixture::Get();
  SimtSongKernel kernel(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 64;
  const SimtKernelResult result = kernel.Search(fx.queries.Row(1), 10,
                                                options);
  EXPECT_GT(result.locate_cycles, 0.0);
  EXPECT_GT(result.distance_cycles, 0.0);
  EXPECT_GT(result.maintain_cycles, 0.0);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_GT(result.global_bytes,
            result.distance_computations * fx.data.dim() * sizeof(float) /
                2);
}

TEST(SimtSongKernel, MultiQueryNarrowsLanesAndRaisesDistanceCycles) {
  const SimtFixture& fx = SimtFixture::Get();
  SimtSongKernel kernel(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions one = SongSearchOptions::HashTableSelDel();
  one.queue_size = 64;
  SongSearchOptions four = one;
  four.multi_query = 4;
  const auto r1 = kernel.Search(fx.queries.Row(2), 10, one);
  const auto r4 = kernel.Search(fx.queries.Row(2), 10, four);
  const double per_dist_1 =
      r1.distance_cycles / static_cast<double>(r1.distance_computations);
  const double per_dist_4 =
      r4.distance_cycles / static_cast<double>(r4.distance_computations);
  EXPECT_GT(per_dist_4, per_dist_1);
}

TEST(SimtSongKernel, GistLikeDimsShiftCyclesTowardDistance) {
  // Same graph topology, fatter vectors -> distance share of the executed
  // cycles must grow (the Fig 10 GIST-vs-GloVe effect, here from the
  // executed instruction stream rather than the analytic model).
  SyntheticSpec narrow;
  narrow.dim = 64;
  narrow.num_points = 1500;
  narrow.num_queries = 5;
  narrow.num_clusters = 8;
  narrow.seed = 4242;
  SyntheticSpec wide = narrow;
  wide.dim = 768;
  auto share = [](const SyntheticSpec& spec) {
    SyntheticData gen = GenerateSynthetic(spec);
    NswBuildOptions nsw;
    nsw.num_threads = 1;
    const FixedDegreeGraph graph =
        NswBuilder::Build(gen.points, Metric::kL2, nsw);
    SimtSongKernel kernel(&gen.points, &graph, Metric::kL2);
    SongSearchOptions options = SongSearchOptions::HashTableSelDel();
    options.queue_size = 48;
    double dist = 0.0, total = 0.0;
    for (size_t q = 0; q < gen.queries.num(); ++q) {
      const auto r =
          kernel.Search(gen.queries.Row(static_cast<idx_t>(q)), 10, options);
      dist += r.distance_cycles;
      total += r.TotalCycles();
    }
    return dist / total;
  };
  EXPECT_GT(share(wide), share(narrow));
}

TEST(SimtSongKernel, VisitedDeletionKeepsTableSmallEnoughToStayCorrect) {
  const SimtFixture& fx = SimtFixture::Get();
  SimtSongKernel kernel(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 16;  // tiny table: 2*16+64 entries
  const auto result = kernel.Search(fx.queries.Row(3), 10, options);
  EXPECT_EQ(result.topk.size(), 10u);
  for (size_t i = 1; i < result.topk.size(); ++i) {
    EXPECT_LE(result.topk[i - 1].dist, result.topk[i].dist);
  }
}

}  // namespace
}  // namespace song
