// Fault-tolerance tests for the sharded deployment: transient shard faults
// must be absorbed by retries with no result change, a permanently dead
// shard must degrade to a partial merge over the survivors (with coverage
// accounting and recall against the surviving data), a fully dead fleet
// must surface kUnavailable instead of fabricating results, and a request
// validation refuses must be turned away before any shard is attempted.

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "core/fault_injection.h"
#include "data/synthetic.h"
#include "gpusim/sharded.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace song {
namespace {

struct ShardFaultFixture {
  Dataset data;
  Dataset queries;

  static const ShardFaultFixture& Get() {
    static ShardFaultFixture* f = [] {
      auto* fx = new ShardFaultFixture();
      SyntheticSpec spec;
      spec.name = "shard_faults";
      spec.dim = 24;
      spec.num_points = 3000;
      spec.num_queries = 16;
      spec.num_clusters = 9;
      spec.seed = 909;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      return fx;
    }();
    return *f;
  }
};

ShardedSongIndex MakeIndex(const ShardFaultFixture& fx, size_t num_shards) {
  ShardedBuildOptions options;
  options.num_shards = num_shards;
  options.nsw.degree = 10;
  options.num_threads = 1;
  return ShardedSongIndex(&fx.data, Metric::kL2, options);
}

SongSearchOptions SearchOptions() {
  SongSearchOptions search = SongSearchOptions::HashTableSelDel();
  search.queue_size = 64;
  return search;
}

bool SameMergedResults(const ShardedSearchResult& a,
                       const ShardedSearchResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t q = 0; q < a.results.size(); ++q) {
    if (a.results[q].size() != b.results[q].size()) return false;
    for (size_t i = 0; i < a.results[q].size(); ++i) {
      if (a.results[q][i].id != b.results[q][i].id ||
          a.results[q][i].dist != b.results[q][i].dist) {
        return false;
      }
    }
  }
  return true;
}

TEST(ShardedFaults, NoFaultTrySearchMatchesPerShardTrySearch) {
  // Neutralize any ambient spec (e.g. the CI fault-injection leg) so the
  // equality below is exact: both paths run fault-free.
  fault::ScopedFaultSpec clean("", 0);
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 3);
  const SongSearchOptions search = SearchOptions();
  const auto checked =
      index.TrySearch(fx.queries, 10, search, ShardedResilienceOptions{}, 1);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_FALSE(checked->degraded);
  EXPECT_EQ(checked->shards_answered, checked->shards_total);
  EXPECT_DOUBLE_EQ(checked->Coverage(), 1.0);
  for (const uint32_t r : checked->shard_retries) EXPECT_EQ(r, 0u);

  // Reference: each shard searched query by query through its own
  // SongSearcher::TrySearch on a fresh workspace, local ids offset to the
  // contiguous global range, merged and cut to k.
  std::vector<std::vector<Neighbor>> expected(fx.queries.num());
  idx_t offset = 0;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const SongSearcher shard(&index.shard_data(s), &index.shard_graph(s),
                             Metric::kL2);
    for (size_t q = 0; q < fx.queries.num(); ++q) {
      SongWorkspace fresh;
      const auto found = shard.TrySearch(
          fx.queries.Row(static_cast<idx_t>(q)), 10, search, &fresh);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      for (const Neighbor& n : *found) {
        expected[q].emplace_back(n.dist, n.id + offset);
      }
    }
    offset += static_cast<idx_t>(index.shard_data(s).num());
  }
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    std::sort(expected[q].begin(), expected[q].end());
    if (expected[q].size() > 10) expected[q].resize(10);
    ASSERT_EQ(checked->results[q].size(), expected[q].size()) << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(checked->results[q][i].id, expected[q][i].id) << q;
      EXPECT_EQ(checked->results[q][i].dist, expected[q][i].dist) << q;
    }
  }
}

TEST(ShardedFaults, TransientFaultIsRetriedWithoutResultChange) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 3);
  const SongSearchOptions search = SearchOptions();

  ShardedSearchResult baseline;
  {
    fault::ScopedFaultSpec clean("", 0);
    baseline = index.TrySearch(fx.queries, 10, search, {}, 1).value();
  }

  // shard0's kernel fails exactly once; the retry succeeds deterministically.
  fault::ScopedFaultSpec scoped("shard0.kernel=1@1", 99);
  ASSERT_TRUE(scoped.status().ok());
  obs::MetricsRegistry registry;
  ShardedResilienceOptions resilience;
  resilience.registry = &registry;
  const auto result = index.TrySearch(fx.queries, 10, search, resilience, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameMergedResults(baseline, *result));
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(result->shards_answered, 3u);
  ASSERT_EQ(result->shard_retries.size(), 3u);
  EXPECT_EQ(result->shard_retries[0], 1u);
  EXPECT_EQ(result->shard_retries[1], 0u);
  EXPECT_EQ(result->shard_retries[2], 0u);
  EXPECT_EQ(registry.GetCounter("song.shard.retries").Value(), 1u);
}

TEST(ShardedFaults, DeadShardDegradesToPartialMerge) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 3);
  const SongSearchOptions search = SearchOptions();

  // shard1 fails on every attempt: retries exhaust, partial merge kicks in.
  fault::ScopedFaultSpec scoped("shard1.kernel=1", 7);
  ASSERT_TRUE(scoped.status().ok());
  obs::MetricsRegistry registry;
  ShardedResilienceOptions resilience;
  resilience.registry = &registry;
  const auto result = index.TrySearch(fx.queries, 10, search, resilience, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->shards_total, 3u);
  EXPECT_EQ(result->shards_answered, 2u);
  EXPECT_NEAR(result->Coverage(), 2.0 / 3.0, 1e-12);
  ASSERT_EQ(result->shard_ok.size(), 3u);
  EXPECT_EQ(result->shard_ok[0], 1);
  EXPECT_EQ(result->shard_ok[1], 0);
  EXPECT_EQ(result->shard_ok[2], 1);
  EXPECT_EQ(registry.GetCounter("song.shard.failures").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("song.search.degraded").Value(),
            fx.queries.num());

  // The dead shard's rows may not appear, and the survivors' merge must
  // stay ranked, deduped, and in global-id range.
  const size_t dead_begin = index.shard_data(0).num();
  const size_t dead_end = dead_begin + index.shard_data(1).num();
  for (const auto& neighbors : result->results) {
    EXPECT_FALSE(neighbors.empty());
    std::set<idx_t> ids;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_LT(neighbors[i].id, fx.data.num());
      EXPECT_FALSE(neighbors[i].id >= dead_begin && neighbors[i].id < dead_end)
          << "id " << neighbors[i].id << " came from the dead shard";
      ids.insert(neighbors[i].id);
      if (i > 0) EXPECT_LE(neighbors[i - 1].dist, neighbors[i].dist);
    }
    EXPECT_EQ(ids.size(), neighbors.size());
  }
}

TEST(ShardedFaults, PartialMergeEqualsMergeOfSurvivors) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 3);
  const SongSearchOptions search = SearchOptions();

  ShardedSearchResult full;
  {
    fault::ScopedFaultSpec clean("", 0);
    full = index.TrySearch(fx.queries, 10, search, {}, 1).value();
  }
  fault::ScopedFaultSpec scoped("shard2.kernel=1", 13);
  ASSERT_TRUE(scoped.status().ok());
  const auto partial =
      index.TrySearch(fx.queries, 10, search, ShardedResilienceOptions{}, 1);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(partial->degraded);

  // Dropping shard2 must equal filtering shard2's rows out of the healthy
  // merge and re-taking the top-k — the per-shard searches are independent.
  const size_t dead_begin =
      index.shard_data(0).num() + index.shard_data(1).num();
  for (size_t q = 0; q < full.results.size(); ++q) {
    std::vector<Neighbor> expected;
    for (const Neighbor& n : full.results[q]) {
      if (n.id < dead_begin) expected.push_back(n);
    }
    // The healthy merge only kept k overall, so the filtered list is a
    // prefix-compatible subset: every expected entry must appear in the
    // partial results in the same order.
    ASSERT_GE(partial->results[q].size(), expected.size()) << "query " << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(partial->results[q][i].id, expected[i].id) << "query " << q;
      EXPECT_EQ(partial->results[q][i].dist, expected[i].dist)
          << "query " << q;
    }
  }
}

TEST(ShardedFaults, AllShardsDeadIsUnavailable) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 2);
  fault::ScopedFaultSpec scoped("shard*.kernel=1", 3);
  ASSERT_TRUE(scoped.status().ok());
  const auto result = index.TrySearch(fx.queries, 10, SearchOptions(),
                                      ShardedResilienceOptions{}, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(ShardedFaults, StrictModeEscalatesSingleShardFailure) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 3);
  fault::ScopedFaultSpec scoped("shard1.dtoh=1", 5);
  ASSERT_TRUE(scoped.status().ok());
  ShardedResilienceOptions strict;
  strict.allow_partial = false;
  const auto result =
      index.TrySearch(fx.queries, 10, SearchOptions(), strict, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(ShardedFaults, DimMismatchIsInvalidArgument) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 2);
  Dataset wrong(2, fx.data.dim() + 3);
  const auto result = index.TrySearch(wrong, 10, SearchOptions(),
                                      ShardedResilienceOptions{}, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// Sends a request that validation must refuse, with every shard's result
/// download armed to fail: any shard attempt that ran its queries would
/// trip that site. The refusal must come back with no fault fired, no
/// retry counted and one rejected flight-recorder record.
void ExpectRefusedBeforeAnyShard(const Dataset& queries,
                                 const SongSearchOptions& options,
                                 StatusCode want) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  const ShardedSongIndex index = MakeIndex(fx, 2);
  fault::ScopedFaultSpec scoped("shard*.dtoh=1", 17);
  ASSERT_TRUE(scoped.status().ok());
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(4);
  ShardedResilienceOptions resilience;
  resilience.registry = &registry;
  resilience.flight_recorder = &recorder;
  const auto result = index.TrySearch(queries, 10, options, resilience, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), want) << result.status().ToString();
  EXPECT_EQ(fault::FaultRegistry::Global().injected_total(), 0u);
  EXPECT_EQ(registry.GetCounter("song.shard.retries").Value(), 0u);
  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].code(), want);
  EXPECT_EQ(records[0].rejected, 1u);
  EXPECT_EQ(records[0].shards_answered, 0u);
  EXPECT_EQ(records[0].shards_total, 2u);
}

TEST(ShardedFaults, QuantizedSearchIsRefusedBeforeAnyShard) {
  // No shard carries a PQ codebook.
  SongSearchOptions options = SearchOptions();
  options.quant = QuantizationMode::kPq;
  ExpectRefusedBeforeAnyShard(ShardFaultFixture::Get().queries, options,
                              StatusCode::kFailedPrecondition);
}

TEST(ShardedFaults, NanQueryIsRefusedBeforeAnyShard) {
  const ShardFaultFixture& fx = ShardFaultFixture::Get();
  Dataset queries(2, fx.queries.dim());
  queries.SetRow(0, fx.queries.Row(0));
  std::vector<float> bad(fx.queries.Row(1),
                         fx.queries.Row(1) + fx.queries.dim());
  bad[3] = std::numeric_limits<float>::quiet_NaN();
  queries.SetRow(1, bad.data());
  ExpectRefusedBeforeAnyShard(queries, SearchOptions(),
                              StatusCode::kInvalidArgument);
}

TEST(ShardedFaults, OversizedQueueIsRefusedBeforeAnyShard) {
  SongSearchOptions options = SearchOptions();
  options.queue_size = SongSearcher::kMaxQueueSize + 1;
  ExpectRefusedBeforeAnyShard(ShardFaultFixture::Get().queries, options,
                              StatusCode::kResourceExhausted);
}

TEST(ShardedFaults, ZeroMultiStepProbeIsRefusedBeforeAnyShard) {
  SongSearchOptions options = SearchOptions();
  options.multi_step_probe = 0;
  ExpectRefusedBeforeAnyShard(ShardFaultFixture::Get().queries, options,
                              StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace song
