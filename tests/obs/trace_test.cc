// Unit tests for per-query search traces: deterministic sampling, collector
// cap semantics, and agreement between a trace's per-iteration rows and the
// search's aggregate counters.

#include "obs/trace.h"

#include <cstdint>
#include <vector>

#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "song/song_searcher.h"

namespace song {
namespace {

TEST(TraceSampler, PeriodZeroNeverSamples) {
  const obs::TraceSampler sampler(0, 123);
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_FALSE(sampler.ShouldSample(id));
  }
}

TEST(TraceSampler, PeriodOneAlwaysSamples) {
  const obs::TraceSampler sampler(1, 123);
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_TRUE(sampler.ShouldSample(id));
  }
}

// The sampler must be a pure function of (seed, period, id): two instances
// with the same parameters agree on every decision, so repeated runs trace
// the same queries regardless of thread scheduling.
TEST(TraceSampler, DeterministicAcrossInstances) {
  const obs::TraceSampler a(100, 0x534f4e47);
  const obs::TraceSampler b(100, 0x534f4e47);
  const obs::TraceSampler other_seed(100, 0xdeadbeef);
  size_t agree_other = 0;
  for (uint64_t id = 0; id < 100000; ++id) {
    ASSERT_EQ(a.ShouldSample(id), b.ShouldSample(id)) << id;
    if (a.ShouldSample(id) == other_seed.ShouldSample(id)) ++agree_other;
  }
  // A different seed picks a different (but equally sized) sample; if the
  // seeds agreed on every decision the seed would be dead configuration.
  EXPECT_LT(agree_other, 100000u);
}

TEST(TraceSampler, SampleRateNearOneInM) {
  const uint32_t period = 100;
  const uint64_t n = 100000;
  const obs::TraceSampler sampler(period, 0x534f4e47);
  size_t sampled = 0;
  for (uint64_t id = 0; id < n; ++id) {
    if (sampler.ShouldSample(id)) ++sampled;
  }
  // Binomial(100000, 1/100): mean 1000, sigma ~31.5; +/- 6 sigma.
  EXPECT_GT(sampled, 800u);
  EXPECT_LT(sampled, 1200u);
}

TEST(TraceCollector, CapsAndCountsDropped) {
  obs::TraceCollector collector(/*max_traces=*/2);
  for (uint64_t id = 0; id < 5; ++id) {
    obs::SearchTrace t;
    t.query_id = id;
    collector.Add(std::move(t));
  }
  EXPECT_EQ(collector.dropped(), 3u);
  const auto traces = collector.Take();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].query_id, 0u);
  EXPECT_EQ(traces[1].query_id, 1u);
}

// A traced search's per-iteration deltas must telescope to exactly the
// aggregate SearchStats the same search reports: every counted unit of work
// appears in exactly one row.
TEST(SearchTrace, RowsTelescopeToSearchStats) {
  SyntheticSpec spec;
  spec.name = "trace-test";
  spec.dim = 16;
  spec.num_points = 1200;
  spec.num_queries = 8;
  spec.num_clusters = 6;
  spec.seed = 99;
  const SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.degree = 12;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph = NswBuilder::Build(gen.points, Metric::kL2,
                                                   nsw);
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongWorkspace ws;

  for (const SongSearchOptions& options :
       {SongSearchOptions::HashTable(), SongSearchOptions::HashTableSelDel(),
        SongSearchOptions::Bloom()}) {
    for (size_t q = 0; q < gen.queries.num(); ++q) {
      SearchStats stats;
      obs::SearchTrace trace;
      ASSERT_TRUE(searcher
                      .TrySearch(gen.queries.Row(static_cast<idx_t>(q)), 10,
                                 options, &ws, &stats, &trace)
                      .ok());

      // Row 0 is entry init; rows 1..n are the loop iterations.
      ASSERT_EQ(trace.Hops(), stats.iterations);
      EXPECT_EQ(trace.k, 10u);
      EXPECT_EQ(trace.config, options.Name());

      size_t rows_loaded = 0, q_pops = 0, tests = 0, dist_comps = 0;
      size_t heap_pushes = 0, topk_ops = 0, inserts = 0, deletes = 0;
      for (const obs::TraceIterationRow& row : trace.rows) {
        rows_loaded += row.rows_loaded;
        q_pops += row.q_pops;
        tests += row.visited_tests;
        dist_comps += row.dist_comps;
        heap_pushes += row.heap_pushes;
        topk_ops += row.topk_ops;
        inserts += row.visited_inserts;
        deletes += row.visited_deletes;
      }
      EXPECT_EQ(rows_loaded, stats.graph_rows_loaded);
      EXPECT_EQ(q_pops, stats.q_pops);
      EXPECT_EQ(tests, stats.visited_tests);
      EXPECT_EQ(dist_comps, stats.distance_computations);
      EXPECT_EQ(heap_pushes, stats.q_pushes + stats.q_evictions);
      EXPECT_EQ(topk_ops, stats.topk_pushes + stats.topk_evictions);
      EXPECT_EQ(inserts, stats.visited_insertions);
      EXPECT_EQ(deletes, stats.visited_deletions);
      EXPECT_EQ(trace.DistanceComputations(), stats.distance_computations);
    }
  }
}

}  // namespace
}  // namespace song
