// Deadline / cost-budget degradation tests: budgets off must be a strict
// no-op (bit-identical results), deterministic cost budgets must degrade
// gracefully (valid best-so-far top-k, degraded flag, stats counter), and
// the batch layer must surface per-query degradation plus the
// song.search.degraded metric.

#include <cmath>
#include <vector>

#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "song/batch_engine.h"
#include "song/song_searcher.h"

namespace song {
namespace {

struct DeadlineFixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;

  static const DeadlineFixture& Get() {
    static DeadlineFixture* f = [] {
      auto* fx = new DeadlineFixture();
      SyntheticSpec spec;
      spec.name = "deadline";
      spec.dim = 24;
      spec.num_points = 3000;
      spec.num_queries = 20;
      spec.num_clusters = 8;
      spec.seed = 4242;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      NswBuildOptions nsw;
      nsw.degree = 12;
      nsw.num_threads = 1;
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, nsw);
      return fx;
    }();
    return *f;
  }
};

bool SameResults(const std::vector<Neighbor>& a,
                 const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].dist != b[i].dist) return false;
  }
  return true;
}

TEST(DeadlineBudget, DisabledBudgetsAreBitIdentical) {
  const DeadlineFixture& fx = DeadlineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions plain;
  plain.queue_size = 64;
  SongSearchOptions zeroed = plain;
  zeroed.deadline_us = 0;
  zeroed.cost_budget = 0;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    bool degraded = true;
    SongWorkspace ws;
    const auto base =
        searcher
            .TrySearch(fx.queries.Row(static_cast<idx_t>(q)), 10, plain, &ws,
                       nullptr, nullptr, &degraded)
            .value();
    const auto budgeted =
        searcher
            .TrySearch(fx.queries.Row(static_cast<idx_t>(q)), 10, zeroed, &ws)
            .value();
    EXPECT_TRUE(SameResults(base, budgeted)) << "query " << q;
    EXPECT_FALSE(degraded) << "query " << q;  // no budget -> never degraded
  }
}

TEST(DeadlineBudget, GenerousBudgetsDoNotChangeResults) {
  const DeadlineFixture& fx = DeadlineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions plain;
  plain.queue_size = 64;
  SongSearchOptions generous = plain;
  generous.cost_budget = 1ull << 40;  // effectively unlimited, but checked
  SearchStats stats;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    bool degraded = true;
    SongWorkspace ws;
    const auto base =
        searcher
            .TrySearch(fx.queries.Row(static_cast<idx_t>(q)), 10, plain, &ws)
            .value();
    const auto budgeted =
        searcher
            .TrySearch(fx.queries.Row(static_cast<idx_t>(q)), 10, generous,
                       &ws, &stats, nullptr, &degraded)
            .value();
    EXPECT_TRUE(SameResults(base, budgeted)) << "query " << q;
    EXPECT_FALSE(degraded) << "query " << q;
  }
  EXPECT_EQ(stats.budget_terminations, 0u);
}

TEST(DeadlineBudget, TinyCostBudgetDegradesButStaysValid) {
  const DeadlineFixture& fx = DeadlineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  options.cost_budget = 1;  // one distance computation, then stop
  SearchStats stats;
  size_t degraded_count = 0;
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    bool degraded = false;
    SongWorkspace ws;
    const auto result =
        searcher
            .TrySearch(fx.queries.Row(static_cast<idx_t>(q)), 10, options,
                       &ws, &stats, nullptr, &degraded)
            .value();
    if (degraded) ++degraded_count;
    // Best-so-far results are still well-formed: sorted, ids in range.
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_LT(result[i].id, fx.data.num());
      if (i > 0) EXPECT_LE(result[i - 1].dist, result[i].dist);
    }
    EXPECT_LE(result.size(), 10u);
  }
  // A 3000-point graph cannot converge in one distance computation.
  EXPECT_EQ(degraded_count, fx.queries.num());
  EXPECT_EQ(stats.budget_terminations, fx.queries.num());
}

TEST(DeadlineBudget, CostBudgetIsDeterministic) {
  const DeadlineFixture& fx = DeadlineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  options.cost_budget = 200;
  for (size_t q = 0; q < 5; ++q) {
    SongWorkspace ws;
    bool degraded_a = false, degraded_b = false;
    const float* query = fx.queries.Row(static_cast<idx_t>(q));
    const auto a = searcher
                       .TrySearch(query, 10, options, &ws, nullptr, nullptr,
                                  &degraded_a)
                       .value();
    const auto b = searcher
                       .TrySearch(query, 10, options, &ws, nullptr, nullptr,
                                  &degraded_b)
                       .value();
    EXPECT_TRUE(SameResults(a, b)) << "query " << q;
    EXPECT_EQ(degraded_a, degraded_b) << "query " << q;
  }
}

TEST(DeadlineBudget, WallClockDeadlineTerminates) {
  const DeadlineFixture& fx = DeadlineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 4096;  // make the un-budgeted search do real work
  options.deadline_us = 1;    // expires essentially immediately
  SongWorkspace ws;
  bool degraded = false;
  SearchStats stats;
  const auto result = searcher
                          .TrySearch(fx.queries.Row(0), 10, options, &ws,
                                     &stats, nullptr, &degraded)
                          .value();
  // The first iteration may finish under 1us on a fast machine, but the
  // search must terminate promptly and report consistently either way.
  EXPECT_EQ(degraded, stats.budget_terminations == 1);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].dist, result[i].dist);
  }
}

TEST(DeadlineBudget, BatchSurfacesDegradedQueriesAndMetric) {
  const DeadlineFixture& fx = DeadlineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 2);
  SongSearchOptions options;
  options.queue_size = 64;
  options.cost_budget = 1;
  obs::MetricsRegistry registry;
  BatchTelemetry telemetry;
  telemetry.registry = &registry;
  StatusOr<BatchResult> batch =
      engine.TrySearch(fx.queries, 10, options, telemetry);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries_degraded, fx.queries.num());
  ASSERT_EQ(batch->degraded.size(), fx.queries.num());
  for (const uint8_t d : batch->degraded) EXPECT_EQ(d, 1);
  EXPECT_EQ(batch->stats.budget_terminations, fx.queries.num());
  EXPECT_EQ(registry.GetCounter("song.search.degraded").Value(),
            fx.queries.num());
}

TEST(DeadlineBudget, BatchWithoutBudgetsReportsNoDegradation) {
  const DeadlineFixture& fx = DeadlineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 2);
  SongSearchOptions options;
  options.queue_size = 64;
  const BatchResult batch = engine.TrySearch(fx.queries, 10, options).value();
  EXPECT_EQ(batch.queries_degraded, 0u);
  EXPECT_EQ(batch.queries_rejected, 0u);
  EXPECT_EQ(batch.stats.budget_terminations, 0u);
}

}  // namespace
}  // namespace song
