// batch-glove: offline batch search through BatchEngine on the glove200
// preset scaled to 50k points (about 40 MB of vectors, far beyond a core's
// L2), at one fixed queue size. No network and no mutation: only the search
// core, the distance kernels, the visited structures, the heaps and the
// engine pool are on the path. The set-up is deterministic in the seed, so
// every repetition rebuilds the same corpus and must answer identically.

#include <string>
#include <vector>

#include "common.h"
#include "song/batch_engine.h"
#include "song/song_searcher.h"

namespace perfbench {

namespace {

constexpr double kScale = 5.0;         // 10k-point preset -> 50k points
constexpr size_t kQueries = 2000;
// Recall@10 of about 0.96 on this preset (0.94 at 256, 0.96 at 384).
constexpr size_t kQueueSize = 384;
// Far under the 0.92-0.97 this workload reaches: trips on broken search
// only.
constexpr double kRecallFloor = 0.85;

}  // namespace

Outcome RunBatchGlove(const RunConfig& cfg, Tracer* tracer) {
  Outcome out;
  song::SyntheticSpec spec = song::PresetSpec("glove200", kScale);
  spec.num_queries = kQueries;
  song::SongSearchOptions options;
  options.queue_size = kQueueSize;

  std::vector<std::vector<song::idx_t>> reference;
  song::SearchStats reference_stats;
  double recall = 0.0;
  std::vector<double> pass_qps, latencies;
  double busy_us = 0.0, wall_us = 0.0, distances = 0.0;
  size_t threads = 0;
  uint64_t pass = 0;
  // A third of the measurement follows each set-up repetition.
  auto measure = [&](const Corpus& c, int rep) {
    const song::SongSearcher searcher(&c.data, &c.graph, c.metric,
                                      /*entry=*/0);
    const song::BatchEngine engine(&searcher, cfg.threads);
    threads = engine.num_threads();
    // Warm-up pass: fills caches. The first one's results are the reference
    // every timed pass, on every rebuilt corpus, must reproduce exactly.
    auto warm = engine.TrySearch(c.queries, kK, options);
    if (!warm.ok()) {
      out.Fail("warm-up batch: " + warm.status().ToString());
      return;
    }
    if (rep == 0) {
      reference = warm.value().Ids();
      reference_stats = warm.value().stats;
      recall = MeanRecall(reference, c.ground_truth);
    } else if (warm.value().Ids() != reference) {
      out.Fail("a rebuilt corpus returned different results");
    }
    const double start = NowUs();
    const double window_us = cfg.seconds * 1e6 / kSetupReps;
    for (bool first = true; first || NowUs() - start < window_us;
         first = false) {
      Span span(tracer, 0, "engine.search", 0, ++pass);
      auto result = engine.TrySearch(c.queries, kK, options);
      span.End();
      out.attempted += c.queries.num();
      if (!result.ok()) {
        out.failed += c.queries.num();
        out.Fail("batch: " + result.status().ToString());
        continue;
      }
      const song::BatchResult& r = result.value();
      out.failed += r.queries_rejected + r.queries_degraded;
      pass_qps.push_back(r.Qps());
      wall_us += r.wall_seconds * 1e6;
      distances += static_cast<double>(r.stats.distance_computations);
      for (const float us : r.latencies_us) {
        latencies.push_back(us);
        busy_us += us;
      }
      // Checks stay outside the timed batch.
      if (r.Ids() != reference) out.Fail("pass results differ from warm-up");
      if (r.stats.distance_computations !=
          reference_stats.distance_computations) {
        out.Fail("distance count differs between identical passes");
      }
    }
  };
  double setup_s = 0.0;
  RepeatedSetup(spec, cfg.seed, spec.num_points, /*ground_truth=*/true, cfg,
                tracer, &out, &setup_s, /*extra=*/nullptr, measure);
  out.Set("setup.server_ready_s", 0.0);

  for (size_t q = 0; q < reference.size(); ++q) {
    if (reference[q].size() != kK) {
      out.Fail("query " + std::to_string(q) + " returned " +
               std::to_string(reference[q].size()) + " results");
      break;
    }
  }
  out.Check(recall >= kRecallFloor,
            "recall@10 " + std::to_string(recall) + " below floor");

  out.Set("setup_s", setup_s);
  out.Set("peak_rss_mb", PeakRssMb());
  out.Set("recall_at_10", recall);
  out.Set("qps", Median(pass_qps));
  out.Set("latency_p50_us", Percentile(latencies, 50));

  const double nq = static_cast<double>(kQueries);
  const song::SearchStats& s = reference_stats;
  out.Set("search.iterations_per_query", s.iterations / nq);
  out.Set("search.distances_per_query", s.distance_computations / nq);
  out.Set("search.vector_bytes_per_query", s.data_bytes_loaded / nq);
  out.Set("search.graph_bytes_per_query", s.graph_bytes_loaded / nq);
  out.Set("search.visited_tests_per_query", s.visited_tests / nq);
  out.Set("search.queue_pushes_per_query", s.q_pushes / nq);
  out.Set("search.useful_distance_frac",
          static_cast<double>(s.q_pushes) /
              static_cast<double>(s.distance_computations));
  out.Set("search.query_us.p50", Percentile(latencies, 50));
  out.Set("search.query_us.p99", Percentile(latencies, 99));
  out.Set("search.ns_per_distance", busy_us * 1e3 / distances);
  out.Set("engine.busy_frac",
          busy_us / (wall_us * static_cast<double>(threads)));
  return out;
}

}  // namespace perfbench
