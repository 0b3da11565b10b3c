#include "song/batch_engine.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/thread_pool.h"
#include "core/timer.h"

namespace song {

namespace {

/// Queries claimed per atomic grab in the batch loop: adjacent queries
/// share the cache-warm index pages their traversals touch, so each thread
/// streams a small run instead of interleaving query-by-query.
constexpr size_t kQueryChunk = 8;

/// Batch-level metrics (song.batch.* throughput and shape, trace sampling)
/// plus the batch's search work through a SearchMetrics sink.
void RecordBatchMetrics(const BatchResult& batch,
                        const SongSearchOptions& options,
                        obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->GetCounter("song.batch.batches").Increment();
  registry->GetGauge("song.batch.wall_seconds").Set(batch.wall_seconds);
  registry->GetGauge("song.batch.qps").Set(batch.Qps());
  registry->GetGauge("song.batch.queue_size")
      .Set(static_cast<double>(options.queue_size));

  const SearchMetrics search_metrics(registry, options.quant);
  for (const float us : batch.latencies_us) {
    search_metrics.ObserveLatencyUs(static_cast<double>(us));
  }
  search_metrics.Record(batch.stats, batch.num_queries);
  registry->GetCounter("song.batch.rejected_queries")
      .Increment(batch.queries_rejected);

  registry->GetCounter("song.trace.sampled").Increment(batch.traces.size());
  registry->GetCounter("song.trace.dropped").Increment(batch.traces_dropped);
  if (!batch.traces.empty()) {
    obs::Histogram& hops = registry->GetHistogram("song.trace.hops");
    obs::Histogram& frontier =
        registry->GetHistogram("song.trace.peak_frontier");
    for (const obs::SearchTrace& t : batch.traces) {
      hops.Observe(static_cast<double>(t.Hops()));
      uint32_t peak = 0;
      for (const obs::TraceIterationRow& r : t.rows) {
        peak = std::max(peak, r.frontier_size);
      }
      frontier.Observe(static_cast<double>(peak));
    }
  }
}

}  // namespace

BatchEngine::BatchEngine(const SongSearcher* searcher, size_t num_threads)
    : searcher_(searcher),
      num_threads_(num_threads != 0
                       ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency())) {
  SONG_CHECK(searcher != nullptr);
}

StatusOr<BatchResult> BatchEngine::TrySearch(
    const Dataset& queries, size_t k, const SongSearchOptions& options,
    const BatchTelemetry& telemetry) const {
  // Request lifecycle (enqueue stamp + ids + per-stage histograms) is armed
  // only when telemetry asks for it; otherwise this path is stamp-free.
  const bool lifecycle_on = telemetry.registry != nullptr ||
                            telemetry.flight_recorder != nullptr;
  const Timer clock;  // epoch: request arrival (the enqueue stamp is 0)
  const uint64_t id_base =
      lifecycle_on ? request_seq_.fetch_add(
                         std::max<uint64_t>(queries.num(), 1),
                         std::memory_order_relaxed)
                   : 0;
  const uint64_t digest = options.Digest(k);
  // Per-request sinks: histogram pointers are resolved once here, worker
  // threads record lock-free. Both are no-ops when lifecycle is off.
  const obs::RequestMetrics req_metrics(lifecycle_on ? telemetry.registry
                                                     : nullptr);
  obs::FlightRecorder* recorder =
      lifecycle_on ? telemetry.flight_recorder : nullptr;
  auto emit = [&](uint64_t id, const obs::RequestTimeline& tl,
                  StatusCode code, bool degraded, bool rejected) {
    if (!lifecycle_on) return;
    const obs::RequestRecord rec =
        obs::RequestRecord::Make(id, digest, tl, code, degraded, rejected);
    req_metrics.Record(rec);
    if (recorder != nullptr) recorder->Record(rec);
  };

  const Status invalid =
      queries.dim() != searcher_->data().dim()
          ? Status::InvalidArgument(
                "query dim " + std::to_string(queries.dim()) +
                " does not match index dim " +
                std::to_string(searcher_->data().dim()))
          : searcher_->ValidateOptions(k, options);
  if (!invalid.ok()) {
    // One turned-away record for the whole batch: all lifetime up to the
    // refusal is queue time (the batch never got admitted).
    obs::RequestTimeline tl;
    tl.admitted_us = tl.batched_us = tl.search_begin_us = tl.complete_us =
        clock.ElapsedMicros();
    emit(id_base, tl, invalid.code(), /*degraded=*/false, /*rejected=*/true);
    return invalid;
  }
  const double admitted_us = lifecycle_on ? clock.ElapsedMicros() : 0.0;

  BatchResult batch;
  batch.num_queries = queries.num();
  batch.results.resize(queries.num());
  batch.latencies_us.resize(queries.num());
  batch.degraded.assign(queries.num(), 0);
  batch.rejected.assign(queries.num(), 0);

  std::vector<SongWorkspace> workspaces(num_threads_);
  std::vector<SearchStats> thread_stats(num_threads_);

  const obs::TraceSampler sampler(telemetry.trace_sample_period,
                                  telemetry.trace_seed);
  obs::TraceCollector collector(telemetry.max_traces);

  Timer timer;
  ParallelFor(queries.num(), num_threads_, [&](size_t qi, size_t tid) {
    obs::RequestTimeline tl;
    if (lifecycle_on) {
      tl.admitted_us = admitted_us;
      tl.batched_us = tl.search_begin_us = clock.ElapsedMicros();
    }
    const bool traced = sampler.ShouldSample(qi);
    obs::SearchTrace trace;
    bool degraded = false;
    Timer query_timer;
    StatusOr<std::vector<Neighbor>> found = searcher_->TrySearch(
        queries.Row(static_cast<idx_t>(qi)), k, options, &workspaces[tid],
        &thread_stats[tid], traced ? &trace : nullptr, &degraded);
    if (lifecycle_on) tl.complete_us = clock.ElapsedMicros();
    if (!found.ok()) {
      tl.search_begin_us = tl.complete_us;  // refused before any search
      batch.rejected[qi] = 1;
      batch.latencies_us[qi] = 0.0f;
      emit(id_base + qi, tl, found.status().code(), /*degraded=*/false,
           /*rejected=*/true);
      return;
    }
    batch.results[qi] = std::move(found).value();
    batch.latencies_us[qi] = static_cast<float>(query_timer.ElapsedMicros());
    if (degraded) batch.degraded[qi] = 1;
    emit(id_base + qi, tl, StatusCode::kOk, degraded, /*rejected=*/false);
    if (traced) {
      trace.query_id = qi;
      trace.wall_micros = static_cast<double>(batch.latencies_us[qi]);
      collector.Add(std::move(trace));
    }
  }, kQueryChunk);
  batch.wall_seconds = timer.ElapsedSeconds();

  for (const SearchStats& s : thread_stats) batch.stats.Add(s);
  for (const uint8_t d : batch.degraded) batch.queries_degraded += d;
  for (const uint8_t r : batch.rejected) batch.queries_rejected += r;
  batch.traces_dropped = collector.dropped();
  batch.traces = collector.Take();
  // Worker completion order is nondeterministic; keep exports stable.
  std::sort(batch.traces.begin(), batch.traces.end(),
            [](const obs::SearchTrace& a, const obs::SearchTrace& b) {
              return a.query_id < b.query_id;
            });
  RecordBatchMetrics(batch, options, telemetry.registry);
  return batch;
}

double BatchResult::LatencyPercentileUs(double p) const {
  if (latencies_us.empty()) return 0.0;
  std::vector<float> sorted = latencies_us;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace song
