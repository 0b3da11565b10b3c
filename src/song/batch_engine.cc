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

BatchResult BatchEngine::Search(const Dataset& queries, size_t k,
                                const SongSearchOptions& options) const {
  return Search(queries, k, options, BatchTelemetry{});
}

BatchResult BatchEngine::Search(const Dataset& queries, size_t k,
                                const SongSearchOptions& options,
                                const BatchTelemetry& telemetry) const {
  return RunBatch(queries, k, options, telemetry, /*validate=*/false);
}

StatusOr<BatchResult> BatchEngine::TrySearch(
    const Dataset& queries, size_t k, const SongSearchOptions& options,
    const BatchTelemetry& telemetry, const BatchAdmission& admission) const {
  // Request lifecycle (enqueue stamp + ids + per-stage histograms) is armed
  // only when telemetry asks for it; otherwise this path is stamp-free and
  // results/allocations match the pre-lifecycle engine exactly.
  const bool lifecycle_on = telemetry.registry != nullptr ||
                            telemetry.flight_recorder != nullptr;
  Timer clock;  // epoch: request arrival (the enqueue stamp is 0)
  const uint64_t id_base =
      lifecycle_on ? request_seq_.fetch_add(
                         std::max<uint64_t>(queries.num(), 1),
                         std::memory_order_relaxed)
                   : 0;

  // Records a single turned-away record for the whole batch: all lifetime
  // up to the refusal is queue time (the batch never got admitted).
  auto record_refusal = [&](const Status& status, bool rejected) {
    if (!lifecycle_on) return;
    obs::RequestTimeline tl;
    const double now = clock.ElapsedMicros();
    tl.enqueue_us = 0.0;
    tl.admitted_us = tl.batched_us = tl.search_begin_us = tl.complete_us =
        now;
    obs::RequestRecord rec = obs::RequestRecord::Make(
        id_base, options.Digest(k), tl, status.code(), /*degraded=*/false,
        rejected);
    obs::RequestMetrics(telemetry.registry).Record(rec);
    if (telemetry.flight_recorder != nullptr) {
      telemetry.flight_recorder->Record(rec);
    }
  };

  const Status invalid =
      queries.dim() != searcher_->data().dim()
          ? Status::InvalidArgument(
                "query dim " + std::to_string(queries.dim()) +
                " does not match index dim " +
                std::to_string(searcher_->data().dim()))
          : searcher_->ValidateOptions(k, options);
  if (!invalid.ok()) {
    record_refusal(invalid, /*rejected=*/true);
    return invalid;
  }

  if (admission.max_inflight > 0) {
    const size_t prior = inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (prior >= admission.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      if (telemetry.registry != nullptr) {
        telemetry.registry->GetCounter("song.batch.shed").Increment();
      }
      Status status = Status::ResourceExhausted(
          "batch shed: " + std::to_string(prior) +
          " batches already in flight (max_inflight = " +
          std::to_string(admission.max_inflight) + ")");
      record_refusal(status, /*rejected=*/false);
      return status;
    }
  } else {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
  }
  LifecycleContext lifecycle;
  lifecycle.clock = &clock;
  lifecycle.enqueue_us = 0.0;
  lifecycle.admitted_us = clock.ElapsedMicros();
  lifecycle.request_id_base = id_base;
  lifecycle.options_digest = options.Digest(k);
  BatchResult batch = RunBatch(queries, k, options, telemetry,
                               /*validate=*/true,
                               lifecycle_on ? &lifecycle : nullptr);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return batch;
}

BatchResult BatchEngine::RunBatch(const Dataset& queries, size_t k,
                                  const SongSearchOptions& options,
                                  const BatchTelemetry& telemetry,
                                  bool validate,
                                  const LifecycleContext* lifecycle) const {
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

  // Per-request sinks: histogram pointers are resolved once here, worker
  // threads record lock-free. Both are no-ops when lifecycle is off.
  const obs::RequestMetrics req_metrics(
      lifecycle != nullptr ? telemetry.registry : nullptr);
  obs::FlightRecorder* recorder =
      lifecycle != nullptr ? telemetry.flight_recorder : nullptr;

  Timer timer;
  ParallelFor(queries.num(), num_threads_, [&](size_t qi, size_t tid) {
    obs::RequestTimeline tl;
    if (lifecycle != nullptr) {
      tl.enqueue_us = lifecycle->enqueue_us;
      tl.admitted_us = lifecycle->admitted_us;
      tl.batched_us = lifecycle->clock->ElapsedMicros();
    }
    auto emit = [&](StatusCode code, bool degraded, bool rejected) {
      if (lifecycle == nullptr) return;
      const obs::RequestRecord rec = obs::RequestRecord::Make(
          lifecycle->request_id_base + qi, lifecycle->options_digest, tl,
          code, degraded, rejected);
      req_metrics.Record(rec);
      if (recorder != nullptr) recorder->Record(rec);
    };

    const float* query = queries.Row(static_cast<idx_t>(qi));
    if (validate) {
      const Status vs = searcher_->ValidateQuery(query);
      if (!vs.ok()) {
        batch.rejected[qi] = 1;
        batch.latencies_us[qi] = 0.0f;
        if (lifecycle != nullptr) {
          tl.search_begin_us = tl.complete_us =
              lifecycle->clock->ElapsedMicros();
        }
        emit(vs.code(), /*degraded=*/false, /*rejected=*/true);
        return;
      }
    }
    const bool traced = sampler.ShouldSample(qi);
    obs::SearchTrace trace;
    bool degraded = false;
    if (lifecycle != nullptr) {
      tl.search_begin_us = lifecycle->clock->ElapsedMicros();
    }
    Timer query_timer;
    batch.results[qi] =
        searcher_->Search(query, k, options, &workspaces[tid],
                          &thread_stats[tid], traced ? &trace : nullptr,
                          &degraded);
    batch.latencies_us[qi] = static_cast<float>(query_timer.ElapsedMicros());
    if (lifecycle != nullptr) {
      tl.complete_us = lifecycle->clock->ElapsedMicros();
    }
    if (degraded) batch.degraded[qi] = 1;
    emit(StatusCode::kOk, degraded, /*rejected=*/false);
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
