#include "gpusim/sharded.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <string>
#include <thread>
#include <utility>

#include "core/fault_injection.h"
#include "core/logging.h"
#include "core/thread_pool.h"
#include "core/timer.h"

namespace song {

ShardedSongIndex::ShardedSongIndex(const Dataset* data, Metric metric,
                                   const ShardedBuildOptions& options)
    : full_data_(data), metric_(metric) {
  SONG_CHECK(data != nullptr);
  const size_t n = data->num();
  const size_t num_shards =
      std::max<size_t>(1, std::min(options.num_shards, n));
  const size_t per_shard = (n + num_shards - 1) / num_shards;

  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = s * per_shard;
    const size_t end = std::min(n, begin + per_shard);
    if (begin >= end) break;
    auto shard = std::make_unique<Shard>();
    shard->data = Dataset(end - begin, data->dim());
    shard->global_ids.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      shard->data.SetRow(static_cast<idx_t>(i - begin),
                         data->Row(static_cast<idx_t>(i)));
      shard->global_ids.push_back(static_cast<idx_t>(i));
    }
    NswBuildOptions nsw = options.nsw;
    if (nsw.num_threads == 0) nsw.num_threads = options.num_threads;
    shard->graph = NswBuilder::Build(shard->data, metric, nsw);
    shard->searcher = std::make_unique<SongSearcher>(&shard->data,
                                                     &shard->graph, metric);
    shards_.push_back(std::move(shard));
  }
}

Status ShardedSongIndex::SearchOneShard(
    size_t s, const Dataset& queries, size_t k,
    const SongSearchOptions& options, size_t num_threads,
    std::vector<std::vector<Neighbor>>* results, SearchStats* stats) const {
  const std::string prefix = "shard" + std::to_string(s) + ".";
  if (fault::ShouldFail(prefix + "htod")) {
    return Status::Unavailable("injected fault: " + prefix +
                               "htod (query upload)");
  }
  if (fault::ShouldFail(prefix + "kernel")) {
    return Status::Unavailable("injected fault: " + prefix + "kernel");
  }

  results->assign(queries.num(), {});
  std::vector<SongWorkspace> workspaces(
      std::max<size_t>(1, num_threads == 0 ? 1 : num_threads));
  std::vector<SearchStats> thread_stats(workspaces.size());
  std::vector<Status> errors(queries.num());
  const size_t shard_k = ShardK(s, k);
  ParallelFor(queries.num(), workspaces.size(), [&](size_t q, size_t t) {
    StatusOr<std::vector<Neighbor>> found = shards_[s]->searcher->TrySearch(
        queries.Row(static_cast<idx_t>(q)), shard_k, options, &workspaces[t],
        &thread_stats[t]);
    if (found.ok()) {
      (*results)[q] = std::move(found).value();
    } else {
      errors[q] = found.status();
    }
  });
  // TrySearch validated the request up front, so a refusal here means the
  // shard itself is unfit; report the lowest failing query.
  for (const Status& e : errors) SONG_RETURN_IF_ERROR(e);

  if (fault::ShouldFail(prefix + "dtoh")) {
    return Status::Unavailable("injected fault: " + prefix +
                               "dtoh (result download)");
  }
  // Publish counters only for the attempt that succeeded, so a search that
  // was retried contributes each unit of work exactly once.
  *stats = SearchStats{};
  for (const SearchStats& ts : thread_stats) stats->Add(ts);
  return Status::OK();
}

Status ShardedSongIndex::ValidateRequest(
    const Dataset& queries, size_t k, const SongSearchOptions& options) const {
  if (queries.dim() != full_data_->dim()) {
    return Status::InvalidArgument(
        "query dim " + std::to_string(queries.dim()) +
        " does not match index dim " + std::to_string(full_data_->dim()));
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (k > full_data_->num()) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) + " exceeds the dataset size " +
        std::to_string(full_data_->num()));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    SONG_RETURN_IF_ERROR(
        shards_[s]->searcher->ValidateOptions(ShardK(s, k), options));
  }
  for (size_t q = 0; q < queries.num(); ++q) {
    SONG_RETURN_IF_ERROR(shards_.front()->searcher->ValidateQuery(
        queries.Row(static_cast<idx_t>(q))));
  }
  return Status::OK();
}

StatusOr<ShardedSearchResult> ShardedSongIndex::TrySearch(
    const Dataset& queries, size_t k, const SongSearchOptions& options,
    const ShardedResilienceOptions& resilience, size_t num_threads) const {
  Timer timer;
  // One batch-level post-mortem record per call: the whole wall time is the
  // search stage (there is no queue/batching at this layer), and the shard
  // coverage is genuine — a record with shards_answered < shards_total is
  // the breadcrumb for a partial merge.
  auto record = [&](StatusCode code, bool degraded, bool rejected,
                    size_t answered, size_t total) {
    if (resilience.flight_recorder == nullptr) return;
    obs::RequestTimeline tl;
    tl.complete_us = timer.ElapsedMicros();
    obs::RequestRecord rec =
        obs::RequestRecord::Make(resilience.request_id,
                                 options.Digest(k), tl, code, degraded,
                                 rejected);
    rec.shards_answered = static_cast<uint16_t>(answered);
    rec.shards_total = static_cast<uint16_t>(total);
    resilience.flight_recorder->Record(rec);
  };

  const Status invalid = ValidateRequest(queries, k, options);
  if (!invalid.ok()) {
    record(invalid.code(), false, true, 0, shards_.size());
    return invalid;
  }

  ShardedSearchResult out;
  out.results.resize(queries.num());
  out.shard_stats.resize(shards_.size());
  out.shards_total = shards_.size();
  out.shard_ok.assign(shards_.size(), 0);
  out.shard_retries.assign(shards_.size(), 0);

  // Per-shard candidate lists, merged per query afterwards.
  std::vector<std::vector<std::vector<Neighbor>>> shard_results(
      shards_.size());
  Status last_error;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Status shard_status;
    for (size_t attempt = 0; attempt <= resilience.max_retries; ++attempt) {
      if (attempt > 0) {
        ++out.shard_retries[s];
        if (resilience.registry != nullptr) {
          resilience.registry->GetCounter("song.shard.retries").Increment();
        }
        if (resilience.backoff_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              resilience.backoff_us << (attempt - 1)));
        }
      }
      shard_status = SearchOneShard(s, queries, k, options, num_threads,
                                    &shard_results[s], &out.shard_stats[s]);
      if (shard_status.ok()) break;
      SONG_LOG(WARN) << "shard " << s << " attempt " << (attempt + 1)
                     << " failed: " << shard_status.ToString();
    }
    if (shard_status.ok()) {
      out.shard_ok[s] = 1;
      ++out.shards_answered;
    } else {
      last_error = shard_status;
      shard_results[s].clear();
      out.shard_stats[s] = SearchStats{};
      if (resilience.registry != nullptr) {
        resilience.registry->GetCounter("song.shard.failures").Increment();
      }
      if (!resilience.allow_partial) {
        record(StatusCode::kUnavailable, false, false, out.shards_answered,
               out.shards_total);
        return Status::Unavailable(
            "shard " + std::to_string(s) + " failed after " +
            std::to_string(resilience.max_retries + 1) +
            " attempts (partial results disabled): " + shard_status.message());
      }
    }
  }

  if (out.shards_answered == 0) {
    record(StatusCode::kUnavailable, false, false, 0, out.shards_total);
    return Status::Unavailable(
        "all " + std::to_string(out.shards_total) +
        " shards failed; last error: " + last_error.ToString());
  }
  out.degraded = out.shards_answered < out.shards_total;
  if (out.degraded && resilience.registry != nullptr) {
    // Every query's ranked list is drawn from a subset of the data.
    resilience.registry->GetCounter("song.search.degraded")
        .Increment(queries.num());
  }

  // k-way merge with global id translation over the surviving shards.
  for (size_t q = 0; q < queries.num(); ++q) {
    std::vector<Neighbor> merged;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!out.shard_ok[s]) continue;
      for (const Neighbor& n : shard_results[s][q]) {
        merged.emplace_back(n.dist, shards_[s]->global_ids[n.id]);
      }
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > k) merged.resize(k);
    out.results[q] = std::move(merged);
  }
  out.wall_seconds = timer.ElapsedSeconds();
  record(StatusCode::kOk, out.degraded, false, out.shards_answered,
         out.shards_total);
  return out;
}

ShardedGpuEstimate ShardedSongIndex::EstimateGpu(
    const ShardedSearchResult& result, const std::vector<GpuSpec>& gpus,
    size_t num_queries, size_t k, const SongSearchOptions& options) const {
  SONG_CHECK_MSG(gpus.size() == shards_.size(),
                 "one GpuSpec per shard required");
  ShardedGpuEstimate est;
  est.shard_kernel_seconds.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    WorkloadShape shape;
    shape.num_queries = num_queries;
    shape.dim = full_data_->dim();
    shape.point_bytes = shape.dim * sizeof(float);
    shape.k = k;
    shape.queue_size = std::max(options.queue_size, k);
    shape.degree = shards_[s]->graph.degree();
    shape.multi_query = options.multi_query;
    shape.multi_step = options.multi_step_probe;
    shape.structure = options.structure;
    CostModel model(gpus[s]);
    const KernelBreakdown b = model.Estimate(result.shard_stats[s], shape);
    est.shard_kernel_seconds[s] = b.kernel_seconds;
    est.kernel_seconds = std::max(est.kernel_seconds, b.kernel_seconds);
    // Transfers happen per card but concurrently; keep the slowest link's
    // cost (all presets share the PCIe numbers, so this is that of card 0).
    est.htod_seconds = std::max(
        est.htod_seconds,
        num_queries * shape.dim * sizeof(float) / (gpus[s].pcie_gbps * 1e9) +
            gpus[s].pcie_latency_s);
    est.dtoh_seconds = std::max(
        est.dtoh_seconds,
        num_queries * k * sizeof(Neighbor) / (gpus[s].pcie_gbps * 1e9) +
            gpus[s].pcie_latency_s);
  }
  // Host merge: S*k candidates per query, ~20 ns per element on the host.
  est.merge_seconds = static_cast<double>(num_queries) *
                      static_cast<double>(shards_.size() * k) * 20e-9;
  est.total_seconds = est.kernel_seconds + est.htod_seconds +
                      est.dtoh_seconds + est.merge_seconds;
  return est;
}

}  // namespace song
