// Copyright 2026 The SONG-Repro Authors.
//
// Multi-GPU sharding (paper §VII, last paragraph): "when multiple GPUs are
// considered, we can shard the data for each GPU, build a graph index for
// each shard, perform graph search on each GPU and merge the results."
// This module implements exactly that deployment: contiguous shards, one
// NSW index per shard, per-shard SONG search (each priced on its own
// GpuSpec), and a host-side top-k merge. The cards run in parallel, so the
// simulated batch time is the slowest shard's kernel plus the shared
// transfer costs.

#ifndef SONG_GPUSIM_SHARDED_H_
#define SONG_GPUSIM_SHARDED_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/status.h"
#include "gpusim/cost_model.h"
#include "gpusim/gpu_spec.h"
#include "graph/fixed_degree_graph.h"
#include "graph/nsw_builder.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "song/search_options.h"
#include "song/song_searcher.h"

namespace song {

struct ShardedBuildOptions {
  size_t num_shards = 2;
  NswBuildOptions nsw;
  size_t num_threads = 0;
};

/// Fault tolerance policy for TrySearch. A failed shard attempt (injected
/// or real) is retried up to `max_retries` times with exponential backoff;
/// a shard that exhausts its retries is dropped from the merge when
/// `allow_partial` is set, so the caller still gets ranked results from the
/// surviving cards plus a coverage fraction.
struct ShardedResilienceOptions {
  size_t max_retries = 2;      ///< extra attempts after the first failure
  uint64_t backoff_us = 0;     ///< initial backoff; doubles per retry. 0 = none
  bool allow_partial = true;   ///< merge surviving shards instead of failing
  obs::MetricsRegistry* registry = nullptr;  ///< optional metric sink
  /// Optional post-mortem ring: TrySearch appends one batch-level
  /// RequestRecord (status, wall time, shard coverage) per call, including
  /// failed ones — the record whose shards_answered < shards_total is the
  /// post-mortem breadcrumb for a partial merge.
  obs::FlightRecorder* flight_recorder = nullptr;
  uint64_t request_id = 0;  ///< id stamped into the record
};

struct ShardedSearchResult {
  /// Merged global-id results per query.
  std::vector<std::vector<Neighbor>> results;
  /// Per-shard aggregate counters (zeroed for shards that never succeeded).
  std::vector<SearchStats> shard_stats;
  double wall_seconds = 0.0;
  /// Fault-tolerance accounting.
  size_t shards_total = 0;
  size_t shards_answered = 0;
  std::vector<uint8_t> shard_ok;        ///< 1 = shard contributed results
  std::vector<uint32_t> shard_retries;  ///< extra attempts per shard
  /// Set when at least one shard was dropped: results are ranked but drawn
  /// from a subset of the data (recall floor = surviving fraction).
  bool degraded = false;

  /// Fraction of shards that answered; 1.0 for a fully healthy search.
  double Coverage() const {
    return shards_total == 0
               ? 0.0
               : static_cast<double>(shards_answered) /
                     static_cast<double>(shards_total);
  }
};

struct ShardedGpuEstimate {
  /// Per-shard kernel seconds (cards run concurrently).
  std::vector<double> shard_kernel_seconds;
  double kernel_seconds = 0.0;  ///< max over shards
  double htod_seconds = 0.0;    ///< queries broadcast to every card
  double dtoh_seconds = 0.0;    ///< every card returns k candidates
  double merge_seconds = 0.0;   ///< host-side k-way merge
  double total_seconds = 0.0;
  double Qps(size_t num_queries) const {
    return total_seconds > 0.0
               ? static_cast<double>(num_queries) / total_seconds
               : 0.0;
  }
};

/// A SONG deployment sharded across multiple (simulated) GPUs.
class ShardedSongIndex {
 public:
  /// Splits `data` into contiguous shards and builds one NSW graph per
  /// shard. `data` must outlive the index.
  ShardedSongIndex(const Dataset* data, Metric metric,
                   const ShardedBuildOptions& options);

  size_t num_shards() const { return shards_.size(); }
  const Dataset& shard_data(size_t s) const { return shards_[s]->data; }
  const FixedDegreeGraph& shard_graph(size_t s) const {
    return shards_[s]->graph;
  }

  /// Searches every shard and merges the per-shard top-k into global-id
  /// results, the index's only entry point. The request is validated once,
  /// before any shard is attempted: a query/index dim mismatch, k outside
  /// [1, total points], options SongSearcher::ValidateOptions refuses, or a
  /// null/NaN/Inf query returns that Status with no shard attempted,
  /// retried or counted. Each shard attempt then passes the deterministic
  /// fault sites `shardN.htod`, `shardN.kernel` and `shardN.dtoh`
  /// (core/fault_injection.h); a failing shard is retried per
  /// `resilience`, then dropped (partial merge) or escalated. Returns
  /// kUnavailable when no shard answers (or any shard fails with
  /// allow_partial off).
  StatusOr<ShardedSearchResult> TrySearch(
      const Dataset& queries, size_t k, const SongSearchOptions& options,
      const ShardedResilienceOptions& resilience = {},
      size_t num_threads = 0) const;

  /// Prices a ShardedSearchResult on one GpuSpec per shard (`gpus.size()`
  /// must equal num_shards()).
  ShardedGpuEstimate EstimateGpu(const ShardedSearchResult& result,
                                 const std::vector<GpuSpec>& gpus,
                                 size_t num_queries, size_t k,
                                 const SongSearchOptions& options) const;

 private:
  /// The up-front check TrySearch runs before any shard attempt: batch
  /// dim, k, every shard's ValidateOptions and every query's payload.
  Status ValidateRequest(const Dataset& queries, size_t k,
                         const SongSearchOptions& options) const;

  struct Shard {
    Dataset data;                 // copy of the shard's rows
    std::vector<idx_t> global_ids;  // shard-local id -> global id
    FixedDegreeGraph graph;
    std::unique_ptr<SongSearcher> searcher;
  };

  /// One attempt at shard `s`: checks the htod/kernel fault sites, runs
  /// every query through SongSearcher::TrySearch (the shard's own k,
  /// capped at its point count), checks the dtoh site, then (only on
  /// success) publishes results + stats — so a retried attempt never
  /// double-counts.
  Status SearchOneShard(size_t s, const Dataset& queries, size_t k,
                        const SongSearchOptions& options, size_t num_threads,
                        std::vector<std::vector<Neighbor>>* results,
                        SearchStats* stats) const;

  /// The k a shard searches with: k capped at the shard's point count (a
  /// shard can return no more than it holds).
  size_t ShardK(size_t s, size_t k) const {
    return std::min(k, shards_[s]->data.num());
  }

  const Dataset* full_data_;
  Metric metric_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace song

#endif  // SONG_GPUSIM_SHARDED_H_
