// Copyright 2026 The SONG-Repro Authors.
//
// An immutable, versioned view of the online index (graph + vectors +
// tombstones). Readers pin a snapshot with MutableIndex::Acquire() at query
// start and keep using it for as long as they like: the writer never touches
// a published snapshot, so a pinned version keeps returning bit-identical
// results while any number of newer versions are published — MVCC with
// shared_ptr pinning as the reader epoch.
//
// Deletes are tombstones: a deleted vertex stays in the graph and remains
// traversable (it still routes searches through its neighborhood, which is
// what keeps recall stable under churn) but is filtered out of the result
// heap. To compensate, TrySearch widens the internal k by the tombstone count
// (capped at the point count) before filtering — with zero tombstones the
// widening vanishes and the snapshot layer is a strict no-op over a plain
// SongSearcher (pinned by tests/song/snapshot_isolation_test.cc).

#ifndef SONG_SONG_INDEX_SNAPSHOT_H_
#define SONG_SONG_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/status.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"
#include "obs/request_timeline.h"
#include "song/search_options.h"
#include "song/song_searcher.h"

namespace song {

class IndexSnapshot {
 public:
  /// `tombstones->size()` must equal `data->num()`; entry 0 is the search
  /// entry vertex MutableIndex maintains reachability from. Built only by
  /// MutableIndex (and tests); readers receive it as shared_ptr<const>.
  IndexSnapshot(std::shared_ptr<const Dataset> data,
                std::shared_ptr<const FixedDegreeGraph> graph,
                std::shared_ptr<const std::vector<uint8_t>> tombstones,
                Metric metric, idx_t entry, uint64_t version);

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  uint64_t version() const { return version_; }
  size_t num_points() const { return data_->num(); }
  size_t live_points() const { return live_points_; }
  size_t tombstone_count() const { return num_points() - live_points_; }
  bool IsLive(idx_t id) const {
    return id < tombstones_->size() && (*tombstones_)[id] == 0;
  }

  Metric metric() const { return metric_; }
  idx_t entry() const { return entry_; }
  const Dataset& data() const { return *data_; }
  const FixedDegreeGraph& graph() const { return *graph_; }
  const std::vector<uint8_t>& tombstones() const { return *tombstones_; }

  /// The shared components, for MutableIndex's copy-on-write steps (a Delete
  /// shares data and graph with its predecessor and copies only tombstones).
  std::shared_ptr<const Dataset> shared_data() const { return data_; }
  std::shared_ptr<const FixedDegreeGraph> shared_graph() const {
    return graph_;
  }

  /// The underlying searcher over *all* vertices (tombstones included), or
  /// nullptr when the snapshot is empty. Exposed for the frozen no-op test;
  /// normal callers go through TrySearch below.
  const SongSearcher* searcher() const {
    return searcher_.has_value() ? &*searcher_ : nullptr;
  }

  /// The internal k the searcher runs with: k widened by the tombstone
  /// count, capped at num_points(). Public so the differential harness can
  /// mirror the filter step exactly.
  size_t CompensatedK(size_t k) const;

  /// Top-k live neighbors, ascending (dist, id); at most k entries, fewer
  /// when the reachable live set is smaller. Unlike SongSearcher::TrySearch
  /// a k larger than the point count is served (capped), since callers size
  /// k against a moving live count; k == 0 is refused. An empty snapshot or
  /// zero live points -> OK and {}. Otherwise the request is validated once,
  /// by SongSearcher::TrySearch at the compensated k. Snapshots never carry
  /// a PQ codebook (online inserts would race the pinned encoder), so
  /// options.quant == kPq is rejected with FailedPrecondition — quantized
  /// traversal is a static-index feature.
  /// When `observer` is non-null, one RequestRecord is emitted per call
  /// (served, degraded, or rejected) with this snapshot's version stamped
  /// in — the caller's observer need not know which MVCC version it hit.
  StatusOr<std::vector<Neighbor>> TrySearch(
      const float* query, size_t k, const SongSearchOptions& options,
      SongWorkspace* workspace, SearchStats* stats = nullptr,
      bool* degraded = nullptr,
      const obs::RequestObserver* observer = nullptr) const;

 private:
  std::shared_ptr<const Dataset> data_;
  std::shared_ptr<const FixedDegreeGraph> graph_;
  std::shared_ptr<const std::vector<uint8_t>> tombstones_;
  Metric metric_;
  idx_t entry_;
  uint64_t version_;
  size_t live_points_;
  std::optional<SongSearcher> searcher_;  ///< nullopt when empty
};

}  // namespace song

#endif  // SONG_SONG_INDEX_SNAPSHOT_H_
