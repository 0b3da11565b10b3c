#include "song/index_snapshot.h"

#include <algorithm>

#include "core/logging.h"

namespace song {

IndexSnapshot::IndexSnapshot(std::shared_ptr<const Dataset> data,
                             std::shared_ptr<const FixedDegreeGraph> graph,
                             std::shared_ptr<const std::vector<uint8_t>> tombstones,
                             Metric metric, idx_t entry, uint64_t version)
    : data_(std::move(data)),
      graph_(std::move(graph)),
      tombstones_(std::move(tombstones)),
      metric_(metric),
      entry_(entry),
      version_(version) {
  SONG_CHECK(data_ != nullptr && graph_ != nullptr && tombstones_ != nullptr);
  SONG_CHECK(tombstones_->size() == data_->num());
  SONG_CHECK(graph_->num_vertices() == data_->num());
  live_points_ = static_cast<size_t>(
      std::count(tombstones_->begin(), tombstones_->end(), uint8_t{0}));
  if (data_->num() > 0) {
    SONG_CHECK(entry_ < data_->num());
    searcher_.emplace(data_.get(), graph_.get(), metric_, entry_);
  }
}

size_t IndexSnapshot::CompensatedK(size_t k) const {
  return std::min(num_points(), k + tombstone_count());
}

StatusOr<std::vector<Neighbor>> IndexSnapshot::TrySearch(
    const float* query, size_t k, const SongSearchOptions& options,
    SongWorkspace* workspace, SearchStats* stats, bool* degraded,
    const obs::RequestObserver* observer) const {
  // Stamp this snapshot's MVCC version into any emitted record; the
  // caller's observer identifies the request, the snapshot identifies the
  // index state it was served from.
  obs::RequestObserver versioned;
  if (observer != nullptr) {
    versioned = *observer;
    versioned.snapshot_version = version_;
  }
  auto emit = [&](float search_us, StatusCode code, bool was_degraded,
                  bool was_rejected) {
    if (observer == nullptr) return;
    obs::EmitRequestRecord(versioned, options.Digest(k), search_us, code,
                           was_degraded, was_rejected);
  };

  if (k == 0) {
    Status status = Status::InvalidArgument("k must be >= 1");
    emit(0.0f, status.code(), /*degraded=*/false, /*rejected=*/true);
    return status;
  }
  if (degraded != nullptr) *degraded = false;
  if (live_points_ == 0 || !searcher_.has_value()) {
    emit(0.0f, StatusCode::kOk, /*degraded=*/false, /*rejected=*/false);
    return std::vector<Neighbor>{};
  }
  bool local_degraded = false;
  Timer search_timer;
  StatusOr<std::vector<Neighbor>> raw =
      searcher_->TrySearch(query, CompensatedK(k), options, workspace, stats,
                           /*trace=*/nullptr, &local_degraded);
  if (!raw.ok()) {
    emit(0.0f, raw.status().code(), /*degraded=*/false, /*rejected=*/true);
    return raw.status();
  }
  std::vector<Neighbor> out;
  if (tombstone_count() == 0) {
    // k_eff == k and nothing to filter: the frozen path returns the searcher
    // output untouched (the strict no-op contract).
    out = std::move(raw).value();
  } else {
    out.reserve(std::min(k, raw->size()));
    for (const Neighbor& n : *raw) {
      if ((*tombstones_)[n.id] != 0) continue;
      out.push_back(n);
      if (out.size() == k) break;
    }
  }
  emit(static_cast<float>(search_timer.ElapsedMicros()), StatusCode::kOk,
       local_degraded, /*rejected=*/false);
  if (degraded != nullptr) *degraded = local_degraded;
  return out;
}

}  // namespace song
