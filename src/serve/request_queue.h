// Copyright 2026 The SONG-Repro Authors.
//
// The serving tier's admission queue: a bounded, lock-annotated MPMC queue
// of pending search requests, plus the continuous-batching claim primitive
// the scheduler workers drive. Connection reader threads Push decoded
// requests; scheduler workers PopBatch — claim up to `max_batch` of the
// oldest queued requests in arrival order and return at once. There is no
// linger timer: an idle worker dispatches what is queued the moment it
// arrives, so a batch grows only from the backlog that builds while every
// worker is busy, and light traffic pays no batching latency. Claimed
// requests share nothing but the worker: it searches them one at a time,
// each with its own k, ef, cost budget and deadline, so a claimed request
// also waits behind its earlier batchmates.
//
// Backpressure is explicit: Push on a full queue is kResourceExhausted and
// Push after Close() is kUnavailable — the caller turns either into an
// immediate shed response, never a silent drop.

#ifndef SONG_SERVE_REQUEST_QUEUE_H_
#define SONG_SERVE_REQUEST_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "song/search_options.h"

namespace song::serve {

class Connection;

/// One decoded, admitted search request waiting for a scheduler worker.
/// Stage stamps are microseconds on the server's clock (Timer started at
/// SongServer::Start); they become the request's RequestTimeline when it
/// settles, so song.req.* histograms cover the full network lifecycle.
struct PendingRequest {
  uint64_t request_id = 0;   ///< server-assigned, monotonic (telemetry id)
  uint64_t client_tag = 0;   ///< echoed to the client verbatim
  uint32_t k = 0;
  /// The server's base options with the wire's ef (server default already
  /// applied), cost budget and client deadline (0 = none).
  SongSearchOptions options;
  std::vector<float> query;
  double enqueue_us = 0.0;   ///< frame decoded
  double admitted_us = 0.0;  ///< queue accepted it (admission passed)
  double batched_us = 0.0;   ///< a scheduler worker claimed it
  double deadline_at_us = 0.0;  ///< enqueue + deadline, 0 = no deadline
  /// Response destination. Holding the shared_ptr keeps the connection's
  /// writer alive until every request it issued has settled, even when the
  /// client disconnects mid-flight. Null in queue-level tests.
  std::shared_ptr<Connection> conn;
};

class RequestQueue {
 public:
  /// `capacity` >= 1 bounds queued (not yet claimed) requests.
  explicit RequestQueue(size_t capacity);

  /// Enqueues or refuses: kResourceExhausted when full (shed), kUnavailable
  /// after Close() (draining). Never blocks. On refusal `request` keeps its
  /// ownership so the caller can settle it with a shed response.
  Status Push(std::unique_ptr<PendingRequest>& request) SONG_EXCLUDES(mu_);

  /// Blocks until at least one request is queued (or the queue is closed
  /// and empty — returns 0, the worker-exit signal). Claims the oldest
  /// `max_batch` (or fewer) requests in arrival order into `out[0..n)` and
  /// returns without waiting for more. `out` must have room for
  /// `max_batch` entries.
  size_t PopBatch(std::unique_ptr<PendingRequest>* out, size_t max_batch)
      SONG_EXCLUDES(mu_);

  /// Drain entry: refuses new pushes; PopBatch keeps claiming until empty,
  /// then returns 0. Idempotent.
  void Close() SONG_EXCLUDES(mu_);

  /// Removes and returns every queued request (drain sweep for servers
  /// running without scheduler workers, or after the workers exited).
  std::vector<std::unique_ptr<PendingRequest>> TakeAll() SONG_EXCLUDES(mu_);

  size_t Size() const SONG_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar nonempty_;
  std::deque<std::unique_ptr<PendingRequest>> queue_ SONG_GUARDED_BY(mu_);
  bool closed_ SONG_GUARDED_BY(mu_) = false;
};

}  // namespace song::serve

#endif  // SONG_SERVE_REQUEST_QUEUE_H_
