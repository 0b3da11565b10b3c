#include "serve/request_queue.h"

#include <utility>

#include "core/logging.h"

namespace song::serve {

RequestQueue::RequestQueue(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

Status RequestQueue::Push(std::unique_ptr<PendingRequest>& request) {
  SONG_CHECK(request != nullptr);
  MutexLock lock(mu_);
  if (closed_) {
    return Status::Unavailable("request queue draining: not accepting work");
  }
  if (queue_.size() >= capacity_) {
    return Status::ResourceExhausted(
        "request queue full: " + std::to_string(queue_.size()) + " of " +
        std::to_string(capacity_) + " slots");
  }
  queue_.push_back(std::move(request));
  nonempty_.NotifyOne();
  return Status::OK();
}

size_t RequestQueue::PopBatch(std::unique_ptr<PendingRequest>* out,
                              size_t max_batch) {
  if (max_batch == 0) return 0;
  MutexLock lock(mu_);
  while (queue_.empty() && !closed_) nonempty_.Wait(mu_);
  if (queue_.empty()) return 0;  // closed and drained: worker-exit signal
  size_t n = 0;
  // song-lint: begin-hot-path(serve-batch-form)
  // The claim runs under the queue mutex: every queued request and every
  // other worker waits on it, so it is allocation- and logging-free. It
  // takes the oldest requests in arrival order and leaves the rest queued
  // for the next idle worker.
  while (n < max_batch && !queue_.empty()) {
    out[n] = std::move(queue_.front());
    queue_.pop_front();
    ++n;
  }
  // song-lint: end-hot-path
  return n;
}

void RequestQueue::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  nonempty_.NotifyAll();
}

std::vector<std::unique_ptr<PendingRequest>> RequestQueue::TakeAll() {
  MutexLock lock(mu_);
  std::vector<std::unique_ptr<PendingRequest>> taken;
  taken.reserve(queue_.size());
  while (!queue_.empty()) {
    taken.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return taken;
}

size_t RequestQueue::Size() const {
  MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace song::serve
