// Tests for the serving tier's admission queue and continuous-batching
// claim primitive (src/serve/request_queue.h): FIFO claim order whatever
// the requests' k / ef / deadline, dispatch when idle (no linger) with
// batches formed from the backlog, explicit backpressure (full / closed),
// and the drain protocol.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/timer.h"
#include "gtest/gtest.h"
#include "serve/request_queue.h"

namespace song::serve {
namespace {

std::unique_ptr<PendingRequest> MakeRequest(uint64_t id, uint32_t k = 10,
                                            uint32_t ef = 64,
                                            uint64_t deadline_us = 0) {
  auto r = std::make_unique<PendingRequest>();
  r->request_id = id;
  r->k = k;
  r->options.queue_size = ef;
  r->options.deadline_us = deadline_us;
  r->query = {1.0f, 2.0f};
  return r;
}

TEST(RequestQueue, ClaimsInArrivalOrder) {
  RequestQueue queue(8);
  for (uint64_t i = 0; i < 5; ++i) {
    auto r = MakeRequest(i);
    ASSERT_TRUE(queue.Push(r).ok());
  }
  std::vector<std::unique_ptr<PendingRequest>> out(8);
  const size_t n = queue.PopBatch(out.data(), 8);
  ASSERT_EQ(n, 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i]->request_id, i);
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(RequestQueue, FullQueueIsResourceExhausted) {
  RequestQueue queue(2);
  auto a = MakeRequest(1);
  auto b = MakeRequest(2);
  auto c = MakeRequest(3);
  ASSERT_TRUE(queue.Push(a).ok());
  ASSERT_TRUE(queue.Push(b).ok());
  const Status refused = queue.Push(c);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // Refusal leaves ownership with the caller — it still has to settle the
  // request with a shed response.
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->request_id, 3u);
}

TEST(RequestQueue, ClosedQueueIsUnavailable) {
  RequestQueue queue(4);
  queue.Close();
  auto r = MakeRequest(1);
  const Status refused = queue.Push(r);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  ASSERT_NE(r, nullptr);
}

TEST(RequestQueue, IdleQueueClaimsWithoutWaiting) {
  RequestQueue queue(8);
  std::atomic<size_t> claimed{0};
  std::vector<std::unique_ptr<PendingRequest>> out(8);
  // The worker is already blocked on the empty queue when the request
  // arrives, as an idle server worker is.
  std::thread worker([&queue, &out, &claimed]() {
    claimed.store(queue.PopBatch(out.data(), 8));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto first = MakeRequest(1);
  ASSERT_TRUE(queue.Push(first).ok());
  // The claim must return holding just this request: nothing else is
  // queued and nothing else is pushed until it has returned.
  Timer wait;
  while (claimed.load() == 0 && wait.ElapsedSeconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t n = claimed.load();
  if (n == 0) queue.Close();  // release a worker that kept waiting
  worker.join();
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0]->request_id, 1u);
  auto second = MakeRequest(2);
  ASSERT_TRUE(queue.Push(second).ok());
  EXPECT_EQ(queue.Size(), 1u);
}

TEST(RequestQueue, BacklogIsClaimedInFifoOrderCappedAtMaxBatch) {
  RequestQueue queue(16);
  // Seven requests with mixed k, ef and deadlines: none of them keeps a
  // request out of a claim, because each claimed request is searched on
  // its own.
  const uint32_t ks[] = {10, 10, 1, 10, 25, 10, 10};
  const uint32_t efs[] = {64, 128, 64, 64, 128, 512, 64};
  const uint64_t deadlines[] = {0, 500, 0, 0, 100, 0, 0};
  for (uint64_t i = 0; i < 7; ++i) {
    auto r = MakeRequest(i, ks[i], efs[i], deadlines[i]);
    ASSERT_TRUE(queue.Push(r).ok());
  }
  std::vector<std::unique_ptr<PendingRequest>> out(4);
  // The backlog is claimed oldest first, stopping at max_batch = 4; the
  // rest stays queued, still in arrival order, for the next claim.
  size_t n = queue.PopBatch(out.data(), 4);
  ASSERT_EQ(n, 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i]->request_id, i);
  EXPECT_EQ(queue.Size(), 3u);
  n = queue.PopBatch(out.data(), 4);
  ASSERT_EQ(n, 3u);
  for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(out[i]->request_id, 4 + i);
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(RequestQueue, CloseWakesBlockedWorkers) {
  RequestQueue queue(8);
  std::atomic<int> exited{0};
  std::vector<std::thread> workers;
  workers.reserve(3);
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&queue, &exited]() {
      std::vector<std::unique_ptr<PendingRequest>> out(4);
      while (queue.PopBatch(out.data(), 4) != 0) {
        for (auto& r : out) r.reset();
      }
      exited.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(exited.load(), 3);
}

TEST(RequestQueue, TakeAllDrainsEverything) {
  RequestQueue queue(8);
  for (uint64_t i = 0; i < 4; ++i) {
    auto r = MakeRequest(i, 10, 64, i % 2 == 0 ? 0 : 100);
    ASSERT_TRUE(queue.Push(r).ok());
  }
  queue.Close();
  const auto taken = queue.TakeAll();
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(RequestQueue, ConcurrentPushersAndClaimersConserveRequests) {
  RequestQueue queue(64);
  constexpr int kPushers = 4;
  constexpr int kPerPusher = 200;
  std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> claimed{0};
  std::atomic<bool> done_pushing{false};

  std::vector<std::thread> claimers;
  claimers.reserve(2);
  for (int c = 0; c < 2; ++c) {
    claimers.emplace_back([&]() {
      std::vector<std::unique_ptr<PendingRequest>> out(16);
      for (;;) {
        const size_t n = queue.PopBatch(out.data(), 16);
        if (n == 0) return;  // closed and empty
        claimed.fetch_add(n);
        for (size_t i = 0; i < n; ++i) out[i].reset();
      }
    });
  }
  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&, p]() {
      for (int i = 0; i < kPerPusher; ++i) {
        auto r = MakeRequest(static_cast<uint64_t>(p) * 1000 + i);
        if (queue.Push(r).ok()) {
          pushed.fetch_add(1);
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pushers) t.join();
  done_pushing.store(true);
  queue.Close();
  for (std::thread& t : claimers) t.join();
  // Every push either entered the queue (and was claimed before or after
  // Close) or was refused with a Status — nothing vanishes.
  EXPECT_EQ(pushed.load() + refused.load(),
            static_cast<uint64_t>(kPushers) * kPerPusher);
  EXPECT_EQ(claimed.load() + queue.TakeAll().size(), pushed.load());
}

}  // namespace
}  // namespace song::serve
