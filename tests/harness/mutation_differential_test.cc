// Online-mutation differential fuzzing: seed-driven interleavings of
// insert / search / delete on a MutableIndex, checked round-by-round against
// the incrementally-maintained brute-force oracle (OracleDynamicIndex),
// across all four visited structures — 130 rounds each, 520 interleaved
// rounds per invocation. Exact structures (hash table, epoch array) must
// match the oracle-backed reference search element-for-element after the
// tombstone filter; the probabilistic structures are held to the sorted/
// unique/live/genuine-distance contract. Every round also exercises
// snapshot pinning (bit-identical replay after later mutations), post-insert
// reachability, Status error paths and retired-version reclamation — see
// FuzzMutationDifferential in harness/fuzz.h for the full check list.
//
// The concurrency tests at the bottom are the designated TSan targets: a
// writer thread publishing versions while reader threads pin snapshots and
// verify their immutable view. They assert no torn reads, monotonic
// versions, and result stability per pinned version; the CI
// SONG_SANITIZE=thread leg runs them under TSan.

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/random.h"
#include "gtest/gtest.h"
#include "harness/fuzz.h"
#include "song/index_snapshot.h"
#include "song/mutable_index.h"
#include "song/search_core.h"

namespace song::harness {
namespace {

TEST(HarnessMutationDifferential, HashTableMatchesOracle) {
  const DifferentialReport report =
      FuzzMutationDifferential(VisitedStructure::kHashTable, BaseSeed(), 130);
  EXPECT_GT(report.checks, 2000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessMutationDifferential, EpochArrayMatchesOracle) {
  const DifferentialReport report =
      FuzzMutationDifferential(VisitedStructure::kEpochArray, BaseSeed(), 130);
  EXPECT_GT(report.checks, 2000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessMutationDifferential, BloomFilterHoldsMutationContract) {
  const DifferentialReport report = FuzzMutationDifferential(
      VisitedStructure::kBloomFilter, BaseSeed(), 130);
  EXPECT_GT(report.checks, 2000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessMutationDifferential, CuckooFilterHoldsMutationContract) {
  const DifferentialReport report = FuzzMutationDifferential(
      VisitedStructure::kCuckooFilter, BaseSeed(), 130);
  EXPECT_GT(report.checks, 2000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

// ---------------------------------------------------------------------------
// Concurrent writer/readers — the TSan targets.
// ---------------------------------------------------------------------------

uint64_t MixSeed(uint64_t base, uint64_t stream) {
  uint64_t state = base ^ (stream * 0x9e3779b97f4a7c15ULL);
  return SplitMix64(state);
}

std::vector<float> DeterministicPoint(RandomEngine& rng, size_t dim) {
  std::vector<float> v(dim);
  for (size_t d = 0; d < dim; ++d) {
    v[d] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  if (v[0] == 0.0f) v[0] = 0.5f;
  return v;
}

TEST(HarnessMutationDifferential, ConcurrentReadersSeeConsistentSnapshots) {
  constexpr size_t kDim = 8;
  constexpr size_t kReaders = 4;
  constexpr size_t kMutations = 300;
  MutableIndex index(Metric::kL2, kDim, MutableIndexOptions{.degree = 8});

  // Seed a few points so readers always have something to search.
  RandomEngine seed_rng(MixSeed(BaseSeed(), 0x91));
  for (size_t i = 0; i < 16; ++i) {
    const std::vector<float> p = DeterministicPoint(seed_rng, kDim);
    ASSERT_TRUE(index.Insert(p.data()).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> reader_failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      RandomEngine rng(MixSeed(BaseSeed(), 0xA0 + r));
      SongWorkspace workspace;
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
        // Versions observed by one reader never go backwards.
        if (snapshot->version() < last_version) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        last_version = snapshot->version();
        const std::vector<float> q = DeterministicPoint(rng, kDim);
        SongSearchOptions options;
        options.queue_size = 16;
        const std::vector<Neighbor> a =
            snapshot->TrySearch(q.data(), 5, options, &workspace).value();
        const std::vector<Neighbor> b =
            snapshot->TrySearch(q.data(), 5, options, &workspace).value();
        // A pinned snapshot is immutable: identical query, identical answer,
        // regardless of the concurrent writer.
        if (a.size() != b.size() ||
            !std::equal(a.begin(), a.end(), b.begin(),
                        [](const Neighbor& x, const Neighbor& y) {
                          return x == y;
                        })) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        for (const Neighbor& n : a) {
          if (n.id >= snapshot->num_points() || !snapshot->IsLive(n.id)) {
            reader_failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }

  RandomEngine rng(MixSeed(BaseSeed(), 0x92));
  size_t inserted = 16;
  for (size_t i = 0; i < kMutations; ++i) {
    if (rng.NextUint(3) != 0) {
      const std::vector<float> p = DeterministicPoint(rng, kDim);
      ASSERT_TRUE(index.Insert(p.data()).ok());
      ++inserted;
    } else {
      // Deleting an arbitrary id may hit a tombstone; both outcomes are
      // legal under concurrency, only crashes/races are not.
      (void)index.Delete(static_cast<idx_t>(rng.NextUint(inserted)));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(reader_failures.load(), 0u);
  EXPECT_EQ(index.num_points(), inserted);
  // Every insert publishes a version; failed deletes (double-deletes) do not.
  EXPECT_GE(index.version(), inserted);
  EXPECT_LE(index.version(), inserted + kMutations);
}

TEST(HarnessMutationDifferential, ConcurrentAcquireNeverBlocksReclamation) {
  constexpr size_t kDim = 4;
  MutableIndex index(Metric::kL2, kDim, MutableIndexOptions{.degree = 6});
  RandomEngine rng(MixSeed(BaseSeed(), 0x93));
  for (size_t i = 0; i < 8; ++i) {
    const std::vector<float> p = DeterministicPoint(rng, kDim);
    ASSERT_TRUE(index.Insert(p.data()).ok());
  }

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
      ASSERT_LE(snapshot->live_points(), snapshot->num_points());
    }
  });
  for (size_t i = 0; i < 200; ++i) {
    const std::vector<float> p = DeterministicPoint(rng, kDim);
    ASSERT_TRUE(index.Insert(p.data()).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Once the reader is gone, every retired version must be reclaimable.
  index.ReclaimRetired();
  EXPECT_EQ(index.retired_versions(), 0u);
}

}  // namespace
}  // namespace song::harness
