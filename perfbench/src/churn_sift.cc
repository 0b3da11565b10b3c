// churn-sift: a 12k-point sift index adopted into MutableIndex, one writer
// applying a seeded insert/delete stream (about 4:1) at a fixed rate, and
// nproc-1 closed-loop readers (Acquire + TrySearch, k=10) beside it.
//
// The churn runs in one phase of --seconds/kSetupReps after each set-up
// repetition, every phase on a fresh copy of the adopted index with the
// same op stream, and the run reports medians over the phases. One phase's
// resident set depends on how the allocator happens to place the
// whole-index copy each insert makes (80 to 105 MB between runs of one
// 10-second phase); the median of three phases, each started from a
// trimmed heap as a fresh process would be, repeats far better.
//
// No check runs inside a timed call: a reader checks its result against the
// snapshot it pinned after the call's timer stops (ten tombstone lookups,
// tens of nanoseconds beside a search of about 100 us), and the exact
// live-set scan behind recall runs after the churn, over the last snapshot,
// which must also reflect every insert and delete the writer applied.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/random.h"
#include "core/thread_pool.h"
#include "song/mutable_index.h"

namespace perfbench {

namespace {

constexpr size_t kBasePoints = 12000;
constexpr size_t kQueries = 1000;
constexpr double kOpsPerSecond = 100.0;
constexpr double kDeleteShare = 0.2;  // inserts : deletes = 4 : 1
constexpr size_t kQueueSize = 64;
// Far under the ~0.999 this workload reaches after churn.
constexpr double kRecallFloor = 0.85;

struct WriteOp {
  bool insert = true;
  size_t row = 0;         ///< extra-row index (insert)
  song::idx_t id = 0;     ///< id assigned (insert) or removed (delete)
};

std::vector<WriteOp> MakeOps(uint64_t seed, size_t count) {
  song::RandomEngine rng(seed ^ 0x636875726eull);  // "churn"
  std::vector<song::idx_t> live(kBasePoints);
  for (size_t i = 0; i < kBasePoints; ++i) live[i] = static_cast<song::idx_t>(i);
  std::vector<WriteOp> ops(count);
  size_t inserted = 0;
  for (WriteOp& op : ops) {
    if (rng.NextUniform() < kDeleteShare) {
      const size_t j = rng.Next() % live.size();
      op.insert = false;
      op.id = live[j];
      live[j] = live.back();
      live.pop_back();
    } else {
      op.insert = true;
      op.row = inserted;
      op.id = static_cast<song::idx_t>(kBasePoints + inserted++);
      live.push_back(op.id);
    }
  }
  return ops;
}

/// What one reader measured in one phase.
struct ReaderLog {
  std::vector<float> acquire_us, search_us;
  song::SearchStats stats;
  uint64_t failed = 0;
  uint64_t bad_results = 0;  ///< short lists, unknown or tombstoned ids
  std::string first_error;
};

/// One phase's measurements.
struct PhaseLog {
  std::vector<double> write_us;  ///< per op, in stream order
  std::vector<ReaderLog> readers;
  double wall_s = 0.0;
  double rss_start_mb = 0.0, rss_max_mb = 0.0;
  size_t retired_max = 0;
  uint64_t write_failed = 0;
  std::string write_error;
};

/// Runs the op stream against `index` at kOpsPerSecond while `num_readers`
/// threads search it. Tracer slot 1 is the writer, 2.. the readers.
PhaseLog RunPhase(song::MutableIndex* index, const std::vector<WriteOp>& ops,
                  const song::Dataset& extra, const song::Dataset& queries,
                  size_t num_readers, Tracer* tracer) {
  PhaseLog log;
  log.write_us.resize(ops.size());
  log.readers.resize(num_readers);
  song::SongSearchOptions options;
  options.queue_size = kQueueSize;
  std::atomic<bool> writing{true};

  auto reader = [&](size_t r) {
    ReaderLog& rl = log.readers[r];
    const size_t slot = 2 + r;
    rl.acquire_us.reserve(60000);
    rl.search_us.reserve(60000);
    song::SongWorkspace ws;
    size_t q = r;
    while (writing.load(std::memory_order_acquire)) {
      const float* query = queries.Row(static_cast<song::idx_t>(q));
      q = (q + num_readers) % queries.num();
      Span root(tracer, slot, "client.query");
      const double t0 = NowUs();
      Span acquire_span(tracer, slot, "snapshot.acquire", root.id());
      const auto snap = index->Acquire();
      acquire_span.End();
      const double t1 = NowUs();
      Span search_span(tracer, slot, "snapshot.search", root.id());
      auto result = snap->TrySearch(query, kK, options, &ws, &rl.stats);
      search_span.End();
      const double t2 = NowUs();
      root.End();
      rl.acquire_us.push_back(static_cast<float>(t1 - t0));
      rl.search_us.push_back(static_cast<float>(t2 - t1));
      if (!result.ok()) {
        if (rl.failed++ == 0) rl.first_error = result.status().ToString();
        continue;
      }
      bool good = result.value().size() == kK;
      for (const song::Neighbor& n : result.value()) {
        good = good && snap->IsLive(n.id);
      }
      rl.bad_results += good ? 0 : 1;
    }
  };

  log.rss_start_mb = log.rss_max_mb = CurrentRssMb();
  const double start = NowUs();
  std::vector<std::thread> threads;
  for (size_t r = 0; r < num_readers; ++r) threads.emplace_back(reader, r);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ops.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(i / kOpsPerSecond)));
    const WriteOp& op = ops[i];
    Span span(tracer, 1, op.insert ? "mutation.insert" : "mutation.delete", 0,
              i + 1);
    const double begin = NowUs();
    song::Status s;
    if (op.insert) {
      auto id = index->Insert(extra.Row(static_cast<song::idx_t>(op.row)));
      s = id.status();
      if (id.ok() && id.value() != op.id) {
        s = song::Status::Internal("insert returned an unexpected id");
      }
    } else {
      s = index->Delete(op.id);
    }
    log.write_us[i] = NowUs() - begin;
    span.End();
    // Bookkeeping after the timed call.
    log.retired_max = std::max(log.retired_max, index->retired_versions());
    log.rss_max_mb = std::max(log.rss_max_mb, CurrentRssMb());
    if (!s.ok() && log.write_failed++ == 0) log.write_error = s.ToString();
  }
  writing.store(false, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  log.wall_s = (NowUs() - start) / 1e6;
  return log;
}

}  // namespace

Outcome RunChurnSift(const RunConfig& cfg, Tracer* tracer) {
  Outcome out;
  const size_t ops_per_phase = static_cast<size_t>(
      std::llround(kOpsPerSecond * cfg.seconds / kSetupReps));
  song::SyntheticSpec spec = song::PresetSpec("sift", 1.0);
  spec.num_points = kBasePoints + ops_per_phase;  // the tail feeds inserts
  spec.num_queries = kQueries;
  const std::vector<WriteOp> ops = MakeOps(cfg.seed, ops_per_phase);
  const size_t num_readers = std::max<size_t>(1, cfg.threads - 1);
  song::Dataset extra;

  std::vector<double> insert_us, delete_us, first_quarter, last_quarter;
  std::vector<double> acquire_us, search_us, phase_qps, phase_rss, growth;
  song::SearchStats stats;
  uint64_t searches = 0;
  size_t retired_max = 0;
  double recall = 0.0, adopt_s = 0.0;
  // One phase follows each set-up repetition.
  auto phase = [&](const Corpus& c, int rep) {
    // Start each phase from a trimmed heap, like a fresh process.
    malloc_trim(0);
    song::MutableIndex index(c.metric, c.data.dim());
    const double adopt_start = NowUs();
    {
      Span span(tracer, 0, "setup.adopt");
      const song::Status adopted = index.AdoptFrozen(c.data, c.graph);
      if (!adopted.ok()) {
        out.Fail("AdoptFrozen: " + adopted.ToString());
        return;
      }
    }
    if (rep == 0) adopt_s = (NowUs() - adopt_start) / 1e6;

    const PhaseLog log =
        RunPhase(&index, ops, extra, c.queries, num_readers, tracer);

    // ---- Checks and figures, all after the phase.
    out.attempted += ops.size();
    out.failed += log.write_failed;
    if (log.write_failed > 0) out.Fail("write op: " + log.write_error);
    std::vector<double> inserts;
    for (size_t i = 0; i < ops.size(); ++i) {
      (ops[i].insert ? inserts : delete_us).push_back(log.write_us[i]);
    }
    const size_t quarter = inserts.size() / 4;
    first_quarter.insert(first_quarter.end(), inserts.begin(),
                         inserts.begin() + quarter);
    last_quarter.insert(last_quarter.end(), inserts.end() - quarter,
                        inserts.end());
    insert_us.insert(insert_us.end(), inserts.begin(), inserts.end());
    uint64_t phase_searches = 0;
    for (const ReaderLog& rl : log.readers) {
      phase_searches += rl.search_us.size();
      out.failed += rl.failed + rl.bad_results;
      if (rl.failed > 0) out.Fail("snapshot search: " + rl.first_error);
      out.Check(rl.bad_results == 0,
                std::to_string(rl.bad_results) +
                    " searches returned a short list or a tombstoned id");
      stats.Add(rl.stats);
      acquire_us.insert(acquire_us.end(), rl.acquire_us.begin(),
                        rl.acquire_us.end());
      search_us.insert(search_us.end(), rl.search_us.begin(),
                       rl.search_us.end());
    }
    searches += phase_searches;
    out.attempted += phase_searches;
    phase_qps.push_back(static_cast<double>(phase_searches) / log.wall_s);
    phase_rss.push_back(log.rss_max_mb);
    growth.push_back(log.rss_max_mb - log.rss_start_mb);
    retired_max = std::max(retired_max, log.retired_max);

    // The last version must reflect exactly the ops the writer applied.
    const auto final_snap = index.Acquire();
    std::vector<uint8_t> expect_live(kBasePoints + ops.size(), 0);
    std::fill(expect_live.begin(), expect_live.begin() + kBasePoints, 1);
    size_t assigned = kBasePoints;
    for (const WriteOp& op : ops) {
      expect_live[op.id] = op.insert ? 1 : 0;
      assigned += op.insert ? 1 : 0;
    }
    bool state_ok = final_snap->num_points() == assigned;
    for (size_t id = 0; state_ok && id < assigned; ++id) {
      state_ok = final_snap->IsLive(static_cast<song::idx_t>(id)) ==
                 (expect_live[id] != 0);
    }
    out.Check(state_ok, "final snapshot disagrees with the applied ops");
    if (rep + 1 < kSetupReps) return;

    // Every phase applies the same ops, so the last one stands for all.
    std::vector<std::vector<song::idx_t>> got(c.queries.num()),
        truth(c.queries.num());
    std::vector<uint8_t> bad(c.queries.num(), 0);
    song::SongSearchOptions options;
    options.queue_size = kQueueSize;
    song::ParallelFor(c.queries.num(), cfg.threads, [&](size_t q, size_t) {
      const float* query = c.queries.Row(static_cast<song::idx_t>(q));
      truth[q] = ExactTopK(final_snap->data(), c.metric, query,
                           final_snap->tombstones());
      song::SongWorkspace ws;
      auto r = final_snap->TrySearch(query, kK, options, &ws);
      if (!r.ok()) {
        bad[q] = 1;
        return;
      }
      for (const song::Neighbor& n : r.value()) got[q].push_back(n.id);
    });
    out.Check(std::count(bad.begin(), bad.end(), 1) == 0,
              "final snapshot search failed");
    recall = MeanRecall(got, truth);
  };
  double setup_s = 0.0;
  RepeatedSetup(spec, cfg.seed, kBasePoints, /*ground_truth=*/false, cfg,
                tracer, &out, &setup_s, &extra, phase);
  setup_s += adopt_s;
  out.Set("setup.server_ready_s", 0.0);
  out.Check(recall >= kRecallFloor,
            "recall@10 " + std::to_string(recall) + " below floor");

  out.Set("setup_s", setup_s);
  out.Set("peak_rss_mb", Median(phase_rss));
  out.Set("recall_at_10", recall);
  out.Set("qps", Median(phase_qps));
  out.Set("latency_p50_us", Percentile(insert_us, 50));

  const double nq = static_cast<double>(std::max<uint64_t>(1, searches));
  const double distances = static_cast<double>(
      std::max<size_t>(1, stats.distance_computations));
  double busy_us = 0.0;
  for (const double us : search_us) busy_us += us;
  out.Set("search.iterations_per_query", stats.iterations / nq);
  out.Set("search.distances_per_query", stats.distance_computations / nq);
  out.Set("search.vector_bytes_per_query", stats.data_bytes_loaded / nq);
  out.Set("search.graph_bytes_per_query", stats.graph_bytes_loaded / nq);
  out.Set("search.visited_tests_per_query", stats.visited_tests / nq);
  out.Set("search.queue_pushes_per_query", stats.q_pushes / nq);
  out.Set("search.useful_distance_frac", stats.q_pushes / distances);
  out.Set("search.query_us.p50", Percentile(search_us, 50));
  out.Set("search.query_us.p99", Percentile(search_us, 99));
  out.Set("search.ns_per_distance", busy_us * 1e3 / distances);
  out.Set("churn.insert_us.p99", Percentile(insert_us, 99));
  out.Set("churn.insert_us.first_quarter_p50", Median(first_quarter));
  out.Set("churn.insert_us.last_quarter_p50", Median(last_quarter));
  out.Set("churn.delete_us.p50", Median(delete_us));
  out.Set("churn.acquire_us.p99", Percentile(acquire_us, 99));
  out.Set("churn.snapshot_search_us.p50", Percentile(search_us, 50));
  out.Set("churn.snapshot_search_us.p99", Percentile(search_us, 99));
  out.Set("churn.retired_versions.max", static_cast<double>(retired_max));
  out.Set("churn.rss_growth_mb", Median(growth));
  return out;
}

}  // namespace perfbench
