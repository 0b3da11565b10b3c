// Shared pieces of the perfbench binary: run configuration, the result
// record every workload fills, percentiles, the in-memory span tracer and
// the uncached, seed-driven set-up (data generation, exact ground truth,
// NSW graph build).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/types.h"
#include "data/synthetic.h"
#include "graph/fixed_degree_graph.h"

namespace perfbench {

/// How many times each run repeats its set-up; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Result count every workload asks for (recall@10).
inline constexpr size_t kK = 10;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 1;            ///< load threads: nproc, at most 4
  std::string server_path;       ///< song_server binary (serve-sift)
  std::string work_dir;          ///< scratch files for this run
  std::string spans_out;         ///< where the traced run writes its spans
};

/// What a workload run reports. Metrics keep insertion order.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> metrics;

  void Set(const std::string& name, double value);
  /// Marks the run incorrect and keeps the reason for the report.
  void Fail(const std::string& why);
  /// Fails unless `cond` holds.
  void Check(bool cond, const std::string& why) {
    if (!cond) Fail(why);
  }
};

/// Microseconds on the steady clock since the first call in this process.
double NowUs();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Peak resident set of this process (getrusage), MiB.
double PeakRssMb();
/// Current resident set of this process, MiB.
double CurrentRssMb();

/// One recorded span. Ids are never 0; `parent` 0 marks a root span.
struct SpanRecord {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// In-memory span store with one append-only buffer per thread slot, so
/// recording never takes a lock. Spans are written out once, at the end of
/// the run. A slot must be used by one thread at a time.
class Tracer {
 public:
  explicit Tracer(size_t slots);

  /// Records a completed span and returns its id.
  uint64_t Add(size_t slot, const char* name, double start_us, double end_us,
               uint64_t parent, uint64_t request);
  /// Opens a span now; End() closes it. Returns the id children name as
  /// parent.
  uint64_t Begin(size_t slot, const char* name, uint64_t parent,
                 uint64_t request);
  void End(uint64_t id);

  size_t size() const;
  /// Self time (duration minus the time its children cover) summed per
  /// layer, where a span's layer is its name up to the first '.'; ms.
  std::vector<std::pair<std::string, double>> SelfMsByLayer() const;
  /// One JSON object per line: name, id, parent, request_id, start_us,
  /// end_us. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  SpanRecord& Lookup(uint64_t id);
  std::vector<std::vector<SpanRecord>> slots_;
};

/// A span over a scope; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, size_t slot, const char* name, uint64_t parent = 0,
       uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(slot, name, parent, request) : 0) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  void End() {
    if (tracer_ != nullptr && id_ != 0) tracer_->End(id_);
    id_ = 0;
  }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// The data a workload runs on, built from its seed without any cache.
struct Corpus {
  song::Metric metric = song::Metric::kL2;
  song::Dataset data;
  song::Dataset queries;
  /// Exact top-kK ids per query (empty when not requested).
  std::vector<std::vector<song::idx_t>> ground_truth;
  song::FixedDegreeGraph graph;
};

/// Wall seconds of one set-up's parts.
struct SetupTimes {
  double generate_s = 0.0;
  double ground_truth_s = 0.0;
  double graph_build_s = 0.0;
  double Total() const { return generate_s + ground_truth_s + graph_build_s; }
};

/// Generates `spec` (its seed replaced by a hash of `seed`), splits off the
/// first `num_base` points as the indexed set (the rest are returned in
/// `extra`, for workloads that insert them later), computes exact top-kK
/// ground truth over the base when asked (with `threads` threads), and
/// builds the degree-16 NSW graph on one thread, which makes it a function
/// of the seed. Every call pays the full cost: the on-disk caches of
/// data/workload.h are not used.
Corpus BuildCorpus(song::SyntheticSpec spec, uint64_t seed, size_t num_base,
                   bool ground_truth, size_t threads, Tracer* tracer,
                   SetupTimes* times, song::Dataset* extra = nullptr);

/// Runs BuildCorpus kSetupReps times and keeps the last corpus. Reports
/// the per-part medians as setup.* metrics and returns the median total
/// in `*setup_s`. When given, `measure(corpus, rep)` runs after each
/// repetition, so a workload can spread its measurement over the whole run
/// instead of one stretch of it: on a shared host that averages over more
/// of the neighbours' load.
Corpus RepeatedSetup(
    const song::SyntheticSpec& spec, uint64_t seed, size_t num_base,
    bool ground_truth, const RunConfig& cfg, Tracer* tracer, Outcome* out,
    double* setup_s, song::Dataset* extra = nullptr,
    const std::function<void(const Corpus&, int rep)>& measure = {});

/// Fraction of `got`'s ids found in `truth`'s first kK; both per query.
double MeanRecall(const std::vector<std::vector<song::idx_t>>& got,
                  const std::vector<std::vector<song::idx_t>>& truth);

/// Exact top-kK of `query` over the points of `data` not marked in
/// `tombstones` (which may be empty), ascending by (dist, id).
std::vector<song::idx_t> ExactTopK(const song::Dataset& data,
                                   song::Metric metric, const float* query,
                                   const std::vector<uint8_t>& tombstones);

/// The workloads (one file each). Each fills the end-to-end metrics named
/// in BENCHMARK.json and the per-layer metrics of the layers it drives.
Outcome RunBatchGlove(const RunConfig& cfg, Tracer* tracer);
Outcome RunServeSift(const RunConfig& cfg, Tracer* tracer);
Outcome RunChurnSift(const RunConfig& cfg, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
