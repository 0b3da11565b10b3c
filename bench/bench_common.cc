#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "core/timer.h"
#include "obs/exporters.h"

namespace song::bench {

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  const char* threads = std::getenv("SONG_BENCH_THREADS");
  if (threads != nullptr) env.threads = std::strtoul(threads, nullptr, 10);
  env.workload_options.num_threads = env.threads;
  return env;
}

std::vector<size_t> DefaultQueueSizes(size_t k) {
  std::vector<size_t> sizes = {10,  16,  24,  32,  48, 64,
                               96, 128, 192, 256, 384, 512, 768, 1024};
  sizes.erase(std::remove_if(sizes.begin(), sizes.end(),
                             [&](size_t s) { return s < k; }),
              sizes.end());
  if (sizes.empty() || sizes.front() != k) sizes.insert(sizes.begin(), k);
  return sizes;
}

std::vector<size_t> DefaultNprobes(size_t nlist) {
  std::vector<size_t> probes;
  for (size_t p = 1; p <= nlist; p *= 2) probes.push_back(p);
  if (probes.back() != nlist) probes.push_back(nlist);
  return probes;
}

BenchContext::BenchContext(const std::string& preset, const BenchEnv& env)
    : env_(env), workload_(GetWorkload(preset, env.workload_options)) {}

const FixedDegreeGraph& BenchContext::graph() {
  if (!graph_built_) {
    graph_ = GetOrBuildNswGraph(workload_, 16, env_.workload_options);
    graph_built_ = true;
  }
  return graph_;
}

const Hnsw& BenchContext::hnsw() {
  if (!hnsw_) {
    char tag[160];
    std::snprintf(tag, sizeof(tag), "%s/hnsw_%s_n%zu_m8_v1.bin",
                  ResolveCacheDir(env_.workload_options).c_str(),
                  workload_.name.c_str(), workload_.data.num());
    auto loaded = Hnsw::Load(tag, &workload_.data, workload_.metric);
    if (loaded.ok()) {
      hnsw_ = std::make_unique<Hnsw>(std::move(loaded.value()));
      return *hnsw_;
    }
    HnswBuildOptions opts;
    opts.m = 8;
    opts.ef_construction = 100;
    opts.num_threads = env_.threads;
    hnsw_ = std::make_unique<Hnsw>(&workload_.data, workload_.metric, opts);
    const Status s = hnsw_->Save(tag);
    if (!s.ok()) std::fprintf(stderr, "[bench] %s\n", s.ToString().c_str());
  }
  return *hnsw_;
}

const IvfPqIndex& BenchContext::ivfpq() {
  if (!ivfpq_) {
    char tag[160];
    std::snprintf(tag, sizeof(tag), "%s/ivfpq_%s_n%zu_v1.bin",
                  ResolveCacheDir(env_.workload_options).c_str(),
                  workload_.name.c_str(), workload_.data.num());
    auto loaded = IvfPqIndex::Load(tag, &workload_.data, workload_.metric);
    if (loaded.ok()) {
      ivfpq_ = std::make_unique<IvfPqIndex>(std::move(loaded.value()));
      return *ivfpq_;
    }
    IvfPqOptions opts;
    // nlist ~ 4*sqrt(n): the usual IVF sizing rule.
    opts.nlist = std::max<size_t>(
        64, static_cast<size_t>(
                4.0 * std::sqrt(static_cast<double>(workload_.data.num()))));
    // Synthetic Gaussian mixtures are PQ's hardest case (no inter-dim
    // correlation to exploit), so spend 32 bytes/code to give the baseline
    // a recall ceiling comparable to real-data Faiss (~0.8-0.9 on SIFT).
    opts.pq_m = std::clamp<size_t>(workload_.data.dim() / 4, 8, 32);
    opts.num_threads = env_.threads;
    // IVFPQ handles cosine via normalized inner product; our normalized
    // presets use L2 which orders identically, so L2 residual PQ is right.
    ivfpq_ = std::make_unique<IvfPqIndex>(&workload_.data, workload_.metric,
                                          opts);
    const Status s = ivfpq_->Save(tag);
    if (!s.ok()) std::fprintf(stderr, "[bench] %s\n", s.ToString().c_str());
  }
  return *ivfpq_;
}

Curve BenchContext::SweepSong(size_t k,
                              const std::vector<size_t>& queue_sizes,
                              SongSearchOptions base, const char* label) {
  Curve curve;
  curve.label = label;
  SongSearcher searcher(&workload_.data, &graph(), workload_.metric);
  for (const size_t qs : queue_sizes) {
    SongSearchOptions options = base;
    options.queue_size = qs;
    const SimulatedRun run =
        TrySimulateBatch(searcher, workload_.queries, k, options, env_.gpu,
                         env_.threads)
            .value();
    CurvePoint pt;
    pt.param = qs;
    pt.recall = MeanRecallAtK(run.batch.Ids(), workload_.ground_truth, k);
    pt.qps = run.SimQps();
    pt.cpu_qps = run.batch.Qps();
    pt.gpu = run.gpu;
    curve.points.push_back(pt);
  }
  return curve;
}

Curve BenchContext::SweepHnsw(size_t k, const std::vector<size_t>& efs) {
  Curve curve;
  curve.label = "HNSW";
  const Hnsw& index = hnsw();
  for (const size_t ef : efs) {
    std::vector<std::vector<idx_t>> ids(workload_.queries.num());
    HnswSearchStats stats;
    Timer timer;
    for (size_t q = 0; q < workload_.queries.num(); ++q) {
      const auto found = index.Search(
          workload_.queries.Row(static_cast<idx_t>(q)), k, ef, &stats);
      ids[q].reserve(found.size());
      for (const Neighbor& n : found) ids[q].push_back(n.id);
    }
    const double seconds = timer.ElapsedSeconds();
    RecordHnswSearchStats(stats, workload_.queries.num(),
                          &obs::MetricsRegistry::Global());
    CurvePoint pt;
    pt.param = ef;
    pt.recall = MeanRecallAtK(ids, workload_.ground_truth, k);
    pt.qps = static_cast<double>(workload_.queries.num()) / seconds;
    pt.cpu_qps = pt.qps;
    curve.points.push_back(pt);
  }
  return curve;
}

Curve BenchContext::SweepIvfpq(size_t k, const std::vector<size_t>& nprobes) {
  Curve curve;
  curve.label = "Faiss-IVFPQ";
  const IvfPqIndex& index = ivfpq();
  for (const size_t nprobe : nprobes) {
    IvfPqSearchStats stats;
    Timer timer;
    const auto results =
        index.BatchSearch(workload_.queries, k, nprobe, env_.threads, &stats);
    const double seconds = timer.ElapsedSeconds();
    RecordIvfPqSearchStats(stats, &obs::MetricsRegistry::Global());
    const FaissGpuEstimate est = EstimateFaissGpu(
        stats, env_.gpu, workload_.data.dim(), index.pq_m(), k);
    CurvePoint pt;
    pt.param = nprobe;
    pt.recall =
        MeanRecallAtK(FlatIndex::Ids(results), workload_.ground_truth, k);
    pt.qps = est.Qps(workload_.queries.num());
    pt.cpu_qps = static_cast<double>(workload_.queries.num()) / seconds;
    curve.points.push_back(pt);
  }
  return curve;
}

double QpsAtRecall(const Curve& curve, double recall_target) {
  // The recall/QPS frontier: for each achievable recall, the best QPS.
  double best = -1.0;
  for (size_t i = 0; i < curve.points.size(); ++i) {
    const CurvePoint& p = curve.points[i];
    if (p.recall >= recall_target) best = std::max(best, p.qps);
  }
  if (best > 0.0) return best;
  // Interpolate between the two straddling points if any pair crosses.
  for (size_t i = 1; i < curve.points.size(); ++i) {
    const CurvePoint& a = curve.points[i - 1];
    const CurvePoint& b = curve.points[i];
    const double lo = std::min(a.recall, b.recall);
    const double hi = std::max(a.recall, b.recall);
    if (recall_target >= lo && recall_target <= hi && hi > lo) {
      const double t = (recall_target - a.recall) / (b.recall - a.recall);
      return a.qps + t * (b.qps - a.qps);
    }
  }
  return -1.0;  // N/A
}

const char* BenchGitDescribe() {
#ifdef SONG_GIT_DESCRIBE
  return SONG_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

void EmitBenchJson(const std::string& bench_name,
                   const std::vector<Curve>& curves, const BenchEnv& env) {
  const char* dir = std::getenv("SONG_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::string out = "{\n  \"schema_version\": ";
  out += std::to_string(kBenchJsonSchemaVersion);
  out += ",\n  \"bench\": ";
  AppendJsonString(&out, bench_name);
  out += ",\n  \"git_describe\": ";
  AppendJsonString(&out, BenchGitDescribe());
  out += ",\n  \"gpu\": ";
  AppendJsonString(&out, env.gpu.name);
  out += ",\n  \"curves\": [";
  char buf[256];
  for (size_t c = 0; c < curves.size(); ++c) {
    out += c == 0 ? "\n    {\"label\": " : ",\n    {\"label\": ";
    AppendJsonString(&out, curves[c].label);
    out += ", \"points\": [";
    for (size_t i = 0; i < curves[c].points.size(); ++i) {
      const CurvePoint& p = curves[c].points[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n      {\"param\": %zu, \"recall\": %.6f, "
                    "\"qps\": %.3f, \"cpu_qps\": %.3f}",
                    i == 0 ? "" : ",", p.param, p.recall, p.qps, p.cpu_qps);
      out += buf;
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  const std::string path =
      std::string(dir) + "/BENCH_" + bench_name + ".json";
  if (!obs::WriteStringToFile(path, out)) {
    std::fprintf(stderr, "[bench] failed to write %s\n", path.c_str());
  } else {
    std::printf("[bench] wrote %s\n", path.c_str());
  }
}

void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void PrintCurve(const Curve& curve, const char* param_name) {
  std::printf("-- %s --\n", curve.label.c_str());
  std::printf("%10s %10s %14s %14s\n", param_name, "recall", "QPS",
              "cpu QPS");
  for (const CurvePoint& p : curve.points) {
    std::printf("%10zu %10.4f %14.0f %14.0f\n", p.param, p.recall, p.qps,
                p.cpu_qps);
  }
}

}  // namespace song::bench
