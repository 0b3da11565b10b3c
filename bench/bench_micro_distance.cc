// Micro benches for the bulk-distance substrate: distance kernels across
// the paper's dimensionalities (128..960), Hamming popcount distances for
// the hashed path, and the end-to-end single-query SONG search cost.
//
// Before the google-benchmark suite runs, main() executes a SIMD dispatch
// sweep — scalar vs AVX2 vs AVX-512, single-pair vs fused batch — over dims
// {16, 100, 128, 200, 784, 960} and prints ns/pair plus speedup-vs-scalar.
// With SONG_BENCH_JSON_DIR set it also writes BENCH_micro_distance.json
// (see docs/performance.md for the layout; bench/baselines/ holds a
// committed reference artifact). SONG_BENCH_SMOKE=1 shrinks the sweep for
// CI.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/bitvector.h"
#include "core/distance.h"
#include "core/distance_kernels.h"
#include "core/simd.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "obs/exporters.h"
#include "song/song_searcher.h"

namespace song {
namespace {

std::vector<float> RandomVec(size_t dim, uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> d;
  std::vector<float> v(dim);
  for (float& x : v) x = d(rng);
  return v;
}

// ---------------------------------------------------------------------------
// SIMD dispatch sweep (runs once from main, before google-benchmark).
// ---------------------------------------------------------------------------

struct SweepResult {
  size_t dim = 0;
  const char* metric = "";
  const char* mode = "";  // "single" or "batch"
  SimdTier tier = SimdTier::kScalar;
  double ns_per_pair = 0.0;
  double speedup_vs_scalar = 1.0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times one (tier, metric, mode, dim) cell: `query` against `n` rows of
/// `data` in shuffled id order (mimicking the Stage 2 gather pattern),
/// best-of-`reps` wall time per pass. Each timed rep loops enough passes
/// to fill ~1 ms so scheduler jitter cannot dominate microsecond passes.
double TimeCell(const internal::DistanceKernelTable& table, bool batch,
                bool l2, const Dataset& data, const float* query,
                const std::vector<idx_t>& ids, size_t reps,
                std::vector<float>* out) {
  const float* base = data.Row(0);
  const size_t stride = data.stride();
  const size_t dim = data.dim();
  const size_t n = ids.size();
  out->resize(n);
  const internal::PairKernel pair = l2 ? table.l2 : table.dot;
  const internal::GatherKernel gather = l2 ? table.l2_gather : table.dot_gather;
  const auto one_pass = [&] {
    if (batch) {
      gather(query, base, stride, dim, ids.data(), n, out->data());
    } else {
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = pair(query, base + size_t{ids[i]} * stride, dim);
      }
    }
  };
  // Calibrate the inner pass count against a warmup pass (also primes the
  // cache) so each timed interval is ~1 ms.
  const double warm_start = Now();
  one_pass();
  const double warm = std::max(Now() - warm_start, 1e-9);
  const size_t passes = std::max<size_t>(1, static_cast<size_t>(1e-3 / warm));
  double best = 1e30;
  for (size_t r = 0; r < reps; ++r) {
    const double start = Now();
    for (size_t p = 0; p < passes; ++p) one_pass();
    best = std::min(best, (Now() - start) / static_cast<double>(passes));
  }
  // Keep the results observable so the loops cannot be optimized away.
  float sink = 0.0f;
  for (const float v : *out) sink += v;
  benchmark::DoNotOptimize(sink);
  return best * 1e9 / static_cast<double>(n);
}

std::string SweepToJson(const std::vector<SweepResult>& results) {
  std::string out = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"schema_version\": %d,\n  \"bench\": \"micro_distance\",\n",
                bench::kBenchJsonSchemaVersion);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"git_describe\": \"%s\",\n",
                bench::BenchGitDescribe());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"cpu_tier\": \"%s\",\n  \"active_tier\": \"%s\",\n",
                SimdTierName(CpuSimdTier()), SimdTierName(ActiveSimdTier()));
  out += buf;
  out += "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"dim\": %zu, \"metric\": \"%s\", \"mode\": \"%s\", "
                  "\"tier\": \"%s\", \"ns_per_pair\": %.3f, "
                  "\"speedup_vs_scalar\": %.2f}%s\n",
                  r.dim, r.metric, r.mode, SimdTierName(r.tier), r.ns_per_pair,
                  r.speedup_vs_scalar, i + 1 < results.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

void RunDispatchSweep() {
  const bool smoke = std::getenv("SONG_BENCH_SMOKE") != nullptr;
  const size_t reps = smoke ? 3 : 31;
  const std::vector<size_t> dims = {16, 100, 128, 200, 784, 960};

  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  for (const SimdTier t : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (SimdTierCompiled(t) && t <= CpuSimdTier()) tiers.push_back(t);
  }

  std::printf("SIMD dispatch sweep: cpu=%s active=%s (best of %zu)\n",
              SimdTierName(CpuSimdTier()), SimdTierName(ActiveSimdTier()),
              reps);
  std::printf("%6s %-7s %-7s %-7s %12s %10s\n", "dim", "metric", "mode",
              "tier", "ns/pair", "vs scalar");

  std::vector<SweepResult> results;
  std::vector<float> out;
  for (const size_t dim : dims) {
    // Cap the working set at ~1 MB (comfortably L2-resident) so every dim
    // measures kernel throughput from cache, not DRAM bandwidth (Stage 2
    // candidates are hot lines the Stage 1 prefetch already pulled in).
    const size_t row_bytes = Dataset::PaddedStride(dim) * sizeof(float);
    const size_t fit = (size_t{1} << 20) / row_bytes;
    const size_t n = smoke ? std::min<size_t>(256, std::max<size_t>(fit, 64))
                           : std::min<size_t>(2048, std::max<size_t>(fit, 64));
    // Fresh data per dim; shuffled ids approximate the Stage 2 gather.
    Dataset data(n, dim);
    std::mt19937 rng(static_cast<uint32_t>(dim) * 7919u + 17u);
    std::normal_distribution<float> nd;
    std::vector<float> row(dim);
    for (size_t i = 0; i < n; ++i) {
      for (float& x : row) x = nd(rng);
      data.SetRow(static_cast<idx_t>(i), row.data());
    }
    const std::vector<float> query = RandomVec(dim, 99);
    std::vector<idx_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<idx_t>(i);
    std::shuffle(ids.begin(), ids.end(), rng);

    for (const bool l2 : {true, false}) {
      for (const bool batch : {false, true}) {
        double scalar_ns = 0.0;
        for (const SimdTier tier : tiers) {
          const internal::DistanceKernelTable& table =
              internal::KernelTableForTier(tier);
          SweepResult r;
          r.dim = dim;
          r.metric = l2 ? "l2" : "dot";
          r.mode = batch ? "batch" : "single";
          r.tier = tier;
          r.ns_per_pair =
              TimeCell(table, batch, l2, data, query.data(), ids, reps, &out);
          if (tier == SimdTier::kScalar) scalar_ns = r.ns_per_pair;
          r.speedup_vs_scalar =
              r.ns_per_pair > 0.0 ? scalar_ns / r.ns_per_pair : 0.0;
          std::printf("%6zu %-7s %-7s %-7s %12.2f %9.2fx\n", r.dim, r.metric,
                      r.mode, SimdTierName(r.tier), r.ns_per_pair,
                      r.speedup_vs_scalar);
          results.push_back(r);
        }
      }
    }
  }

  const char* dir = std::getenv("SONG_BENCH_JSON_DIR");
  if (dir != nullptr && *dir != '\0') {
    const std::string path =
        std::string(dir) + "/BENCH_micro_distance.json";
    if (obs::WriteStringToFile(path, SweepToJson(results))) {
      std::printf("wrote %s\n", path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// google-benchmark suite.
// ---------------------------------------------------------------------------

void BM_L2Sqr(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto a = RandomVec(dim, 1);
  const auto b = RandomVec(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2Sqr(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_L2Sqr)->Arg(128)->Arg(200)->Arg(256)->Arg(784)->Arg(960);

void BM_InnerProduct(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto a = RandomVec(dim, 3);
  const auto b = RandomVec(dim, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InnerProduct(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_InnerProduct)->Arg(128)->Arg(960);

void BM_Hamming(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  BinaryCodes codes(2, bits);
  for (size_t b = 0; b < bits; b += 3) codes.SetBit(0, b);
  for (size_t b = 0; b < bits; b += 5) codes.SetBit(1, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HammingDistance(codes.Row(0), codes.Row(1), codes.words()));
  }
  state.SetItemsProcessed(state.iterations() * bits);
}
BENCHMARK(BM_Hamming)->Arg(32)->Arg(128)->Arg(512);

// End-to-end single-query search across visited-structure configs.
struct SearchFixtureData {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;
  static SearchFixtureData& Get() {
    static SearchFixtureData* f = [] {
      auto* fx = new SearchFixtureData();
      SyntheticSpec spec;
      spec.dim = 128;
      spec.num_points = 8000;
      spec.num_queries = 64;
      spec.num_clusters = 40;
      spec.cluster_std = 0.7;
      spec.seed = 5150;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, {});
      return fx;
    }();
    return *f;
  }
};

void RunSearchBench(benchmark::State& state,
                    const SongSearchOptions& base) {
  auto& fx = SearchFixtureData::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = base;
  options.queue_size = static_cast<size_t>(state.range(0));
  SongWorkspace ws;
  size_t qi = 0;
  for (auto _ : state) {
    const auto result = searcher.TrySearch(
        fx.queries.Row(static_cast<idx_t>(qi % fx.queries.num())), 10,
        options, &ws);
    benchmark::DoNotOptimize(result->data());
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SearchHashTable(benchmark::State& state) {
  RunSearchBench(state, SongSearchOptions::HashTable());
}
void BM_SearchHashTableSelDel(benchmark::State& state) {
  RunSearchBench(state, SongSearchOptions::HashTableSelDel());
}
void BM_SearchBloom(benchmark::State& state) {
  RunSearchBench(state, SongSearchOptions::Bloom());
}
void BM_SearchCuckoo(benchmark::State& state) {
  RunSearchBench(state, SongSearchOptions::Cuckoo());
}
BENCHMARK(BM_SearchHashTable)->Arg(64)->Arg(256);
BENCHMARK(BM_SearchHashTableSelDel)->Arg(64)->Arg(256);
BENCHMARK(BM_SearchBloom)->Arg(64)->Arg(256);
BENCHMARK(BM_SearchCuckoo)->Arg(64)->Arg(256);

}  // namespace
}  // namespace song

int main(int argc, char** argv) {
  song::RunDispatchSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
