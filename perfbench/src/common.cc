#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "baselines/flat_index.h"
#include "core/random.h"
#include "graph/nsw_builder.h"

namespace perfbench {

using song::Dataset;
using song::idx_t;

void Outcome::Set(const std::string& name, double value) {
  for (auto& [key, v] : metrics) {
    if (key == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

double NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long total = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

Tracer::Tracer(size_t slots) : slots_(slots) {
  for (auto& s : slots_) s.reserve(1 << 16);
}

uint64_t Tracer::Add(size_t slot, const char* name, double start_us,
                     double end_us, uint64_t parent, uint64_t request) {
  std::vector<SpanRecord>& buf = slots_[slot];
  SpanRecord r;
  r.name = name;
  r.start_us = start_us;
  r.end_us = end_us;
  r.id = (static_cast<uint64_t>(slot) << 40) | (buf.size() + 1);
  r.parent = parent;
  r.request = request;
  buf.push_back(r);
  return r.id;
}

uint64_t Tracer::Begin(size_t slot, const char* name, uint64_t parent,
                       uint64_t request) {
  const double now = NowUs();
  return Add(slot, name, now, now, parent, request);
}

void Tracer::End(uint64_t id) { Lookup(id).end_us = NowUs(); }

SpanRecord& Tracer::Lookup(uint64_t id) {
  return slots_[id >> 40][(id & ((uint64_t{1} << 40) - 1)) - 1];
}

size_t Tracer::size() const {
  size_t n = 0;
  for (const auto& s : slots_) n += s.size();
  return n;
}

std::vector<std::pair<std::string, double>> Tracer::SelfMsByLayer() const {
  std::map<uint64_t, double> child_us;
  for (const auto& s : slots_) {
    for (const SpanRecord& r : s) {
      if (r.parent != 0) child_us[r.parent] += r.end_us - r.start_us;
    }
  }
  std::map<std::string, double> self_ms;
  for (const auto& s : slots_) {
    for (const SpanRecord& r : s) {
      const std::string name = r.name;
      const std::string layer = name.substr(0, name.find('.'));
      const auto it = child_us.find(r.id);
      const double children = it == child_us.end() ? 0.0 : it->second;
      self_ms[layer] += (r.end_us - r.start_us - children) / 1e3;
    }
  }
  return {self_ms.begin(), self_ms.end()};
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : slots_) {
    for (const SpanRecord& r : s) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"request_id\": %llu, \"start_us\": %.3f, "
                   "\"end_us\": %.3f}\n",
                   r.name, static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.request), r.start_us,
                   r.end_us);
    }
  }
  return std::fclose(f) == 0;
}

namespace {

Dataset CopyRows(const Dataset& src, size_t begin, size_t end) {
  Dataset out(end - begin, src.dim());
  for (size_t i = begin; i < end; ++i) {
    out.SetRow(static_cast<idx_t>(i - begin), src.Row(static_cast<idx_t>(i)));
  }
  return out;
}

}  // namespace

Corpus BuildCorpus(song::SyntheticSpec spec, uint64_t seed, size_t num_base,
                   bool ground_truth, size_t threads, Tracer* tracer,
                   SetupTimes* times, Dataset* extra) {
  Span setup(tracer, 0, "setup.corpus");
  Corpus c;
  c.metric = spec.metric;
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + spec.seed;
  spec.seed = song::SplitMix64(state);

  double t0 = NowUs();
  {
    Span span(tracer, 0, "setup.generate", setup.id());
    song::SyntheticData generated = song::GenerateSynthetic(spec);
    c.queries = std::move(generated.queries);
    if (generated.points.num() == num_base) {
      c.data = std::move(generated.points);
    } else {
      c.data = CopyRows(generated.points, 0, num_base);
      if (extra != nullptr) {
        *extra = CopyRows(generated.points, num_base, generated.points.num());
      }
    }
  }
  double t1 = NowUs();
  times->generate_s = (t1 - t0) / 1e6;

  if (ground_truth) {
    Span span(tracer, 0, "setup.ground_truth", setup.id());
    const song::FlatIndex flat(&c.data, c.metric);
    c.ground_truth = song::FlatIndex::Ids(flat.BatchSearch(c.queries, kK,
                                                           threads));
  }
  double t2 = NowUs();
  times->ground_truth_s = (t2 - t1) / 1e6;

  {
    Span span(tracer, 0, "setup.graph_build", setup.id());
    // One thread: the parallel build is nondeterministic, and on some seeds
    // of glove200 it yields graphs that lose 0.03-0.12 of recall@10 at the
    // same queue size (README.md), which would swamp every search metric.
    song::NswBuildOptions nsw;
    nsw.degree = 16;
    nsw.num_threads = 1;
    c.graph = song::NswBuilder::Build(c.data, c.metric, nsw);
  }
  times->graph_build_s = (NowUs() - t2) / 1e6;
  return c;
}

Corpus RepeatedSetup(
    const song::SyntheticSpec& spec, uint64_t seed, size_t num_base,
    bool ground_truth, const RunConfig& cfg, Tracer* tracer, Outcome* out,
    double* setup_s, Dataset* extra,
    const std::function<void(const Corpus&, int rep)>& measure) {
  std::vector<double> gen, gt, build, total;
  Corpus corpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    corpus = Corpus();  // free the previous copy before building the next
    SetupTimes t;
    corpus = BuildCorpus(spec, seed, num_base, ground_truth, cfg.threads,
                         tracer, &t, extra);
    gen.push_back(t.generate_s);
    gt.push_back(t.ground_truth_s);
    build.push_back(t.graph_build_s);
    total.push_back(t.Total());
    if (measure) measure(corpus, rep);
  }
  out->Set("setup.generate_s", Median(gen));
  out->Set("setup.ground_truth_s", Median(gt));
  out->Set("setup.graph_build_s", Median(build));
  *setup_s = Median(total);
  return corpus;
}

double MeanRecall(const std::vector<std::vector<idx_t>>& got,
                  const std::vector<std::vector<idx_t>>& truth) {
  if (got.empty()) return 0.0;
  double sum = 0.0;
  for (size_t q = 0; q < got.size(); ++q) {
    const size_t n = std::min(kK, truth[q].size());
    size_t hits = 0;
    for (const idx_t id : got[q]) {
      hits += std::find(truth[q].begin(), truth[q].begin() + n, id) !=
              truth[q].begin() + n;
    }
    sum += n == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  return sum / static_cast<double>(got.size());
}

std::vector<idx_t> ExactTopK(const Dataset& data, song::Metric metric,
                             const float* query,
                             const std::vector<uint8_t>& tombstones) {
  std::vector<song::Neighbor> all;
  all.reserve(data.num());
  for (size_t i = 0; i < data.num(); ++i) {
    if (!tombstones.empty() && tombstones[i] != 0) continue;
    const idx_t id = static_cast<idx_t>(i);
    all.emplace_back(
        song::ComputeDistance(metric, query, data.Row(id), data.dim()), id);
  }
  const size_t k = std::min(kK, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    [](const song::Neighbor& a, const song::Neighbor& b) {
                      return a.dist < b.dist ||
                             (a.dist == b.dist && a.id < b.id);
                    });
  std::vector<idx_t> ids(k);
  for (size_t i = 0; i < k; ++i) ids[i] = all[i].id;
  return ids;
}

}  // namespace perfbench
