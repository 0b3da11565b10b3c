// perfbench — runs one benchmark workload and prints its result as one JSON
// line. run.py (next to this directory) builds it, adds provenance and
// units, and prints the benchmark's final result line.
//
//   perfbench --workload batch-glove|serve-sift|churn-sift --seed N
//             --seconds S --trace 0|1 --threads T --work-dir DIR
//             [--server path/to/song_server] [--spans-out spans.jsonl]
//
// With --trace 1 the run records spans around every call into the program
// and writes them to --spans-out when the run ends; the metrics then include
// each layer's self time (self_ms.<layer>).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "core/fault_injection.h"
#include "core/simd.h"

namespace {

using perfbench::Outcome;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

void PrintResult(const Outcome& out, const std::string& spans_path) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"simd_tier\": \"%s\", \"spans\": \"%s\", \"errors\": [",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              song::SimdTierName(song::ActiveSimdTier()),
              JsonEscape(spans_path).c_str());
  for (size_t i = 0; i < out.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", JsonEscape(out.errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "",
                out.metrics[i].first.c_str(), out.metrics[i].second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  perfbench::RunConfig cfg;
  cfg.workload = flags["workload"];
  cfg.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  cfg.seconds = std::atof(flags["seconds"].c_str());
  cfg.trace = flags["trace"] == "1";
  cfg.threads = std::strtoull(flags["threads"].c_str(), nullptr, 10);
  cfg.server_path = flags["server"];
  cfg.work_dir = flags["work-dir"];
  cfg.spans_out = flags["spans-out"];
  if (cfg.seconds <= 0 || cfg.threads == 0 || cfg.work_dir.empty() ||
      (cfg.trace && cfg.spans_out.empty())) {
    std::fprintf(stderr, "perfbench: missing or invalid flags\n");
    return 2;
  }
  // Injected faults would be measured as the program's own behaviour.
  if (song::fault::FaultRegistry::Global().enabled()) {
    std::fprintf(stderr, "perfbench: a fault spec is armed (%s); refusing\n",
                 song::fault::FaultRegistry::Global().spec().c_str());
    return 2;
  }

  perfbench::Tracer tracer(2 + cfg.threads);
  perfbench::Tracer* t = cfg.trace ? &tracer : nullptr;
  Outcome out;
  if (cfg.workload == "batch-glove") {
    out = perfbench::RunBatchGlove(cfg, t);
  } else if (cfg.workload == "serve-sift") {
    out = perfbench::RunServeSift(cfg, t);
  } else if (cfg.workload == "churn-sift") {
    out = perfbench::RunChurnSift(cfg, t);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }
  if (cfg.trace) {
    for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
      out.Set("self_ms." + layer, ms);
    }
    out.Set("trace.spans", static_cast<double>(tracer.size()));
    if (!tracer.WriteJsonl(cfg.spans_out)) {
      out.Fail("cannot write spans to " + cfg.spans_out);
    }
  }
  PrintResult(out, cfg.trace ? cfg.spans_out : "");
  return out.correct ? 0 : 1;
}
