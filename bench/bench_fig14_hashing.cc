// Fig 14 reproduction: out-of-GPU-memory datasets via 1-bit random
// projections, on the MNIST-like presets (mnist1m = the §VIII-H subsample,
// mnist = the full preset), top-1, priced on TITAN X (the smallest-memory
// card in the paper). Series: SONG on the original floats vs Hash-32/64/
// 128/256/512. Expected shape: more bits -> better recall ceiling; mid-size
// codes track the original closely at moderate recall while computing much
// cheaper distances; tiny codes saturate early.
//
// A PQ series rides along (PQ-8/16/32: ADC traversal over m-byte codes plus
// exact rerank of the final pool): unlike the hashed series it reranks with
// the original floats, so it recovers full-precision recall while Stage 2
// fetches m bytes instead of dim*4 — the per-point Stage-2 traffic ratio is
// printed per queue size against the original series.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/recall.h"
#include "hashing/hashed_index.h"
#include "hashing/random_projection.h"
#include "quant/pq.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::Curve;
using song::bench::CurvePoint;
using song::bench::PrintCurve;
using song::bench::PrintHeader;

namespace {
// Near-duplicate families make Hamming plateaus expensive to sweep finely
// on one core; four queue sizes are enough to trace the Fig 14 shape.
const std::vector<size_t> kQueueSweep = {16, 64, 256, 512};
}  // namespace

int main() {
  BenchEnv env = BenchEnv::FromEnv();
  env.gpu = song::GpuSpec::TitanX();
  constexpr size_t kTop = 1;

  for (const char* preset : {"mnist1m", "mnist"}) {
    BenchContext ctx(preset, env);
    const song::Workload& w = ctx.workload();
    PrintHeader("Fig 14: hashing on " + w.name + " top-1 (TITAN X)");

    // Original full-precision data. Stage-2 traffic per queue size is kept
    // for the PQ-series comparison below.
    std::vector<double> exact_stage2_bytes;
    {
      song::SongSearcher searcher(&w.data, &ctx.graph(), w.metric);
      Curve curve;
      curve.label = "SONG (original)";
      for (const size_t qs : kQueueSweep) {
        song::SongSearchOptions options =
            song::SongSearchOptions::HashTableSelDel();
        options.queue_size = qs;
        const song::SimulatedRun run = TrySimulateBatch(
            searcher, w.queries, kTop, options, env.gpu, env.threads).value();
        CurvePoint pt;
        pt.param = qs;
        pt.recall =
            song::MeanRecallAtK(run.batch.Ids(), w.ground_truth, kTop);
        pt.qps = run.SimQps();
        pt.cpu_qps = run.batch.Qps();
        curve.points.push_back(pt);
        exact_stage2_bytes.push_back(
            static_cast<double>(run.batch.stats.data_bytes_loaded));
      }
      PrintCurve(curve, "queue");
      std::printf("   device bytes (data+graph): %.1f MB\n",
                  (w.data.PayloadBytes() + ctx.graph().MemoryBytes()) /
                      (1024.0 * 1024.0));
    }

    // PQ-compressed variants: ADC traversal over m-byte codes on the same
    // graph, exact rerank of the auto-sized pool (min(ef, max(4k, 32)) —
    // deep enough to recover the quantization error at top-1 without the
    // rerank fetches drowning the traversal savings at large queues).
    for (const size_t m : {8, 16, 32}) {
      song::SongSearcher searcher(&w.data, &ctx.graph(), w.metric);
      song::PqOptions popts;
      popts.num_subquantizers = m;
      popts.num_threads = env.threads;
      const song::Status enabled = searcher.EnablePq(popts);
      if (!enabled.ok()) {
        std::printf("   PQ-%zu unavailable: %s\n", m,
                    enabled.ToString().c_str());
        continue;
      }
      Curve curve;
      curve.label = "PQ-" + std::to_string(m);
      std::printf("   PQ-%zu stage-2 traffic vs original:", m);
      for (size_t i = 0; i < kQueueSweep.size(); ++i) {
        const size_t qs = kQueueSweep[i];
        song::SongSearchOptions options =
            song::SongSearchOptions::HashTableSelDel();
        options.queue_size = qs;
        options.quant = song::QuantizationMode::kPq;
        options.rerank_depth = 0;  // auto pool: min(ef, max(4k, 32))
        const song::SimulatedRun run = TrySimulateBatch(
            searcher, w.queries, kTop, options, env.gpu, env.threads).value();
        CurvePoint pt;
        pt.param = qs;
        pt.recall =
            song::MeanRecallAtK(run.batch.Ids(), w.ground_truth, kTop);
        pt.qps = run.SimQps();
        pt.cpu_qps = run.batch.Qps();
        curve.points.push_back(pt);
        const double pq_bytes =
            static_cast<double>(run.batch.stats.data_bytes_loaded +
                                run.batch.stats.rerank_bytes_loaded);
        std::printf(" %.1fx@%zu", exact_stage2_bytes[i] / pq_bytes, qs);
      }
      std::printf("\n");
      PrintCurve(curve, "queue");
      const song::PqBatchDistance& pqd = *searcher.pq_distance();
      std::printf("   device bytes (codes+codebook+graph): %.1f MB\n",
                  (pqd.DeviceMemoryBytes() + ctx.graph().MemoryBytes()) /
                      (1024.0 * 1024.0));
    }

    // Hashed variants: same NSW graph, Hamming distances over packed codes.
    for (const size_t bits : {32, 64, 128, 256, 512}) {
      song::RandomProjection proj(w.data.dim(), bits,
                                  song::ProjectionKind::kNormal, 77);
      const song::BinaryCodes codes = proj.EncodeDataset(w.data, env.threads);
      song::HashedSongIndex index(&codes, &ctx.graph(), &proj);
      Curve curve;
      curve.label = "Hash-" + std::to_string(bits);
      for (const size_t qs : kQueueSweep) {
        song::SongSearchOptions options =
            song::SongSearchOptions::HashTableSelDel();
        options.queue_size = qs;
        const song::SimulatedRun run = SimulateHashedBatch(
            index, w.queries, kTop, options, env.gpu, env.threads);
        CurvePoint pt;
        pt.param = qs;
        pt.recall =
            song::MeanRecallAtK(run.batch.Ids(), w.ground_truth, kTop);
        pt.qps = run.SimQps();
        pt.cpu_qps = run.batch.Qps();
        curve.points.push_back(pt);
      }
      PrintCurve(curve, "queue");
      std::printf("   device bytes (codes+graph): %.1f MB\n",
                  index.DeviceMemoryBytes() / (1024.0 * 1024.0));
    }
  }
  return 0;
}
