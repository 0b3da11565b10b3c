// Table II reproduction: SONG's speedup over Faiss-IVFPQ at fixed recall
// targets (0.5 .. 0.95) for top-10. "N/A" marks recalls the quantization
// baseline cannot reach — the paper reports the same effect on GloVe200,
// NYTimes and GIST.
//
// Two views are printed:
//  * at repro scale (8k-12k points): IVF lists hold only ~30 codes, so
//    scanning more of them is nearly free and Faiss is competitive wherever
//    it can reach the recall at all — the same low-recall competitiveness
//    Fig 5 shows;
//  * projected to the paper's dataset sizes: IVF scan work grows linearly
//    with n at a fixed scan fraction (recall-vs-fraction is roughly
//    scale-invariant for IVF), while graph-search work grows ~log n. The
//    Faiss counters are scaled by (paper_n / repro_n) at the measured scan
//    fraction and SONG's by ln(paper_n)/ln(repro_n); this is the regime the
//    paper's 4.8-20.2x numbers live in.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "baselines/flat_index.h"
#include "core/recall.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::Curve;
using song::bench::CurvePoint;
using song::bench::DefaultNprobes;
using song::bench::DefaultQueueSizes;
using song::bench::PrintHeader;
using song::bench::QpsAtRecall;

namespace {

struct PaperScale {
  const char* preset;
  size_t paper_n;
};

constexpr PaperScale kPaperScale[] = {
    {"sift", 1000000},
    {"glove200", 1183514},
    {"nytimes", 289761},
    {"gist", 1000000},
    {"uq_v", 3295525},
};

// Re-prices a measured SONG sweep with counters scaled by `factor`
// (log-growth projection of graph-search work).
song::SearchStats ScaleSongStats(const song::SearchStats& s, double f) {
  song::SearchStats out = s;
  auto mul = [f](size_t& v) {
    v = static_cast<size_t>(static_cast<double>(v) * f);
  };
  mul(out.iterations);
  mul(out.vertices_expanded);
  mul(out.graph_rows_loaded);
  mul(out.graph_bytes_loaded);
  mul(out.q_pops);
  mul(out.distance_computations);
  mul(out.data_bytes_loaded);
  mul(out.q_pushes);
  mul(out.q_evictions);
  mul(out.topk_pushes);
  mul(out.topk_evictions);
  mul(out.visited_tests);
  mul(out.visited_insertions);
  mul(out.visited_deletions);
  return out;
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  const std::vector<double> targets = {0.5, 0.6, 0.7, 0.8, 0.9, 0.95};
  constexpr size_t kTop = 10;

  struct Row {
    std::string preset;
    std::vector<double> local;      // speedup at repro scale (or <=0 = N/A)
    std::vector<double> projected;  // speedup at paper scale
  };
  std::vector<Row> rows;

  for (const PaperScale& scale : kPaperScale) {
    BenchContext ctx(scale.preset, env);
    const song::Workload& w = ctx.workload();
    const double n = static_cast<double>(w.data.num());
    const double nq = static_cast<double>(w.queries.num());
    const double n_ratio = static_cast<double>(scale.paper_n) / n;
    const double log_ratio =
        std::log(static_cast<double>(scale.paper_n)) / std::log(n);

    // SONG sweep: keep per-point stats to re-price at paper scale.
    song::SongSearcher searcher(&w.data, &ctx.graph(), w.metric);
    Curve song_local, song_paper;
    for (const size_t qs : DefaultQueueSizes(kTop)) {
      song::SongSearchOptions options =
          song::SongSearchOptions::HashTableSelDel();
      options.queue_size = qs;
      const song::SimulatedRun run = TrySimulateBatch(
          searcher, w.queries, kTop, options, env.gpu, env.threads).value();
      CurvePoint pt;
      pt.param = qs;
      pt.recall = song::MeanRecallAtK(run.batch.Ids(), w.ground_truth, kTop);
      pt.qps = run.SimQps();
      song_local.points.push_back(pt);

      song::WorkloadShape shape;
      shape.num_queries = w.queries.num();
      shape.dim = w.data.dim();
      shape.point_bytes = shape.dim * sizeof(float);
      shape.k = kTop;
      shape.queue_size = qs;
      shape.degree = ctx.graph().degree();
      const song::CostModel model(env.gpu);
      CurvePoint pp = pt;
      pp.qps = model.Estimate(ScaleSongStats(run.batch.stats, log_ratio),
                              shape)
                   .Qps(w.queries.num());
      song_paper.points.push_back(pp);
    }

    // Faiss sweep with both pricings.
    Curve faiss_local, faiss_paper;
    const song::IvfPqIndex& ivfpq = ctx.ivfpq();
    for (const size_t nprobe : DefaultNprobes(ivfpq.nlist())) {
      song::IvfPqSearchStats stats;
      const auto results = ivfpq.BatchSearch(w.queries, kTop, nprobe,
                                             env.threads, &stats);
      CurvePoint pt;
      pt.param = nprobe;
      pt.recall = song::MeanRecallAtK(song::FlatIndex::Ids(results),
                                      w.ground_truth, kTop);
      pt.qps = EstimateFaissGpu(stats, env.gpu, w.data.dim(), ivfpq.pq_m(),
                                kTop)
                   .Qps(w.queries.num());
      faiss_local.points.push_back(pt);

      // Paper-scale projection: same scan fraction over paper_n points,
      // nlist scaled with 4*sqrt(n) (so table-building grows too).
      song::IvfPqSearchStats scaled = stats;
      scaled.codes_scanned = static_cast<size_t>(
          static_cast<double>(stats.codes_scanned) * n_ratio);
      const double nlist_ratio =
          std::sqrt(static_cast<double>(scale.paper_n) / n);
      scaled.coarse_distances = static_cast<size_t>(
          static_cast<double>(stats.coarse_distances) * nlist_ratio);
      scaled.lists_probed = static_cast<size_t>(
          static_cast<double>(stats.lists_probed) * nlist_ratio);
      scaled.table_entries = static_cast<size_t>(
          static_cast<double>(stats.table_entries) * nlist_ratio);
      CurvePoint pp = pt;
      pp.qps = EstimateFaissGpu(scaled, env.gpu, w.data.dim(), ivfpq.pq_m(),
                                kTop)
                   .Qps(w.queries.num());
      faiss_paper.points.push_back(pp);
    }
    (void)nq;

    Row row;
    row.preset = scale.preset;
    for (const double t : targets) {
      const double sl = QpsAtRecall(song_local, t);
      const double fl = QpsAtRecall(faiss_local, t);
      row.local.push_back(sl > 0 && fl > 0 ? sl / fl : -1.0);
      const double sp = QpsAtRecall(song_paper, t);
      const double fp = QpsAtRecall(faiss_paper, t);
      row.projected.push_back(sp > 0 && fp > 0 ? sp / fp : -1.0);
    }
    rows.push_back(std::move(row));
  }

  auto print_table = [&](const char* title, bool projected) {
    PrintHeader(title);
    std::printf("%-10s", "dataset");
    for (const double t : targets) std::printf("%8.2f", t);
    std::printf("\n");
    for (const Row& row : rows) {
      std::printf("%-10s", row.preset.c_str());
      const auto& vals = projected ? row.projected : row.local;
      for (const double v : vals) {
        if (v <= 0.0) {
          std::printf("%8s", "N/A");
        } else {
          std::printf("%8.1f", v);
        }
      }
      std::printf("\n");
    }
  };

  print_table("Table II (at repro scale): speedup over Faiss, top-10",
              false);
  std::printf(
      "At 8k-12k points IVF lists hold ~30 codes, so Faiss is competitive\n"
      "wherever its quantization ceiling allows (cf. Fig 5 low recall).\n");
  print_table(
      "Table II (projected to paper dataset sizes): speedup over Faiss",
      true);
  std::printf(
      "\nPaper: 4.8-20.2x with N/A where Faiss cannot reach the recall\n"
      "(GloVe200 >0.6, NYTimes >0.5, GIST >0.7). The projection scales the\n"
      "measured scan fraction to the paper's n (IVF work ~ linear in n,\n"
      "graph work ~ log n).\n");
  return 0;
}
