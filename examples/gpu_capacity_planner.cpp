// GPU capacity planner: a what-if tool built on the cost model. Given a
// workload shape (dataset size, dimension, target recall knob), it prices a
// SONG deployment on each GPU preset — kernel/stage split, occupancy,
// transfer overhead at several batch sizes — the kind of answer §VIII-E/G
// of the paper gives experimentally.
//
// Run: ./build/examples/example_gpu_capacity_planner [preset] [queue]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "data/synthetic.h"
#include "gpusim/simulator.h"
#include "graph/nsw_builder.h"

int main(int argc, char** argv) {
  using namespace song;
  const std::string preset = argc > 1 ? argv[1] : "sift";
  const size_t queue = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 128;

  SyntheticSpec spec = PresetSpec(preset, 0.4);
  spec.num_queries = 300;
  SyntheticData gen = GenerateSynthetic(spec);
  std::printf("workload: %s-like, %zu x %zu, queue=%zu\n", preset.c_str(),
              gen.points.num(), gen.points.dim(), queue);

  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, {});
  SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = queue;

  // One native run collects the counters; each card prices them.
  const SimulatedRun base =
      TrySimulateBatch(searcher, gen.queries, 10, options, GpuSpec::V100())
          .value();

  std::printf("\nper-query work: %.0f distance computations, %.0f graph rows,"
              " %.0f heap ops\n",
              static_cast<double>(base.batch.stats.distance_computations) /
                  gen.queries.num(),
              static_cast<double>(base.batch.stats.graph_rows_loaded) /
                  gen.queries.num(),
              static_cast<double>(base.batch.stats.q_pushes +
                                  base.batch.stats.q_pops) /
                  gen.queries.num());

  std::printf("\n%-10s %12s %9s %9s %9s %10s %9s\n", "GPU", "QPS",
              "locate%", "dist%", "maint%", "warps", "visited");
  for (const GpuSpec& gpu :
       {GpuSpec::V100(), GpuSpec::P40(), GpuSpec::TitanX()}) {
    CostModel model(gpu);
    WorkloadShape shape;
    shape.num_queries = gen.queries.num();
    shape.dim = gen.points.dim();
    shape.point_bytes = shape.dim * sizeof(float);
    shape.k = 10;
    shape.queue_size = queue;
    shape.degree = graph.degree();
    const KernelBreakdown b = model.Estimate(base.batch.stats, shape);
    std::printf("%-10s %12.0f %9.1f %9.1f %9.1f %10.0f %9s\n",
                gpu.name.c_str(), b.Qps(shape.num_queries), b.LocatePct(),
                b.DistancePct(), b.MaintainPct(), b.resident_warps,
                b.visited_in_shared ? "shared" : "global");
  }

  std::printf("\nbatch-size amortization on V100:\n%10s %14s %10s\n",
              "batch", "QPS", "xfer %");
  for (const double factor : {0.33, 1.0, 10.0, 100.0}) {
    SearchStats scaled = base.batch.stats;
    auto mul = [factor](size_t& v) {
      v = static_cast<size_t>(static_cast<double>(v) * factor);
    };
    mul(scaled.graph_rows_loaded);
    mul(scaled.graph_bytes_loaded);
    mul(scaled.distance_computations);
    mul(scaled.data_bytes_loaded);
    mul(scaled.q_pushes);
    mul(scaled.q_pops);
    mul(scaled.visited_tests);
    mul(scaled.visited_insertions);
    WorkloadShape shape;
    shape.num_queries =
        static_cast<size_t>(gen.queries.num() * factor);
    shape.dim = gen.points.dim();
    shape.point_bytes = shape.dim * sizeof(float);
    shape.k = 10;
    shape.queue_size = queue;
    shape.degree = graph.degree();
    CostModel model(GpuSpec::V100());
    const KernelBreakdown b = model.Estimate(scaled, shape);
    std::printf("%10zu %14.0f %9.1f%%\n", shape.num_queries,
                b.Qps(shape.num_queries),
                b.HtodPct() + b.DtohPct());
  }
  return 0;
}
