// Maximum-inner-product recommendation (the sponsored-search / matching
// workload the paper's related work highlights, §IX): user vectors match
// item vectors by inner product, where item norms encode importance (bid
// value). Compares the two MIPS routes the library supports — a graph built
// directly on the inner-product "distance" vs a graph built on the
// Möbius-transformed points (Zhou et al. 2019, which adopted SONG as its
// engine) — both searched with the SONG pipeline.
//
// Run: ./build/examples/example_mips_recommender

#include <cstdio>

#include "baselines/flat_index.h"
#include "core/random.h"
#include "core/recall.h"
#include "graph/nsw_builder.h"
#include "song/mips.h"
#include "song/song_searcher.h"

int main() {
  using namespace song;

  // Item embeddings with heterogeneous norms (norm ~ "bid value"): the
  // regime where MIPS differs most from cosine search.
  const size_t n = 8000, dim = 48, nq = 200;
  Dataset items(n, dim);
  Dataset users(nq, dim);
  RandomEngine rng(606);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    const float norm_boost =
        static_cast<float>(0.5 + 2.5 * rng.NextUniform());
    for (auto& v : row) {
      v = static_cast<float>(rng.NextGaussian()) * norm_boost;
    }
    items.SetRow(static_cast<idx_t>(i), row.data());
  }
  for (size_t i = 0; i < nq; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.NextGaussian());
    users.SetRow(static_cast<idx_t>(i), row.data());
  }

  // Exact MIPS ground truth.
  FlatIndex flat(&items, Metric::kInnerProduct);
  const auto truth = FlatIndex::Ids(flat.BatchSearch(users, 10));

  NswBuildOptions build;
  build.degree = 16;

  // Route 1: graph built directly on the inner-product score.
  const FixedDegreeGraph ip_graph =
      NswBuilder::Build(items, Metric::kInnerProduct, build);

  // Route 2: L2 graph over Möbius-transformed points; the search itself
  // scores with the inner product on the ORIGINAL items (same topology).
  const Dataset mobius = MobiusTransform(items);
  const FixedDegreeGraph mobius_graph =
      NswBuilder::Build(mobius, Metric::kL2, build);

  auto evaluate = [&](const char* name, const FixedDegreeGraph& graph) {
    SongSearcher searcher(&items, &graph, Metric::kInnerProduct);
    std::printf("%-14s", name);
    for (const size_t queue : {16, 32, 64, 128}) {
      SongSearchOptions options = SongSearchOptions::HashTableSelDel();
      options.queue_size = queue;
      SongWorkspace ws;
      std::vector<std::vector<idx_t>> ids(nq);
      for (size_t q = 0; q < nq; ++q) {
        const auto found = searcher.TrySearch(
            users.Row(static_cast<idx_t>(q)), 10, options, &ws);
        for (const Neighbor& n : found.value()) ids[q].push_back(n.id);
      }
      std::printf("  %6.3f", MeanRecallAtK(ids, truth, 10));
    }
    std::printf("\n");
  };

  std::printf("MIPS recall@10 by queue size (16/32/64/128):\n");
  evaluate("IP graph", ip_graph);
  evaluate("Mobius graph", mobius_graph);
  std::printf(
      "\nBoth routes run the unmodified SONG pipeline — MIPS is just a\n"
      "different (graph construction, scoring) pairing, which is why the\n"
      "Mobius MIPS system could adopt SONG wholesale (paper SIX).\n");
  return 0;
}
