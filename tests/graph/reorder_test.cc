// Tests for the locality-aware reordering pass: permutation validity,
// structural isomorphism of the permuted graph/dataset, and the headline
// guarantee — search over a reordered index returns exactly the same
// result sets (ids and distances) once ids are mapped back.

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "graph/reorder.h"
#include "song/song_searcher.h"

namespace song {
namespace {

FixedDegreeGraph MakeRingGraph(size_t n, size_t degree) {
  FixedDegreeGraph g(n, degree);
  for (size_t v = 0; v < n; ++v) {
    std::vector<idx_t> nbrs;
    for (size_t j = 1; j <= degree / 2 && j < n; ++j) {
      nbrs.push_back(static_cast<idx_t>((v + j) % n));
      nbrs.push_back(static_cast<idx_t>((v + n - j) % n));
    }
    if (nbrs.size() > degree) nbrs.resize(degree);
    g.SetNeighbors(static_cast<idx_t>(v), nbrs);
  }
  return g;
}

void ExpectValidPermutation(const GraphPermutation& perm, size_t n) {
  ASSERT_EQ(perm.old_to_new.size(), n);
  ASSERT_EQ(perm.new_to_old.size(), n);
  std::vector<bool> hit(n, false);
  for (size_t old_id = 0; old_id < n; ++old_id) {
    const idx_t new_id = perm.old_to_new[old_id];
    ASSERT_LT(new_id, n);
    EXPECT_FALSE(hit[new_id]) << "duplicate new id " << new_id;
    hit[new_id] = true;
    EXPECT_EQ(perm.new_to_old[new_id], old_id);
  }
}

TEST(ReorderTest, NoneIsIdentity) {
  const FixedDegreeGraph g = MakeRingGraph(10, 4);
  const GraphPermutation perm = ComputeReorder(g, GraphReorder::kNone);
  ExpectValidPermutation(perm, 10);
  for (idx_t v = 0; v < 10; ++v) EXPECT_EQ(perm.old_to_new[v], v);
}

TEST(ReorderTest, BfsIsValidAndEntryFirst) {
  const FixedDegreeGraph g = MakeRingGraph(50, 6);
  const GraphPermutation perm = ComputeReorder(g, GraphReorder::kBfs, 17);
  ExpectValidPermutation(perm, 50);
  EXPECT_EQ(perm.old_to_new[17], 0u);  // entry is relabeled to 0
  // Ring from 17: direct neighbors must land within the first BFS level.
  EXPECT_LE(perm.old_to_new[18], 6u);
  EXPECT_LE(perm.old_to_new[16], 6u);
}

TEST(ReorderTest, BfsCoversDisconnectedComponents) {
  // Two 5-cliques with no edges between them.
  std::vector<std::vector<idx_t>> adj(10);
  for (idx_t base : {idx_t{0}, idx_t{5}}) {
    for (idx_t v = base; v < base + 5; ++v) {
      for (idx_t u = base; u < base + 5; ++u) {
        if (u != v) adj[v].push_back(u);
      }
    }
  }
  const FixedDegreeGraph g = FixedDegreeGraph::FromAdjacency(adj, 4);
  const GraphPermutation perm = ComputeReorder(g, GraphReorder::kBfs, 0);
  ExpectValidPermutation(perm, 10);
  // The unreachable second clique keeps old-id order after the first.
  for (idx_t v = 5; v < 9; ++v) {
    EXPECT_LT(perm.old_to_new[v], perm.old_to_new[v + 1]);
  }
}

TEST(ReorderTest, DegreeDescendingOrdersByDegree) {
  std::vector<std::vector<idx_t>> adj(5);
  adj[0] = {1};
  adj[1] = {0, 2};
  adj[2] = {0, 1, 3};
  adj[3] = {0, 1, 2, 4};
  adj[4] = {3};
  const FixedDegreeGraph g = FixedDegreeGraph::FromAdjacency(adj, 4);
  const GraphPermutation perm =
      ComputeReorder(g, GraphReorder::kDegreeDescending);
  ExpectValidPermutation(perm, 5);
  EXPECT_EQ(perm.new_to_old[0], 3u);  // degree 4 first
  EXPECT_EQ(perm.new_to_old[1], 2u);  // then degree 3
  EXPECT_EQ(perm.new_to_old[2], 1u);  // degree 2
  // Degree-1 tie between 0 and 4 keeps old-id order.
  EXPECT_EQ(perm.new_to_old[3], 0u);
  EXPECT_EQ(perm.new_to_old[4], 4u);
}

TEST(ReorderTest, PermuteGraphPreservesEdges) {
  const FixedDegreeGraph g = MakeRingGraph(30, 6);
  const GraphPermutation perm = ComputeReorder(g, GraphReorder::kBfs, 3);
  const FixedDegreeGraph pg = PermuteGraph(g, perm);
  ASSERT_EQ(pg.num_vertices(), g.num_vertices());
  ASSERT_EQ(pg.degree(), g.degree());
  for (idx_t old_v = 0; old_v < 30; ++old_v) {
    const std::vector<idx_t> old_nbrs = g.Neighbors(old_v);
    std::vector<idx_t> expect;
    for (const idx_t u : old_nbrs) expect.push_back(perm.old_to_new[u]);
    EXPECT_EQ(pg.Neighbors(perm.old_to_new[old_v]), expect)
        << "old vertex " << old_v;
  }
}

TEST(ReorderTest, PermuteCsrMatchesPermutedFixedDegree) {
  const FixedDegreeGraph g = MakeRingGraph(24, 4);
  const GraphPermutation perm =
      ComputeReorder(g, GraphReorder::kDegreeDescending);
  const CsrGraph csr = CsrGraph::FromFixedDegree(g);
  const CsrGraph pcsr = PermuteCsr(csr, perm);
  const FixedDegreeGraph pg = PermuteGraph(g, perm);
  ASSERT_EQ(pcsr.num_vertices(), pg.num_vertices());
  ASSERT_EQ(pcsr.num_edges(), csr.num_edges());
  for (idx_t v = 0; v < 24; ++v) {
    size_t count = 0;
    const idx_t* nbrs = pcsr.Neighbors(v, &count);
    EXPECT_EQ(std::vector<idx_t>(nbrs, nbrs + count), pg.Neighbors(v));
  }
}

TEST(ReorderTest, PermuteDatasetMovesRows) {
  Dataset data(6, 5);
  std::vector<float> row(5);
  for (idx_t v = 0; v < 6; ++v) {
    std::fill(row.begin(), row.end(), static_cast<float>(v));
    data.SetRow(v, row.data());
  }
  const FixedDegreeGraph g = MakeRingGraph(6, 2);
  const GraphPermutation perm = ComputeReorder(g, GraphReorder::kBfs, 4);
  const Dataset pdata = PermuteDataset(data, perm);
  for (idx_t old_v = 0; old_v < 6; ++old_v) {
    EXPECT_EQ(pdata.Row(perm.old_to_new[old_v])[0], static_cast<float>(old_v));
  }
}

// The tentpole guarantee: searching the reordered index returns exactly
// the same (id, distance) result sets as the original once the id map is
// applied — across metrics and visited-structure configs.
TEST(ReorderTest, ReorderedSearchReturnsIdenticalResults) {
  SyntheticSpec spec;
  spec.dim = 24;
  spec.num_points = 600;
  spec.num_queries = 20;
  spec.num_clusters = 8;
  spec.seed = 321;
  const SyntheticData gen = GenerateSynthetic(spec);

  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    const FixedDegreeGraph graph = NswBuilder::Build(gen.points, metric, {});
    const SongSearcher base(&gen.points, &graph, metric);

    for (const GraphReorder strategy :
         {GraphReorder::kBfs, GraphReorder::kDegreeDescending}) {
      const ReorderedIndex ri = ReorderIndex(gen.points, graph, strategy);
      ExpectValidPermutation(ri.perm, gen.points.num());
      SongSearcher reordered(&ri.data, &ri.graph, metric, ri.entry);
      reordered.SetResultIdMap(ri.perm.new_to_old);

      for (const SongSearchOptions& options :
           {SongSearchOptions::HashTable(),
            SongSearchOptions::HashTableSelDel(),
            SongSearchOptions::CpuEngineered()}) {
        for (size_t q = 0; q < gen.queries.num(); ++q) {
          const float* query = gen.queries.Row(static_cast<idx_t>(q));
          SongWorkspace ws_base, ws_reordered;
          const auto expect =
              base.TrySearch(query, 10, options, &ws_base).value();
          const auto got =
              reordered.TrySearch(query, 10, options, &ws_reordered).value();
          ASSERT_EQ(got.size(), expect.size())
              << MetricName(metric) << " " << GraphReorderName(strategy)
              << " " << options.Name() << " query " << q;
          for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].id, expect[i].id)
                << MetricName(metric) << " " << GraphReorderName(strategy)
                << " " << options.Name() << " query " << q << " rank " << i;
            EXPECT_EQ(got[i].dist, expect[i].dist);
          }
        }
      }
    }
  }
}

TEST(ReorderTest, PrefetchDisabledSearchIsIdentical) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_points = 300;
  spec.num_queries = 10;
  spec.seed = 99;
  const SyntheticData gen = GenerateSynthetic(spec);
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, {});
  const SongSearcher searcher(&gen.points, &graph, Metric::kL2);
  SongSearchOptions with = SongSearchOptions::HashTable();
  SongSearchOptions without = with;
  without.enable_prefetch = false;
  for (size_t q = 0; q < gen.queries.num(); ++q) {
    const float* query = gen.queries.Row(static_cast<idx_t>(q));
    SongWorkspace ws_with, ws_without;
    const auto a = searcher.TrySearch(query, 5, with, &ws_with).value();
    const auto b =
        searcher.TrySearch(query, 5, without, &ws_without).value();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].dist, b[i].dist);
    }
  }
}

}  // namespace
}  // namespace song
