// Unit tests for the graph substrate: builder semantics, CSR
// invariants, and structural operations.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/graph/graph.hpp"
#include "gbis/graph/ops.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return b.build();
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate());
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(Graph, VerticesWithoutEdges) {
  GraphBuilder b(5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.edge_weight(0, 1), 1);
  EXPECT_EQ(g.edge_weight(0, 2), 1);
  EXPECT_EQ(g.total_edge_weight(), 3);
  EXPECT_EQ(g.total_vertex_weight(), 3);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(6);
  b.add_edge(3, 5);
  b.add_edge(3, 1);
  b.add_edge(3, 4);
  b.add_edge(3, 0);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 4u);
  EXPECT_EQ(nbrs[3], 5u);
}

TEST(Graph, ParallelEdgesMergeWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge_weight(0, 1), 5);
  EXPECT_EQ(g.total_edge_weight(), 5);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, EdgesListsEachEdgeOnceOrdered) {
  const Graph g = triangle();
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2, 1}));
  EXPECT_EQ(edges[2], (Edge{1, 2, 1}));
}

TEST(Graph, VertexWeights) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.set_vertex_weight(1, 4);
  const Graph g = b.build();
  EXPECT_EQ(g.vertex_weight(0), 1);
  EXPECT_EQ(g.vertex_weight(1), 4);
  EXPECT_EQ(g.total_vertex_weight(), 6);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, WeightedDegree) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2);
  b.add_edge(0, 2, 5);
  const Graph g = b.build();
  EXPECT_EQ(g.weighted_degree(0), 7);
  EXPECT_EQ(g.weighted_degree(1), 2);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, DropsSelfLoopWhenConfigured) {
  GraphBuilder b(3, GraphBuilder::SelfLoops::kDrop);
  b.add_edge(1, 1);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(7, 0), std::invalid_argument);
}

TEST(GraphBuilder, RejectsNonPositiveWeights) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, -2), std::invalid_argument);
  EXPECT_THROW(b.set_vertex_weight(0, 0), std::invalid_argument);
  EXPECT_THROW(b.set_vertex_weight(5, 1), std::invalid_argument);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  EXPECT_EQ(g1.num_edges(), 1u);
  const Graph g2 = b.build();  // builder was reset
  EXPECT_EQ(g2.num_edges(), 0u);
  EXPECT_EQ(g2.num_vertices(), 2u);
}

// --- The counting build against the comparison sort ----------------------

/// A CSR as GraphBuilder::build made it before it sorted by counting:
/// a comparison sort of the staged u < v edges by (u, v), a merge of
/// parallel edges, then a scatter of both directions into rows.
struct ReferenceCsr {
  std::vector<std::uint64_t> offsets;
  std::vector<Vertex> neighbors;
  std::vector<Weight> weights;
  Weight max_weighted_degree = 0;
};

ReferenceCsr comparison_sort_build(std::uint32_t n, std::vector<Edge> staged) {
  std::sort(staged.begin(), staged.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (out > 0 && staged[out - 1].u == staged[i].u &&
        staged[out - 1].v == staged[i].v) {
      staged[out - 1].weight += staged[i].weight;
    } else {
      staged[out++] = staged[i];
    }
  }
  staged.resize(out);

  ReferenceCsr csr;
  std::vector<std::uint32_t> deg(n, 0);
  for (const Edge& e : staged) {
    ++deg[e.u];
    ++deg[e.v];
  }
  csr.offsets.assign(std::size_t{n} + 1, 0);
  for (Vertex v = 0; v < n; ++v) csr.offsets[v + 1] = csr.offsets[v] + deg[v];
  csr.neighbors.resize(staged.size() * 2);
  csr.weights.resize(staged.size() * 2);
  std::vector<std::uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const Edge& e : staged) {
    csr.neighbors[cursor[e.u]] = e.v;
    csr.weights[cursor[e.u]++] = e.weight;
    csr.neighbors[cursor[e.v]] = e.u;
    csr.weights[cursor[e.v]++] = e.weight;
  }
  for (Vertex v = 0; v < n; ++v) {
    Weight sum = 0;
    for (auto k = csr.offsets[v]; k < csr.offsets[v + 1]; ++k) {
      sum += csr.weights[k];
    }
    csr.max_weighted_degree = std::max(csr.max_weighted_degree, sum);
  }
  return csr;
}

/// A random build input over n vertices: m edges in either
/// orientation, about a third of them repeats of an earlier pair (so
/// parallel edges sum) and some self-loops (dropped). Heavy inputs
/// carry weights near the 2^60 limit, with an edge total of exactly
/// the limit when n >= 2; light ones weights of at most 9.
struct BuildInput {
  std::uint32_t n = 0;
  std::vector<Edge> added;       ///< as passed to add_edge
  std::vector<Weight> vertex_weights;
};

BuildInput random_build_input(std::uint32_t n, std::size_t m, bool heavy,
                              Rng& rng) {
  BuildInput input;
  input.n = n;
  const Weight edge_cap =
      heavy ? kMaxTotalWeight / static_cast<Weight>(std::max<std::size_t>(m, 1))
            : 9;
  Weight edge_total = 0;
  for (std::size_t i = 0; i < m && n > 0; ++i) {
    Vertex u = static_cast<Vertex>(rng.below(n));
    Vertex v = static_cast<Vertex>(rng.below(n));
    if (!input.added.empty() && rng.below(3) == 0) {
      const Edge& earlier = input.added[rng.below(input.added.size())];
      u = earlier.u;
      v = earlier.v;
    } else if (rng.below(20) == 0) {
      v = u;  // a self-loop
    }
    if (rng.below(2) == 0) std::swap(u, v);
    const Weight w = rng.range(heavy ? edge_cap / 2 : 1, edge_cap);
    input.added.push_back({u, v, w});
    if (u != v) edge_total += w;
  }
  if (heavy && n >= 2 && edge_total < kMaxTotalWeight) {
    input.added.push_back({1, 0, kMaxTotalWeight - edge_total});
  }
  const Weight vertex_cap =
      heavy ? kMaxTotalWeight / static_cast<Weight>(std::max<std::uint32_t>(n, 1))
            : 9;
  for (std::uint32_t v = 0; v < n; ++v) {
    input.vertex_weights.push_back(rng.range(1, vertex_cap));
  }
  return input;
}

/// Stages `input` in a fresh builder (self-loops dropped).
GraphBuilder stage(const BuildInput& input) {
  GraphBuilder builder(input.n, GraphBuilder::SelfLoops::kDrop);
  for (const Edge& e : input.added) builder.add_edge(e.u, e.v, e.weight);
  for (Vertex v = 0; v < input.n; ++v) {
    builder.set_vertex_weight(v, input.vertex_weights[v]);
  }
  return builder;
}

/// Compares g with the comparison-sort build of `input`, row by row.
void expect_matches_reference(const Graph& g, const BuildInput& input) {
  std::vector<Edge> staged;
  Weight edge_total = 0;
  for (Edge e : input.added) {
    if (e.u == e.v) continue;
    if (e.u > e.v) std::swap(e.u, e.v);
    staged.push_back(e);
    edge_total += e.weight;
  }
  const ReferenceCsr ref = comparison_sort_build(input.n, staged);
  ASSERT_EQ(g.num_vertices(), input.n);
  ASSERT_EQ(g.num_edges(), ref.neighbors.size() / 2);
  Weight vertex_total = 0;
  for (Vertex v = 0; v < input.n; ++v) {
    const auto begin = static_cast<std::ptrdiff_t>(ref.offsets[v]);
    const auto end = static_cast<std::ptrdiff_t>(ref.offsets[v + 1]);
    const auto nbrs = g.neighbors(v);
    const auto wts = g.edge_weights(v);
    ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(),
                           ref.neighbors.begin() + begin,
                           ref.neighbors.begin() + end))
        << "row " << v;
    ASSERT_TRUE(std::equal(wts.begin(), wts.end(), ref.weights.begin() + begin,
                           ref.weights.begin() + end))
        << "row " << v;
    ASSERT_EQ(g.vertex_weight(v), input.vertex_weights[v]) << "vertex " << v;
    vertex_total += input.vertex_weights[v];
  }
  EXPECT_EQ(g.total_edge_weight(), edge_total);
  EXPECT_EQ(g.total_vertex_weight(), vertex_total);
  EXPECT_EQ(g.max_weighted_degree(), ref.max_weighted_degree);
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, CountingBuildMatchesTheComparisonSort) {
  struct Size {
    std::uint32_t n;
    std::size_t m;
  };
  const Size sizes[] = {{0, 0}, {1, 6}, {2, 24}, {1000, 6000}, {100000, 10}};
  Rng rng(23);
  for (const auto& [n, m] : sizes) {
    for (const bool heavy : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " heavy=" +
                   std::to_string(heavy));
      const BuildInput input = random_build_input(n, m, heavy, rng);
      GraphBuilder builder = stage(input);
      if (n >= 2) {
        // Over the vertex-weight limit: the build throws before it
        // reorders anything, and the builder, left as it was, builds
        // once the weight is legal again.
        builder.set_vertex_weight(0, kMaxTotalWeight);
        EXPECT_THROW(builder.build(), std::invalid_argument);
        builder.set_vertex_weight(0, input.vertex_weights[0]);
      }
      expect_matches_reference(builder.build(), input);
      // The builder is empty again.
      const Graph empty = builder.build();
      EXPECT_EQ(empty.num_edges(), 0u);
      EXPECT_EQ(empty.num_vertices(), n);
    }
  }

  // Over the edge-weight limit: both builds throw, since the first left
  // the staged edges as they were.
  GraphBuilder over(3);
  over.add_edge(2, 1, kMaxTotalWeight);
  over.add_edge(0, 2, 1);
  EXPECT_THROW(over.build(), std::invalid_argument);
  EXPECT_THROW(over.build(), std::invalid_argument);
}

TEST(Ops, ConnectedComponentsOnUnion) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();  // {0,1,2}, {3,4}, {5}
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[1], c.label[2]);
  EXPECT_EQ(c.label[3], c.label[4]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_NE(c.label[0], c.label[5]);
  const auto sizes = c.sizes();
  EXPECT_EQ(sizes[c.label[0]], 3u);
  EXPECT_EQ(sizes[c.label[3]], 2u);
  EXPECT_EQ(sizes[c.label[5]], 1u);
}

TEST(Ops, IsConnected) {
  EXPECT_TRUE(is_connected(triangle()));
  EXPECT_TRUE(is_connected(Graph{}));
  GraphBuilder b(4);
  b.add_edge(0, 1);
  EXPECT_FALSE(is_connected(b.build()));
}

TEST(Ops, BfsDistancesOnPath) {
  const Graph g = make_path(5);
  const auto dist = bfs_distances(g, 0);
  for (std::uint32_t v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
  EXPECT_THROW(bfs_distances(g, 9), std::out_of_range);
}

TEST(Ops, BfsUnreachable) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto dist = bfs_distances(b.build(), 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(Ops, DegreeStats) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  const Graph g = b.build();  // star
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 3u);
  EXPECT_DOUBLE_EQ(s.average, 1.5);
}

TEST(Ops, IsRegular) {
  EXPECT_TRUE(is_regular(triangle(), 2));
  EXPECT_FALSE(is_regular(triangle(), 3));
  EXPECT_TRUE(is_regular(make_cycle(8), 2));
  EXPECT_FALSE(is_regular(make_path(5), 2));
}

TEST(Ops, InducedSubgraph) {
  const Graph g = make_cycle(6);
  const Vertex keep[] = {0, 1, 2, 5};
  const Graph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.num_vertices(), 4u);
  // Edges kept: (0,1), (1,2), (5,0) -> remapped (3,0).
  EXPECT_EQ(sub.num_edges(), 3u);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_TRUE(sub.has_edge(0, 3));
  EXPECT_TRUE(sub.validate());
}

TEST(Ops, InducedSubgraphRejectsBadInput) {
  const Graph g = make_cycle(4);
  const Vertex dup[] = {0, 0};
  EXPECT_THROW(induced_subgraph(g, dup), std::invalid_argument);
  const Vertex oob[] = {0, 9};
  EXPECT_THROW(induced_subgraph(g, oob), std::out_of_range);
}

TEST(Ops, UnionOfCyclesDetection) {
  EXPECT_TRUE(is_union_of_cycles(make_cycle(5)));
  const std::uint32_t sizes[] = {3, 4, 5};
  EXPECT_TRUE(is_union_of_cycles(make_union_of_cycles(sizes)));
  EXPECT_FALSE(is_union_of_cycles(make_path(4)));
  EXPECT_FALSE(is_union_of_cycles(Graph{}));
}

TEST(Ops, ForestDetection) {
  EXPECT_TRUE(is_forest(make_path(7)));
  EXPECT_TRUE(is_forest(make_binary_tree(15)));
  EXPECT_FALSE(is_forest(make_cycle(4)));
  GraphBuilder b(5);  // two disjoint trees
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  EXPECT_TRUE(is_forest(b.build()));
}

}  // namespace
}  // namespace gbis
