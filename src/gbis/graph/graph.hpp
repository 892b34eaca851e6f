// Immutable undirected graph in CSR (compressed sparse row) form, with
// integer edge and vertex weights.
//
// Weights exist because the compaction heuristic (the paper's core
// contribution) contracts matchings: parallel edges produced by a
// contraction merge into one edge of summed weight, and coalesced
// vertices carry summed vertex weight. All bisection algorithms in gbis
// are written against weighted graphs so they run unchanged on
// contracted instances; an ordinary simple graph is the all-weights-one
// special case.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gbis {

/// Vertex id. Graphs are limited to < 2^32 vertices.
using Vertex = std::uint32_t;

/// Edge weight / cut size type. Signed so gain arithmetic (which is
/// naturally negative-capable) needs no casts.
using Weight = std::int64_t;

/// The most edge weight, and the most vertex weight, one Graph may hold
/// in total: 2^60. GraphBuilder::build rejects a graph over it. The
/// solvers rely on what follows from it: every weighted degree, cut,
/// gain and prefix sum of gains lies within +-2^60, and a KL pair gain
/// g_a + g_b - 2w(a, b) within +-2^62, so none of them overflows Weight.
inline constexpr Weight kMaxTotalWeight = Weight{1} << 60;

/// An undirected edge with a weight, reported with u < v.
struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  Weight weight = 1;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable undirected weighted graph. Construct via GraphBuilder.
///
/// Invariants (checked by validate()):
///  - adjacency lists are sorted by neighbor id, with no self-loops and
///    no duplicate neighbors (parallel edges are merged at build time);
///  - adjacency is symmetric with equal weights in both directions;
///  - all edge and vertex weights are positive, and each of their
///    totals is at most kMaxTotalWeight.
class Graph {
 public:
  /// Empty graph with no vertices.
  Graph() = default;

  std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(vertex_weights_.size());
  }

  /// Number of undirected edges (each counted once).
  std::uint64_t num_edges() const { return neighbors_.size() / 2; }

  /// Degree of v: number of distinct neighbors.
  std::uint32_t degree(Vertex v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of v, sorted ascending.
  std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Edge weights aligned with neighbors(v).
  std::span<const Weight> edge_weights(Vertex v) const {
    return {edge_weights_.data() + offsets_[v],
            offsets_[v + 1] - offsets_[v]};
  }

  /// Weight of vertex v (1 unless set by the builder / contraction).
  Weight vertex_weight(Vertex v) const { return vertex_weights_[v]; }

  /// Sum of all vertex weights.
  Weight total_vertex_weight() const { return total_vertex_weight_; }

  /// Sum of all edge weights (each undirected edge counted once).
  Weight total_edge_weight() const { return total_edge_weight_; }

  /// Sum of weights of edges incident to v.
  Weight weighted_degree(Vertex v) const {
    Weight sum = 0;
    for (Weight w : edge_weights(v)) sum += w;
    return sum;
  }

  /// Largest weighted degree over all vertices; 0 without edges.
  Weight max_weighted_degree() const { return max_weighted_degree_; }

  /// Average (unweighted) degree: 2|E| / |V|. Zero for the empty graph.
  double average_degree() const {
    return num_vertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) / num_vertices();
  }

  /// True if (u, v) is an edge. O(log deg(u)).
  bool has_edge(Vertex u, Vertex v) const;

  /// Weight of edge (u, v), or 0 if absent. O(log deg(u)).
  Weight edge_weight(Vertex u, Vertex v) const;

  /// All edges, each once, with u < v, ordered by (u, v).
  std::vector<Edge> edges() const;

  /// Checks every structural invariant; returns false on corruption.
  /// Intended for tests and debug assertions, not hot paths.
  bool validate() const;

 private:
  friend class GraphBuilder;

  std::vector<std::uint64_t> offsets_{0};  // size |V|+1
  std::vector<Vertex> neighbors_;          // size 2|E|
  std::vector<Weight> edge_weights_;       // size 2|E|
  std::vector<Weight> vertex_weights_;     // size |V|
  Weight total_vertex_weight_ = 0;
  Weight total_edge_weight_ = 0;
  Weight max_weighted_degree_ = 0;
};

}  // namespace gbis
