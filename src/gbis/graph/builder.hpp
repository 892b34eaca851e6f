// Mutable accumulator that produces an immutable Graph.
//
// The builder accepts edges in any order, in either direction, with
// repeats: parallel edges are merged by summing weights (exactly the
// semantics edge contraction needs). Self-loops are rejected — they can
// never be cut, so they carry no information for bisection — except
// that contraction code may ask for them to be silently dropped.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gbis/graph/graph.hpp"

namespace gbis {

/// Accumulates vertices and weighted edges, then builds a CSR Graph.
class GraphBuilder {
 public:
  /// Policy for add_edge(u, u).
  enum class SelfLoops {
    kReject,  ///< throw std::invalid_argument (default)
    kDrop,    ///< silently ignore (used by contraction)
  };

  /// Builder over n vertices, all of weight 1.
  explicit GraphBuilder(std::uint32_t num_vertices,
                        SelfLoops self_loops = SelfLoops::kReject);

  std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(vertex_weights_.size());
  }

  /// Adds an undirected edge. Throws std::invalid_argument on an
  /// out-of-range endpoint, non-positive weight, or (under kReject) a
  /// self-loop. Parallel edges merge at build().
  void add_edge(Vertex u, Vertex v, Weight weight = 1);

  /// Sets the weight of a vertex (must be positive).
  void set_vertex_weight(Vertex v, Weight weight);

  /// Makes room for `count` more add_edge calls without regrowing.
  void reserve_edges(std::size_t count);

  /// Builds the immutable graph in O(|V| + |E|), whatever order the
  /// edges were added in. The builder is left empty. Throws
  /// std::invalid_argument ("total edge weight exceeds the 2^60
  /// limit", or the same for vertex weight) when the graph would break
  /// the kMaxTotalWeight limit; the builder is then left as it was.
  Graph build();

 private:
  // Each undirected edge staged once, normalized to u < v; sorted and
  // merged straight into the CSR rows at build time.
  std::vector<Edge> staged_;
  std::vector<Weight> vertex_weights_;
  SelfLoops self_loops_;
};

}  // namespace gbis
