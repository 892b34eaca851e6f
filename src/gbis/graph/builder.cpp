#include "gbis/graph/builder.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace gbis {

namespace {

/// total += w, or throws when that would pass kMaxTotalWeight.
void add_within_limit(Weight& total, Weight w, const char* what) {
  if (w > kMaxTotalWeight - total) {
    throw std::invalid_argument(std::string("total ") + what +
                                " weight exceeds the 2^60 limit");
  }
  total += w;
}

}  // namespace

GraphBuilder::GraphBuilder(std::uint32_t num_vertices, SelfLoops self_loops)
    : vertex_weights_(num_vertices, 1), self_loops_(self_loops) {}

void GraphBuilder::add_edge(Vertex u, Vertex v, Weight weight) {
  if (u >= num_vertices() || v >= num_vertices()) {
    throw std::invalid_argument("GraphBuilder::add_edge: endpoint out of range");
  }
  if (weight <= 0) {
    throw std::invalid_argument("GraphBuilder::add_edge: non-positive weight");
  }
  if (u == v) {
    if (self_loops_ == SelfLoops::kReject) {
      throw std::invalid_argument("GraphBuilder::add_edge: self-loop");
    }
    return;  // kDrop
  }
  if (u > v) std::swap(u, v);
  staged_.push_back({u, v, weight});
}

void GraphBuilder::set_vertex_weight(Vertex v, Weight weight) {
  if (v >= num_vertices()) {
    throw std::invalid_argument(
        "GraphBuilder::set_vertex_weight: vertex out of range");
  }
  if (weight <= 0) {
    throw std::invalid_argument(
        "GraphBuilder::set_vertex_weight: non-positive weight");
  }
  vertex_weights_[v] = weight;
}

Graph GraphBuilder::build() {
  const std::uint32_t n = num_vertices();
  Graph g;
  std::vector<std::uint64_t>& offsets = g.offsets_;

  // The weight limit, checked before any sum that could overflow is
  // formed, and each vertex's degree with parallel edges counted apart.
  // Weights are positive, so a merged parallel edge and every weighted
  // degree stay within the edge total.
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  Weight total_edge_weight = 0;
  for (const Edge& e : staged_) {
    add_within_limit(total_edge_weight, e.weight, "edge");
    ++offsets[e.u + std::size_t{1}];
    ++offsets[e.v + std::size_t{1}];
  }
  Weight total_vertex_weight = 0;
  for (Vertex v = 0; v < n; ++v) {
    add_within_limit(total_vertex_weight, vertex_weights_[v], "vertex");
    offsets[v + std::size_t{1}] += offsets[v];
  }

  // Each row holds its lower neighbours (ids below its own), then its
  // upper ones. Deal every edge into its lower endpoint's row, filled
  // from the row's end down; `upper[x]` is then where x's upper part
  // starts, and `lower[x]` where its lower part ends.
  std::vector<Vertex> neighbors(2 * staged_.size());
  std::vector<Weight> weights(2 * staged_.size());
  std::vector<std::uint64_t> upper(offsets.begin() + 1, offsets.end());
  for (const Edge& e : staged_) {
    const std::uint64_t k = --upper[e.u];
    neighbors[k] = e.v;
    weights[k] = e.weight;
  }
  std::vector<std::uint64_t> lower(offsets.begin(), offsets.end() - 1);

  // One sweep in ascending x sorts, merges and packs both parts. When
  // the sweep reaches x, every u < x has dealt its edges (u, x) into x's
  // lower part, in ascending u and merged, so that part is final; it is
  // dealt back into each u's upper part, which then fills in ascending
  // x, right after u's own lower part. Then x's dealt upper edges (x, v)
  // go into each v's lower part, a repeat of the last one merging into
  // it. Rows are packed on the way: x's lower part moves left to `out`,
  // past the slots earlier rows lost to merges, and its upper part is
  // dealt back right after it. The packed rows end at `out`, never past
  // x's old start, and x's lower part is copied left in ascending order,
  // so nothing is overwritten before it is read. Every weighted degree
  // is summed on the way.
  std::uint64_t out = 0;
  Weight max_weighted_degree = 0;
  for (Vertex x = 0; x < n; ++x) {
    Weight degree = 0;
    std::uint64_t packed = out;
    for (std::uint64_t k = offsets[x]; k < lower[x]; ++k, ++packed) {
      const Vertex u = neighbors[k];
      const Weight w = weights[k];
      const std::uint64_t slot = upper[u]++;
      neighbors[slot] = x;
      weights[slot] = w;
      neighbors[packed] = u;
      weights[packed] = w;
      degree += w;
    }
    std::uint64_t distinct_upper = 0;
    for (std::uint64_t k = upper[x]; k < offsets[x + std::size_t{1}]; ++k) {
      const Vertex v = neighbors[k];
      const Weight w = weights[k];
      degree += w;
      const std::uint64_t end = lower[v];
      if (end > offsets[v] && neighbors[end - 1] == x) {
        weights[end - 1] += w;
      } else {
        neighbors[end] = x;
        weights[end] = w;
        lower[v] = end + 1;
        ++distinct_upper;
      }
    }
    offsets[x] = out;
    upper[x] = packed;
    out = packed + distinct_upper;
    max_weighted_degree = std::max(max_weighted_degree, degree);
  }
  offsets[n] = out;
  neighbors.resize(out);
  weights.resize(out);
  // Merged slots stay behind as spare capacity. Past a quarter of the
  // rows' length it is given back, so no graph holds more than a quarter
  // beyond its size (the graph store counts sizes). The staged edges go
  // first, so the copy does not raise the build's peak.
  if (neighbors.capacity() - out > out / 4) {
    staged_ = std::vector<Edge>();
    neighbors.shrink_to_fit();
    weights.shrink_to_fit();
  }

  g.neighbors_ = std::move(neighbors);
  g.edge_weights_ = std::move(weights);
  g.vertex_weights_ = std::move(vertex_weights_);
  g.total_vertex_weight_ = total_vertex_weight;
  g.total_edge_weight_ = total_edge_weight;
  g.max_weighted_degree_ = max_weighted_degree;
  staged_.clear();
  vertex_weights_.assign(n, 1);
  return g;
}

void GraphBuilder::reserve_edges(std::size_t count) {
  staged_.reserve(staged_.size() + count);
}

}  // namespace gbis
