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

/// Stable counting sort of `from` into `to` (of the same size) by
/// key(e), a vertex id below n.
template <typename Key>
void counting_sort(const std::vector<Edge>& from, std::vector<Edge>& to,
                   std::uint32_t n, Key key) {
  std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : from) ++start[key(e) + std::size_t{1}];
  for (std::uint32_t k = 0; k < n; ++k) start[k + 1] += start[k];
  for (const Edge& e : from) to[start[key(e)]++] = e;
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

  // The weight limit, checked before any sum that could overflow is
  // formed. Weights are positive, so a merged parallel edge and every
  // weighted degree stay within the edge total.
  Weight total_edge_weight = 0;
  for (const Edge& e : staged_) {
    add_within_limit(total_edge_weight, e.weight, "edge");
  }
  Weight total_vertex_weight = 0;
  for (const Weight w : vertex_weights_) {
    add_within_limit(total_vertex_weight, w, "vertex");
  }

  // Sort by (u, v) in O(|V| + |E|): a stable counting pass by v, then
  // one by u, which keeps each u's edges in ascending v order. The
  // scratch copy is freed before the CSR arrays are allocated.
  {
    std::vector<Edge> by_v(staged_.size());
    counting_sort(staged_, by_v, n, [](const Edge& e) { return e.v; });
    counting_sort(by_v, staged_, n, [](const Edge& e) { return e.u; });
  }
  // Merge parallel edges by summing weights.
  std::size_t out = 0;
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    if (out > 0 && staged_[out - 1].u == staged_[i].u &&
        staged_[out - 1].v == staged_[i].v) {
      staged_[out - 1].weight += staged_[i].weight;
    } else {
      staged_[out++] = staged_[i];
    }
  }
  staged_.resize(out);

  Graph g;
  g.vertex_weights_ = std::move(vertex_weights_);
  g.total_vertex_weight_ = total_vertex_weight;
  g.total_edge_weight_ = total_edge_weight;

  std::vector<std::uint32_t> deg(n, 0);
  for (const Edge& e : staged_) {
    ++deg[e.u];
    ++deg[e.v];
  }
  g.offsets_.assign(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + deg[v];
  g.neighbors_.resize(staged_.size() * 2);
  g.edge_weights_.resize(staged_.size() * 2);

  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  // staged_ is sorted by (u, v) with u < v, so emitting u->v in order
  // keeps each u's list sorted; v->u entries also land sorted because u
  // increases monotonically across the scan.
  for (const Edge& e : staged_) {
    g.neighbors_[cursor[e.u]] = e.v;
    g.edge_weights_[cursor[e.u]] = e.weight;
    ++cursor[e.u];
    g.neighbors_[cursor[e.v]] = e.u;
    g.edge_weights_[cursor[e.v]] = e.weight;
    ++cursor[e.v];
  }
  for (Vertex v = 0; v < n; ++v) {
    g.max_weighted_degree_ =
        std::max(g.max_weighted_degree_, g.weighted_degree(v));
  }
  staged_.clear();
  vertex_weights_.assign(n, 1);
  return g;
}

}  // namespace gbis
