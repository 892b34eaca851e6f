#include "gbis/graph/graph.hpp"

#include <algorithm>

namespace gbis {

bool Graph::has_edge(Vertex u, Vertex v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

Weight Graph::edge_weight(Vertex u, Vertex v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0;
  return edge_weights(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(num_edges());
  for (Vertex u = 0; u < num_vertices(); ++u) {
    const auto nbrs = neighbors(u);
    const auto wts = edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) result.push_back({u, nbrs[i], wts[i]});
    }
  }
  return result;
}

bool Graph::validate() const {
  const std::uint32_t n = num_vertices();
  if (offsets_.size() != static_cast<std::size_t>(n) + 1) return false;
  if (offsets_.front() != 0 || offsets_.back() != neighbors_.size())
    return false;
  if (edge_weights_.size() != neighbors_.size()) return false;

  Weight vw_sum = 0;
  for (Weight w : vertex_weights_) {
    if (w <= 0) return false;
    vw_sum += w;
  }
  if (vw_sum != total_vertex_weight_ || vw_sum > kMaxTotalWeight) {
    return false;
  }

  Weight ew_sum = 0;
  Weight max_wdeg = 0;
  for (Vertex u = 0; u < n; ++u) {
    if (offsets_[u] > offsets_[u + 1]) return false;
    const auto nbrs = neighbors(u);
    const auto wts = edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex v = nbrs[i];
      if (v >= n || v == u) return false;                    // range, loop
      if (i > 0 && nbrs[i - 1] >= v) return false;           // sorted, dedup
      if (wts[i] <= 0) return false;
      if (edge_weight(v, u) != wts[i]) return false;         // symmetric
      if (u < v) ew_sum += wts[i];
    }
    max_wdeg = std::max(max_wdeg, weighted_degree(u));
  }
  return ew_sum == total_edge_weight_ && ew_sum <= kMaxTotalWeight &&
         max_wdeg == max_weighted_degree_;
}

}  // namespace gbis
