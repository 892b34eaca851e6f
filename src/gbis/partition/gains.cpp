#include "gbis/partition/gains.hpp"

namespace gbis {

std::vector<Weight> all_gains(const Bisection& bisection) {
  const Graph& g = bisection.graph();
  std::vector<Weight> gains(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    gains[v] = bisection.gain(v);
  }
  return gains;
}

Weight pair_gain(const Graph& g, Vertex a, Vertex b, Weight gain_a,
                 Weight gain_b) {
  return gain_a + gain_b - 2 * g.edge_weight(a, b);
}

void update_gains_after_swap(const Graph& g,
                             std::span<const std::uint8_t> sides, Vertex a,
                             Vertex b, std::vector<Weight>& gains) {
  const std::uint8_t side_a = sides[a];
  {
    const auto nbrs = g.neighbors(a);
    const auto wts = g.edge_weights(a);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex x = nbrs[i];
      if (x == b) continue;
      // a leaves x's side (or arrives at it): same-side neighbors of a
      // gain an external edge; opposite-side neighbors lose one.
      gains[x] += (sides[x] == side_a) ? 2 * wts[i] : -2 * wts[i];
    }
  }
  {
    const auto nbrs = g.neighbors(b);
    const auto wts = g.edge_weights(b);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex y = nbrs[i];
      if (y == a) continue;
      gains[y] += (sides[y] != side_a) ? 2 * wts[i] : -2 * wts[i];
    }
  }
}

void update_gains_after_move(const Graph& g,
                             std::span<const std::uint8_t> sides, Vertex v,
                             std::vector<Weight>& gains) {
  const std::uint8_t side_v = sides[v];
  const auto nbrs = g.neighbors(v);
  const auto wts = g.edge_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const Vertex x = nbrs[i];
    gains[x] += (sides[x] == side_v) ? 2 * wts[i] : -2 * wts[i];
  }
  gains[v] = -gains[v];
}

}  // namespace gbis
