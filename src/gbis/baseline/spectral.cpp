#include "gbis/baseline/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace gbis {

Bisection spectral_bisection(const Graph& g, Rng& rng,
                             const SpectralOptions& options) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint8_t> sides(n, 1);
  if (n < 2) {
    sides.assign(n, 0);
    return Bisection(g, std::move(sides));
  }

  // Shift: c >= lambda_max(L); 2 * max weighted degree suffices
  // (Gershgorin: lambda_max <= 2 * max_wdeg).
  const double shift =
      2.0 * static_cast<double>(std::max(Weight{1}, g.max_weighted_degree()));

  std::vector<double> x(n), y(n);
  for (double& coord : x) coord = rng.real01() - 0.5;

  auto deflate_and_normalize = [&](std::vector<double>& vec) {
    // Remove the constant component (eigenvector of lambda = 0).
    const double mean =
        std::accumulate(vec.begin(), vec.end(), 0.0) / static_cast<double>(n);
    for (double& coord : vec) coord -= mean;
    double norm = 0.0;
    for (double coord : vec) norm += coord * coord;
    norm = std::sqrt(norm);
    if (norm < 1e-30) {
      // Degenerate start (constant vector): re-randomize.
      for (double& coord : vec) coord = rng.real01() - 0.5;
      return false;
    }
    for (double& coord : vec) coord /= norm;
    return true;
  };
  deflate_and_normalize(x);

  double prev_rayleigh = 0.0;
  for (std::uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    // y = (shift*I - L) x = shift*x - D*x + A*x.
    for (Vertex v = 0; v < n; ++v) {
      double acc =
          (shift - static_cast<double>(g.weighted_degree(v))) * x[v];
      const auto nbrs = g.neighbors(v);
      const auto wts = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        acc += static_cast<double>(wts[i]) * x[nbrs[i]];
      }
      y[v] = acc;
    }
    // Rayleigh quotient of the shifted operator before normalization.
    double rayleigh = 0.0;
    for (Vertex v = 0; v < n; ++v) rayleigh += x[v] * y[v];
    x.swap(y);
    if (!deflate_and_normalize(x)) continue;
    if (iter > 0 &&
        std::abs(rayleigh - prev_rayleigh) <=
            options.tolerance * std::abs(rayleigh)) {
      break;
    }
    prev_rayleigh = rayleigh;
  }

  // Median split for exact balance.
  std::vector<Vertex> order(n);
  for (Vertex v = 0; v < n; ++v) order[v] = v;
  std::nth_element(order.begin(), order.begin() + (n + 1) / 2, order.end(),
                   [&](Vertex a, Vertex b) { return x[a] < x[b]; });
  for (std::uint32_t i = 0; i < (n + 1) / 2; ++i) sides[order[i]] = 0;
  return Bisection(g, std::move(sides));
}

}  // namespace gbis
