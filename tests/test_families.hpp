// The graph families the cross-method sweeps run every registered
// method on (test_property.cpp's MethodFamilyProperty, test_methods.cpp's
// walk digest and weight-scaling checks), and the inputs the gain-bucket
// refiners' walks are checked on against their references.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gbis/core/contract.hpp"
#include "gbis/core/matching.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/graph/graph.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis::test {

// Every registered method, in registry order: the sweeps cover a new
// method as soon as it has a registry row.
inline std::vector<Method> registered_methods() {
  std::vector<Method> methods;
  for (const MethodInfo& info : method_registry()) {
    methods.push_back(info.method);
  }
  return methods;
}

enum class Family { kGnp, kPlanted, kRegular, kGrid, kLadder, kTree };

inline constexpr Family kFamilies[] = {Family::kGnp,    Family::kPlanted,
                                       Family::kRegular, Family::kGrid,
                                       Family::kLadder,  Family::kTree};

// About n vertices of `family`. The planted and regular models split
// their vertices into two equal halves, so they round n down to even,
// and a ladder always has 2 * rungs vertices. At n = 81 the odd graphs
// are Gnp, the 9 x 9 grid and the tree; at n = 80 only the grid is odd.
inline Graph make_family(Family family, std::uint32_t n, Rng& rng) {
  switch (family) {
    case Family::kGnp:
      return make_gnp(n, 5.0 / n, rng);
    case Family::kPlanted:
      return make_planted(planted_params_for_degree(n - n % 2, 3.0, 4), rng);
    case Family::kRegular: {
      const std::uint32_t even = n - n % 2;
      const std::uint64_t b = (static_cast<std::uint64_t>(even / 2) * 3) % 2;
      return make_regular_planted({even, b + 4, 3}, rng);
    }
    case Family::kGrid: {
      std::uint32_t side = 2;
      while (side * side < n) ++side;
      return make_grid(side, side);
    }
    case Family::kLadder:
      return make_ladder(std::max(1u, n / 2));
    case Family::kTree:
      return make_binary_tree(n);
  }
  return Graph{};
}

/// g with every edge weight multiplied by `factor` (vertex weights kept).
inline Graph scale_edge_weights(const Graph& g, Weight factor) {
  GraphBuilder builder(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    builder.set_vertex_weight(v, g.vertex_weight(v));
  }
  for (const Edge& e : g.edges()) builder.add_edge(e.u, e.v, e.weight * factor);
  return builder.build();
}

/// g with random edge weights in [1, 9].
inline Graph reweight(const Graph& g, Rng& rng) {
  GraphBuilder builder(g.num_vertices());
  for (const Edge& e : g.edges()) {
    builder.add_edge(e.u, e.v, 1 + static_cast<Weight>(rng.below(9)));
  }
  return builder.build();
}

/// Inputs for checking a bucket refiner's walk against a reference:
/// every family at n = 80, 81, 400 and 401, each followed by a
/// reweighted twin; then heavy-weight copies of every fourth of those,
/// which put the gain buckets on the sparse storage; and last the
/// coarse graph of one contracted matching (vertex weights 1 and 2,
/// merged edge weights). `light` is set to the count before the heavy
/// copies.
inline std::vector<Graph> bucket_walk_graphs(Rng& gen, std::size_t& light) {
  std::vector<Graph> graphs;
  for (const Family family : kFamilies) {
    for (const std::uint32_t n : {80u, 81u, 400u, 401u}) {
      graphs.push_back(make_family(family, n, gen));
      graphs.push_back(reweight(graphs.back(), gen));
    }
  }
  light = graphs.size();
  for (std::size_t i = 1; i < light; i += 4) {
    graphs.push_back(scale_edge_weights(graphs[i], Weight{1} << 40));
  }
  const Graph fine = make_gnp(400, 6.0 / 400, gen);
  const Matching matching = maximal_matching(fine, gen);
  graphs.push_back(
      contract_matching(fine, matching, gen, /*pair_leftovers=*/false).coarse);
  return graphs;
}

}  // namespace gbis::test
