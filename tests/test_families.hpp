// The graph families the cross-method sweeps run every registered
// method on (test_property.cpp's MethodFamilyProperty, test_methods.cpp's
// walk digest and weight-scaling checks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
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

}  // namespace gbis::test
