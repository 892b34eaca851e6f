// Cross-module property sweeps (parameterized): invariants that must
// hold for every algorithm on every graph family, plus model-level
// distributional properties.
#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/core/compaction.hpp"
#include "gbis/exact/brute.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/ops.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {
namespace {

// Every registered method, in registry order: the sweeps below cover a
// new method as soon as it has a registry row.
std::vector<Method> registered_methods() {
  std::vector<Method> methods;
  for (const MethodInfo& info : method_registry()) {
    methods.push_back(info.method);
  }
  return methods;
}

// --- Every method yields a legal bisection on every family ---------------

enum class Family { kGnp, kPlanted, kRegular, kGrid, kLadder, kTree };

Graph make_family(Family family, std::uint32_t n, Rng& rng) {
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

using MethodFamilyParam = std::tuple<Method, Family>;

class MethodFamilyProperty
    : public testing::TestWithParam<MethodFamilyParam> {};

TEST_P(MethodFamilyProperty, ProducesLegalBisection) {
  const auto [method, family] = GetParam();
  Rng rng(static_cast<std::uint64_t>(static_cast<int>(method)) * 97 +
          static_cast<std::uint64_t>(static_cast<int>(family)) * 13 + 1);
  const Graph g = make_family(family, 80, rng);
  RunConfig config;
  config.starts = 1;
  config.sa.temperature_length_factor = 2.0;
  config.sa.cooling_ratio = 0.85;
  std::vector<std::uint8_t> sides;
  const RunResult result = run_method(g, method, rng, config, &sides);
  EXPECT_GE(result.best_cut, 0);
  EXPECT_LE(result.best_cut, g.total_edge_weight());
  // The answer is a legal bisection: one side per vertex, side sizes
  // within one of each other, and the reported cut matches a recount.
  ASSERT_EQ(sides.size(), g.num_vertices());
  const Bisection recount(g, sides);
  EXPECT_LE(recount.count_imbalance(), 1u);
  EXPECT_EQ(recount.cut(), result.best_cut);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MethodFamilyProperty,
    testing::Combine(testing::ValuesIn(registered_methods()),
                     testing::Values(Family::kGnp, Family::kPlanted,
                                     Family::kRegular, Family::kGrid,
                                     Family::kLadder, Family::kTree)));

// --- Heuristics never beat the exact optimum ------------------------------

class NeverBelowOptimum : public testing::TestWithParam<std::uint32_t> {};

TEST_P(NeverBelowOptimum, OnSmallRandomGraphs) {
  const std::uint32_t seed = GetParam();
  Rng rng(seed);
  const Graph g = make_gnp(14, 0.35, rng);
  const Weight optimal = brute_force_bisection(g).cut;
  RunConfig config;
  config.starts = 2;
  config.sa.temperature_length_factor = 4.0;
  for (const Method m : registered_methods()) {
    const RunResult result = run_method(g, m, rng, config);
    EXPECT_GE(result.best_cut, optimal) << method_name(m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeverBelowOptimum,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- KL reaches the optimum on small instances with restarts -------------

class KlNearOptimal : public testing::TestWithParam<std::uint32_t> {};

TEST_P(KlNearOptimal, WithRestartsOnDenseSmallGraphs) {
  const std::uint32_t seed = GetParam();
  Rng rng(seed * 7 + 1);
  const Graph g = make_gnp(12, 0.5, rng);
  const Weight optimal = brute_force_bisection(g).cut;
  RunConfig config;
  config.starts = 8;
  const RunResult result = run_method(g, Method::kKl, rng, config);
  EXPECT_EQ(result.best_cut, optimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlNearOptimal,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Gbreg distributional properties across the parameter grid -----------

using GbregParam = std::tuple<std::uint32_t, std::uint32_t>;  // (two_n, d)

class GbregGridProperty : public testing::TestWithParam<GbregParam> {};

TEST_P(GbregGridProperty, RegularSimpleWithExactPlantedCut) {
  const auto [two_n, d] = GetParam();
  Rng rng(two_n * 31 + d);
  const std::uint64_t b = 8;
  const RegularPlantedParams params{two_n, b, d};
  ASSERT_TRUE(regular_planted_params_valid(params));
  const Graph g = make_regular_planted(params, rng);
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(is_regular(g, d));
  EXPECT_EQ(Bisection::planted(g).cut(), static_cast<Weight>(b));
}

INSTANTIATE_TEST_SUITE_P(Grid, GbregGridProperty,
                         testing::Combine(testing::Values(40u, 100u, 200u,
                                                          500u),
                                          testing::Values(2u, 3u, 4u, 5u)));

// --- Compaction invariant: projected start never exceeds coarse cut ------

class CompactionInvariant : public testing::TestWithParam<std::uint32_t> {};

TEST_P(CompactionInvariant, CoarseCutEqualsProjectedCut) {
  const std::uint32_t n = GetParam();
  Rng rng(n + 99);
  const Graph g = make_gnp(n, 4.0 / n, rng);
  CompactionStats stats;
  compacted_bisect(g, rng, kl_refiner(), {}, &stats);
  EXPECT_EQ(stats.coarse_cut, stats.projected_cut);
  EXPECT_LE(stats.final_cut, stats.projected_cut);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompactionInvariant,
                         testing::Values(20u, 50u, 100u, 200u, 401u));

}  // namespace
}  // namespace gbis
