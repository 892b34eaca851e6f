// Tests for the Fiduccia-Mattheyses refinement.
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/exact/brute.hpp"
#include "gbis/fm/fm.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/partition/buckets.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/rng/rng.hpp"
#include "test_families.hpp"

namespace gbis {
namespace {

TEST(Fm, NeverWorsensAndKeepsBalance) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp(60, 0.1, rng);
    Bisection b = Bisection::random(g, rng);
    const Weight before = b.cut();
    const FmStats stats = fm_refine(b);
    EXPECT_LE(b.cut(), before);
    EXPECT_LE(b.count_imbalance(), 1u);
    EXPECT_EQ(b.cut(), b.recompute_cut());
    EXPECT_EQ(stats.final_cut, b.cut());
  }
}

TEST(Fm, SolvesWellSeparatedInstances) {
  Rng rng(2);
  const PlantedParams params{24, 0.9, 0.9, 2};
  const Graph g = make_planted(params, rng);
  const Weight optimal = brute_force_bisection(g).cut;
  Weight best = std::numeric_limits<Weight>::max();
  for (int start = 0; start < 5; ++start) {
    Bisection b = Bisection::random(g, rng);
    fm_refine(b);
    best = std::min(best, b.cut());
  }
  EXPECT_EQ(best, optimal);
}

TEST(Fm, RejectsImbalancedInput) {
  const Graph g = make_cycle(10);
  Bisection b(g, std::vector<std::uint8_t>(10, 0));
  EXPECT_THROW(fm_refine(b), std::invalid_argument);
}

TEST(Fm, HonorsWiderTolerance) {
  Rng rng(3);
  const Graph g = make_gnp(40, 0.15, rng);
  std::vector<std::uint8_t> sides(40, 0);
  for (int i = 0; i < 18; ++i) sides[static_cast<std::size_t>(i)] = 1;
  Bisection b(g, std::move(sides));  // imbalance 4
  FmOptions options;
  options.balance_tolerance = 4;
  fm_refine(b, options);
  EXPECT_LE(b.count_imbalance(), 4u);
}

TEST(Fm, MaxPassesRespected) {
  Rng rng(4);
  const Graph g = make_gnp(100, 0.08, rng);
  Bisection b = Bisection::random(g, rng);
  FmOptions options;
  options.max_passes = 1;
  EXPECT_EQ(fm_refine(b, options).passes, 1u);
}

TEST(Fm, EdgelessAndTiny) {
  Rng rng(5);
  GraphBuilder builder(6);
  const Graph g = builder.build();
  Bisection b = Bisection::random(g, rng);
  fm_refine(b);
  EXPECT_EQ(b.cut(), 0);

  const Graph g2 = make_path(2);
  Bisection b2 = Bisection::random(g2, rng);
  fm_refine(b2);
  EXPECT_EQ(b2.cut(), 1);
}

TEST(Fm, WeightedEdgesRespected) {
  // Four heavy pairs chained by unit edges: the optimal bisection keeps
  // every heavy pair intact and cuts only light edges.
  GraphBuilder builder(8);
  for (Vertex v = 0; v < 8; v += 2) builder.add_edge(v, v + 1, 100);
  builder.add_edge(0, 2);
  builder.add_edge(4, 6);
  builder.add_edge(1, 5);
  const Graph g = builder.build();
  Rng rng(6);
  Weight best = std::numeric_limits<Weight>::max();
  for (int s = 0; s < 6; ++s) {
    Bisection b = Bisection::random(g, rng);
    fm_refine(b);
    best = std::min(best, b.cut());
  }
  EXPECT_LE(best, 3);  // no heavy edge crosses
}

TEST(Fm, WeightBalanceMode) {
  // Vertices of weight 3/1 mixed; weight balancing must hold the
  // weight split even when counts drift.
  Rng rng(7);
  GraphBuilder builder(12);
  for (Vertex v = 0; v < 12; ++v) {
    builder.set_vertex_weight(v, v % 3 == 0 ? 3 : 1);
  }
  for (int e = 0; e < 30; ++e) {
    const auto u = static_cast<Vertex>(rng.below(12));
    const auto v = static_cast<Vertex>(rng.below(12));
    if (u != v) builder.add_edge(u, v);
  }
  const Graph g = builder.build();

  // Start from a weight-balanced split (weights: 4x3 + 8x1 = 20).
  std::vector<std::uint8_t> sides(12, 0);
  sides[0] = sides[3] = sides[6] = 1;  // 3+3+3 = 9
  sides[1] = 1;                        // +1 = 10 vs 10
  Bisection b(g, std::move(sides));
  ASSERT_EQ(b.weight_imbalance(), 0);

  FmOptions options;
  options.balance = FmBalance::kWeight;
  options.balance_tolerance = 2;
  const Weight before = b.cut();
  fm_refine(b, options);
  EXPECT_LE(b.cut(), before);
  EXPECT_LE(b.weight_imbalance(), 2);
  EXPECT_EQ(b.cut(), b.recompute_cut());
}

TEST(Fm, WeightModeRejectsWeightImbalancedInput) {
  GraphBuilder builder(4);
  builder.set_vertex_weight(0, 10);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  const Graph g = builder.build();
  Bisection b(g, {0, 0, 1, 1});  // counts 2/2 but weights 11/2
  FmOptions options;
  options.balance = FmBalance::kWeight;
  options.balance_tolerance = 1;
  EXPECT_THROW(fm_refine(b, options), std::invalid_argument);
}

// --- The workspace walk against a fresh-pass reference ---------------------

// FM without a workspace, kept as the reference the workspace walk
// must match: every pass builds two fresh bucket objects (one per
// side), recomputes every gain with all_gains and copies the sides,
// then moves vertices exactly as fm.cpp does.
Weight reference_fm_pass(Bisection& bisection, const FmOptions& options,
                         FmStats& stats) {
  const Graph& g = bisection.graph();
  const std::uint32_t n = g.num_vertices();
  if (n < 2) return 0;
  GainBuckets buckets[2] = {GainBuckets(g), GainBuckets(g)};
  std::vector<Weight> gains = all_gains(bisection);
  std::vector<std::uint8_t> sides(bisection.sides().begin(),
                                  bisection.sides().end());
  const bool by_weight = options.balance == FmBalance::kWeight;
  std::int64_t size[2];
  for (int s = 0; s < 2; ++s) {
    size[s] = by_weight ? bisection.side_weight(s) : bisection.side_count(s);
  }
  Weight max_vertex_weight = 1;
  for (Vertex v = 0; v < n; ++v) {
    max_vertex_weight = std::max(max_vertex_weight, g.vertex_weight(v));
    buckets[sides[v]].insert(v, 0, gains[v]);
  }
  auto size_of = [&](Vertex v) -> std::int64_t {
    return by_weight ? g.vertex_weight(v) : 1;
  };
  std::vector<Vertex> sequence;
  Weight cumulative = 0, best_prefix_gain = 0;
  std::size_t best_prefix_len = 0;
  const std::int64_t transient_tolerance =
      static_cast<std::int64_t>(options.balance_tolerance) +
      (by_weight ? max_vertex_weight : 1);
  for (std::uint32_t step = 0; step < n; ++step) {
    const Weight top[2] = {buckets[0].max_gain_present(0),
                           buckets[1].max_gain_present(0)};
    int from = -1;
    for (int s = 0; s < 2; ++s) {
      if (top[s] == GainBuckets::kEmpty) continue;
      const auto head = static_cast<Vertex>(buckets[s].bucket_head(0, top[s]));
      const std::int64_t amount = size_of(head);
      const std::int64_t diff = (size[1 - s] + amount) - (size[s] - amount);
      if ((diff < 0 ? -diff : diff) > transient_tolerance) continue;
      if (from == -1 || size[s] > size[from] ||
          (size[s] == size[from] && top[s] > top[from])) {
        from = s;
      }
    }
    if (from == -1) break;
    const auto v =
        static_cast<Vertex>(buckets[from].bucket_head(0, top[from]));
    buckets[from].remove(v);
    sequence.push_back(v);
    cumulative += gains[v];
    const std::int64_t amount = size_of(v);
    size[from] -= amount;
    size[from ^ 1] += amount;
    const std::int64_t imbalance_after =
        size[0] >= size[1] ? size[0] - size[1] : size[1] - size[0];
    if (cumulative > best_prefix_gain &&
        imbalance_after <=
            static_cast<std::int64_t>(options.balance_tolerance)) {
      best_prefix_gain = cumulative;
      best_prefix_len = sequence.size();
    }
    update_gains_after_move(g, sides, v, gains);
    sides[v] ^= 1;
    for (Vertex x : g.neighbors(v)) {
      if (buckets[sides[x]].contains(x)) buckets[sides[x]].update(x, gains[x]);
    }
  }
  stats.moves_considered += sequence.size();
  stats.moves_applied += best_prefix_len;
  for (std::size_t i = 0; i < best_prefix_len; ++i) {
    bisection.move(sequence[i]);
  }
  return best_prefix_gain;
}

FmStats reference_fm_refine(Bisection& bisection, const FmOptions& options) {
  FmStats stats;
  stats.initial_cut = bisection.cut();
  for (;;) {
    const Weight improvement = reference_fm_pass(bisection, options, stats);
    ++stats.passes;
    if (improvement <= 0) break;
  }
  stats.final_cut = bisection.cut();
  return stats;
}

TEST(Fm, WorkspaceWalkMatchesFreshPassReference) {
  Rng gen(43);
  std::size_t light = 0;
  const std::vector<Graph> graphs = test::bucket_walk_graphs(gen, light);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    EXPECT_EQ(GainBuckets(g).dense(), i < light || i + 1 == graphs.size());
    Rng starts(i + 1);
    for (int s = 0; s < 3; ++s) {
      const Bisection start = Bisection::random(g, starts);
      for (const FmBalance balance : {FmBalance::kCount, FmBalance::kWeight}) {
        SCOPED_TRACE(testing::Message() << "graph " << i << " start " << s
                                        << " balance "
                                        << static_cast<int>(balance));
        FmOptions options;
        options.balance = balance;
        if (balance == FmBalance::kWeight) {
          options.balance_tolerance = static_cast<std::uint64_t>(
              std::max(Weight{1}, start.weight_imbalance()));
        }
        Bisection workspace = start;
        Bisection reference = start;
        const FmStats got = fm_refine(workspace, options);
        const FmStats want = reference_fm_refine(reference, options);
        EXPECT_TRUE(std::equal(workspace.sides().begin(),
                               workspace.sides().end(),
                               reference.sides().begin()));
        EXPECT_EQ(workspace.cut(), reference.cut());
        EXPECT_EQ(got.passes, want.passes);
        EXPECT_EQ(got.moves_considered, want.moves_considered);
        EXPECT_EQ(got.moves_applied, want.moves_applied);
        EXPECT_EQ(got.initial_cut, want.initial_cut);
        EXPECT_EQ(got.final_cut, want.final_cut);
      }
    }
  }
}

class FmProperty : public testing::TestWithParam<std::uint32_t> {};

TEST_P(FmProperty, LegalOnRandomGraphs) {
  const std::uint32_t n = GetParam();
  Rng rng(n * 17 + 1);
  const Graph g = make_gnp(n, 6.0 / n, rng);
  Bisection b = Bisection::random(g, rng);
  const Weight before = b.cut();
  fm_refine(b);
  EXPECT_LE(b.cut(), before);
  EXPECT_LE(b.count_imbalance(), 1u);
  ASSERT_EQ(b.cut(), b.recompute_cut());
}

INSTANTIATE_TEST_SUITE_P(Sizes, FmProperty,
                         testing::Values(16u, 33u, 64u, 128u, 257u));

}  // namespace
}  // namespace gbis
