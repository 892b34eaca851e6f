// Tests for the Kernighan-Lin implementation: invariants (balance
// preserved, cut never worsens), optimality on small instances, and the
// paper's known failure modes.
#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/exact/brute.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/kl/kl.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/partition/buckets.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/rng/rng.hpp"
#include "test_families.hpp"

namespace gbis {
namespace {

TEST(Kl, NeverWorsensAndKeepsBalance) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp(60, 0.1, rng);
    Bisection b = Bisection::random(g, rng);
    const Weight before = b.cut();
    const KlStats stats = kl_refine(b);
    EXPECT_LE(b.cut(), before);
    EXPECT_TRUE(b.is_balanced());
    EXPECT_EQ(b.cut(), b.recompute_cut());
    EXPECT_EQ(stats.final_cut, b.cut());
    EXPECT_EQ(stats.initial_cut, before);
    EXPECT_GE(stats.passes, 1u);
  }
}

TEST(Kl, SolvesSmallInstancesOptimally) {
  // KL is a heuristic, but with a couple of random restarts it should
  // hit the optimum on tiny, well-separated instances.
  Rng rng(2);
  const PlantedParams params{16, 0.9, 0.9, 2};
  const Graph g = make_planted(params, rng);
  const Weight optimal = brute_force_bisection(g).cut;
  Weight best = std::numeric_limits<Weight>::max();
  for (int start = 0; start < 5; ++start) {
    Bisection b = Bisection::random(g, rng);
    kl_refine(b);
    best = std::min(best, b.cut());
  }
  EXPECT_EQ(best, optimal);
}

TEST(Kl, RecoversPlantedBisectionOnDenseRegular) {
  // Observation 1 territory: degree >= 4 regular planted graphs are
  // where KL reliably finds the planted cut.
  Rng rng(3);
  const RegularPlantedParams params{200, 4, 5};
  const Graph g = make_regular_planted(params, rng);
  Weight best = std::numeric_limits<Weight>::max();
  for (int start = 0; start < 3; ++start) {
    Bisection b = Bisection::random(g, rng);
    kl_refine(b);
    best = std::min(best, b.cut());
  }
  EXPECT_EQ(best, 4);
}

TEST(Kl, SinglePassImprovesBadStart) {
  // Planted graph with an adversarial start: one pass must improve.
  Rng rng(4);
  const PlantedParams params{40, 0.8, 0.8, 4};
  const Graph g = make_planted(params, rng);
  // Worst-case start: interleaved sides.
  std::vector<std::uint8_t> sides(40);
  for (int v = 0; v < 40; ++v) sides[v] = static_cast<std::uint8_t>(v % 2);
  Bisection b(g, std::move(sides));
  const Weight before = b.cut();
  const Weight improvement = kl_pass(b);
  EXPECT_GT(improvement, 0);
  EXPECT_EQ(b.cut(), before - improvement);
}

TEST(Kl, FixpointOnOptimalStart) {
  // Starting at the planted (optimal) cut of a well-separated instance,
  // KL must not move away.
  Rng rng(5);
  const PlantedParams params{60, 0.7, 0.7, 1};
  const Graph g = make_planted(params, rng);
  Bisection b = Bisection::planted(g);
  kl_refine(b);
  EXPECT_EQ(b.cut(), 1);
}

TEST(Kl, HandlesEdgelessGraph) {
  Rng rng(6);
  GraphBuilder builder(10);
  const Graph g = builder.build();
  Bisection b = Bisection::random(g, rng);
  const KlStats stats = kl_refine(b);
  EXPECT_EQ(b.cut(), 0);
  EXPECT_EQ(stats.final_cut, 0);
}

TEST(Kl, HandlesTinyGraphs) {
  Rng rng(7);
  const Graph g = make_path(2);
  Bisection b = Bisection::random(g, rng);
  kl_refine(b);
  EXPECT_EQ(b.cut(), 1);  // the single edge must cross
  const Graph g1 = make_path(1);
  Bisection b1 = Bisection::random(g1, rng);
  kl_refine(b1);  // must not crash
}

TEST(Kl, MaxPassesRespected) {
  Rng rng(8);
  const Graph g = make_gnp(100, 0.08, rng);
  Bisection b = Bisection::random(g, rng);
  KlOptions options;
  options.max_passes = 1;
  const KlStats stats = kl_refine(b, options);
  EXPECT_EQ(stats.passes, 1u);
}

TEST(Kl, WeightedGraphRespectsWeights) {
  // Two heavy cliques joined by light edges: KL from any start should
  // find the 2-cut that splits between the cliques.
  GraphBuilder builder(8);
  for (Vertex u = 0; u < 4; ++u) {
    for (Vertex v = u + 1; v < 4; ++v) {
      builder.add_edge(u, v, 10);
      builder.add_edge(u + 4, v + 4, 10);
    }
  }
  builder.add_edge(0, 4);
  builder.add_edge(1, 5);
  const Graph g = builder.build();
  Rng rng(9);
  Weight best = std::numeric_limits<Weight>::max();
  for (int s = 0; s < 3; ++s) {
    Bisection b = Bisection::random(g, rng);
    kl_refine(b);
    best = std::min(best, b.cut());
  }
  EXPECT_EQ(best, 2);
}

TEST(Kl, LadderIsAKnownHardCase) {
  // Section I: KL "is known to fail badly on certain types of graphs
  // (e.g., the ladder graph)". From a random start on a long ladder it
  // usually lands above the optimal cut of 2. We only assert the soft
  // fact that it stays legal and does not crash, plus that the final
  // cut is at least optimal.
  Rng rng(10);
  const Graph g = make_ladder(100);
  Bisection b = Bisection::random(g, rng);
  kl_refine(b);
  EXPECT_GE(b.cut(), 2);
  EXPECT_TRUE(b.is_balanced());
}

TEST(Kl, OddVertexCount) {
  Rng rng(11);
  const Graph g = make_gnp(31, 0.2, rng);
  Bisection b = Bisection::random(g, rng);
  kl_refine(b);
  EXPECT_LE(b.count_imbalance(), 1u);
  EXPECT_EQ(b.cut(), b.recompute_cut());
}

TEST(Kl, StatsAccumulateAcrossPasses) {
  Rng rng(12);
  const Graph g = make_gnp(80, 0.1, rng);
  Bisection b = Bisection::random(g, rng);
  const KlStats stats = kl_refine(b);
  EXPECT_GE(stats.pairs_selected, stats.pairs_swapped);
  EXPECT_GT(stats.candidates_scanned, 0u);
}

// --- The workspace walk against a fresh-pass reference ---------------------

// KL without a workspace, kept as the reference the workspace walk
// must match: every pass builds two fresh bucket objects (one per
// side), recomputes every gain with all_gains and copies the sides,
// then scans pairs exactly as kl.cpp does.
bool reference_best_pair(const Graph& g, const GainBuckets (&side)[2],
                         Vertex& best_a, Vertex& best_b, Weight& best_gab,
                         std::uint64_t& scanned) {
  const Weight top0 = side[0].max_gain_present(0);
  const Weight top1 = side[1].max_gain_present(0);
  if (top0 == GainBuckets::kEmpty || top1 == GainBuckets::kEmpty) {
    return false;
  }
  bool found = false;
  best_gab = 0;
  for (Weight ga = top0; ga != GainBuckets::kEmpty;
       ga = side[0].next_below(0, ga)) {
    if (found && ga + top1 <= best_gab) break;
    for (auto a_it = side[0].bucket_head(0, ga); a_it != GainBuckets::kNil;
         a_it = side[0].bucket_next(static_cast<Vertex>(a_it))) {
      const auto a = static_cast<Vertex>(a_it);
      for (Weight gb = top1; gb != GainBuckets::kEmpty;
           gb = side[1].next_below(0, gb)) {
        if (found && ga + gb <= best_gab) break;
        for (auto b_it = side[1].bucket_head(0, gb); b_it != GainBuckets::kNil;
             b_it = side[1].bucket_next(static_cast<Vertex>(b_it))) {
          const auto b = static_cast<Vertex>(b_it);
          ++scanned;
          const Weight gab = ga + gb - 2 * g.edge_weight(a, b);
          if (!found || gab > best_gab) {
            found = true;
            best_gab = gab;
            best_a = a;
            best_b = b;
          }
          if (best_gab == ga + gb) break;
        }
        if (found && best_gab >= ga + gb) break;
      }
      if (found && best_gab >= ga + top1) break;
    }
    if (found && best_gab >= ga + top1) break;
  }
  return found;
}

bool reference_greedy_tops(const Graph& g, const GainBuckets (&side)[2],
                           Vertex& best_a, Vertex& best_b, Weight& best_gab,
                           std::uint64_t& scanned) {
  const Weight top0 = side[0].max_gain_present(0);
  const Weight top1 = side[1].max_gain_present(0);
  if (top0 == GainBuckets::kEmpty || top1 == GainBuckets::kEmpty) {
    return false;
  }
  const auto a = static_cast<Vertex>(side[0].bucket_head(0, top0));
  bool found = false;
  Weight best_partner = 0;
  for (Weight gb = top1; gb != GainBuckets::kEmpty;
       gb = side[1].next_below(0, gb)) {
    if (found && gb <= best_partner) break;
    for (auto it = side[1].bucket_head(0, gb); it != GainBuckets::kNil;
         it = side[1].bucket_next(static_cast<Vertex>(it))) {
      const auto b = static_cast<Vertex>(it);
      ++scanned;
      const Weight value = gb - 2 * g.edge_weight(a, b);
      if (!found || value > best_partner) {
        found = true;
        best_partner = value;
        best_b = b;
      }
      if (best_partner == gb) break;
    }
    if (found && best_partner >= gb) break;
  }
  best_a = a;
  best_gab = top0 + best_partner;
  return found;
}

Weight reference_kl_pass(Bisection& bisection, KlStats& stats,
                         KlPairSelection selection) {
  const Graph& g = bisection.graph();
  const std::uint32_t n = g.num_vertices();
  if (n < 2) return 0;
  GainBuckets buckets[2] = {GainBuckets(g), GainBuckets(g)};
  std::vector<Weight> gains = all_gains(bisection);
  std::vector<std::uint8_t> sides(bisection.sides().begin(),
                                  bisection.sides().end());
  for (Vertex v = 0; v < n; ++v) buckets[sides[v]].insert(v, 0, gains[v]);

  const std::uint32_t rounds =
      std::min(bisection.side_count(0), bisection.side_count(1));
  std::vector<std::pair<Vertex, Vertex>> sequence;
  Weight cumulative = 0, best_prefix_gain = 0;
  std::size_t best_prefix_len = 0;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    Vertex a = 0, b = 0;
    Weight gab = 0;
    const bool found =
        selection == KlPairSelection::kBestPair
            ? reference_best_pair(g, buckets, a, b, gab,
                                  stats.candidates_scanned)
            : reference_greedy_tops(g, buckets, a, b, gab,
                                    stats.candidates_scanned);
    if (!found) break;
    buckets[0].remove(a);
    buckets[1].remove(b);
    sequence.emplace_back(a, b);
    cumulative += gab;
    if (cumulative > best_prefix_gain) {
      best_prefix_gain = cumulative;
      best_prefix_len = sequence.size();
    }
    update_gains_after_swap(g, sides, a, b, gains);
    for (Vertex x : g.neighbors(a)) {
      if (buckets[sides[x]].contains(x)) buckets[sides[x]].update(x, gains[x]);
    }
    for (Vertex y : g.neighbors(b)) {
      if (buckets[sides[y]].contains(y)) buckets[sides[y]].update(y, gains[y]);
    }
  }
  stats.pairs_selected += sequence.size();
  stats.pairs_swapped += best_prefix_len;
  for (std::size_t i = 0; i < best_prefix_len; ++i) {
    bisection.swap(sequence[i].first, sequence[i].second);
  }
  return best_prefix_gain;
}

KlStats reference_kl_refine(Bisection& bisection, KlPairSelection selection) {
  KlStats stats;
  stats.initial_cut = bisection.cut();
  for (;;) {
    const Weight improvement = reference_kl_pass(bisection, stats, selection);
    ++stats.passes;
    if (improvement <= 0) break;
  }
  stats.final_cut = bisection.cut();
  return stats;
}

TEST(Kl, WorkspaceWalkMatchesFreshPassReference) {
  Rng gen(41);
  std::size_t light = 0;
  const std::vector<Graph> graphs = test::bucket_walk_graphs(gen, light);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    EXPECT_EQ(GainBuckets(g).dense(), i < light || i + 1 == graphs.size());
    Rng starts(i + 1);
    for (int s = 0; s < 3; ++s) {
      const Bisection start = Bisection::random(g, starts);
      for (const KlPairSelection selection :
           {KlPairSelection::kBestPair, KlPairSelection::kGreedyTops}) {
        SCOPED_TRACE(testing::Message()
                     << "graph " << i << " start " << s << " selection "
                     << static_cast<int>(selection));
        KlOptions options;
        options.pair_selection = selection;
        Bisection workspace = start;
        Bisection reference = start;
        const KlStats got = kl_refine(workspace, options);
        const KlStats want = reference_kl_refine(reference, selection);
        EXPECT_TRUE(std::equal(workspace.sides().begin(),
                               workspace.sides().end(),
                               reference.sides().begin()));
        EXPECT_EQ(workspace.cut(), reference.cut());
        EXPECT_EQ(got.passes, want.passes);
        EXPECT_EQ(got.pairs_selected, want.pairs_selected);
        EXPECT_EQ(got.pairs_swapped, want.pairs_swapped);
        EXPECT_EQ(got.candidates_scanned, want.candidates_scanned);
        EXPECT_EQ(got.initial_cut, want.initial_cut);
        EXPECT_EQ(got.final_cut, want.final_cut);
      }
    }
  }
}

// Property sweep: on random planted instances of growing size, KL from
// two starts never ends above the planted cut by more than the planted
// cut itself... too strong; assert legality + monotone improvement.
class KlProperty : public testing::TestWithParam<std::uint32_t> {};

TEST_P(KlProperty, LegalAndMonotone) {
  const std::uint32_t n = GetParam();
  Rng rng(n * 13 + 5);
  const Graph g = make_gnp(n, 5.0 / n, rng);
  Bisection b = Bisection::random(g, rng);
  Weight last = b.cut();
  for (int pass = 0; pass < 4; ++pass) {
    const Weight improvement = kl_pass(b);
    EXPECT_GE(improvement, 0);
    EXPECT_EQ(b.cut(), last - improvement);
    EXPECT_TRUE(b.is_balanced());
    ASSERT_EQ(b.cut(), b.recompute_cut());
    last = b.cut();
    if (improvement == 0) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KlProperty,
                         testing::Values(20u, 50u, 101u, 200u, 400u));

}  // namespace
}  // namespace gbis
