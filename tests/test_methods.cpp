// Tests for the method-portfolio subsystem (src/gbis/methods/): the
// registry that makes solvers data, the Berry-Goldberg path
// optimizer's refiner contract (balance preserved, cut never worsens,
// deterministic, deadline-interruptible), the fast greedy+hill-climb
// rung, and the quality pin the ISSUE acceptance demands — path-opt
// mean cuts within 5% of KL's over the EXPERIMENTS.md graph classes.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/baseline/greedy.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/kl/kl.hpp"
#include "gbis/methods/greedy.hpp"
#include "gbis/methods/path_opt.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/partition/buckets.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/util/deadline.hpp"
#include "test_families.hpp"

namespace gbis {
namespace {

// --- Registry --------------------------------------------------------------

TEST(Registry, RowsAlignWithTheMethodEnum) {
  const auto registry = method_registry();
  ASSERT_GE(registry.size(), 12u);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(registry[i].method), i)
        << registry[i].name;
    // method_info must be the same row the span exposes.
    EXPECT_EQ(&method_info(registry[i].method), &registry[i]);
  }
}

TEST(Registry, NamesRoundTripThroughEveryLookupPath) {
  for (const MethodInfo& info : method_registry()) {
    // Scripting name -> registry row.
    const MethodInfo* by_name = method_info_by_name(info.name);
    ASSERT_NE(by_name, nullptr) << info.name;
    EXPECT_EQ(by_name->method, info.method);
    // Scripting name -> harness Method (what the CLI/protocol use).
    Method parsed;
    ASSERT_TRUE(method_from_name(info.name, parsed)) << info.name;
    EXPECT_EQ(parsed, info.method);
    // Display name is what responses/tables print.
    EXPECT_EQ(method_name(info.method), info.display_name);
  }
  EXPECT_EQ(method_info_by_name("no-such-method"), nullptr);
}

TEST(Registry, PathOptAndGreedyHcAreFirstClass) {
  EXPECT_EQ(std::string(method_name(Method::kPathOpt)), "PO");
  EXPECT_EQ(std::string(method_name(Method::kGreedyHc)), "GreedyHC");
  Method m;
  ASSERT_TRUE(method_from_name("path", m));
  EXPECT_EQ(m, Method::kPathOpt);
  ASSERT_TRUE(method_from_name("greedy_hc", m));
  EXPECT_EQ(m, Method::kGreedyHc);
}

TEST(Registry, QualityTierNamesRoundTrip) {
  for (const QualityTier tier : {QualityTier::kFast, QualityTier::kBalanced,
                                 QualityTier::kBest}) {
    QualityTier parsed;
    ASSERT_TRUE(quality_tier_from_name(quality_tier_name(tier), parsed));
    EXPECT_EQ(parsed, tier);
  }
  QualityTier parsed;
  EXPECT_FALSE(quality_tier_from_name("fastest", parsed));
  EXPECT_FALSE(quality_tier_from_name("", parsed));
}

TEST(Registry, BestPortfolioPreservesTheHistoricalPrefix) {
  // Pre-ladder "auto" raced CKL, CSA, KL, SA, MLKL in that order; the
  // best rung must keep that prefix exactly (budget <= 5 streams
  // replay byte-identically) and append path optimization.
  const auto best = quality_portfolio(QualityTier::kBest);
  const std::vector<Method> expected = {Method::kCkl, Method::kCsa,
                                        Method::kKl,  Method::kSa,
                                        Method::kMultilevelKl,
                                        Method::kPathOpt};
  ASSERT_EQ(best.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(best[i], expected[i]) << i;
  }
}

TEST(Registry, EveryRungPortfolioIsRegisteredAndNonEmpty) {
  for (const QualityTier tier : {QualityTier::kFast, QualityTier::kBalanced,
                                 QualityTier::kBest}) {
    const auto portfolio = quality_portfolio(tier);
    ASSERT_FALSE(portfolio.empty());
    for (const Method m : portfolio) {
      EXPECT_LT(static_cast<std::size_t>(m), method_registry().size());
    }
  }
  // The fast rung is exactly the bounded-latency construction.
  const auto fast = quality_portfolio(QualityTier::kFast);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0], Method::kGreedyHc);
}

// --- Every walk is pinned --------------------------------------------------

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t byte : bytes) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return fnv1a(h, bytes);
}

// One digest over the cut and sides of every registered method on
// every property family, at n = 80 and 81 and seeds 1 and 2. A change
// that moves any walk (a tie order, a bucket scan, a draw) moves the
// digest; a refactor that must move none keeps it.
TEST(Methods, WalkDigestIsPinned) {
  RunConfig config;
  config.threads = 1;
  config.sa.temperature_length_factor = 2.0;
  config.sa.cooling_ratio = 0.85;
  std::uint64_t digest = kFnvOffset;
  for (const Method method : test::registered_methods()) {
    for (const test::Family family : test::kFamilies) {
      for (const std::uint32_t n : {80u, 81u}) {
        for (const std::uint64_t seed : {1u, 2u}) {
          Rng gen(seed * 1000 + n);
          const Graph g = test::make_family(family, n, gen);
          std::vector<std::uint8_t> sides;
          const RunResult result =
              run_method_seeded(g, method, seed, config, &sides);
          digest = fnv1a(digest, static_cast<std::uint64_t>(result.best_cut));
          digest = fnv1a(digest, sides);
        }
      }
    }
  }
  EXPECT_EQ(digest, 0x4b0e48b912e40670ull) << std::hex << digest;
}

// --- Path optimization -----------------------------------------------------

TEST(PathOpt, NeverWorsensAndKeepsBalance) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp(80, 0.08, rng);
    Bisection b = Bisection::random(g, rng);
    const Weight before = b.cut();
    const PathOptStats stats = path_opt_refine(b);
    EXPECT_LE(b.cut(), before);
    EXPECT_TRUE(b.is_balanced());
    EXPECT_EQ(b.cut(), b.recompute_cut());
    EXPECT_EQ(stats.initial_cut, before);
    EXPECT_EQ(stats.final_cut, b.cut());
    EXPECT_GE(stats.passes, 1u);
  }
}

TEST(PathOpt, IsDeterministicForAFixedStart) {
  Rng rng(12);
  const Graph g = make_planted({200, 0.08, 0.02, 16}, rng);
  const Bisection start = Bisection::random(g, rng);
  Bisection a = start;
  Bisection b = start;
  path_opt_refine(a);
  path_opt_refine(b);
  EXPECT_EQ(a.cut(), b.cut());
  EXPECT_TRUE(std::equal(a.sides().begin(), a.sides().end(),
                         b.sides().begin()));
}

TEST(PathOpt, SinglePassReportsItsImprovement) {
  Rng rng(13);
  const Graph g = make_gnp(120, 0.06, rng);
  Bisection b = Bisection::random(g, rng);
  const Weight before = b.cut();
  PathOptStats stats;
  const Weight gain = path_opt_pass(b, &stats);
  EXPECT_EQ(gain, before - b.cut());
  EXPECT_GE(gain, 0);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_GE(stats.flips_proposed, stats.flips_applied);
}

TEST(PathOpt, ExpiredDeadlineThrowsDeadlineExceeded) {
  Rng rng(15);
  const Graph g = make_gnp(200, 0.05, rng);
  Bisection b = Bisection::random(g, rng);
  PathOptOptions options;
  options.deadline = Deadline::after(-1.0);
  EXPECT_THROW(path_opt_refine(b, options), DeadlineExceeded);
}

TEST(PathOpt, RunsThroughTheHarnessRunner) {
  Rng gen(16);
  const Graph g = make_regular_planted({200, 8, 4}, gen);
  Rng trial(99);
  const RunConfig config;
  const Bisection b = run_one_start(g, Method::kPathOpt, trial, config);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_EQ(b.cut(), b.recompute_cut());
}

// The ISSUE acceptance pin: over the EXPERIMENTS.md graph classes,
// path optimization's mean best cut stays within 5% of KL's from the
// same random starts. (Berry & Goldberg found path optimization
// *better* than KL on their geometric classes; parity is the
// conservative bound that keeps this test stable across seeds.)
TEST(PathOpt, MeanCutWithinFivePercentOfKlOnExperimentClasses) {
  struct Named {
    const char* name;
    Graph graph;
  };
  Rng gen(19890625);
  std::vector<Named> classes;
  classes.push_back({"g2set", make_planted(
      planted_params_for_degree(300, 3.0, 16), gen)});
  classes.push_back({"gnp", make_gnp(300, gnp_p_for_degree(300, 3.0), gen)});
  classes.push_back({"gbreg", make_regular_planted({300, 16, 3}, gen)});
  classes.push_back({"grid", make_grid(18, 18)});
  classes.push_back({"ladder", make_ladder(150)});

  constexpr int kStarts = 6;
  double kl_total = 0;
  double po_total = 0;
  for (const Named& c : classes) {
    double kl_sum = 0;
    double po_sum = 0;
    Rng starts(7);
    for (int s = 0; s < kStarts; ++s) {
      const Bisection start = Bisection::random(c.graph, starts);
      Bisection kl = start;
      kl_refine(kl);
      Bisection po = start;
      path_opt_refine(po);
      kl_sum += static_cast<double>(kl.cut());
      po_sum += static_cast<double>(po.cut());
    }
    kl_total += kl_sum;
    po_total += po_sum;
    // Per-class sanity: path-opt must at least be in KL's league on
    // every family, not carried by one easy class (2x is the loose
    // per-class guard; the 5% pin is on the aggregate mean).
    EXPECT_LE(po_sum, 2.0 * kl_sum + 1.0) << c.name;
  }
  EXPECT_LE(po_total, 1.05 * kl_total)
      << "path-opt mean cut " << po_total / (5 * kStarts)
      << " vs KL " << kl_total / (5 * kStarts);
}

// The O(|V|)-per-flip selection path optimization used before it moved
// onto gain buckets, kept as the reference the bucket walk must match:
// max gain over the unlocked vertices of the required side, ties to
// the freshest stamp (every flip restamps its neighbors in adjacency
// order), then to the lowest id.
Weight reference_path_pass(Bisection& bisection, PathOptStats& stats) {
  const Graph& g = bisection.graph();
  const std::size_t n = g.num_vertices();
  const Weight cut_before = bisection.cut();
  std::vector<std::uint8_t> sides(bisection.sides().begin(),
                                  bisection.sides().end());
  std::vector<Weight> gains = all_gains(bisection);
  std::vector<std::uint8_t> locked(n, 0);
  std::vector<std::uint64_t> stamp(n, 0);
  std::uint64_t clock = 0;
  std::vector<Vertex> path;
  Weight cumulative = 0, best_cumulative = 0;
  std::size_t best_len = 0;
  for (;;) {
    const std::uint8_t required = (path.size() & 1u) != 0 ? 1 : 0;
    bool found = false;
    Vertex pick = 0;
    for (Vertex v = 0; v < n; ++v) {
      if (locked[v] != 0 || sides[v] != required) continue;
      if (!found || gains[v] > gains[pick] ||
          (gains[v] == gains[pick] && stamp[v] > stamp[pick])) {
        found = true;
        pick = v;
      }
    }
    if (!found) break;
    path.push_back(pick);
    locked[pick] = 1;
    cumulative += gains[pick];
    for (const Vertex u : g.neighbors(pick)) stamp[u] = ++clock;
    update_gains_after_move(g, sides, pick, gains);
    sides[pick] ^= 1;
    if ((path.size() & 1u) == 0 &&
        (cumulative > best_cumulative ||
         (cumulative == best_cumulative && best_len > 0))) {
      best_cumulative = cumulative;
      best_len = path.size();
    }
  }
  for (std::size_t k = 0; k < best_len; ++k) bisection.move(path[k]);
  stats.paths += path.empty() ? 0 : 1;
  stats.flips_proposed += path.size();
  stats.flips_applied += best_len;
  return cut_before - bisection.cut();
}

PathOptStats reference_path_refine(Bisection& bisection) {
  PathOptStats stats;
  stats.initial_cut = bisection.cut();
  for (;;) {
    const Weight improvement = reference_path_pass(bisection, stats);
    ++stats.passes;
    if (improvement == 0) break;
  }
  stats.final_cut = bisection.cut();
  return stats;
}

/// g with every edge weight multiplied by `factor` (vertex weights kept).
Graph scale_edge_weights(const Graph& g, Weight factor) {
  GraphBuilder builder(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    builder.set_vertex_weight(v, g.vertex_weight(v));
  }
  for (const Edge& e : g.edges()) builder.add_edge(e.u, e.v, e.weight * factor);
  return builder.build();
}

/// g with random edge weights in [1, 9].
Graph reweight(const Graph& g, Rng& rng) {
  GraphBuilder builder(g.num_vertices());
  for (const Edge& e : g.edges()) {
    builder.add_edge(e.u, e.v, 1 + static_cast<Weight>(rng.below(9)));
  }
  return builder.build();
}

TEST(PathOpt, BucketWalkMatchesReferenceScan) {
  std::vector<Graph> graphs;
  Rng gen(31);
  for (const test::Family family : test::kFamilies) {
    for (const std::uint32_t n : {80u, 81u, 400u, 401u}) {
      graphs.push_back(test::make_family(family, n, gen));
      graphs.push_back(reweight(graphs.back(), gen));
    }
  }
  // Heavy weights put the path buckets on the sparse storage.
  const std::size_t light = graphs.size();
  for (std::size_t i = 1; i < light; i += 4) {
    graphs.push_back(scale_edge_weights(graphs[i], Weight{1} << 40));
  }
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    EXPECT_EQ(GainBuckets(g).dense(), i < light);
    Rng starts(i + 1);
    for (int s = 0; s < 3; ++s) {
      const Bisection start = Bisection::random(g, starts);
      Bisection buckets = start;
      Bisection reference = start;
      const PathOptStats got = path_opt_refine(buckets);
      const PathOptStats want = reference_path_refine(reference);
      SCOPED_TRACE(testing::Message() << "graph " << i << " start " << s);
      EXPECT_TRUE(std::equal(buckets.sides().begin(), buckets.sides().end(),
                             reference.sides().begin()));
      EXPECT_EQ(buckets.cut(), reference.cut());
      EXPECT_EQ(got.passes, want.passes);
      EXPECT_EQ(got.paths, want.paths);
      EXPECT_EQ(got.flips_proposed, want.flips_proposed);
      EXPECT_EQ(got.flips_applied, want.flips_applied);
      EXPECT_EQ(got.initial_cut, want.initial_cut);
      EXPECT_EQ(got.final_cut, want.final_cut);
    }
  }
}

// Multiplying every edge weight by c scales every gain by c and keeps
// every comparison, so a method's sides stay put and its cut scales by
// c. At the large factors the gain buckets run on the sparse storage,
// so this is also what shows that storage picks the dense one's moves.
// SA and CSA differ by design: their imbalance penalty is not scaled.
TEST(Methods, WeightScalingKeepsSidesAndScalesTheCut) {
  RunConfig config;
  config.threads = 1;
  for (const test::Family family : test::kFamilies) {
    for (const std::uint32_t n : {80u, 81u}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        Rng gen(seed * 1000 + n);
        const Graph g = test::make_family(family, n, gen);
        const Weight largest = kMaxTotalWeight / g.total_edge_weight();
        for (const Weight c : {Weight{3}, Weight{1} << 20, largest}) {
          const Graph scaled = scale_edge_weights(g, c);
          for (const Method method : test::registered_methods()) {
            if (method == Method::kSa || method == Method::kCsa) continue;
            SCOPED_TRACE(testing::Message()
                         << method_name(method) << " family "
                         << static_cast<int>(family) << " n " << n
                         << " seed " << seed << " c " << c);
            std::vector<std::uint8_t> sides, scaled_sides;
            const RunResult base =
                run_method_seeded(g, method, seed, config, &sides);
            const RunResult result =
                run_method_seeded(scaled, method, seed, config, &scaled_sides);
            EXPECT_EQ(scaled_sides, sides);
            EXPECT_EQ(result.best_cut, base.best_cut * c);
          }
        }
      }
    }
  }
}

// --- Greedy + hill climb (the fast rung) -----------------------------------

TEST(GreedyHc, BalancedValidAndNeverWorseThanPlainGreedy) {
  Rng gen(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_gnp(100, 0.06, gen);
    // Same Rng state for both: the greedy construction consumes the
    // same draws, so the hill climb starts from the identical cut.
    Rng a(1000 + trial);
    Rng b(1000 + trial);
    const Bisection plain = greedy_bisection(g, a);
    const Bisection polished = greedy_hc_bisection(g, b);
    EXPECT_TRUE(polished.is_balanced());
    EXPECT_EQ(polished.cut(), polished.recompute_cut());
    EXPECT_LE(polished.cut(), plain.cut());
  }
}

TEST(GreedyHc, IsDeterministicForAFixedSeed) {
  Rng gen(22);
  const Graph g = make_planted({150, 0.1, 0.02, 8}, gen);
  Rng a(5);
  Rng b(5);
  const Bisection x = greedy_hc_bisection(g, a);
  const Bisection y = greedy_hc_bisection(g, b);
  EXPECT_EQ(x.cut(), y.cut());
  EXPECT_TRUE(std::equal(x.sides().begin(), x.sides().end(),
                         y.sides().begin()));
}

TEST(GreedyHc, RunsThroughTheHarnessRunner) {
  Rng gen(23);
  const Graph g = make_gnp(120, 0.06, gen);
  Rng trial(7);
  const RunConfig config;
  const Bisection b = run_one_start(g, Method::kGreedyHc, trial, config);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_EQ(b.cut(), b.recompute_cut());
}

}  // namespace
}  // namespace gbis
