// Determinism suite for the parallel trial runner: at a fixed seed,
// every cut the harness reports must be bit-identical for any thread
// count — the property that keeps EXPERIMENTS.md reproducible now that
// trials run concurrently. Also covers the thread pool itself, the
// splitmix64 trial-seed stream, and the run_method timing split.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/gen/gnp.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/harness/experiments.hpp"
#include "gbis/harness/parallel_runner.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/harness/thread_pool.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/rng/splitmix.hpp"

namespace gbis {
namespace {

RunConfig fast_config(std::uint32_t starts, std::uint32_t threads) {
  RunConfig config;
  config.starts = starts;
  config.threads = threads;
  config.sa.temperature_length_factor = 2.0;
  config.sa.cooling_ratio = 0.85;
  return config;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(round);
    pool.parallel_for(out.size(),
                      [&](std::size_t i) { out[i] = static_cast<int>(i); });
    for (int i = 0; i < round; ++i) EXPECT_EQ(out[i], i);
  }
}

TEST(ThreadPool, PropagatesJobExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // ...and the pool is still usable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5u);
}

TEST(SplitMix, StreamMatchesSequentialOutputs) {
  SplitMix64 sm(12345);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(splitmix64_at(12345, i), sm.next());
  }
}

TEST(SplitMix, DistinctTrialsGetDistinctSeeds) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.push_back(splitmix64_at(19890625, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// The tentpole property: the full trial matrix — all four paper
// methods, several graphs, several starts — produces bit-identical cuts
// for GBIS_THREADS in {1, 2, 8} at the same seed, and a sane per-trial
// seconds structure at every thread count.
TEST(ParallelRunner, TrialMatrixIsThreadCountInvariant) {
  Rng gen(11);
  std::vector<Graph> graphs;
  graphs.push_back(make_regular_planted({200, 8, 3}, gen));
  graphs.push_back(make_gnp(150, 0.04, gen));
  const Method methods[] = {Method::kSa, Method::kCsa, Method::kKl,
                            Method::kCkl};
  constexpr std::uint64_t kSeed = 19890625;
  constexpr std::uint32_t kStarts = 3;

  std::vector<std::vector<Weight>> cuts_by_threads;
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    const auto outcomes = run_trial_matrix(
        graphs, methods, fast_config(kStarts, threads), kSeed);
    ASSERT_EQ(outcomes.size(), graphs.size() * std::size(methods));
    std::vector<Weight> cuts;
    for (const MethodOutcome& o : outcomes) {
      cuts.push_back(o.best_cut);
      ASSERT_EQ(o.trial_seconds.size(), kStarts);
      for (double s : o.trial_seconds) EXPECT_GT(s, 0.0);
      EXPECT_DOUBLE_EQ(
          o.cpu_seconds,
          std::accumulate(o.trial_seconds.begin(), o.trial_seconds.end(),
                          0.0));
      EXPECT_LT(o.best_start, kStarts);
    }
    cuts_by_threads.push_back(std::move(cuts));
  }
  EXPECT_EQ(cuts_by_threads[0], cuts_by_threads[1]);
  EXPECT_EQ(cuts_by_threads[0], cuts_by_threads[2]);
}

// run_four_way is the driver behind every appendix table: its cut
// columns must match bitwise across thread counts, and the driver Rng
// must advance identically (so later rows/graph generation agree too).
TEST(ParallelRunner, FourWayRowIsThreadCountInvariant) {
  Rng gen(3);
  std::vector<Graph> graphs;
  for (int i = 0; i < 2; ++i) {
    graphs.push_back(make_regular_planted({200, 8, 3}, gen));
  }

  std::vector<FourWayRow> rows;
  std::vector<std::uint64_t> next_draws;
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    Rng rng(77);
    rows.push_back(run_four_way(graphs, rng, fast_config(2, threads)));
    next_draws.push_back(rng.next());
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[0].bsa, rows[i].bsa);
    EXPECT_EQ(rows[0].bcsa, rows[i].bcsa);
    EXPECT_EQ(rows[0].bkl, rows[i].bkl);
    EXPECT_EQ(rows[0].bckl, rows[i].bckl);
    EXPECT_EQ(next_draws[0], next_draws[i]);
  }
}

TEST(ParallelRunner, RunMethodSeededMatchesRunMethod) {
  Rng gen(5);
  const Graph g = make_gnp(150, 0.04, gen);
  const RunConfig config = fast_config(2, 2);
  Rng rng(99);
  const std::uint64_t base = Rng(99).next();
  const RunResult via_rng = run_method(g, Method::kCkl, rng, config);
  const RunResult via_seed = run_method_seeded(g, Method::kCkl, base, config);
  EXPECT_EQ(via_rng.best_cut, via_seed.best_cut);
}

TEST(ParallelRunner, BestSidesAreThreadCountInvariant) {
  Rng gen(9);
  const Graph g = make_regular_planted({200, 8, 3}, gen);
  std::vector<std::vector<std::uint8_t>> sides_by_threads;
  for (std::uint32_t threads : {1u, 8u}) {
    std::vector<std::uint8_t> sides;
    run_method_seeded(g, Method::kKl, 1234, fast_config(4, threads),
                      &sides);
    ASSERT_EQ(sides.size(), g.num_vertices());
    sides_by_threads.push_back(std::move(sides));
  }
  EXPECT_EQ(sides_by_threads[0], sides_by_threads[1]);
}

// Regression for the timing split: the old runner wrapped one WallTimer
// around the start loop, which reports nonsense once starts run
// concurrently. Per-trial CPU seconds must be positive, one per start,
// and their sum (the paper's total-over-starts protocol) must grow with
// the number of starts.
TEST(ParallelRunner, RunMethodTrialSecondsPositiveAndMonotoneInStarts) {
  const Graph g = make_grid(40, 40);
  double previous = 0.0;
  for (std::uint32_t starts : {1u, 3u, 6u}) {
    const RunResult r =
        run_method_seeded(g, Method::kKl, 42, fast_config(starts, 2));
    ASSERT_EQ(r.trial_seconds.size(), starts);
    for (double s : r.trial_seconds) EXPECT_GT(s, 0.0);
    EXPECT_DOUBLE_EQ(r.cpu_seconds,
                     std::accumulate(r.trial_seconds.begin(),
                                     r.trial_seconds.end(), 0.0));
    EXPECT_GE(r.wall_seconds, 0.0);
    EXPECT_GT(r.cpu_seconds, previous);
    previous = r.cpu_seconds;
  }
}

TEST(ParallelRunner, RejectsBadTrialSpecs) {
  Rng gen(2);
  const Graph g = make_gnp(60, 0.1, gen);
  const Graph graphs[] = {g};
  const TrialSpec bad[] = {{3, Method::kKl, 0}};
  EXPECT_THROW(run_trials(graphs, bad, RunConfig{}, 1, 1),
               std::out_of_range);
  const Method methods[] = {Method::kKl};
  RunConfig zero;
  zero.starts = 0;
  EXPECT_THROW(run_trial_matrix(graphs, methods, zero, 1),
               std::invalid_argument);
}

TEST(ParallelRunner, CompletionHookErrorIsRethrown) {
  // A hook that throws (a checkpoint append on a full disk) must fail
  // the batch at the caller instead of vanishing into the pool's error
  // slot. The other trials still run and reach the hook, and the error
  // reported is the first in trial-id order at any thread count.
  Rng gen(3);
  const Graph g = make_gnp(40, 0.1, gen);
  const Graph graphs[] = {g};
  const Method methods[] = {Method::kKl};
  const std::vector<TrialSpec> trials = enumerate_trial_matrix(1, methods, 12);
  for (const unsigned threads : {1u, 8u}) {
    int calls = 0;  // the runner serializes hook calls
    TrialRunOptions options;
    options.on_complete = [&](std::uint64_t id, const TrialResult&) {
      ++calls;
      if (id == 5 || id == 9) {
        throw std::runtime_error("hook failed at " + std::to_string(id));
      }
    };
    try {
      run_trials_ex(graphs, trials, fast_config(12, threads), 1, threads,
                    options);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "hook failed at 5") << threads;
    }
    EXPECT_EQ(calls, 12) << threads;
  }
}

}  // namespace
}  // namespace gbis
