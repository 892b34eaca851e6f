// Tests for the experiment harness: statistics, table printing, and
// the method runner.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/gen/planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/harness/experiments.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/harness/stats.hpp"
#include "gbis/harness/table.hpp"
#include "gbis/harness/timer.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {
namespace {

TEST(Stats, SummaryBasics) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, SummaryOddMedianAndSingleton) {
  const double odd[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(summarize(odd).median, 3.0);
  const double one[] = {7.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Stats, PercentileInterpolatesAndClamps) {
  const double values[] = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), summarize(values).median);
  EXPECT_DOUBLE_EQ(percentile(values, 25), 1.75);  // rank 0.75 between 1, 2
  EXPECT_DOUBLE_EQ(percentile(values, 90), 3.7);
  // Out-of-range p clamps; degenerate samples behave.
  EXPECT_DOUBLE_EQ(percentile(values, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 250), 4.0);
  const double one[] = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, PercentImprovement) {
  EXPECT_DOUBLE_EQ(percent_improvement(100.0, 10.0), 90.0);
  EXPECT_DOUBLE_EQ(percent_improvement(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(percent_improvement(10.0, 20.0), -100.0);
  // Zero baseline: both zero means nothing to improve; a regression
  // from a zero-cut baseline must NOT read as 0% — it has no defined
  // percentage, so it is NaN (rendered "n/a" by the table printer).
  EXPECT_DOUBLE_EQ(percent_improvement(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isnan(percent_improvement(0.0, 5.0)));
}

TEST(Table, NanRendersAsNotAvailable) {
  std::ostringstream out;
  TablePrinter table(out, {{"impr%", 8}});
  table.cell(percent_improvement(0.0, 5.0), 1);
  table.end_row();
  EXPECT_NE(out.str().find("n/a"), std::string::npos);
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
}

TEST(Table, AlignsAndCounts) {
  std::ostringstream out;
  TablePrinter table(out, {{"name", 6}, {"value", 8}});
  table.print_header();
  table.cell("x").cell(std::int64_t{42});
  table.end_row();
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("------"), std::string::npos);
}

TEST(Table, CellCountMismatchThrows) {
  std::ostringstream out;
  TablePrinter table(out, {{"a", 4}, {"b", 4}});
  table.cell("only-one");
  EXPECT_THROW(table.end_row(), std::logic_error);
}

TEST(Table, DoublePrecision) {
  std::ostringstream out;
  TablePrinter table(out, {{"v", 8}});
  table.cell(3.14159, 3);
  table.end_row();
  EXPECT_NE(out.str().find("3.142"), std::string::npos);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  const double t0 = timer.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  // Burn a little time deterministically.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + static_cast<double>(i);
  }
  EXPECT_GE(timer.elapsed_seconds(), t0);
  timer.reset();
  EXPECT_LT(timer.elapsed_seconds(), 1.0);
}

// Experiment knobs read numbers by the flags' whole-text rules; a
// malformed or out-of-range value warns and keeps the default.
TEST(ExperimentEnv, MalformedNumbersKeepTheDefaults) {
  const ExperimentEnv defaults;
  const char* counts[] = {"GBIS_GRAPHS_PER_SETTING", "GBIS_STARTS",
                          "GBIS_THREADS", "GBIS_SEED"};
  const auto read_count = [](const ExperimentEnv& env,
                             int knob) -> std::uint64_t {
    return knob == 0   ? env.graphs_per_setting
           : knob == 1 ? env.starts
           : knob == 2 ? env.threads
                       : env.seed;
  };
  for (int knob = 0; knob < 4; ++knob) {
    ::setenv(counts[knob], "3", 1);
    EXPECT_EQ(read_count(experiment_env(), knob), 3u) << counts[knob];
    for (const char* bad : {"-1", "+5", " 7", "1x", "", "99999999999999999999",
                            "-18446744073709551615"}) {
      ::setenv(counts[knob], bad, 1);
      EXPECT_EQ(read_count(experiment_env(), knob), read_count(defaults, knob))
          << counts[knob] << "=\"" << bad << "\"";
    }
    if (knob < 3) {  // the 32-bit counts
      ::setenv(counts[knob], "4294967296", 1);
      EXPECT_EQ(read_count(experiment_env(), knob), read_count(defaults, knob))
          << counts[knob];
    }
    ::unsetenv(counts[knob]);
  }

  const char* numbers[] = {"GBIS_SCALE", "GBIS_SA_LENGTH"};
  const auto read_number = [](const ExperimentEnv& env, int knob) {
    return knob == 0 ? env.scale : env.sa_length_factor;
  };
  for (int knob = 0; knob < 2; ++knob) {
    ::setenv(numbers[knob], "0.5", 1);
    EXPECT_EQ(read_number(experiment_env(), knob), 0.5) << numbers[knob];
    for (const char* bad :
         {"inf", "-inf", "nan", "1e999", "0", "-1", "1x", ""}) {
      ::setenv(numbers[knob], bad, 1);
      EXPECT_EQ(read_number(experiment_env(), knob),
                read_number(defaults, knob))
          << numbers[knob] << "=\"" << bad << "\"";
    }
    ::unsetenv(numbers[knob]);
  }
}

TEST(Runner, MethodNamesAreUnique) {
  const Method all[] = {Method::kKl,     Method::kSa,       Method::kCkl,
                        Method::kCsa,    Method::kFm,       Method::kCfm,
                        Method::kMultilevelKl, Method::kGreedy,
                        Method::kSpectral,     Method::kRandom};
  std::set<std::string> names;
  for (Method m : all) names.insert(method_name(m));
  EXPECT_EQ(names.size(), std::size(all));
}

TEST(Runner, AllMethodsProduceLegalResults) {
  Rng rng(1);
  const PlantedParams params{60, 0.3, 0.3, 4};
  const Graph g = make_planted(params, rng);
  RunConfig config;
  config.starts = 1;
  config.sa.temperature_length_factor = 2.0;
  config.sa.cooling_ratio = 0.85;
  const Method all[] = {Method::kKl,     Method::kSa,       Method::kCkl,
                        Method::kCsa,    Method::kFm,       Method::kCfm,
                        Method::kMultilevelKl, Method::kGreedy,
                        Method::kSpectral,     Method::kRandom};
  for (Method m : all) {
    const RunResult r = run_method(g, m, rng, config);
    EXPECT_GE(r.best_cut, 4) << method_name(m);   // planted is optimal here
    EXPECT_LE(r.best_cut, 200) << method_name(m);
    EXPECT_GE(r.cpu_seconds, 0.0);
    EXPECT_GE(r.wall_seconds, 0.0);
    EXPECT_EQ(r.trial_seconds.size(), config.starts);
  }
}

TEST(Runner, MoreStartsNeverHurt) {
  Rng rng_a(7), rng_b(7);
  const Graph g = make_grid(8, 8);
  RunConfig one;
  one.starts = 1;
  RunConfig five;
  five.starts = 5;
  // Same RNG stream start: the five-start run sees the one-start
  // result among its candidates.
  const Weight c1 = run_method(g, Method::kKl, rng_a, one).best_cut;
  const Weight c5 = run_method(g, Method::kKl, rng_b, five).best_cut;
  EXPECT_LE(c5, c1);
}

TEST(Runner, BestSidesMatchBestCut) {
  Rng rng(5);
  const PlantedParams params{60, 0.3, 0.3, 4};
  const Graph g = make_planted(params, rng);
  RunConfig config;
  config.starts = 3;
  std::vector<std::uint8_t> sides;
  const RunResult result = run_method(g, Method::kKl, rng, config, &sides);
  ASSERT_EQ(sides.size(), g.num_vertices());
  const Bisection check(g, std::move(sides));
  EXPECT_EQ(check.cut(), result.best_cut);
  EXPECT_TRUE(check.is_balanced());
}

TEST(Runner, ZeroStartsThrows) {
  Rng rng(2);
  const Graph g = make_path(4);
  RunConfig config;
  config.starts = 0;
  EXPECT_THROW(run_method(g, Method::kKl, rng, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace gbis
