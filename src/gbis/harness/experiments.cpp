#include "gbis/harness/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "gbis/harness/csv.hpp"
#include "gbis/harness/parallel_runner.hpp"

#include "gbis/exact/tree.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/harness/stats.hpp"
#include "gbis/harness/table.hpp"
#include "gbis/util/env.hpp"

namespace gbis {

namespace {

/// A number in (0, max] from `name`; unset or rejected keeps
/// `fallback`.
double env_positive(const char* name, double fallback, double max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  double value = 0;
  if (!parse_whole_double(raw, value) || !(value > 0.0) || value > max) {
    warn_rejected(name, raw);
    return fallback;
  }
  return value;
}

/// A 32-bit count from `name`; unset or rejected keeps `fallback`.
std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  return static_cast<std::uint32_t>(
      env_u64(name, 0, UINT32_MAX).value_or(fallback));
}

/// Scales a vertex count, keeping it even and at least 4.
std::uint32_t scaled_even(std::uint32_t base, double scale) {
  auto n = static_cast<std::uint32_t>(static_cast<double>(base) * scale);
  n -= n % 2;
  return std::max<std::uint32_t>(n, 4);
}

std::uint32_t graphs_per_setting(const ExperimentEnv& env,
                                 std::uint32_t table_default) {
  return env.graphs_per_setting == 0 ? table_default
                                     : env.graphs_per_setting;
}

/// The paper's 13 appendix columns — the parameter, then (cut,
/// compacted cut, improvement%, time, compacted time, relative
/// speed-up%) for SA and for KL — plus the Berry–Goldberg
/// path-optimization pair (bpo, t_po) on the right. Mirrors every row
/// to $GBIS_CSV_DIR/<slug>.csv when the env var is set.
class AppendixEmitter {
 public:
  AppendixEmitter(const ExperimentEnv& env, const std::string& slug,
                  const std::string& param_header)
      : table_(std::cout, {{param_header, 8},
                           {"bsa", 8},
                           {"bcsa", 8},
                           {"sa_impr%", 8},
                           {"t_sa", 8},
                           {"t_csa", 8},
                           {"sa_spd%", 7},
                           {"bkl", 8},
                           {"bckl", 8},
                           {"kl_impr%", 8},
                           {"t_kl", 8},
                           {"t_ckl", 8},
                           {"kl_spd%", 7},
                           {"bpo", 8},
                           {"t_po", 8}}) {
    table_.print_header();
    if (!env.csv_dir.empty()) {
      csv_file_ = std::make_unique<std::ofstream>(env.csv_dir + "/" + slug +
                                                  ".csv");
      if (*csv_file_) {
        csv_ = std::make_unique<CsvWriter>(
            *csv_file_,
            std::vector<std::string>{param_header, "bsa", "bcsa", "t_sa",
                                     "t_csa", "bkl", "bckl", "t_kl",
                                     "t_ckl", "bpo", "t_po", "sa_status",
                                     "csa_status", "kl_status",
                                     "ckl_status", "po_status"});
      }
    }
  }

  void emit(const std::string& param, const FourWayRow& row) {
    table_.cell(param);
    cut_cell(row.bsa, row.sa_note);
    cut_cell(row.bcsa, row.csa_note);
    table_.cell(percent_improvement(row.bsa, row.bcsa), 1)
        .cell(row.tsa, 3)
        .cell(row.tcsa, 3)
        .cell(percent_improvement(row.tsa, row.tcsa), 1);
    cut_cell(row.bkl, row.kl_note);
    cut_cell(row.bckl, row.ckl_note);
    table_.cell(percent_improvement(row.bkl, row.bckl), 1)
        .cell(row.tkl, 3)
        .cell(row.tckl, 3)
        .cell(percent_improvement(row.tkl, row.tckl), 1);
    cut_cell(row.bpo, row.po_note);
    table_.cell(row.tpo, 3);
    table_.end_row();
    degraded_cells_ += row.degraded_cells;
    if (csv_ != nullptr) {
      csv_->cell(param)
          .cell(row.bsa)
          .cell(row.bcsa)
          .cell(row.tsa)
          .cell(row.tcsa)
          .cell(row.bkl)
          .cell(row.bckl)
          .cell(row.tkl)
          .cell(row.tckl)
          .cell(row.bpo)
          .cell(row.tpo)
          .cell(row.sa_note.empty() ? "ok" : row.sa_note)
          .cell(row.csa_note.empty() ? "ok" : row.csa_note)
          .cell(row.kl_note.empty() ? "ok" : row.kl_note)
          .cell(row.ckl_note.empty() ? "ok" : row.ckl_note)
          .cell(row.po_note.empty() ? "ok" : row.po_note);
      csv_->end_row();
    }
  }

  /// One line after the table when any (graph, method) cell failed,
  /// timed out, or was skipped — so a degraded table can never pass as
  /// a clean reproduction.
  void print_degraded_summary() const {
    if (degraded_cells_ == 0) return;
    std::cout << "(! " << degraded_cells_
              << " degraded cell(s): err = failed, t/o = deadline, "
                 "skip = shutdown; cuts average ok cells only)\n";
  }

 private:
  /// A cut cell: the ok-average, or the degraded marker when no cell of
  /// this method succeeded (the average is NaN then).
  void cut_cell(double value, const std::string& note) {
    if (std::isnan(value) && !note.empty()) {
      table_.cell(note);
    } else {
      table_.cell(value, 1);
    }
  }

  TablePrinter table_;
  std::unique_ptr<std::ofstream> csv_file_;
  std::unique_ptr<CsvWriter> csv_;
  std::uint64_t degraded_cells_ = 0;
};

/// Average compaction improvements of a finished sweep, for Table 1.
struct SweepImprovement {
  std::vector<double> kl;
  std::vector<double> sa;
};

}  // namespace

ExperimentEnv experiment_env() {
  ExperimentEnv env;
  env.scale = env_positive("GBIS_SCALE", env.scale, kMaxScale);
  env.graphs_per_setting =
      env_u32("GBIS_GRAPHS_PER_SETTING", env.graphs_per_setting);
  env.starts = std::max<std::uint32_t>(1, env_u32("GBIS_STARTS", env.starts));
  env.seed = env_u64("GBIS_SEED", 0, UINT64_MAX).value_or(env.seed);
  env.threads = env_u32("GBIS_THREADS", env.threads);
  env.sa_length_factor =
      env_positive("GBIS_SA_LENGTH", env.sa_length_factor, kMaxSaLength);
  if (const char* dir = std::getenv("GBIS_CSV_DIR"); dir != nullptr) {
    env.csv_dir = dir;
  }
  return env;
}

RunConfig experiment_run_config(const ExperimentEnv& env) {
  RunConfig config;
  config.starts = env.starts;
  config.threads = env.threads;
  config.sa.temperature_length_factor = env.sa_length_factor;
  // Experiments adopt only the progress knob: each table row is its own
  // trial batch, so a single GBIS_METRICS/GBIS_TRACE_DIR destination
  // would be overwritten row after row. Use `gbis campaign` for file
  // exports.
  config.obs.progress = obs_options_from_env().progress;
  return config;
}

FourWayRow run_four_way(std::span<const Graph> graphs, Rng& rng,
                        const RunConfig& config) {
  // One trial matrix over all graphs, the four paper methods, and the
  // path-optimization column: every (graph, method, start) runs as its
  // own job with its own Rng derived from (base, trial id), so the row
  // is bit-identical for any thread count and the driver stream
  // advances by exactly one draw.
  constexpr Method kMethods[] = {Method::kSa, Method::kCsa, Method::kKl,
                                 Method::kCkl, Method::kPathOpt};
  constexpr std::size_t kNumMethods = std::size(kMethods);
  const std::vector<MethodOutcome> outcomes =
      run_trial_matrix(graphs, kMethods, config, rng.next());

  // Degraded cells are excluded from the cut averages (their best_cut
  // is meaningless); a method with zero ok cells averages to NaN and
  // carries a "err"/"t/o"/"skip" marker. Times always accumulate — CPU
  // was spent whether or not the trial finished.
  FourWayRow row;
  double* const cuts[kNumMethods] = {&row.bsa, &row.bcsa, &row.bkl,
                                     &row.bckl, &row.bpo};
  double* const times[kNumMethods] = {&row.tsa, &row.tcsa, &row.tkl,
                                      &row.tckl, &row.tpo};
  std::string* const notes[kNumMethods] = {&row.sa_note, &row.csa_note,
                                           &row.kl_note, &row.ckl_note,
                                           &row.po_note};
  std::uint32_t ok_cells[kNumMethods] = {};
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t m = 0; m < kNumMethods; ++m) {
      const MethodOutcome& outcome = outcomes[g * kNumMethods + m];
      *times[m] += outcome.cpu_seconds;
      if (outcome.status == TrialStatus::kOk) {
        *cuts[m] += static_cast<double>(outcome.best_cut);
        ++ok_cells[m];
      } else {
        ++row.degraded_cells;
        if (notes[m]->empty()) {
          *notes[m] = trial_status_cell(outcome.status);
        }
      }
    }
  }
  const auto k = static_cast<double>(graphs.size());
  for (std::size_t m = 0; m < kNumMethods; ++m) {
    *cuts[m] = ok_cells[m] > 0
                   ? *cuts[m] / static_cast<double>(ok_cells[m])
                   : std::numeric_limits<double>::quiet_NaN();
    if (k > 0) *times[m] /= k;
  }
  return row;
}

namespace {

/// Shared driver for the three special-graph tables. Returns the
/// per-size improvements for Table 1 aggregation.
SweepImprovement special_sweep(const ExperimentEnv& env,
                               const std::string& family,
                               const std::string& slug,
                               std::span<const std::uint32_t> sizes,
                               Graph (*make)(std::uint32_t),
                               Weight (*reference)(const Graph&)) {
  Rng rng(env.seed);
  const RunConfig config = experiment_run_config(env);
  std::cout << family << " (best of " << config.starts
            << " starts; times are totals across starts)\n";
  // The parameter column carries vertices/optimal-reference inline.
  AppendixEmitter emitter(env, slug, "n");

  SweepImprovement improvements;
  for (std::uint32_t size : sizes) {
    const Graph g = make(size);
    const Weight ref = reference(g);
    const Graph graphs[] = {g};
    const FourWayRow row = run_four_way(graphs, rng, config);
    emitter.emit(std::to_string(g.num_vertices()) + "/" +
                     std::to_string(ref),
                 row);
    improvements.kl.push_back(percent_improvement(row.bkl, row.bckl));
    improvements.sa.push_back(percent_improvement(row.bsa, row.bcsa));
  }
  emitter.print_degraded_summary();
  std::cout << "(parameter column is vertices/optimal-reference)\n\n";
  return improvements;
}

Graph make_ladder_by_vertices(std::uint32_t n) { return make_ladder(n / 2); }

Graph make_grid_by_side(std::uint32_t side) { return make_grid(side, side); }

Weight ladder_reference(const Graph& g) {
  return g.num_vertices() >= 4 ? 2 : 1;
}

Weight grid_reference(const Graph& g) {
  // N x N grid, N even: optimal bisection cuts one column of N edges.
  std::uint32_t side = 1;
  while (side * side < g.num_vertices()) ++side;
  return side;
}

Weight tree_reference(const Graph& g) { return tree_bisection_width(g); }

constexpr std::uint32_t kLadderVertices[] = {120, 300, 600, 1200, 3000, 5000};
constexpr std::uint32_t kGridSides[] = {10, 14, 20, 32, 44, 70};
constexpr std::uint32_t kTreeVertices[] = {126, 254, 510, 1022, 2046, 4094};

std::vector<std::uint32_t> scaled_sizes(std::span<const std::uint32_t> base,
                                        double scale) {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(base.size());
  for (std::uint32_t s : base) sizes.push_back(scaled_even(s, scale));
  return sizes;
}

}  // namespace

void experiment_ladder(const ExperimentEnv& env) {
  special_sweep(env, "Ladder graphs", "table_ladder",
                scaled_sizes(kLadderVertices, env.scale),
                &make_ladder_by_vertices, &ladder_reference);
}

void experiment_grid(const ExperimentEnv& env) {
  std::vector<std::uint32_t> sides;
  for (std::uint32_t s : kGridSides) {
    auto side = static_cast<std::uint32_t>(static_cast<double>(s) *
                                           std::sqrt(env.scale));
    side -= side % 2;
    sides.push_back(std::max<std::uint32_t>(side, 2));
  }
  special_sweep(env, "Grid graphs (N x N)", "table_grid", sides,
                &make_grid_by_side, &grid_reference);
}

void experiment_bintree(const ExperimentEnv& env) {
  special_sweep(env, "Binary trees", "table_bintree",
                scaled_sizes(kTreeVertices, env.scale), &make_binary_tree,
                &tree_reference);
}

void experiment_g2set(const ExperimentEnv& env, std::uint32_t two_n,
                      double avg_degree) {
  Rng rng(env.seed);
  const RunConfig config = experiment_run_config(env);
  const std::uint32_t n = scaled_even(two_n, env.scale);
  const std::uint32_t per_setting = graphs_per_setting(env, 3);

  std::cout << "G2set(" << n << ", pA, pB, b) with average degree "
            << avg_degree << " (avg of " << per_setting << " graphs, best of "
            << config.starts << " starts)\n";
  std::ostringstream slug;
  slug << "table_g2set_" << n << "_deg" << avg_degree;
  AppendixEmitter emitter(env, slug.str(), "b");

  constexpr std::uint64_t kBis[] = {8, 16, 24, 32, 48, 64};
  for (std::uint64_t b : kBis) {
    std::vector<Graph> graphs;
    graphs.reserve(per_setting);
    const PlantedParams params = planted_params_for_degree(n, avg_degree, b);
    for (std::uint32_t i = 0; i < per_setting; ++i) {
      graphs.push_back(make_planted(params, rng));
    }
    const FourWayRow row = run_four_way(graphs, rng, config);
    emitter.emit(std::to_string(b), row);
  }
  emitter.print_degraded_summary();
  std::cout << '\n';
}

void experiment_gnp(const ExperimentEnv& env, std::uint32_t two_n) {
  Rng rng(env.seed);
  const RunConfig config = experiment_run_config(env);
  const std::uint32_t n = scaled_even(two_n, env.scale);
  // The paper averages 7 random graphs per Gnp entry.
  const std::uint32_t per_setting = graphs_per_setting(env, 3);

  std::cout << "Gnp(" << n << ", p) (avg of " << per_setting
            << " graphs, best of " << config.starts << " starts; paper used "
            << "7 graphs per entry)\n";
  AppendixEmitter emitter(env, "table_gnp_" + std::to_string(n),
                          "avg_deg");

  constexpr double kDegrees[] = {2.0, 2.5, 3.0, 3.5, 4.0, 5.0};
  for (double degree : kDegrees) {
    std::vector<Graph> graphs;
    graphs.reserve(per_setting);
    const double p = gnp_p_for_degree(n, degree);
    for (std::uint32_t i = 0; i < per_setting; ++i) {
      graphs.push_back(make_gnp(n, p, rng));
    }
    const FourWayRow row = run_four_way(graphs, rng, config);
    std::ostringstream label;
    label << degree;
    emitter.emit(label.str(), row);
  }
  emitter.print_degraded_summary();
  std::cout << '\n';
}

void experiment_gbreg(const ExperimentEnv& env, std::uint32_t two_n,
                      std::uint32_t d) {
  Rng rng(env.seed);
  const RunConfig config = experiment_run_config(env);
  const std::uint32_t n = scaled_even(two_n, env.scale);
  const std::uint32_t per_setting = graphs_per_setting(env, 3);

  std::cout << "Gbreg(" << n << ", b, " << d << ") (avg of " << per_setting
            << " graphs, best of " << config.starts << " starts)\n";
  AppendixEmitter emitter(env, "table_gbreg_" + std::to_string(n) + "_d" +
                                   std::to_string(d),
                          "b");

  constexpr std::uint64_t kWidths[] = {2, 8, 16, 32, 64};
  for (std::uint64_t b : kWidths) {
    const RegularPlantedParams params{n, b, d};
    if (!regular_planted_params_valid(params)) continue;
    std::vector<Graph> graphs;
    graphs.reserve(per_setting);
    for (std::uint32_t i = 0; i < per_setting; ++i) {
      graphs.push_back(make_regular_planted(params, rng));
    }
    const FourWayRow row = run_four_way(graphs, rng, config);
    emitter.emit(std::to_string(b), row);
  }
  emitter.print_degraded_summary();
  std::cout << '\n';
}

void experiment_table1_summary(const ExperimentEnv& env) {
  // Smaller sweeps than the per-family tables: Table 1 in the paper
  // aggregates graphs "from 100 to 5,000 vertices"; we average the
  // improvement over the same families at a spread of sizes.
  ExperimentEnv sweep_env = env;
  const SweepImprovement grid = special_sweep(
      sweep_env, "Grid graphs (N x N)", "table1_grid",
      std::vector<std::uint32_t>{10, 20, 32, 44}, &make_grid_by_side,
      &grid_reference);
  const SweepImprovement ladder = special_sweep(
      sweep_env, "Ladder graphs", "table1_ladder",
      std::vector<std::uint32_t>{120, 600, 1200, 3000},
      &make_ladder_by_vertices, &ladder_reference);
  const SweepImprovement tree = special_sweep(
      sweep_env, "Binary trees", "table1_bintree",
      std::vector<std::uint32_t>{126, 510, 1022, 2046}, &make_binary_tree,
      &tree_reference);

  std::cout << "Table 1: average bisection width improvement made by "
               "compaction (best of two starts)\n";
  TablePrinter table(std::cout, {{"Graph type", 12},
                                 {"KL impr%", 10},
                                 {"SA impr%", 10},
                                 {"paper KL", 10},
                                 {"paper SA", 10}});
  table.print_header();
  table.cell("Grid")
      .cell(summarize(grid.kl).mean, 0)
      .cell(summarize(grid.sa).mean, 0)
      .cell("13%")
      .cell("34%");
  table.end_row();
  table.cell("Ladder")
      .cell(summarize(ladder.kl).mean, 0)
      .cell(summarize(ladder.sa).mean, 0)
      .cell("12%")
      .cell("24%");
  table.end_row();
  table.cell("Binary Tree")
      .cell(summarize(tree.kl).mean, 0)
      .cell(summarize(tree.sa).mean, 0)
      .cell("56%")
      .cell("17%");
  table.end_row();
  std::cout << '\n';
}

void experiment_obs_kl_vs_sa(const ExperimentEnv& env) {
  Rng rng(env.seed);
  const RunConfig config = experiment_run_config(env);
  const std::uint32_t n = scaled_even(2000, env.scale);
  const std::uint32_t per_setting = graphs_per_setting(env, 4);

  std::uint32_t kl_wins = 0, sa_wins = 0, ties = 0;
  std::uint32_t ckl_wins = 0, csa_wins = 0, c_ties = 0;
  double kl_time = 0, sa_time = 0, ckl_time = 0, csa_time = 0;

  constexpr double kDegrees[] = {2.5, 3.0, 3.5};
  for (double degree : kDegrees) {
    const PlantedParams params = planted_params_for_degree(n, degree, 32);
    for (std::uint32_t i = 0; i < per_setting; ++i) {
      const Graph g = make_planted(params, rng);
      // All four methods' starts in one parallel batch per graph.
      const Graph graphs[] = {g};
      constexpr Method kMethods[] = {Method::kKl, Method::kSa,
                                     Method::kCkl, Method::kCsa};
      const std::vector<MethodOutcome> outcomes =
          run_trial_matrix(graphs, kMethods, config, rng.next());
      const MethodOutcome& kl = outcomes[0];
      const MethodOutcome& sa = outcomes[1];
      const MethodOutcome& ckl = outcomes[2];
      const MethodOutcome& csa = outcomes[3];
      if (kl.best_cut < sa.best_cut) {
        ++kl_wins;
      } else if (sa.best_cut < kl.best_cut) {
        ++sa_wins;
      } else {
        ++ties;
      }
      if (ckl.best_cut < csa.best_cut) {
        ++ckl_wins;
      } else if (csa.best_cut < ckl.best_cut) {
        ++csa_wins;
      } else {
        ++c_ties;
      }
      kl_time += kl.cpu_seconds;
      sa_time += sa.cpu_seconds;
      ckl_time += ckl.cpu_seconds;
      csa_time += csa.cpu_seconds;
    }
  }

  std::cout << "Observations 4-5: KL vs SA on G2set(" << n
            << ", deg in {2.5, 3, 3.5}, b=32), " << per_setting
            << " graphs per degree\n";
  std::cout << "  quality (uncompacted): KL better " << kl_wins
            << ", SA better " << sa_wins << ", ties " << ties
            << "   (paper: KL better ~60% when they differ)\n";
  std::cout << "  quality (compacted):   CKL better " << ckl_wins
            << ", CSA better " << csa_wins << ", ties " << c_ties
            << "   (paper: no big difference)\n";
  std::cout << "  speed: SA/KL time ratio = " << (sa_time / kl_time)
            << "x, CSA/CKL = " << (csa_time / ckl_time)
            << "x   (paper: SA up to 20x slower)\n\n";
}

}  // namespace gbis
