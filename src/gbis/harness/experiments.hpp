// Experiment drivers reproducing every table of the paper's evaluation
// (Table 1 and the appendix tables) plus the observation summaries.
// Each driver prints one complete table to stdout in the paper's
// row/column layout; the bench/ binaries are thin wrappers around these
// functions. See DESIGN.md section 4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured records.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gbis/graph/graph.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {

/// The largest GBIS_SCALE: the largest table size (5000 vertices) times
/// it stays below 2^32, so every scaled vertex count is a Vertex.
inline constexpr double kMaxScale = 1e5;

/// The largest GBIS_SA_LENGTH: it times 2^32 vertices stays below
/// 2^64, so SA's moves per temperature fit their 64-bit count.
inline constexpr double kMaxSaLength = 1e6;

/// Environment-controlled experiment knobs (read once per process):
///   GBIS_SCALE               float in (0, kMaxScale], default 1.0 —
///                            multiplies instance sizes
///   GBIS_GRAPHS_PER_SETTING  int, default 0 = per-table default (3)
///   GBIS_STARTS              int, default 2 (the paper's best-of-two)
///   GBIS_SEED                uint64, default 19890625
///   GBIS_THREADS             int, default 0 = hardware concurrency —
///                            trial-runner worker count; cut columns are
///                            bit-identical for every value
///   GBIS_SA_LENGTH           float in (0, kMaxSaLength], default 8.0 —
///                            SA moves per temperature per vertex
///                            (Johnson et al. used 16; 8 keeps
///                            full-suite runtimes manageable with
///                            indistinguishable cuts on these families)
///   GBIS_CSV_DIR             directory; when set, every appendix-table
///                            driver also writes its rows as
///                            <dir>/<table>.csv for plotting
struct ExperimentEnv {
  double scale = 1.0;
  std::uint32_t graphs_per_setting = 0;
  std::uint32_t starts = 2;
  std::uint64_t seed = 19890625;
  std::uint32_t threads = 0;  ///< 0 = hardware concurrency
  double sa_length_factor = 8.0;
  std::string csv_dir;  ///< empty = no CSV export
};

/// Reads the GBIS_* environment variables. Numbers follow the flags'
/// whole-text rules (util/env); a malformed or out-of-range value
/// keeps its default and emits a one-line stderr warning naming the
/// variable and the rejected text.
ExperimentEnv experiment_env();

/// The RunConfig the paper-table drivers use for KL/SA/CKL/CSA.
RunConfig experiment_run_config(const ExperimentEnv& env);

/// Averaged best-of-k results of the four paper methods — plus the
/// Berry–Goldberg path-optimization column the portfolio races — over
/// a batch of same-parameter graphs (the appendix averages 3 Gbreg
/// samples per setting). Times are summed per-trial CPU seconds (the
/// paper's total-over-starts protocol), so they are comparable across
/// GBIS_THREADS settings.
struct FourWayRow {
  double bsa = 0, bcsa = 0, bkl = 0, bckl = 0;  ///< average best cuts
  double tsa = 0, tcsa = 0, tkl = 0, tckl = 0;  ///< average CPU seconds
  double bpo = 0;  ///< average best path-optimization cut
  double tpo = 0;  ///< average path-optimization CPU seconds
  /// Degraded-cell markers, one per method ("" = every graph's cell was
  /// ok; otherwise "err"/"t/o"/"skip" from trial_status_cell). Cuts
  /// average over ok cells only; a method with zero ok cells reports
  /// NaN cuts and its marker is rendered in the cut column instead.
  std::string sa_note, csa_note, kl_note, ckl_note, po_note;
  std::uint32_t degraded_cells = 0;  ///< (graph, method) cells not ok
};

/// Runs SA, CSA, KL, CKL, and path optimization on every graph via the
/// parallel trial runner (graphs × methods × starts jobs on
/// config.threads workers) and averages. Consumes exactly one draw
/// from `rng`, so the caller's stream — and every cut — is independent
/// of the thread count.
FourWayRow run_four_way(std::span<const Graph> graphs, Rng& rng,
                        const RunConfig& config);

// --- Paper tables ---------------------------------------------------------

/// Appendix "Ladder graphs" table.
void experiment_ladder(const ExperimentEnv& env);

/// Appendix "Grid graphs" (N x N) table.
void experiment_grid(const ExperimentEnv& env);

/// Appendix "Binary trees" table (exact optimum from the tree DP shown
/// as the reference column).
void experiment_bintree(const ExperimentEnv& env);

/// Appendix "G2set(two_n, pA, pB, b) with average degree D" tables
/// (paper: two_n in {2000, 5000}, D in {2.5, 3, 3.5, 4}).
void experiment_g2set(const ExperimentEnv& env, std::uint32_t two_n,
                      double avg_degree);

/// Appendix "Gnp(two_n, p)" table (rows swept over average degree).
void experiment_gnp(const ExperimentEnv& env, std::uint32_t two_n);

/// Appendix "Gbreg(two_n, b, d)" tables (paper: d in {3, 4}).
void experiment_gbreg(const ExperimentEnv& env, std::uint32_t two_n,
                      std::uint32_t d);

/// Table 1: average bisection-width improvement by compaction on the
/// special graph families (paper: Grid 13%/34%, Ladder 12%/24%, Binary
/// tree 56%/17% for KL/SA).
void experiment_table1_summary(const ExperimentEnv& env);

/// Observations 4-5 summary: KL-vs-SA speed ratios and quality
/// win-rates, with and without compaction, on mid-degree G2set graphs.
void experiment_obs_kl_vs_sa(const ExperimentEnv& env);

}  // namespace gbis
