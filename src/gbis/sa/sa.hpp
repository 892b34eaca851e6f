// Simulated annealing for graph bisection (paper section II, Figure 1;
// Kirkpatrick-Gelatt-Vecchi 1983; bisection specifics per
// Johnson-Aragon-McGeoch-Schevon, the paper's [JCAMS84]).
//
// Solution space: arbitrary 2-colorings (not only balanced ones), with
//   cost(S) = cut(S) + alpha * (count(0) - count(1))^2
// and the single-vertex-flip neighborhood. The quadratic penalty keeps
// configurations near balance while letting the walk pass through
// imbalanced states. The best balanced configuration seen is tracked
// and restored at the end (the paper's section VII notes SA "may
// migrate away from an optimal solution ... one must then save the best
// bisection found"), then exact balance is repaired.
#pragma once

#include <cstdint>
#include <vector>

#include "gbis/partition/bisection.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {

class MetricsSink;

/// Move neighborhood of the annealer.
enum class SaNeighborhood {
  /// Single-vertex flips with the quadratic imbalance penalty
  /// (Johnson et al.'s recommendation; the default).
  kFlip,
  /// Opposite-side pair swaps: balance is preserved exactly, so no
  /// penalty term is needed (alpha is ignored). Figure 1's "pick a
  /// random solution S'" reads naturally as either; this variant
  /// exists for the A4 ablation (bench/ablation_sa_neighborhood).
  kSwap,
};

/// Annealer tuning. Defaults follow Johnson et al.'s recommended
/// regime scaled for "fast but faithful" runs.
struct SaOptions {
  /// Move neighborhood (see SaNeighborhood).
  SaNeighborhood neighborhood = SaNeighborhood::kFlip;
  /// Imbalance penalty factor alpha (kFlip only).
  double imbalance_alpha = 0.05;
  /// Geometric cooling ratio per temperature.
  double cooling_ratio = 0.95;
  /// Moves attempted per temperature = this factor times |V|.
  double temperature_length_factor = 16.0;
  /// Target initial uphill-acceptance ratio (sets T0 when
  /// initial_temperature == 0).
  double init_acceptance_target = 0.4;
  /// Explicit initial temperature; 0 means calibrate from sampling.
  double initial_temperature = 0.0;
  /// A temperature counts as "frozen" when the share of its moves that
  /// were accepted and changed the cost (delta != 0) falls below this
  /// and the best solution did not improve. Sideways moves are still
  /// made; they just do not hold off the freeze.
  double min_acceptance = 0.02;
  /// Stop after this many consecutive frozen temperatures.
  std::uint32_t frozen_temperatures = 5;
  /// Hard cap on proposed moves (safety valve); 0 = none.
  std::uint64_t max_total_moves = 0;
  /// Stop once the best solution has not improved for this many
  /// consecutive temperatures, even if the walk is still hot. 0 =
  /// disabled (the default). This reproduces the failure mode the
  /// paper's section VII describes: "Attempts at correcting this flaw
  /// [SA running long after finding a good bisection] caused the
  /// algorithm to terminate prematurely" — bench/obs_sa_termination
  /// quantifies the quality/time trade.
  std::uint32_t stagnation_temperatures = 0;
  /// Cooperative wall-clock budget: the temperature loop polls it per
  /// temperature and every 1024 proposed moves, throwing
  /// DeadlineExceeded on expiry (the trial runner maps that to a
  /// `timed_out` trial). Default: unlimited.
  Deadline deadline;
  /// Observability sink (obs/metrics.hpp): proposal/accept/reject
  /// counters bucketed by temperature stage (hot/warm/cold relative to
  /// the calibrated T0), the per-temperature acceptance histogram, and
  /// one convergence point per temperature. nullptr (the default)
  /// records nothing; the move loop accumulates into locals and
  /// flushes once per temperature.
  MetricsSink* metrics = nullptr;
};

/// Per-run diagnostics.
struct SaStats {
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_accepted = 0;
  std::uint32_t temperatures = 0;
  double initial_temperature = 0.0;
  double final_temperature = 0.0;
  Weight initial_cut = 0;
  Weight final_cut = 0;  ///< cut of the returned balanced bisection
};

/// One per-temperature snapshot of the annealing trajectory.
struct SaTracePoint {
  double temperature = 0.0;
  Weight current_cut = 0;  ///< cut at the end of the temperature
  Weight best_cut = 0;     ///< best balanced cut seen so far
  double acceptance = 0.0; ///< acceptance ratio at this temperature
};

/// Anneals `bisection` in place and returns diagnostics. The result is
/// exactly balanced (count imbalance <= 1) and never worse than the
/// best balanced configuration encountered. When `trace` is non-null,
/// one SaTracePoint is appended per temperature (for convergence plots
/// — see examples/anneal_lab).
SaStats sa_refine(Bisection& bisection, Rng& rng,
                  const SaOptions& options = {},
                  std::vector<SaTracePoint>* trace = nullptr);

}  // namespace gbis
