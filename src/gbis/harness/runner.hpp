// Experiment runner: executes a named bisection method under the
// paper's protocol — k independent random starts, report the best cut
// and the *total* time across all starts including initial-bisection
// generation (section VI: "All timing results will be the total time it
// took the procedure to complete both starting configurations
// (including the time to generate the initial bisections)").
//
// Starts are fully independent trials, so they run on the harness
// thread pool (see parallel_runner.hpp). Each trial gets its own Rng
// seeded from (base seed, trial id) via the splitmix64 stream, and
// results reduce in trial-id order, so every cut is bit-identical for
// any thread count — including 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gbis/core/compaction.hpp"
#include "gbis/core/multilevel.hpp"
#include "gbis/fm/fm.hpp"
#include "gbis/graph/graph.hpp"
#include "gbis/kl/kl.hpp"
#include "gbis/methods/greedy.hpp"
#include "gbis/methods/path_opt.hpp"
#include "gbis/obs/metrics.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/sa/sa.hpp"

namespace gbis {

/// The bisection methods the harness can run.
enum class Method {
  kKl,            ///< Kernighan-Lin (paper: KL)
  kSa,            ///< simulated annealing (paper: SA)
  kCkl,           ///< compacted Kernighan-Lin (paper: CKL)
  kCsa,           ///< compacted simulated annealing (paper: CSA)
  kFm,            ///< Fiduccia-Mattheyses (ablation)
  kCfm,           ///< compacted FM (ablation)
  kMultilevelKl,  ///< multilevel compaction + KL (extension)
  kGreedy,        ///< greedy region growing (baseline)
  kSpectral,      ///< spectral bisection (baseline/extension)
  kRandom,        ///< best random bisection (baseline)
  // Append-only: the enum value is the service cache journal's
  // method_key and the methods/registry row index.
  kPathOpt,       ///< Berry-Goldberg path optimization (methods/path_opt)
  kGreedyHc,      ///< greedy + bounded hill climb (methods/greedy)
};

/// Short display name ("KL", "CSA", ...).
std::string method_name(Method method);

/// Reverse lookup from the scripting name ("kl", "ckl", "mlkl", ... —
/// the lower-case forms the CLI and the service protocol accept);
/// false when `name` is unknown.
bool method_from_name(const std::string& name, Method& out);

/// Shared configuration for a method run.
struct RunConfig {
  std::uint32_t starts = 2;   ///< independent random starts (paper: 2)
  std::uint32_t threads = 0;  ///< trial-runner workers; 0 = hardware
  /// Per-trial wall-clock budget in seconds; 0 = unlimited. The trial
  /// runner derives a Deadline from it at each trial's start and
  /// threads it into the KL/SA/FM step loops (cooperative check); an
  /// overrun marks that one trial `timed_out` instead of poisoning the
  /// batch.
  double trial_deadline = 0;
  KlOptions kl;
  SaOptions sa;
  FmOptions fm;
  PathOptOptions path;
  CompactionOptions compaction;
  MultilevelOptions multilevel;
  /// Observability knobs (collection, export paths, live progress).
  /// Nothing here influences trial outcomes, so the campaign
  /// fingerprint ignores the whole block.
  ObsOptions obs;
  /// Transient recording sink for the *current* trial. run_trial
  /// (harness/parallel_runner) binds it, together with every solver's
  /// sink, on its per-trial config copy; leave it null in configs you
  /// build yourself.
  MetricsSink* metrics = nullptr;
};

/// Outcome of running one method on one graph. Timing is split: the
/// paper's protocol ("total time over all starts") is the *sum of
/// per-trial CPU seconds*, which stays meaningful when starts run
/// concurrently; `wall_seconds` is what the harness actually waited.
struct RunResult {
  Weight best_cut = 0;     ///< best over all starts (first start on ties)
  double cpu_seconds = 0;  ///< summed per-trial CPU seconds, all starts
  double wall_seconds = 0;          ///< harness wall clock for the run
  std::vector<double> trial_seconds;  ///< per-start CPU seconds, in order
  /// Starts that did not finish (failed / timed out / skipped). The
  /// result is still valid — best_cut is the best *successful* start —
  /// but degraded; run_method throws only when no start succeeds.
  std::uint32_t degraded_starts = 0;
  std::string first_error;  ///< first failure text when degraded
};

/// One trial: generate a start (inside the method where applicable) and
/// refine it. This is the unit the parallel trial runner schedules; it
/// must stay a pure function of (g, method, rng draws, config).
Bisection run_one_start(const Graph& g, Method method, Rng& rng,
                        const RunConfig& config);

/// Runs `method` on g with `config.starts` independent starts on
/// `config.threads` workers. Trial s draws from an Rng seeded with
/// splitmix64_at(seed, s), so cuts do not depend on the thread count.
/// When `best_sides` is non-null it receives the side assignment of the
/// winning start.
RunResult run_method_seeded(const Graph& g, Method method,
                            std::uint64_t seed, const RunConfig& config = {},
                            std::vector<std::uint8_t>* best_sides = nullptr);

/// Convenience wrapper over run_method_seeded: consumes exactly one
/// draw from `rng` (the base seed), independent of starts and threads,
/// so driver Rng streams advance identically however trials execute.
RunResult run_method(const Graph& g, Method method, Rng& rng,
                     const RunConfig& config = {},
                     std::vector<std::uint8_t>* best_sides = nullptr);

}  // namespace gbis
