// Deterministic parallel trial scheduler. Every paper table is a pile
// of fully independent trials — (graph, method, start) triples — so the
// harness enumerates them as jobs with dense trial ids, runs them on a
// ThreadPool, and reduces results in trial-id order. Trial `t` draws
// from an Rng seeded with splitmix64_at(base_seed, t), never from a
// shared driver stream, which makes every cut bit-identical for any
// thread count (including 1) at a fixed seed.
//
// One trial path: run_trial below is the only trial body. Campaign
// batches (run_trials_ex) and the service's budgeted policy
// (svc/policy) both call it, and both reduce their trials with
// fold_trial, so a campaign cell and a service request answer the same
// trials identically.
//
// Fault isolation: a trial is a unit of failure as well as a unit of
// work. An exception marks that one trial `failed`, a trial-deadline
// overrun marks it `timed_out`, and a shutdown request drains the
// remaining queue as `skipped` — the batch always completes and the
// other trials' results survive. Determinism is unaffected: each
// trial's Rng depends only on (seed, trial id), so a resumed campaign
// reproduces exactly the cuts an uninterrupted run would have.
//
// Timing: each trial records its own thread-CPU seconds (CpuTimer), so
// the paper's "total time over all starts" protocol — a *sum* of trial
// costs — survives concurrency; wall seconds are reported separately by
// the callers that need them.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gbis/harness/runner.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {

class ThreadPool;
class FaultPlan;

/// One schedulable unit of work: run `method` on `graphs[graph_index]`
/// from one fresh random start.
struct TrialSpec {
  std::uint32_t graph_index = 0;
  Method method = Method::kKl;
  std::uint32_t start_index = 0;  ///< which start this trial is, 0-based
};

/// How one trial ended.
enum class TrialStatus : std::uint8_t {
  kOk = 0,    ///< ran to completion; `cut` is valid
  kFailed,    ///< threw; `error` holds the what() text
  kTimedOut,  ///< hit RunConfig::trial_deadline (cooperative check)
  kSkipped,   ///< never ran: shutdown drained the queue first
};

/// Journal/diagnostic name: "ok", "failed", "timed_out", "skipped".
const char* trial_status_name(TrialStatus status);

/// Table-cell marker: "" (ok), "err", "t/o", "skip".
const char* trial_status_cell(TrialStatus status);

/// What one trial produced.
struct TrialResult {
  TrialStatus status = TrialStatus::kOk;
  Weight cut = 0;          ///< valid only when status == kOk
  double cpu_seconds = 0;  ///< thread-CPU seconds spent in the trial
  std::string error;       ///< what() text for failed/timed-out trials
  bool oom = false;        ///< the failure was a std::bad_alloc
  std::vector<std::uint8_t> sides;  ///< filled only when keep_sides & ok
  /// Per-trial observability record; non-null only when
  /// RunConfig::obs.enabled() — filled for every *executed* trial
  /// (failed and timed-out included), null for skipped ones. Counters,
  /// histograms, and trace points are pure functions of (seed, trial
  /// id); the phase spans and timing fields are wall-clock data for the
  /// Chrome-trace export. Shared (not owned) so resume adoption and
  /// journaling can alias the same record.
  std::shared_ptr<const TrialMetrics> metrics;
};

/// Optional knobs of run_trials_ex beyond the plain run_trials
/// signature. All default to "off".
struct TrialRunOptions {
  bool keep_sides = false;
  /// Graceful shutdown: when *stop becomes true the pool stops
  /// dequeuing, in-flight trials finish (or hit their deadline), and
  /// undequeued trials come back kSkipped.
  const std::atomic<bool>* stop = nullptr;
  /// Deterministic fault injection (see fault_injection.hpp).
  const FaultPlan* faults = nullptr;
  /// Checkpoint hook: called once per *executed* trial as it completes
  /// (any order; calls are serialized internally). Not called for
  /// skipped or precompleted trials.
  std::function<void(std::uint64_t trial_id, const TrialResult&)>
      on_complete;
  /// Resume support: results adopted by trial id without re-running.
  const std::unordered_map<std::uint64_t, TrialResult>* precompleted =
      nullptr;
};

/// Aggregate of all starts of one (graph, method) cell, folded in start
/// order by fold_trial (ties keep the earliest start, matching the
/// serial harness). A cell is `ok` when at least one start is;
/// otherwise its status is the dominant failure (any failure ->
/// kFailed, else any timeout -> kTimedOut, nothing ran -> kSkipped)
/// and best_cut is meaningless.
struct MethodOutcome {
  Weight best_cut = 0;
  double cpu_seconds = 0;  ///< summed over executed starts (paper protocol)
  std::vector<double> trial_seconds;  ///< per-start CPU seconds
  std::uint32_t best_start = 0;       ///< index of the winning start
  std::vector<std::uint8_t> best_sides;  ///< winning sides (keep_sides)
  TrialStatus status = TrialStatus::kSkipped;  ///< cell-level verdict
  std::uint32_t ok = 0, failed = 0, timed_out = 0, skipped = 0;
  std::string first_error;  ///< first failure text, in start order
};

/// What a fan-out hands each trial besides its identity: the deadline
/// its step loops poll, the sink it records into (null: not recorded),
/// and the campaign fault plan (null: none).
struct TrialContext {
  Deadline deadline;
  MetricsSink* sink = nullptr;
  const FaultPlan* faults = nullptr;
};

/// Runs trial `trial_id` of `method` on g: seeds its Rng with
/// splitmix64_at(seed, trial_id), binds the context's deadline and sink
/// into RunConfig::metrics and every solver's option struct, fires the
/// fault hook, and times the trial in thread-CPU seconds. Never throws:
/// an exception becomes the trial's status (failed_trial). Sides are
/// kept for an ok trial when `keep_sides`.
TrialResult run_trial(const Graph& g, Method method, std::uint64_t seed,
                      std::uint64_t trial_id, const RunConfig& config,
                      const TrialContext& context, bool keep_sides);

/// The exception-to-status mapping: DeadlineExceeded -> kTimedOut,
/// anything else -> kFailed (std::bad_alloc also sets `oom`), with the
/// what() text in `error`.
TrialResult failed_trial(std::exception_ptr error);

/// Folds trial `start` of one cell into `cell`, in start order: tallies
/// its status, sums its CPU seconds, keeps the first error text, takes
/// its cut when it is the first ok start or strictly beats the best so
/// far, and updates the verdict.
void fold_trial(MethodOutcome& cell, std::uint32_t start,
                const TrialResult& trial, bool keep_sides);

/// Runs every trial on `threads` workers (0 = hardware concurrency) and
/// returns results indexed exactly like `trials`; trial `t` runs as
/// run_trial(..., seed, t, ...). Trials are fault-isolated: an
/// exception or deadline overrun degrades that trial's status, it never
/// throws out of this call (only spec validation does, plus IoError
/// when a configured RunConfig::obs export destination is unwritable).
/// When config.obs.enabled(), every executed trial carries a
/// TrialMetrics record, and configured metrics/trace files are written
/// after the batch; config.obs.progress paints a live stderr line.
std::vector<TrialResult> run_trials(std::span<const Graph> graphs,
                                    std::span<const TrialSpec> trials,
                                    const RunConfig& config,
                                    std::uint64_t seed, unsigned threads,
                                    bool keep_sides = false);

/// Full-control variant: shutdown flag, fault plan, completion hook,
/// and precompleted (resumed) trials.
std::vector<TrialResult> run_trials_ex(std::span<const Graph> graphs,
                                       std::span<const TrialSpec> trials,
                                       const RunConfig& config,
                                       std::uint64_t seed, unsigned threads,
                                       const TrialRunOptions& options);

/// The canonical campaign enumeration: graphs × methods × starts,
/// graph-major, then method, then start — dense trial ids. Both
/// run_trial_matrix and the checkpointed campaign layer use exactly
/// this order, which is what makes journaled trial ids portable.
std::vector<TrialSpec> enumerate_trial_matrix(std::size_t num_graphs,
                                              std::span<const Method> methods,
                                              std::uint32_t starts);

/// Reduces a dense trial-matrix result vector (cells × starts, in
/// enumeration order) into per-cell outcomes with fold_trial.
std::vector<MethodOutcome> reduce_trial_matrix(
    std::span<const TrialResult> raw, std::size_t num_cells,
    std::uint32_t starts, bool keep_sides = false);

/// Enumerates graphs × methods × config.starts trials, runs them in
/// parallel, and reduces each (graph, method) cell. The returned vector
/// is indexed by `graph_index * methods.size() + method_index`.
std::vector<MethodOutcome> run_trial_matrix(std::span<const Graph> graphs,
                                            std::span<const Method> methods,
                                            const RunConfig& config,
                                            std::uint64_t seed,
                                            bool keep_sides = false);

}  // namespace gbis
