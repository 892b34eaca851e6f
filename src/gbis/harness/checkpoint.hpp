// Checkpoint/resume layer for experiment campaigns. A campaign is the
// usual deterministic trial matrix (graphs × methods × starts, dense
// trial ids) plus a journal: an append-only JSONL file, one flushed
// line per completed trial (io/journal), keyed by a campaign
// fingerprint — a 64-bit hash of the base seed, the RunConfig
// knobs that influence outcomes, the trial enumeration, and the graph
// contents. On restart with a journal, completed trial ids are adopted
// and skipped; because trial `t`'s Rng depends only on (seed, t), a
// resumed campaign's cuts are bit-identical to an uninterrupted run.
//
// Journal format (docs/ROBUSTNESS.md has the full spec):
//   {"type":"campaign","version":1,"fingerprint":"<16 hex>","trials":N}
//   {"type":"trial","id":7,"status":"ok","cut":42,"cpu_seconds":0.012,
//    "metrics":{"kl.passes":3,...},"hists":{"kl.pass_improvement":[[4,2]]}}
//   {"type":"trial","id":9,"status":"failed","error":"..."}
// Skipped trials are never journaled, and a line a crash tore is never
// read: both trials rerun on resume. The metrics/hists fields appear
// only when the campaign ran with observability on and that trial
// recorded something; on resume they are adopted verbatim, so
// aggregated metric summaries are reproduced exactly. Convergence
// traces and phase timings are *not* journaled — they are bulky, and
// the timing half is wall-clock data a resumed run could not honestly
// replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "gbis/harness/parallel_runner.hpp"

namespace gbis {

class FaultPlan;

/// One journal line: what trial `trial_id` produced.
struct TrialRecord {
  std::uint64_t trial_id = 0;
  TrialStatus status = TrialStatus::kOk;
  Weight cut = 0;
  double cpu_seconds = 0;
  std::string error;
  /// Counter/histogram summary (the deterministic part of
  /// TrialMetrics); null when the trial ran without observability.
  /// Aliased, never deep-copied, between TrialResult and the journal.
  std::shared_ptr<const TrialMetrics> metrics;
};

/// Stable 64-bit campaign identity. Two campaigns share a fingerprint
/// iff their journals are interchangeable: same seed, same
/// outcome-relevant RunConfig knobs (threads deliberately excluded —
/// cuts are thread-count invariant), same trial enumeration, and same
/// graph contents (vertex/edge structure and weights).
std::uint64_t campaign_fingerprint(std::uint64_t seed,
                                   const RunConfig& config,
                                   std::span<const TrialSpec> trials,
                                   std::span<const Graph> graphs);

/// The journal writer: the constructor publishes the header and any
/// adopted records atomically (io/journal), then each append() writes
/// one flushed line, so a crash tears at most the last line.
/// Thread-safe.
class CheckpointJournal {
 public:
  /// Creates (or overwrites) the journal at `path` with a header line
  /// and `initial` pre-adopted records (used when resuming in place).
  /// Throws IoError if the path is unwritable.
  CheckpointJournal(std::string path, std::uint64_t fingerprint,
                    std::uint64_t num_trials,
                    std::span<const TrialRecord> initial = {});

  /// Appends one trial line; throws IoError on a write error.
  void append(const TrialRecord& record);

  const std::string& path() const { return path_; }

  /// A parsed journal.
  struct Loaded {
    std::uint64_t fingerprint = 0;
    std::uint64_t num_trials = 0;
    std::vector<TrialRecord> records;  ///< append order; last id wins
  };

  /// Parses a journal, skipping a torn last line (no '\n'); throws
  /// IoError (with the 1-based line number and offending text) on
  /// malformed input.
  static Loaded load(const std::string& path);

 private:
  std::mutex mutex_;
  std::string path_;
  std::ofstream out_;
};

/// Campaign-level knobs on top of RunConfig.
struct CampaignOptions {
  /// Journal destination; "" = run without checkpointing.
  std::string journal_path;
  /// Journal to adopt completed trials from; "" = fresh campaign. May
  /// equal journal_path (resume in place). A fingerprint or trial-count
  /// mismatch throws — a journal from a different campaign must never
  /// silently contaminate results.
  std::string resume_path;
  /// Graceful shutdown flag (e.g. &shutdown_flag()).
  const std::atomic<bool>* stop = nullptr;
  /// Campaign fault plan (kCampaignFaults); nullptr = no faults.
  const FaultPlan* faults = nullptr;
  bool keep_sides = false;
};

/// What a campaign produced.
struct CampaignResult {
  std::vector<TrialResult> trials;   ///< dense, by trial id
  std::vector<MethodOutcome> cells;  ///< graph-major × methods
  std::uint64_t fingerprint = 0;
  std::uint32_t ok = 0, failed = 0, timed_out = 0, skipped = 0;
  std::uint64_t resumed = 0;  ///< trials adopted from the resume journal
  /// True when the campaign did not run to completion (shutdown
  /// requested / trials skipped); the caller should hint at --resume.
  bool interrupted = false;
};

/// Runs the graphs × methods × config.starts campaign with fault
/// isolation, optional checkpointing, and optional resume. Trial
/// outcomes — including failures — are data, not exceptions; only
/// setup errors (bad journal, mismatched fingerprint) throw.
CampaignResult run_campaign(std::span<const Graph> graphs,
                            std::span<const Method> methods,
                            const RunConfig& config, std::uint64_t seed,
                            const CampaignOptions& options = {});

}  // namespace gbis
