// Chrome trace-event export and the top-level "write everything
// ObsOptions asked for" entry point the trial runner calls after a
// batch. Every trace.json, campaign and serve alike, goes through one
// Chrome trace-event writer and loads in Perfetto or chrome://tracing:
//   * campaign: one complete event ("ph":"X") per executed trial —
//     including failed and timed-out trials — on the worker lane
//     ("tid") that ran it, plus one sub-span per recorded phase (gen /
//     compact / bisect / uncoalesce / refine), timestamped against the
//     batch epoch (the moment run_trials_ex started);
//   * serve: one "request" event per completed span set (obs/span),
//     followed by that set's spans, all on lane 0 (the service is
//     single-driver), timestamped against the service epoch.
//
// Unlike the convergence trace, this file is wall-clock data: span
// placement depends on scheduling and is NOT covered by the
// determinism contract. Span *structure* is: phases nest inside their
// trial, and spans on one tid never overlap (a worker runs one trial
// at a time) — tests/test_obs.cpp checks exactly that.
#pragma once

#include <deque>
#include <iosfwd>
#include <span>

#include "gbis/harness/parallel_runner.hpp"
#include "gbis/obs/metrics.hpp"
#include "gbis/obs/span.hpp"

namespace gbis {

/// Folds every collected trial's counters and histograms in trial-id
/// order and summarizes the per-trial CPU seconds (executed trials) and
/// cut (ok trials) distributions.
MetricsReport build_metrics_report(std::span<const TrialResult> results);

/// Writes the campaign Chrome trace. `results` and `trials` are the
/// parallel arrays a batch produced; trials without collected metrics
/// (skipped, or collection disabled) are omitted.
void write_chrome_trace(std::ostream& out,
                        std::span<const TrialResult> results,
                        std::span<const TrialSpec> trials);

/// Honors ObsOptions paths after a batch: writes the metrics JSON to
/// obs.metrics_path and convergence.jsonl / convergence.csv /
/// trace.json into obs.trace_dir (created if missing). Empty paths are
/// skipped; unwritable destinations throw IoError.
void export_observability(const ObsOptions& obs,
                          std::span<const TrialResult> results,
                          std::span<const TrialSpec> trials);

/// Writes the serve Chrome trace from completed span sets (the flight
/// recorder's ring, oldest first): per set one "request" event (args
/// trace/seq/id/op/status) spanning its first span's start to its last
/// span's end — accept -> write — then one "span" event per span (args
/// trace/seq, plus step/cut when present). Sets shorter than `min_ms`
/// milliseconds are left out; a negative `min_ms` keeps every set.
void write_span_trace(std::ostream& out, const std::deque<SpanSet>& sets,
                      double min_ms);

}  // namespace gbis
