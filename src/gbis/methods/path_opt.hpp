// Berry-Goldberg path optimization for graph bisection (PAPERS.md:
// "Path Optimization and Near-Greedy Analysis for Graph Partitioning").
//
// Where KL interchanges *pairs*, path optimization moves a *path*: one
// long sequence of single-vertex flips in strict side-0/side-1
// alternation, so that flipping any even-length prefix preserves the
// balance exactly (each side contributes half the flips). One pass
// grows the sequence greedily — each step flips the max-gain unlocked
// vertex of the required side, taken from that side's LIFO gain
// buckets (partition/buckets.hpp), so gain ties go to the vertex whose
// gain was touched most recently. That recency bias is the near-greedy
// walk of the paper: while a neighbor of the last flip stays
// gain-optimal the sequence follows edges, and when the walk dies it
// teleports to the global best (an adjacency *bias*, not a
// restriction; it is also the move locality KL gets from the same
// buckets, without which the planted/ladder classes stall far above
// KL's local optima). A flip costs O(deg) bucket updates, so a pass is
// O(|E|) plus the bucket scans. The pass then applies the even prefix
// with the best cumulative gain, preferring the longest on ties — the
// KL best-prefix rule transplanted from the pair sequence to the flip
// walk. Every flipped vertex is locked for the rest of the pass, so a
// pass proposes at most |V| flips and termination is unconditional.
// Passes repeat until one yields no improvement, exactly like
// kl_refine.
//
// Tie-breaking is deterministic everywhere (max gain, then LIFO bucket
// order: the most recently touched vertex, then the lowest vertex id)
// and the refiner consumes no randomness, so a path-opt trial is a pure
// function of (graph, starting bisection) — the same contract the
// KL/SA/FM refiners honor, which is what lets the method join the
// service portfolio without touching the byte-identity replay
// guarantees.
#pragma once

#include <cstdint>
#include <vector>

#include "gbis/partition/bisection.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {

class MetricsSink;

/// What a path-optimization run is bound to; no field changes its
/// result. The deadline is polled cooperatively inside the growth loop
/// (every 32 flips) and once per pass, and the sink is flushed once
/// per pass.
struct PathOptOptions {
  /// Cooperative wall-clock budget; expiry throws DeadlineExceeded
  /// (the trial runner maps it to a timed-out trial).
  Deadline deadline;
  /// Observability sink; nullptr records nothing.
  MetricsSink* metrics = nullptr;
};

/// Per-run diagnostics.
struct PathOptStats {
  std::uint32_t passes = 0;        ///< passes executed
  std::uint64_t paths = 0;         ///< paths grown (incl. zero-gain ones)
  std::uint64_t flips_proposed = 0;  ///< vertices visited by some path
  std::uint64_t flips_applied = 0;   ///< flips kept by a best prefix
  Weight initial_cut = 0;
  Weight final_cut = 0;
};

/// Runs path-optimization passes on `bisection` in place until a pass
/// gives no improvement. Never increases the cut and preserves the
/// balance exactly. Returns diagnostics.
PathOptStats path_opt_refine(Bisection& bisection,
                             const PathOptOptions& options = {});

/// Runs exactly one pass; returns the cut improvement (>= 0).
/// Exposed for tests and pass-level experiments.
Weight path_opt_pass(Bisection& bisection, PathOptStats* stats = nullptr,
                     const PathOptOptions& options = {});

}  // namespace gbis
