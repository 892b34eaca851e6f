// Budgeted solver policy for the partition service: race the
// portfolio of one quality-vs-latency ladder rung under a trial
// budget and an optional request-wide deadline, and return the best
// cut found so far when either runs out. The rungs
// (methods/registry.hpp quality_portfolio):
//
//   fast     — greedy+hill-climb only: bounded-latency microsecond
//              answers, no refiner loop to interrupt;
//   balanced — CKL, path optimization, multilevel-KL: the strong
//              quality-per-second refiners;
//   best     — the historical CKL/CSA/KL/SA/mlkl race with path
//              optimization appended (the default rung, so pre-ladder
//              request streams replay byte-identically).
//
// Why a portfolio: heuristic cut quality is a *distribution* over
// random starts (Schreiber & Martin, PAPERS.md), so a fixed budget is
// best spent on diverse starts; and which heuristic wins is
// graph-class dependent (Berry & Goldberg), so the race covers the
// classes instead of betting on one. Dispatch order puts CKL first —
// the paper's best quality-per-second method — so budget=1 degrades to
// exactly `gbis solve <g> ckl` with one start (fast rung excepted).
//
// One trial path: trial i of a request is run_trial(..., seed, i, ...)
// from harness/parallel_runner — the campaign trial body, seeded with
// splitmix64_at(request seed, i) — and the request folds its trials
// with fold_trial, the campaign cell reduction. So an explicit-method
// request with budget k answers exactly like a k-start campaign cell
// (run_method_seeded) at the same seed. Trials run *serially inside*
// the request (cross-request parallelism belongs to the service
// scheduler, whose pool jobs must not nest). With no deadline the
// result is a pure function of (graph, spec, seed); with one, completed
// trials still produce identical cuts but *which* trials complete is
// honest wall-clock data, exactly like campaign trial deadlines.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "gbis/harness/parallel_runner.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {

class SpanBuffer;

/// What to run for one request.
struct PolicySpec {
  bool portfolio = true;         ///< true: race the portfolio ("auto")
  Method method = Method::kCkl;  ///< used when portfolio is false
  /// Ladder rung whose portfolio the race draws from (portfolio only;
  /// an explicit method ignores it).
  QualityTier quality = QualityTier::kBest;
  std::uint32_t budget = 2;      ///< total trials to spend
};

/// The racing order of the default ("best") rung's portfolio (trial i
/// runs method i mod size, start i / size). Rung-specific portfolios
/// come from quality_portfolio(tier) in methods/registry.hpp.
std::span<const Method> policy_portfolio();

/// What the policy produced: the request's trials folded as one
/// campaign cell (fold_trial — best cut, tallies, first error, and the
/// kOk-when-any-trial-finished verdict), plus the service's own flags.
struct PolicyResult : MethodOutcome {
  Method best_method = Method::kCkl;  ///< method of the winning trial
  /// True when the first failure was an allocation failure — the
  /// scheduler maps it to the stable "internal: out of memory" client
  /// reason (full text stays on stderr + the access log).
  bool oom = false;
  /// True when this result came from a lineage warm start (dyn/warm)
  /// rather than the cold policy — set by the scheduler's warm path,
  /// never by run_policy itself.
  bool warm = false;
};

/// Runs the policy. `base` supplies the solver knobs (KlOptions etc.);
/// its obs block is ignored — the service keeps its own counters.
/// `stop` (optional) drains remaining trials as skipped, the graceful-
/// shutdown path. `deadline` is the request-wide wall-clock budget
/// (default: unlimited): trials still queued when it expires are
/// marked timed out without running, and the trial in flight is
/// interrupted at its next cooperative poll. Never throws on trial
/// failure; failures are data.
/// A bound `spans` buffer (obs/span.hpp) collects per-method sub-spans
/// for request tracing: one "trial" span per executed trial plus the
/// trial's convergence points (kl.pass / sa.temp / fm.pass / po.pass),
/// with times relative to run_policy entry. The span *structure* is a
/// pure function of (graph, spec, seed) like the cuts themselves.
PolicyResult run_policy(const Graph& g, const PolicySpec& spec,
                        std::uint64_t seed, const RunConfig& base = {},
                        bool keep_sides = false,
                        const std::atomic<bool>* stop = nullptr,
                        SpanBuffer* spans = nullptr,
                        const Deadline& deadline = Deadline());

}  // namespace gbis
