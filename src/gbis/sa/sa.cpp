#include "gbis/sa/sa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "gbis/obs/metrics.hpp"
#include "gbis/partition/balance.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/sa/schedule.hpp"

namespace gbis {

namespace {

/// Signed count difference count(0) - count(1).
std::int64_t signed_diff(const Bisection& b) {
  return static_cast<std::int64_t>(b.side_count(0)) -
         static_cast<std::int64_t>(b.side_count(1));
}

/// Cost change of flipping v: -gain (cut part) plus the penalty delta.
double flip_delta(const Bisection& b, std::span<const Weight> gains, Vertex v,
                  double alpha) {
  const std::int64_t d = signed_diff(b);
  // Moving from side 0: d -> d - 2; from side 1: d -> d + 2.
  const std::int64_t d_after = b.side(v) == 0 ? d - 2 : d + 2;
  const double penalty_delta =
      alpha * (static_cast<double>(d_after) * static_cast<double>(d_after) -
               static_cast<double>(d) * static_cast<double>(d));
  return -static_cast<double>(gains[v]) + penalty_delta;
}

/// Draws a uniformly random vertex on `side` by rejection (the walk
/// stays near balance, so the expected number of draws is ~2).
Vertex random_on_side(const Bisection& b, std::uint32_t n, int side,
                      Rng& rng) {
  for (;;) {
    const auto v = static_cast<Vertex>(rng.below(n));
    if (b.side(v) == side) return v;
  }
}

/// Cost change of swapping opposite-side vertices a and b:
/// -(g_a + g_b - 2 w(a, b)).
double swap_delta(const Graph& g, std::span<const Weight> gains, Vertex a,
                  Vertex b) {
  return -static_cast<double>(pair_gain(g, a, b, gains[a], gains[b]));
}

/// Moves v, keeping `gains` equal to every vertex's current gain.
void tracked_move(Bisection& b, std::vector<Weight>& gains, Vertex v) {
  update_gains_after_move(b.graph(), b.sides(), v, gains);
  b.move(v);
}

}  // namespace

SaStats sa_refine(Bisection& bisection, Rng& rng, const SaOptions& options,
                  std::vector<SaTracePoint>* trace) {
  if (options.imbalance_alpha < 0.0) {
    throw std::invalid_argument("sa_refine: alpha must be >= 0");
  }
  const Graph& g = bisection.graph();
  const std::uint32_t n = g.num_vertices();
  SaStats stats;
  stats.initial_cut = bisection.cut();
  if (n < 2) {
    stats.final_cut = bisection.cut();
    return stats;
  }

  const bool swap_moves = options.neighborhood == SaNeighborhood::kSwap;
  if (swap_moves) {
    // Pair swaps need both sides populated; also, the swap walk can
    // never repair imbalance, so start from an exact bisection.
    rebalance(bisection);
  }
  // Every proposal reads its gain here in O(1); each accepted move
  // updates it in O(deg).
  std::vector<Weight> gains = all_gains(bisection);

  // --- Initial temperature -------------------------------------------------
  double t0 = options.initial_temperature;
  if (t0 <= 0.0) {
    // Sample uphill deltas from the initial configuration.
    std::vector<double> uphill;
    const std::uint32_t samples = std::max<std::uint32_t>(256, n);
    uphill.reserve(samples);
    for (std::uint32_t i = 0; i < samples; ++i) {
      double delta = 0.0;
      if (swap_moves) {
        const Vertex a = random_on_side(bisection, n, 0, rng);
        const Vertex b = random_on_side(bisection, n, 1, rng);
        delta = swap_delta(g, gains, a, b);
      } else {
        const auto v = static_cast<Vertex>(rng.below(n));
        delta = flip_delta(bisection, gains, v, options.imbalance_alpha);
      }
      if (delta > 0.0) uphill.push_back(delta);
    }
    t0 = initial_temperature_for_acceptance(
        uphill, options.init_acceptance_target, /*fallback=*/1.0);
    if (t0 <= 0.0) t0 = 1.0;
  }
  stats.initial_temperature = t0;

  GeometricSchedule schedule(t0, options.cooling_ratio);
  const auto moves_per_temp = static_cast<std::uint64_t>(
      std::max(1.0, options.temperature_length_factor * n));

  // Best *balanced* configuration seen so far.
  std::vector<std::uint8_t> best_sides(bisection.sides().begin(),
                                       bisection.sides().end());
  Weight best_cut =
      bisection.is_balanced() ? bisection.cut()
                              : std::numeric_limits<Weight>::max();

  std::uint32_t frozen_streak = 0;
  std::uint32_t stagnant_streak = 0;
  constexpr double kMinTemperature = 1e-9;

  while (frozen_streak < options.frozen_temperatures &&
         (options.stagnation_temperatures == 0 ||
          stagnant_streak < options.stagnation_temperatures) &&
         schedule.temperature() > kMinTemperature) {
    std::uint64_t accepted = 0;
    std::uint64_t changed = 0;  // accepted moves with delta != 0
    std::uint64_t proposed = 0;
    std::uint64_t polls = 0;
    bool best_improved = false;
    for (std::uint64_t m = 0; m < moves_per_temp; ++m) {
      // Cooperative deadline poll, throttled to one clock read per
      // 1024 proposals. The walk mutates `bisection` in place, so a
      // throw abandons a mid-walk state — fine, the trial is discarded.
      if ((m & 1023u) == 0) {
        options.deadline.check();
        ++polls;
      }
      if (options.max_total_moves != 0 &&
          stats.moves_proposed >= options.max_total_moves) {
        frozen_streak = options.frozen_temperatures;  // force stop
        break;
      }
      ++stats.moves_proposed;
      ++proposed;
      bool accept = false;
      double delta = 0.0;
      if (swap_moves) {
        const Vertex a = random_on_side(bisection, n, 0, rng);
        const Vertex b = random_on_side(bisection, n, 1, rng);
        delta = swap_delta(g, gains, a, b);
        accept = delta <= 0.0 ||
                 rng.real01() < std::exp(-delta / schedule.temperature());
        if (accept) {
          tracked_move(bisection, gains, a);
          tracked_move(bisection, gains, b);
        }
      } else {
        const auto v = static_cast<Vertex>(rng.below(n));
        delta = flip_delta(bisection, gains, v, options.imbalance_alpha);
        accept = delta <= 0.0 ||
                 rng.real01() < std::exp(-delta / schedule.temperature());
        if (accept) tracked_move(bisection, gains, v);
      }
      if (accept) {
        ++accepted;
        if (delta != 0.0) ++changed;
        if (bisection.is_balanced() && bisection.cut() < best_cut) {
          best_cut = bisection.cut();
          best_sides.assign(bisection.sides().begin(),
                            bisection.sides().end());
          best_improved = true;
        }
      }
    }
    stats.moves_accepted += accepted;
    ++stats.temperatures;

    const double acceptance =
        static_cast<double>(accepted) / static_cast<double>(moves_per_temp);
    if (trace != nullptr) {
      trace->push_back({schedule.temperature(), bisection.cut(),
                        best_cut < std::numeric_limits<Weight>::max()
                            ? best_cut
                            : bisection.cut(),
                        acceptance});
    }
    if (MetricsSink* sink = options.metrics; sink != nullptr) {
      // One flush per temperature: the move loop only touches locals.
      // Stage boundaries are relative to this run's T0 (hot >= T0/2,
      // cold < T0/20), so classification is deterministic per trial.
      const SaStage stage = sa_stage(schedule.temperature(), t0);
      const auto at = [stage](Counter hot, Counter warm, Counter cold) {
        return stage == SaStage::kHot    ? hot
               : stage == SaStage::kWarm ? warm
                                         : cold;
      };
      sink->add(Counter::kSaTemperatures);
      sink->add(at(Counter::kSaProposalsHot, Counter::kSaProposalsWarm,
                   Counter::kSaProposalsCold),
                proposed);
      sink->add(at(Counter::kSaAcceptsHot, Counter::kSaAcceptsWarm,
                   Counter::kSaAcceptsCold),
                accepted);
      sink->add(at(Counter::kSaRejectsHot, Counter::kSaRejectsWarm,
                   Counter::kSaRejectsCold),
                proposed - accepted);
      sink->add(Counter::kDeadlinePolls, polls);
      sink->observe(Hist::kSaTempAcceptancePct,
                    static_cast<std::uint64_t>(acceptance * 100.0 + 0.5));
      sink->trace_point(TraceSource::kSa,
                        best_cut < std::numeric_limits<Weight>::max()
                            ? best_cut
                            : bisection.cut(),
                        schedule.temperature());
    }
    // Only moves that change the cost hold off the freeze. A sideways
    // move (delta == 0) is accepted at any temperature, and at odd |V|
    // every zero-gain flip between d = +1 and d = -1 is one: counted,
    // they would keep the walk cooling to kMinTemperature.
    const double changing =
        static_cast<double>(changed) / static_cast<double>(moves_per_temp);
    if (changing < options.min_acceptance && !best_improved) {
      ++frozen_streak;
    } else {
      frozen_streak = 0;
    }
    if (best_improved) {
      stagnant_streak = 0;
    } else {
      ++stagnant_streak;
    }
    schedule.cool();
  }
  stats.final_temperature = schedule.temperature();

  // Restore the best balanced configuration if the walk drifted away,
  // then guarantee exact balance (cheap repair; usually a no-op).
  if (best_cut < std::numeric_limits<Weight>::max()) {
    const bool current_worse =
        !bisection.is_balanced() || bisection.cut() > best_cut;
    if (current_worse) {
      bisection = Bisection(g, std::move(best_sides));
    }
  }
  rebalance(bisection);
  stats.final_cut = bisection.cut();
  return stats;
}

}  // namespace gbis
