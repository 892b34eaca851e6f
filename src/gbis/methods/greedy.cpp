#include "gbis/methods/greedy.hpp"

#include <cstdint>

#include "gbis/baseline/greedy.hpp"
#include "gbis/baseline/hill_climb.hpp"

namespace gbis {

namespace {

/// Hill-climb proposal budget as a multiple of |V| (a hard cap, not a
/// patience window: the rung must have bounded latency).
constexpr double kProposalFactor = 4.0;
/// Patience passed through to the climber, as a multiple of |V|.
constexpr double kPatienceFactor = 2.0;

}  // namespace

Bisection greedy_hc_bisection(const Graph& g, Rng& rng) {
  Bisection b = greedy_bisection(g, rng);
  HillClimbOptions climb;
  const double n = static_cast<double>(g.num_vertices());
  climb.max_proposals = static_cast<std::uint64_t>(kProposalFactor * n);
  climb.patience_factor = kPatienceFactor;
  if (climb.max_proposals > 0) hill_climb(b, rng, climb);
  return b;
}

}  // namespace gbis
