// The microsecond rung of the quality-vs-latency ladder: greedy
// region-growing construction (baseline/greedy.hpp) polished by a
// tightly budgeted hill climb (baseline/hill_climb.hpp). Berry &
// Goldberg's near-greedy analysis (PAPERS.md) is the justification:
// on the sparse geometric/random classes the generators emit, a
// greedy construction already lands near the good local optima, so a
// handful of improving swaps buys most of the remaining quality at a
// fraction of a KL pass's cost.
//
// This is deliberately *not* a refiner loop-until-fixpoint method:
// the proposal budget is a hard constant multiple of |V|, so the
// latency is predictable enough to serve "quality":"fast" requests
// without consulting the deadline at all (the whole run costs less
// than one cooperative poll interval of the heavier methods).
// Determinism: one greedy seed draw + the hill climb's proposal
// stream, all from the trial Rng — a pure function of (graph, rng).
#pragma once

#include <cstdint>

#include "gbis/partition/bisection.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {

/// Greedy region growing + bounded hill climb. Balanced by
/// construction; never worse than the plain greedy bisection.
Bisection greedy_hc_bisection(const Graph& g, Rng& rng);

}  // namespace gbis
