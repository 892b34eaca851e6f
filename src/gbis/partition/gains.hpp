// Gain bookkeeping shared by the move-based heuristics.
//
// Definitions (paper section III): for a bisection (A, B) the gain of a
// vertex a is g_a = (weight of edges to the other side) - (weight of
// edges to its own side); the pair gain of a in A and b in B is
// g_ab = g_a + g_b - 2 w(a, b). Positive gain means the cut shrinks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gbis/graph/graph.hpp"
#include "gbis/partition/bisection.hpp"

namespace gbis {

/// All vertex gains for the current bisection. O(V + E).
std::vector<Weight> all_gains(const Bisection& bisection);

/// Pair gain g_ab = g_a + g_b - 2 w(a, b); gains passed in to avoid
/// recomputation. a and b must be on opposite sides for the value to
/// mean "cut reduction if swapped".
Weight pair_gain(const Graph& g, Vertex a, Vertex b, Weight gain_a,
                 Weight gain_b);

/// Updates `gains` in place after vertices a (side 0) and b (side 1)
/// are hypothetically interchanged, per the paper's Figure 2 lines 6-8:
///   for x on a's side:  g_x += 2 w(x,a) - 2 w(x,b)
///   for y on b's side:  g_y += 2 w(y,b) - 2 w(y,a)
/// `sides` must describe the partition *before* the interchange.
/// The entries for a and b themselves are left stale (callers lock
/// them). O(deg a + deg b).
void update_gains_after_swap(const Graph& g,
                             std::span<const std::uint8_t> sides, Vertex a,
                             Vertex b, std::vector<Weight>& gains);

/// Updates `gains` in place after a single vertex v moves to the other
/// side (FM/SA primitive): for each neighbor x,
///   g_x += (x was on v's old side) ? 2 w(x,v) : -2 w(x,v),
/// and g_v flips sign. `sides` must describe the partition *before* the
/// move. O(deg v).
void update_gains_after_move(const Graph& g,
                             std::span<const std::uint8_t> sides, Vertex v,
                             std::vector<Weight>& gains);

}  // namespace gbis
