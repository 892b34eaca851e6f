// The state one refine keeps across its passes. A KL, path-optimization
// or FM pass starts from the same things: two-sided gain buckets
// (partition/buckets.hpp) filled with the gains of the bisection as it
// stands, and virtual copies of those gains (and, for the single-move
// refiners, of the sides) that the pass rolls forward as it proposes
// moves. A workspace holds all of it for the whole refine, so a pass
// clears and refills instead of allocating, and the gains are computed
// once (all_gains) and then kept exact as each pass applies its prefix.
#pragma once

#include <cstdint>
#include <vector>

#include "gbis/partition/bisection.hpp"
#include "gbis/partition/buckets.hpp"

namespace gbis {

class RefineWorkspace {
 public:
  /// A workspace for refining `bisection` (and only it, since the kept
  /// gains follow the moves made through apply_prefix).
  explicit RefineWorkspace(const Bisection& bisection);

  /// Starts a pass: empties the buckets and the sequence, and copies
  /// the kept gains into `gains`.
  void begin_pass();

  /// Moves the first `count` vertices of `sequence` in `bisection` for
  /// real (a KL swap is its two moves) and keeps the kept gains exact.
  /// The cut must then have fallen by exactly `predicted`, the prefix's
  /// summed gains; when it has not, the gains have drifted from the
  /// bisection, and this throws std::logic_error naming `refiner`
  /// instead of letting the refine loop on gains it cannot realize.
  void apply_prefix(Bisection& bisection, std::size_t count,
                    Weight predicted, const char* refiner);

  GainBuckets buckets;
  std::vector<Weight> gains;        ///< the pass's virtual gains
  std::vector<std::uint8_t> sides;  ///< the pass's virtual sides, if any
  std::vector<Vertex> sequence;     ///< the pass's proposed moves

 private:
  std::vector<Weight> kept_;  ///< the gains of the bisection as it stands
};

}  // namespace gbis
