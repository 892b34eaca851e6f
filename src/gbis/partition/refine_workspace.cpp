#include "gbis/partition/refine_workspace.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gbis/partition/gains.hpp"

namespace gbis {

RefineWorkspace::RefineWorkspace(const Bisection& bisection)
    : buckets(bisection.graph()),
      gains(bisection.graph().num_vertices()),
      kept_(all_gains(bisection)) {
  sequence.reserve(bisection.graph().num_vertices());
}

void RefineWorkspace::begin_pass() {
  buckets.clear();
  sequence.clear();
  std::copy(kept_.begin(), kept_.end(), gains.begin());
}

void RefineWorkspace::apply_prefix(Bisection& bisection, std::size_t count,
                                   Weight predicted, const char* refiner) {
  const Weight cut_before = bisection.cut();
  for (std::size_t i = 0; i < count; ++i) {
    update_gains_after_move(bisection.graph(), bisection.sides(), sequence[i],
                            kept_);
    bisection.move(sequence[i]);
  }
  const Weight fell = cut_before - bisection.cut();
  if (fell != predicted) {
    throw std::logic_error(std::string(refiner) + ": a pass predicted a gain of " +
                           std::to_string(predicted) + " but the cut fell by " +
                           std::to_string(fell));
  }
}

}  // namespace gbis
