#include "gbis/partition/refine_workspace.hpp"

#include <algorithm>

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

void RefineWorkspace::apply_move(Bisection& bisection, Vertex v) {
  update_gains_after_move(bisection.graph(), bisection.sides(), v, kept_);
  bisection.move(v);
}

}  // namespace gbis
