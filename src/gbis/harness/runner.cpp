#include "gbis/harness/runner.hpp"

#include <stdexcept>
#include <utility>

#include "gbis/baseline/greedy.hpp"
#include "gbis/baseline/random_bisect.hpp"
#include "gbis/baseline/spectral.hpp"
#include "gbis/harness/parallel_runner.hpp"
#include "gbis/harness/timer.hpp"
#include "gbis/methods/registry.hpp"

namespace gbis {

std::string method_name(Method method) {
  const std::size_t index = static_cast<std::size_t>(method);
  if (index >= method_registry().size()) {
    throw std::invalid_argument("method_name: unknown method");
  }
  return method_registry()[index].display_name;
}

bool method_from_name(const std::string& name, Method& out) {
  const MethodInfo* info = method_info_by_name(name);
  if (info == nullptr) return false;
  out = info->method;
  return true;
}

Bisection run_one_start(const Graph& g, Method method, Rng& rng,
                        const RunConfig& config) {
  // Phase spans for the Chrome-trace export. Flat methods get an
  // explicit gen + refine split here; the compaction and multilevel
  // drivers stamp their own compact/bisect/uncoalesce/refine spans, and
  // baselines run as one opaque bisect span.
  MetricsSink* sink = config.metrics;
  switch (method) {
    case Method::kKl: {
      if (sink != nullptr) sink->begin_phase(Phase::kGen);
      Bisection b = Bisection::random(g, rng);
      if (sink != nullptr) sink->end_phase(Phase::kGen);
      const ScopedPhase refine(sink, Phase::kRefine);
      kl_refine(b, config.kl);
      return b;
    }
    case Method::kSa: {
      if (sink != nullptr) sink->begin_phase(Phase::kGen);
      Bisection b = Bisection::random(g, rng);
      if (sink != nullptr) sink->end_phase(Phase::kGen);
      const ScopedPhase refine(sink, Phase::kRefine);
      sa_refine(b, rng, config.sa);
      return b;
    }
    case Method::kCkl:
      return ckl(g, rng, config.kl, config.compaction);
    case Method::kCsa:
      return csa(g, rng, config.sa, config.compaction);
    case Method::kFm: {
      if (sink != nullptr) sink->begin_phase(Phase::kGen);
      Bisection b = Bisection::random(g, rng);
      if (sink != nullptr) sink->end_phase(Phase::kGen);
      const ScopedPhase refine(sink, Phase::kRefine);
      fm_refine(b, config.fm);
      return b;
    }
    case Method::kCfm:
      return compacted_bisect(g, rng, fm_refiner(config.fm),
                              config.compaction);
    case Method::kMultilevelKl:
      return multilevel_bisect(g, rng, kl_refiner(config.kl),
                               config.multilevel);
    case Method::kGreedy: {
      const ScopedPhase bisect(sink, Phase::kBisect);
      return greedy_bisection(g, rng);
    }
    case Method::kSpectral: {
      const ScopedPhase bisect(sink, Phase::kBisect);
      return spectral_bisection(g, rng);
    }
    case Method::kRandom: {
      const ScopedPhase bisect(sink, Phase::kBisect);
      return best_random_bisection(g, rng);
    }
    case Method::kPathOpt: {
      if (sink != nullptr) sink->begin_phase(Phase::kGen);
      Bisection b = Bisection::random(g, rng);
      if (sink != nullptr) sink->end_phase(Phase::kGen);
      const ScopedPhase refine(sink, Phase::kRefine);
      path_opt_refine(b, config.path);
      return b;
    }
    case Method::kGreedyHc: {
      const ScopedPhase bisect(sink, Phase::kBisect);
      return greedy_hc_bisection(g, rng);
    }
  }
  throw std::invalid_argument("run_method: unknown method");
}

RunResult run_method_seeded(const Graph& g, Method method,
                            std::uint64_t seed, const RunConfig& config,
                            std::vector<std::uint8_t>* best_sides) {
  if (config.starts == 0) {
    throw std::invalid_argument("run_method: starts >= 1");
  }
  const WallTimer wall;
  const Graph graphs[] = {g};
  const Method methods[] = {method};
  std::vector<MethodOutcome> outcomes = run_trial_matrix(
      graphs, methods, config, seed, /*keep_sides=*/best_sides != nullptr);
  MethodOutcome& outcome = outcomes.front();
  if (outcome.status != TrialStatus::kOk) {
    // Trials are fault-isolated, but a run with zero successful starts
    // has no cut to report — surface the first failure to the caller.
    std::string message = "run_method: no start finished (";
    message += trial_status_name(outcome.status);
    message += ")";
    if (!outcome.first_error.empty()) message += ": " + outcome.first_error;
    throw std::runtime_error(message);
  }

  RunResult result;
  result.best_cut = outcome.best_cut;
  result.cpu_seconds = outcome.cpu_seconds;
  result.trial_seconds = std::move(outcome.trial_seconds);
  result.degraded_starts =
      outcome.failed + outcome.timed_out + outcome.skipped;
  result.first_error = std::move(outcome.first_error);
  if (best_sides != nullptr) {
    *best_sides = std::move(outcome.best_sides);
  }
  result.wall_seconds = wall.elapsed_seconds();
  return result;
}

RunResult run_method(const Graph& g, Method method, Rng& rng,
                     const RunConfig& config,
                     std::vector<std::uint8_t>* best_sides) {
  // One draw regardless of starts/threads: the caller's stream advances
  // identically however the trials execute.
  return run_method_seeded(g, method, rng.next(), config, best_sides);
}

}  // namespace gbis
