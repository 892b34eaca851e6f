#include "gbis/svc/policy.hpp"

#include <exception>

#include "gbis/harness/timer.hpp"
#include "gbis/obs/span.hpp"

namespace gbis {

std::span<const Method> policy_portfolio() {
  return quality_portfolio(QualityTier::kBest);
}

namespace {

/// Converts one trial's bounded convergence trace into request-trace
/// sub-spans: a "trial" header span, then one span per kept trace
/// point, all stamped at the trial's start offset. The SpanBuffer
/// applies its own second-level decimation, so a budget-heavy request
/// still yields a bounded, thread-count-invariant span list.
void offer_trial_spans(SpanBuffer& spans, std::uint32_t trial,
                       std::int64_t cut, const TrialMetrics& tm,
                       double trial_start, double trial_wall) {
  SpanRec header;
  header.name = "trial";
  header.step = trial;
  header.has_step = true;
  header.value = cut;
  header.has_value = cut >= 0;
  header.start_seconds = trial_start;
  header.duration_seconds = trial_wall;
  spans.offer(std::move(header));
  for (const TracePoint& pt : tm.trace) {
    SpanRec rec;
    rec.name = span_name_for_trace_source(pt.source);
    rec.step = pt.step;
    rec.has_step = true;
    rec.value = pt.cut;
    rec.has_value = true;
    if (pt.source == TraceSource::kSa) {
      rec.aux = pt.aux;
      rec.has_aux = true;
    }
    rec.start_seconds = trial_start;
    spans.offer(std::move(rec));
  }
}

}  // namespace

PolicyResult run_policy(const Graph& g, const PolicySpec& spec,
                        std::uint64_t seed, const RunConfig& base,
                        bool keep_sides, const std::atomic<bool>* stop,
                        SpanBuffer* spans, const Deadline& deadline) {
  PolicyResult result;
  const bool tracing = spans != nullptr && spans->bound();
  const WallTimer policy_clock;  // span offsets relative to policy entry
  const std::span<const Method> portfolio = quality_portfolio(spec.quality);
  const auto method_of = [&](std::uint32_t i) {
    return spec.portfolio ? portfolio[i % portfolio.size()] : spec.method;
  };
  for (std::uint32_t i = 0; i < spec.budget; ++i) {
    TrialResult trial;
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      trial.status = TrialStatus::kSkipped;
    } else if (deadline.expired()) {
      // Budget the request can no longer spend: count the remaining
      // trials timed out without paying for their generation phases.
      trial = failed_trial(std::make_exception_ptr(DeadlineExceeded()));
    } else {
      // Tracing binds a throwaway per-trial sink so the trial's
      // convergence trace becomes its sub-spans; the service's own
      // counters stay untouched either way.
      TrialMetrics trial_metrics;
      MetricsSink trial_sink(&trial_metrics, 64);
      const double trial_start = policy_clock.elapsed_seconds();
      trial = run_trial(g, method_of(i), seed, i, base,
                        {deadline, tracing ? &trial_sink : nullptr, nullptr},
                        keep_sides);
      if (tracing) {
        offer_trial_spans(*spans, i,
                          trial.status == TrialStatus::kOk ? trial.cut : -1,
                          trial_metrics, trial_start,
                          policy_clock.elapsed_seconds() - trial_start);
      }
    }
    if (result.first_error.empty()) result.oom = trial.oom;  // first failure
    fold_trial(result, i, trial, keep_sides);
  }
  if (result.ok > 0) result.best_method = method_of(result.best_start);
  return result;
}

}  // namespace gbis
