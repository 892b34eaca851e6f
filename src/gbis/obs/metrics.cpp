#include "gbis/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <ostream>
#include <string_view>

#include "gbis/util/env.hpp"

namespace gbis {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "kl.passes",
    "kl.pairs_selected",
    "kl.pairs_swapped",
    "kl.candidates_scanned",
    "fm.passes",
    "fm.moves_considered",
    "fm.moves_applied",
    "fm.bucket_ops",
    "sa.temperatures",
    "sa.proposals.hot",
    "sa.proposals.warm",
    "sa.proposals.cold",
    "sa.accepts.hot",
    "sa.accepts.warm",
    "sa.accepts.cold",
    "sa.rejects.hot",
    "sa.rejects.warm",
    "sa.rejects.cold",
    "deadline.polls",
    "svc.requests",
    "svc.rejected",
    "svc.cache.hits",
    "svc.cache.misses",
    "svc.cache.evictions",
    "svc.coalesced",
    "svc.conn.accepted",
    "svc.conn.closed",
    "svc.conn.slow_closed",
    "svc.conn.rejected",
    "svc.quota_rejected",
    "svc.cache.restored",
    "svc.cache.journal_bytes",
    "svc.cache.compactions",
    "svc.brownout.entered",
    "svc.brownout.restored",
    "svc.brownout.shed",
    "svc.mutate.ok",
    "svc.mutate.rejected",
    "svc.solve.warm",
    "svc.solve.warm_fallback",
    "svc.graphstore.evictions",
    "svc.lineage.restored",
    "po.passes",
    "po.paths",
    "po.flips_proposed",
    "po.flips_applied",
    "svc.quality.fast",
    "svc.quality.balanced",
    "svc.quality.best",
    "svc.solve_by.ckl",
    "svc.solve_by.csa",
    "svc.solve_by.kl",
    "svc.solve_by.sa",
    "svc.solve_by.mlkl",
    "svc.solve_by.path",
    "svc.solve_by.greedy_hc",
    "svc.solve_by.other",
    "svc.trace.spans",
    "svc.trace.exports",
};

constexpr const char* kHistNames[kNumHists] = {
    "kl.pass_improvement",
    "fm.pass_improvement",
    "sa.temp_acceptance_pct",
    "svc.request_latency_us",
    "svc.solve_latency_us",
    "svc.queue_wait_us",
};

constexpr const char* kGaugeNames[kNumGauges] = {
    "svc.queue_depth",
    "svc.inflight",
    "svc.cache.bytes",
    "svc.batch.size",
    "svc.connections",
    "svc.brownout_level",
    "svc.graphstore.bytes",
    "svc.graphstore.entries",
    "svc.flight.ring",
};

constexpr const char* kPhaseNames[kNumPhases] = {
    "gen",
    "compact",
    "bisect",
    "uncoalesce",
    "refine",
};

constexpr const char* kTraceSourceNames[] = {"kl", "sa", "fm", "po"};

}  // namespace

const char* counter_name(Counter counter) {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

bool counter_from_name(const std::string& name, Counter& out) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (name == kCounterNames[i]) {
      out = static_cast<Counter>(i);
      return true;
    }
  }
  return false;
}

const char* hist_name(Hist hist) {
  return kHistNames[static_cast<std::size_t>(hist)];
}

bool hist_from_name(const std::string& name, Hist& out) {
  for (std::size_t i = 0; i < kNumHists; ++i) {
    if (name == kHistNames[i]) {
      out = static_cast<Hist>(i);
      return true;
    }
  }
  return false;
}

const char* gauge_name(Gauge gauge) {
  return kGaugeNames[static_cast<std::size_t>(gauge)];
}

bool gauge_from_name(const std::string& name, Gauge& out) {
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (name == kGaugeNames[i]) {
      out = static_cast<Gauge>(i);
      return true;
    }
  }
  return false;
}

const char* phase_name(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

const char* trace_source_name(TraceSource source) {
  return kTraceSourceNames[static_cast<std::size_t>(source)];
}

SaStage sa_stage(double temperature, double initial_temperature) {
  if (temperature >= 0.5 * initial_temperature) return SaStage::kHot;
  if (temperature >= 0.05 * initial_temperature) return SaStage::kWarm;
  return SaStage::kCold;
}

std::uint64_t HistData::total() const {
  return std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0});
}

double hist_bucket_representative(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  // Midpoint of [2^(b-1), 2^b - 1].
  const double lo = std::ldexp(1.0, static_cast<int>(bucket) - 1);
  return lo + (lo - 1.0) / 2.0;
}

double hist_percentile(const HistData& hist, double p) {
  const std::uint64_t n = hist.total();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Order statistic k of the implied sorted sample, read off the
  // cumulative bucket counts.
  const auto order_stat = [&hist](std::uint64_t k) {
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      cumulative += hist.buckets[b];
      if (cumulative > k) return hist_bucket_representative(b);
    }
    return hist_bucket_representative(hist.buckets.size() - 1);
  };
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double lo_value = order_stat(lo);
  if (frac == 0.0) return lo_value;
  return lo_value + frac * (order_stat(lo + 1) - lo_value);
}

HistSummary summarize_hist(const HistData& hist) {
  HistSummary summary;
  summary.count = hist.total();
  summary.sum = hist.sum;
  summary.p50 = hist_percentile(hist, 50);
  summary.p90 = hist_percentile(hist, 90);
  summary.p99 = hist_percentile(hist, 99);
  return summary;
}

bool TrialMetrics::summary_empty() const {
  for (std::uint64_t c : counters) {
    if (c != 0) return false;
  }
  for (const HistData& h : hists) {
    if (!h.empty()) return false;
  }
  for (std::int64_t g : gauges) {
    if (g != 0) return false;
  }
  return true;
}

void merge_metric_summaries(TrialMetrics& into, const TrialMetrics& from) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    into.counters[i] += from.counters[i];
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    for (std::size_t b = 0; b < into.hists[i].buckets.size(); ++b) {
      into.hists[i].buckets[b] += from.hists[i].buckets[b];
    }
    into.hists[i].sum += from.hists[i].sum;
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    into.gauges[i] = std::max(into.gauges[i], from.gauges[i]);
  }
}

MetricsSink::MetricsSink(TrialMetrics* dest, std::uint32_t trace_capacity)
    : dest_(dest), trace_capacity_(trace_capacity == 0 ? 1 : trace_capacity) {}

void MetricsSink::trace_point(TraceSource source, std::int64_t cut,
                              double aux) {
#ifndef GBIS_DISABLE_OBS
  if (dest_ == nullptr) return;
  if (!have_best_ || cut < best_cut_) {
    best_cut_ = cut;
    have_best_ = true;
  }
  const std::uint64_t ordinal = trace_ordinal_++;
  if (ordinal % trace_stride_ != 0) return;
  if (dest_->trace.size() >= trace_capacity_) {
    // Decimate: keep every other held point (the ones whose ordinal is
    // a multiple of the doubled stride) and double the stride. Purely
    // a function of the offered sequence, so thread-count invariant.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < dest_->trace.size(); i += 2) {
      dest_->trace[kept++] = dest_->trace[i];
    }
    dest_->trace.resize(kept);
    trace_stride_ *= 2;
    if (ordinal % trace_stride_ != 0) return;
  }
  dest_->trace.push_back(
      TracePoint{ordinal, source, cut, best_cut_, aux});
#else
  (void)source;
  (void)cut;
  (void)aux;
#endif
}

void MetricsSink::begin_phase(Phase p) {
#ifndef GBIS_DISABLE_OBS
  if (dest_ == nullptr) return;
  phase_start_[static_cast<std::size_t>(p)] = timer_.elapsed_seconds();
#else
  (void)p;
#endif
}

void MetricsSink::end_phase(Phase p) {
#ifndef GBIS_DISABLE_OBS
  if (dest_ == nullptr) return;
  const double start = phase_start_[static_cast<std::size_t>(p)];
  const double now = timer_.elapsed_seconds();
  dest_->phases.push_back(PhaseSpan{p, start, now - start});
#else
  (void)p;
#endif
}

ObsOptions obs_options_from_env(ObsOptions base) {
  if (const char* v = std::getenv("GBIS_METRICS"); v != nullptr) {
    if (*v == '\0') {
      warn_rejected("GBIS_METRICS", v);
    } else {
      base.metrics_path = v;
    }
  }
  if (const char* v = std::getenv("GBIS_TRACE_DIR"); v != nullptr) {
    if (*v == '\0') {
      warn_rejected("GBIS_TRACE_DIR", v);
    } else {
      base.trace_dir = v;
    }
  }
  if (const char* v = std::getenv("GBIS_PROGRESS"); v != nullptr) {
    const std::string_view s(v);
    if (s == "1" || s == "true") {
      base.progress = true;
    } else if (s == "0" || s == "false") {
      base.progress = false;
    } else {
      warn_rejected("GBIS_PROGRESS", v);
    }
  }
  return base;
}

namespace {

void write_double(std::ostream& out, double v) {
  const auto precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  out.precision(precision);
}

void write_distribution(std::ostream& out, const char* name, double min,
                        double max, double mean, double p50, double p90,
                        double p99, bool with_p99) {
  out << "\"" << name << "\":{\"min\":";
  write_double(out, min);
  out << ",\"max\":";
  write_double(out, max);
  out << ",\"mean\":";
  write_double(out, mean);
  out << ",\"p50\":";
  write_double(out, p50);
  out << ",\"p90\":";
  write_double(out, p90);
  if (with_p99) {
    out << ",\"p99\":";
    write_double(out, p99);
  }
  out << "}";
}

}  // namespace

void write_metrics_json(std::ostream& out, const MetricsReport& report) {
  out << "{\"schema\":\"gbis-metrics-v1\"";
  out << ",\"trials\":" << report.trials;
  out << ",\"collected\":" << report.collected;
  out << ",\"ok\":" << report.ok;
  out << ",\"failed\":" << report.failed;
  out << ",\"timed_out\":" << report.timed_out;
  out << ",\"skipped\":" << report.skipped;
  out << ",";
  write_distribution(out, "cpu_seconds", report.cpu_min, report.cpu_max,
                     report.cpu_mean, report.cpu_p50, report.cpu_p90,
                     report.cpu_p99, /*with_p99=*/true);
  out << ",";
  write_distribution(out, "cut", report.cut_min, report.cut_max,
                     report.cut_mean, report.cut_p50, report.cut_p90, 0,
                     /*with_p99=*/false);
  out << ",\"counters\":{";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (i != 0) out << ",";
    out << "\"" << kCounterNames[i] << "\":" << report.totals.counters[i];
  }
  out << "},\"gauges\":{";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (i != 0) out << ",";
    out << "\"" << kGaugeNames[i] << "\":" << report.totals.gauges[i];
  }
  out << "},\"hists\":{";
  bool first = true;
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const HistData& h = report.totals.hists[i];
    if (h.empty()) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << kHistNames[i] << "\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out << ",";
      first_bucket = false;
      out << "[" << b << "," << h.buckets[b] << "]";
    }
    out << "]";
  }
  out << "}}\n";
}

}  // namespace gbis
