// Observability suite: the metrics registry, the bounded convergence
// trace and its JSONL/CSV export, the Chrome trace-event export, the
// progress meter, and the journaled metric summaries. The load-bearing
// property throughout: counters, histograms, and trace points of trial
// t are pure functions of (seed, t), so every deterministic artifact —
// merged summaries, metrics JSON, convergence files — is bit-identical
// for any thread count, and a killed-and-resumed campaign reproduces
// the metric summaries of an uninterrupted run exactly.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/gen/gnp.hpp"
#include "gbis/harness/checkpoint.hpp"
#include "gbis/harness/fault_injection.hpp"
#include "gbis/harness/parallel_runner.hpp"
#include "gbis/harness/shutdown.hpp"
#include "gbis/harness/stats.hpp"
#include "gbis/io/io_error.hpp"
#include "gbis/obs/flight_recorder.hpp"
#include "gbis/obs/metrics.hpp"
#include "gbis/obs/progress.hpp"
#include "gbis/obs/prom_export.hpp"
#include "gbis/obs/span.hpp"
#include "gbis/obs/trace.hpp"
#include "gbis/obs/trace_export.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {
namespace {

RunConfig fast_config(std::uint32_t starts, std::uint32_t threads) {
  RunConfig config;
  config.starts = starts;
  config.threads = threads;
  config.sa.temperature_length_factor = 2.0;
  config.sa.cooling_ratio = 0.85;
  return config;
}

Graph test_graph() {
  Rng rng(7);
  return make_gnp(96, gnp_p_for_degree(96, 3.0), rng);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// --- MetricsSink -----------------------------------------------------------

TEST(MetricsSink, NullSinkRecordsNothingAndNeverCrashes) {
  MetricsSink sink;  // unbound
  EXPECT_FALSE(sink.bound());
  sink.add(Counter::kKlPasses);
  sink.add(Counter::kFmBucketOps, 100);
  sink.observe(Hist::kKlPassImprovement, 7);
  sink.trace_point(TraceSource::kKl, 42);
  sink.begin_phase(Phase::kGen);
  sink.end_phase(Phase::kGen);
  { const ScopedPhase phase(&sink, Phase::kRefine); }
  { const ScopedPhase phase(nullptr, Phase::kRefine); }
}

TEST(MetricsSink, BoundSinkAccumulates) {
  TrialMetrics tm;
  MetricsSink sink(&tm);
  EXPECT_TRUE(sink.bound());
  EXPECT_TRUE(tm.summary_empty());
  sink.add(Counter::kKlPasses);
  sink.add(Counter::kKlPasses, 2);
  sink.observe(Hist::kKlPassImprovement, 5);  // bucket bit_width(5) = 3
  EXPECT_EQ(tm.counter(Counter::kKlPasses), 3u);
  EXPECT_EQ(tm.hist(Hist::kKlPassImprovement).buckets[3], 1u);
  EXPECT_EQ(tm.hist(Hist::kKlPassImprovement).total(), 1u);
  EXPECT_FALSE(tm.summary_empty());
}

TEST(MetricsSink, GaugesSetAddAndNullSink) {
  MetricsSink null_sink;  // unbound: every gauge call is a no-op
  null_sink.set_gauge(Gauge::kSvcQueueDepth, 42);
  null_sink.add_gauge(Gauge::kSvcInflight, 1);

  TrialMetrics tm;
  MetricsSink sink(&tm);
  EXPECT_EQ(tm.gauge(Gauge::kSvcQueueDepth), 0);
  sink.set_gauge(Gauge::kSvcQueueDepth, 7);
  EXPECT_EQ(tm.gauge(Gauge::kSvcQueueDepth), 7);
  sink.set_gauge(Gauge::kSvcQueueDepth, 3);  // set overwrites, no max
  EXPECT_EQ(tm.gauge(Gauge::kSvcQueueDepth), 3);
  sink.add_gauge(Gauge::kSvcInflight, 2);
  sink.add_gauge(Gauge::kSvcInflight, -1);
  EXPECT_EQ(tm.gauge(Gauge::kSvcInflight), 1);
  // A nonzero gauge alone makes the summary non-empty.
  EXPECT_FALSE(tm.summary_empty());
}

TEST(MetricsSink, TracePointTracksRunningBest) {
  TrialMetrics tm;
  MetricsSink sink(&tm);
  sink.trace_point(TraceSource::kKl, 10);
  sink.trace_point(TraceSource::kKl, 6);
  sink.trace_point(TraceSource::kSa, 8, /*aux=*/2.5);
  ASSERT_EQ(tm.trace.size(), 3u);
  EXPECT_EQ(tm.trace[0].best, 10);
  EXPECT_EQ(tm.trace[1].best, 6);
  EXPECT_EQ(tm.trace[2].cut, 8);
  EXPECT_EQ(tm.trace[2].best, 6);  // best is the running min over sources
  EXPECT_DOUBLE_EQ(tm.trace[2].aux, 2.5);
}

TEST(MetricsSink, TraceDecimationIsBoundedAndDeterministic) {
  // Offer far more points than the capacity: the trace must stay within
  // capacity, keep step 0, stay strictly increasing in step, and be a
  // pure function of the offered sequence.
  constexpr std::uint32_t kCapacity = 16;
  constexpr std::int64_t kOffered = 1000;
  auto record = [&] {
    TrialMetrics tm;
    MetricsSink sink(&tm, kCapacity);
    for (std::int64_t i = 0; i < kOffered; ++i) {
      sink.trace_point(TraceSource::kKl, kOffered - i);
    }
    return tm.trace;
  };
  const std::vector<TracePoint> a = record();
  const std::vector<TracePoint> b = record();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  EXPECT_LE(a.size(), kCapacity);
  EXPECT_EQ(a.front().step, 0u);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1].step, a[i].step);
  }
}

TEST(SaStageBuckets, SplitAtHalfAndTwentiethOfT0) {
  EXPECT_EQ(sa_stage(10.0, 10.0), SaStage::kHot);
  EXPECT_EQ(sa_stage(5.0, 10.0), SaStage::kHot);
  EXPECT_EQ(sa_stage(4.99, 10.0), SaStage::kWarm);
  EXPECT_EQ(sa_stage(0.5, 10.0), SaStage::kWarm);
  EXPECT_EQ(sa_stage(0.49, 10.0), SaStage::kCold);
}

TEST(MetricNames, RoundTripThroughReverseLookup) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    Counter back = Counter::kCount;
    ASSERT_TRUE(counter_from_name(counter_name(c), back)) << counter_name(c);
    EXPECT_EQ(back, c);
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const auto h = static_cast<Hist>(i);
    Hist back = Hist::kCount;
    ASSERT_TRUE(hist_from_name(hist_name(h), back)) << hist_name(h);
    EXPECT_EQ(back, h);
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const auto g = static_cast<Gauge>(i);
    Gauge back = Gauge::kCount;
    ASSERT_TRUE(gauge_from_name(gauge_name(g), back)) << gauge_name(g);
    EXPECT_EQ(back, g);
  }
  Counter c;
  EXPECT_FALSE(counter_from_name("no.such.counter", c));
  Hist h;
  EXPECT_FALSE(hist_from_name("no.such.hist", h));
  Gauge g;
  EXPECT_FALSE(gauge_from_name("no.such.gauge", g));
}

// --- Histogram summaries ---------------------------------------------------

// hist_percentile must agree with harness/stats.hpp percentile() run
// over the histogram's implied sample (each bucket's count at its
// representative value) — same rank convention, same interpolation.
TEST(HistSummary, PercentilesMatchStatsPercentileConvention) {
  HistData hist;
  const std::uint64_t observed[] = {0, 0, 1, 2, 3, 3, 5, 9, 17, 100, 900};
  std::vector<double> implied;
  for (const std::uint64_t v : observed) {
    hist.observe(v);
  }
  for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
    for (std::uint64_t n = 0; n < hist.buckets[b]; ++n) {
      implied.push_back(hist_bucket_representative(b));
    }
  }
  ASSERT_EQ(implied.size(), std::size(observed));
  for (const double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(hist_percentile(hist, p), percentile(implied, p))
        << "p" << p;
  }
  // Out-of-range p clamps exactly like percentile() does.
  EXPECT_DOUBLE_EQ(hist_percentile(hist, -5.0), percentile(implied, 0.0));
  EXPECT_DOUBLE_EQ(hist_percentile(hist, 250.0), percentile(implied, 100.0));

  const HistSummary summary = summarize_hist(hist);
  EXPECT_EQ(summary.count, std::size(observed));
  EXPECT_EQ(summary.sum, 0u + 0 + 1 + 2 + 3 + 3 + 5 + 9 + 17 + 100 + 900);
  EXPECT_DOUBLE_EQ(summary.p50, percentile(implied, 50.0));
  EXPECT_DOUBLE_EQ(summary.p90, percentile(implied, 90.0));
  EXPECT_DOUBLE_EQ(summary.p99, percentile(implied, 99.0));
}

TEST(HistSummary, EmptyAndSingletonEdges) {
  const HistData empty;
  EXPECT_DOUBLE_EQ(hist_percentile(empty, 50.0), 0.0);
  const HistSummary none = summarize_hist(empty);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.sum, 0u);
  EXPECT_DOUBLE_EQ(none.p50, 0.0);

  HistData one;
  one.observe(6);  // bucket 3: [4,7], representative 5.5
  EXPECT_DOUBLE_EQ(hist_percentile(one, 0.0), 5.5);
  EXPECT_DOUBLE_EQ(hist_percentile(one, 50.0), 5.5);
  EXPECT_DOUBLE_EQ(hist_percentile(one, 100.0), 5.5);

  // Zero-valued observations live in their own exact bucket.
  HistData zeros;
  zeros.observe(0);
  zeros.observe(0);
  EXPECT_DOUBLE_EQ(hist_percentile(zeros, 100.0), 0.0);
  EXPECT_EQ(summarize_hist(zeros).count, 2u);
}

TEST(MetricMerge, GaugesFoldByMaxAndHistSumsAdd) {
  TrialMetrics a, b;
  a.gauges[static_cast<std::size_t>(Gauge::kSvcQueueDepth)] = 3;
  b.gauges[static_cast<std::size_t>(Gauge::kSvcQueueDepth)] = 9;
  a.gauges[static_cast<std::size_t>(Gauge::kSvcCacheBytes)] = 100;
  a.hists[static_cast<std::size_t>(Hist::kSvcRequestLatencyUs)].observe(40);
  b.hists[static_cast<std::size_t>(Hist::kSvcRequestLatencyUs)].observe(60);
  merge_metric_summaries(a, b);
  EXPECT_EQ(a.gauge(Gauge::kSvcQueueDepth), 9);   // max wins
  EXPECT_EQ(a.gauge(Gauge::kSvcCacheBytes), 100);  // absent-in-b keeps a
  const HistData& merged =
      a.hist(Hist::kSvcRequestLatencyUs);
  EXPECT_EQ(merged.total(), 2u);
  EXPECT_EQ(merged.sum, 100u);
}

// Minimal structural JSON check: balanced {} / [] outside strings and
// a clean end. Enough to catch every way the hand-rolled writers could
// emit a torn file, without a JSON dependency.
void check_balanced_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        ASSERT_FALSE(stack.empty()) << "unbalanced at byte " << i;
        ASSERT_EQ(stack.back(), c) << "mismatched at byte " << i;
        stack.pop_back();
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_TRUE(stack.empty());
}

// --- Prometheus exposition -------------------------------------------------

TEST(PromExport, MetricNameMapping) {
  EXPECT_EQ(prom_metric_name("kl.passes"), "gbis_kl_passes");
  EXPECT_EQ(prom_metric_name("svc.cache.bytes"), "gbis_svc_cache_bytes");
  EXPECT_EQ(prom_metric_name("svc.request_latency_us"),
            "gbis_svc_request_latency_us");
}

TEST(PromExport, ExpositionCoversCatalogWithCumulativeBuckets) {
  TrialMetrics tm;
  tm.counters[static_cast<std::size_t>(Counter::kSvcRequests)] = 5;
  tm.gauges[static_cast<std::size_t>(Gauge::kSvcQueueDepth)] = 3;
  HistData& latency =
      tm.hists[static_cast<std::size_t>(Hist::kSvcRequestLatencyUs)];
  latency.observe(0);   // bucket 0, le="0"
  latency.observe(3);   // bucket 2, le="3"
  latency.observe(3);
  latency.observe(12);  // bucket 4, le="15"
  std::ostringstream out;
  write_prom_exposition(out, tm);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE gbis_svc_requests_total counter\n"
                      "gbis_svc_requests_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gbis_svc_queue_depth gauge\n"
                      "gbis_svc_queue_depth 3\n"),
            std::string::npos);
  // Histogram: cumulative counts over contiguous log2 buckets, then
  // +Inf == _count, and _sum is the exact sum of observed values.
  EXPECT_NE(text.find("# TYPE gbis_svc_request_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("gbis_svc_request_latency_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("gbis_svc_request_latency_us_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("gbis_svc_request_latency_us_bucket{le=\"15\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("gbis_svc_request_latency_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("gbis_svc_request_latency_us_sum 18\n"),
            std::string::npos);
  EXPECT_NE(text.find("gbis_svc_request_latency_us_count 4\n"),
            std::string::npos);
  // Empty histograms are omitted entirely (no torn TYPE headers).
  EXPECT_EQ(text.find("gbis_kl_pass_improvement"), std::string::npos);
  // Every counter appears even at zero — scrapers want a stable set.
  EXPECT_NE(text.find("gbis_kl_passes_total 0\n"), std::string::npos);
}

TEST(PromExport, ExpositionIsDeterministic) {
  TrialMetrics tm;
  tm.counters[static_cast<std::size_t>(Counter::kSvcRequests)] = 2;
  tm.hists[static_cast<std::size_t>(Hist::kSvcSolveLatencyUs)].observe(77);
  std::ostringstream a, b;
  write_prom_exposition(a, tm);
  write_prom_exposition(b, tm);
  EXPECT_EQ(a.str(), b.str());
}

TEST(MetricsJson, CarriesGaugesBlock) {
  MetricsReport report;
  report.trials = 1;
  report.totals.gauges[static_cast<std::size_t>(Gauge::kSvcQueueDepth)] = 4;
  std::ostringstream out;
  write_metrics_json(out, report);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\":\"gbis-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"svc.queue_depth\":4"), std::string::npos);
  check_balanced_json(json);
}

// --- Serve Chrome trace from span sets --------------------------------------

// A completed set lasting `seconds` from accept to write, with one
// solve span and one kl.pass sub-span (step and cut payloads).
SpanSet timed_set(std::uint64_t seq, std::string id, double start,
                  double seconds) {
  SpanSet set;
  set.trace_id = 0xab00 + seq;
  set.seq = seq;
  set.id = std::move(id);
  set.op = "solve";
  set.status = "ok";
  const auto span = [&](const char* name, double at, double dur) {
    SpanRec rec;
    rec.name = name;
    rec.start_seconds = at;
    rec.duration_seconds = dur;
    set.spans.push_back(rec);
    return &set.spans.back();
  };
  span("accept", start, 0);
  span("solve", start + 0.0002, seconds - 0.0004);
  SpanRec* pass = span("kl.pass", start + 0.0003, 0.0001);
  pass->step = 1;
  pass->has_step = true;
  pass->value = 12;
  pass->has_value = true;
  span("write", start + seconds, 0);
  return set;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(SpanTrace, RequestEventLeadsEachSetAndTheFilterDropsShortSets) {
  std::deque<SpanSet> sets;
  sets.push_back(timed_set(3, "slow \"a\"", 0.010, 0.006));  // 6 ms
  sets.push_back(timed_set(4, "", 0.020, 0.001));             // 1 ms

  std::ostringstream all;
  write_span_trace(all, sets, -1);  // unset filter: every set
  const std::string text = all.str();
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  check_balanced_json(text);
  EXPECT_EQ(count_of(text, "\"cat\":\"request\""), 2u);
  EXPECT_EQ(count_of(text, "\"cat\":\"span\""), 8u);
  // The request event carries the set's identity (the id escaped by
  // the shared JSON writer) and leads that set's spans.
  const std::size_t request = text.find(
      "\"args\":{\"trace\":\"000000000000ab03\",\"seq\":3,"
      "\"id\":\"slow \\\"a\\\"\",\"op\":\"solve\",\"status\":\"ok\"}");
  ASSERT_NE(request, std::string::npos) << text;
  EXPECT_NE(text.find("\"name\":\"req 3 slow \\\"a\\\"\""), std::string::npos);
  const std::size_t pass = text.find(
      "\"name\":\"kl.pass\",\"cat\":\"span\"");
  ASSERT_NE(pass, std::string::npos);
  EXPECT_LT(request, pass);
  EXPECT_NE(text.find("\"args\":{\"trace\":\"000000000000ab03\",\"seq\":3,"
                      "\"step\":1,\"cut\":12}"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"req 4\""), std::string::npos);

  // A 2 ms filter keeps the 6 ms set and drops the 1 ms one.
  std::ostringstream filtered;
  write_span_trace(filtered, sets, 2.0);
  const std::string kept = filtered.str();
  check_balanced_json(kept);
  EXPECT_EQ(count_of(kept, "\"cat\":\"request\""), 1u);
  EXPECT_EQ(count_of(kept, "\"cat\":\"span\""), 4u);
  EXPECT_NE(kept.find("\"seq\":3"), std::string::npos);
  EXPECT_EQ(kept.find("\"seq\":4"), std::string::npos);

  std::ostringstream empty;
  write_span_trace(empty, {}, -1);
  check_balanced_json(empty.str());
  EXPECT_EQ(empty.str().find("\"cat\""), std::string::npos);
}

// --- Collection through the trial runner -----------------------------------

std::vector<TrialResult> run_collected(std::uint32_t threads,
                                       std::uint64_t seed = 11) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl, Method::kSa, Method::kFm,
                            Method::kCkl};
  RunConfig config = fast_config(2, threads);
  config.obs.collect = true;
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);
  return run_trials(graphs, trials, config, seed, threads);
}

TEST(ObsCollection, EveryExecutedTrialCarriesMetrics) {
  const std::vector<TrialResult> results = run_collected(2);
  ASSERT_EQ(results.size(), 8u);
  for (const TrialResult& r : results) {
    ASSERT_EQ(r.status, TrialStatus::kOk);
    ASSERT_NE(r.metrics, nullptr);
    EXPECT_FALSE(r.metrics->summary_empty());
    EXPECT_FALSE(r.metrics->trace.empty());
    EXPECT_FALSE(r.metrics->phases.empty());
    EXPECT_GE(r.metrics->wall_seconds, 0.0);
  }
  // Method-specific counters land where they should (trial order is
  // method-major over KL, SA, FM, CKL with 2 starts each).
  EXPECT_GT(results[0].metrics->counter(Counter::kKlPasses), 0u);
  EXPECT_GT(results[0].metrics->counter(Counter::kKlPairsSelected), 0u);
  EXPECT_GT(results[2].metrics->counter(Counter::kSaTemperatures), 0u);
  EXPECT_GT(results[2].metrics->counter(Counter::kSaProposalsHot) +
                results[2].metrics->counter(Counter::kSaProposalsWarm) +
                results[2].metrics->counter(Counter::kSaProposalsCold),
            0u);
  EXPECT_GT(results[4].metrics->counter(Counter::kFmMovesConsidered), 0u);
  EXPECT_GT(results[4].metrics->counter(Counter::kFmBucketOps), 0u);
  // CKL runs KL on the coarse and fine graphs and stamps
  // compact/bisect/uncoalesce/refine phases.
  EXPECT_GT(results[6].metrics->counter(Counter::kKlPasses), 0u);
  bool saw_compact = false;
  for (const PhaseSpan& span : results[6].metrics->phases) {
    if (span.phase == Phase::kCompact) saw_compact = true;
  }
  EXPECT_TRUE(saw_compact);
}

TEST(ObsCollection, DisabledObsRecordsNothing) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  const RunConfig config = fast_config(2, 2);  // obs untouched: disabled
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);
  const std::vector<TrialResult> results =
      run_trials(graphs, trials, config, /*seed=*/11, config.threads);
  for (const TrialResult& r : results) {
    EXPECT_EQ(r.metrics, nullptr);
  }
}

// The determinism tentpole: the deterministic half of TrialMetrics is
// bit-identical at 1 and 8 threads, and so is everything derived from
// it (merged report, metrics JSON, convergence JSONL/CSV).
TEST(ObsDeterminism, MetricsBitIdenticalAcrossThreadCounts) {
  const std::vector<TrialResult> serial = run_collected(1);
  const std::vector<TrialResult> parallel = run_collected(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    ASSERT_NE(serial[t].metrics, nullptr);
    ASSERT_NE(parallel[t].metrics, nullptr);
    EXPECT_EQ(serial[t].cut, parallel[t].cut) << "trial " << t;
    EXPECT_EQ(serial[t].metrics->counters, parallel[t].metrics->counters)
        << "trial " << t;
    for (std::size_t h = 0; h < kNumHists; ++h) {
      EXPECT_EQ(serial[t].metrics->hists[h].buckets,
                parallel[t].metrics->hists[h].buckets)
          << "trial " << t << " hist " << h;
    }
    EXPECT_EQ(serial[t].metrics->trace, parallel[t].metrics->trace)
        << "trial " << t;
  }

  const Method methods[] = {Method::kKl, Method::kSa, Method::kFm,
                            Method::kCkl};
  const std::vector<TrialSpec> trials = enumerate_trial_matrix(1, methods, 2);
  std::ostringstream json1, json8;
  write_convergence_jsonl(json1, serial, trials);
  write_convergence_jsonl(json8, parallel, trials);
  EXPECT_EQ(json1.str(), json8.str());
  std::ostringstream csv1, csv8;
  write_convergence_csv(csv1, serial, trials);
  write_convergence_csv(csv8, parallel, trials);
  EXPECT_EQ(csv1.str(), csv8.str());

  // The aggregated counters/hists are identical, so the metrics JSON
  // differs only in the CPU-seconds distribution — zero both out to
  // compare the rest byte-for-byte.
  MetricsReport report1 = build_metrics_report(serial);
  MetricsReport report8 = build_metrics_report(parallel);
  EXPECT_EQ(report1.totals.counters, report8.totals.counters);
  report1.cpu_min = report1.cpu_max = report1.cpu_mean = 0;
  report1.cpu_p50 = report1.cpu_p90 = report1.cpu_p99 = 0;
  report8.cpu_min = report8.cpu_max = report8.cpu_mean = 0;
  report8.cpu_p50 = report8.cpu_p90 = report8.cpu_p99 = 0;
  std::ostringstream metrics1, metrics8;
  write_metrics_json(metrics1, report1);
  write_metrics_json(metrics8, report8);
  EXPECT_EQ(metrics1.str(), metrics8.str());
}

// --- Convergence export ----------------------------------------------------

TEST(ConvergenceTrace, JsonlRoundTrips) {
  const std::vector<TrialResult> results = run_collected(2);
  const Method methods[] = {Method::kKl, Method::kSa, Method::kFm,
                            Method::kCkl};
  const std::vector<TrialSpec> trials = enumerate_trial_matrix(1, methods, 2);

  std::ostringstream out;
  write_convergence_jsonl(out, results, trials);

  // Reconstruct the expected lines straight from the in-memory traces.
  std::vector<ConvergenceLine> expected;
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (const TracePoint& p : results[i].metrics->trace) {
      expected.push_back({i, trials[i].graph_index,
                          method_name(trials[i].method),
                          trials[i].start_index, p});
    }
  }
  ASSERT_FALSE(expected.empty());

  std::istringstream in(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(n, expected.size());
    EXPECT_EQ(parse_convergence_line(line), expected[n]) << line;
    ++n;
  }
  EXPECT_EQ(n, expected.size());
}

TEST(ConvergenceTrace, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_convergence_line("not json"), IoError);
  EXPECT_THROW(parse_convergence_line("{\"trial\":0}"), IoError);
  EXPECT_THROW(
      parse_convergence_line(
          "{\"trial\":0,\"graph\":0,\"method\":\"KL\",\"start\":0,"
          "\"step\":1,\"source\":\"volcano\",\"cut\":3,\"best\":3,"
          "\"aux\":0}"),
      IoError);
}

// --- Chrome trace ----------------------------------------------------------

TEST(ChromeTrace, IsStructurallyValidWithNestedNonOverlappingSpans) {
  const std::vector<TrialResult> results = run_collected(4);
  const Method methods[] = {Method::kKl, Method::kSa, Method::kFm,
                            Method::kCkl};
  const std::vector<TrialSpec> trials = enumerate_trial_matrix(1, methods, 2);
  std::ostringstream out;
  write_chrome_trace(out, results, trials);
  const std::string text = out.str();

  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  check_balanced_json(text);

  // Span structure from the source of truth the writer serializes:
  // phases nest inside their trial span, and trial spans on one worker
  // lane never overlap (a worker runs one trial at a time).
  constexpr double kSlack = 1e-6;  // timer-read ordering slack, seconds
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> lanes;
  for (const TrialResult& r : results) {
    ASSERT_NE(r.metrics, nullptr);
    const TrialMetrics& tm = *r.metrics;
    for (const PhaseSpan& span : tm.phases) {
      EXPECT_GE(span.start_seconds, -kSlack);
      EXPECT_GE(span.duration_seconds, 0.0);
      EXPECT_LE(span.start_seconds + span.duration_seconds,
                tm.wall_seconds + kSlack);
    }
    lanes[tm.tid].push_back({tm.start_offset_seconds,
                             tm.start_offset_seconds + tm.wall_seconds});
  }
  EXPECT_FALSE(lanes.empty());
  for (auto& [tid, spans] : lanes) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].second, spans[i].first + kSlack)
          << "overlapping trials on lane " << tid;
    }
  }
}

TEST(ChromeTrace, IncludesFailedTrialsWithErrorArgs) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  RunConfig config = fast_config(2, 1);
  config.obs.collect = true;
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);
  const FaultPlan faults = FaultPlan::parse("throw@trial:0");
  TrialRunOptions options;
  options.faults = &faults;
  const std::vector<TrialResult> results =
      run_trials_ex(graphs, trials, config, /*seed=*/11, 1, options);
  ASSERT_EQ(results[0].status, TrialStatus::kFailed);
  ASSERT_NE(results[0].metrics, nullptr);  // failed trials still traced

  std::ostringstream out;
  write_chrome_trace(out, results, trials);
  EXPECT_NE(out.str().find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(out.str().find("\"error\":"), std::string::npos);
  check_balanced_json(out.str());
}

// --- File export + env knobs -----------------------------------------------

TEST(ObsExport, WritesMetricsAndTraceFiles) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl, Method::kSa};
  RunConfig config = fast_config(2, 2);
  config.obs.metrics_path = temp_path("obs_export_metrics.json");
  config.obs.trace_dir = temp_path("obs_export_traces");
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);
  const std::vector<TrialResult> results =
      run_trials(graphs, trials, config, /*seed=*/3, config.threads);
  ASSERT_EQ(results.size(), 4u);

  std::ifstream metrics(config.obs.metrics_path);
  ASSERT_TRUE(metrics.good());
  std::string json((std::istreambuf_iterator<char>(metrics)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"schema\":\"gbis-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kl.passes\":"), std::string::npos);
  check_balanced_json(json);

  for (const char* name :
       {"/convergence.jsonl", "/convergence.csv", "/trace.json"}) {
    std::ifstream file(config.obs.trace_dir + name);
    EXPECT_TRUE(file.good()) << name;
  }
}

TEST(ObsExport, UnwritableDestinationThrowsIoError) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  RunConfig config = fast_config(1, 1);
  config.obs.metrics_path = temp_path("no_such_dir/metrics.json");
  const std::vector<TrialSpec> trials = enumerate_trial_matrix(1, methods, 1);
  EXPECT_THROW(run_trials(graphs, trials, config, /*seed=*/3, 1), IoError);
}

TEST(ObsOptionsEnv, ParsesAndWarnsOnMalformed) {
  ::setenv("GBIS_METRICS", "/tmp/m.json", 1);
  ::setenv("GBIS_TRACE_DIR", "/tmp/traces", 1);
  ::setenv("GBIS_PROGRESS", "1", 1);
  ObsOptions obs = obs_options_from_env();
  EXPECT_EQ(obs.metrics_path, "/tmp/m.json");
  EXPECT_EQ(obs.trace_dir, "/tmp/traces");
  EXPECT_TRUE(obs.progress);
  EXPECT_TRUE(obs.enabled());

  // Malformed values keep the default and never throw.
  ::setenv("GBIS_PROGRESS", "maybe", 1);
  ::setenv("GBIS_METRICS", "", 1);
  ObsOptions base;
  base.progress = false;
  obs = obs_options_from_env(base);
  EXPECT_FALSE(obs.progress);
  EXPECT_TRUE(obs.metrics_path.empty());

  ::unsetenv("GBIS_METRICS");
  ::unsetenv("GBIS_TRACE_DIR");
  ::unsetenv("GBIS_PROGRESS");
  EXPECT_FALSE(obs_options_from_env().enabled());
}

// --- Progress meter --------------------------------------------------------

TEST(ProgressMeter, CountsAndFinishesOnAnyStream) {
  std::ostringstream out;
  {
    ProgressMeter meter(4, &out, /*min_interval_seconds=*/0.0);
    meter.adopt(ProgressOutcome::kOk);
    meter.record(ProgressOutcome::kOk);
    meter.record(ProgressOutcome::kFailed);
    meter.record(ProgressOutcome::kTimedOut);
    meter.finish();
    meter.finish();  // idempotent
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("4/4 trials"), std::string::npos);
  EXPECT_NE(text.find("ok 2"), std::string::npos);
  EXPECT_NE(text.find("failed 1"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');  // finish() releases the line
}

TEST(ProgressMeter, RequestStyleIsOpenEndedWithRejectedColumn) {
  std::ostringstream out;
  {
    // total 0: a serve stream has no known length, so no "/total", no
    // ETA — the line must stay repaintable forever.
    ProgressMeter meter(0, &out, /*min_interval_seconds=*/0.0,
                       ProgressStyle::kRequests);
    meter.record(ProgressOutcome::kOk);
    meter.record(ProgressOutcome::kSkipped);   // maps to "rejected"
    meter.record(ProgressOutcome::kFailed);    // maps to "err"
    meter.record(ProgressOutcome::kTimedOut);  // also "err"
    meter.finish();
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("4 requests"), std::string::npos);
  EXPECT_NE(text.find("ok 1"), std::string::npos);
  EXPECT_NE(text.find("rejected 1"), std::string::npos);
  EXPECT_NE(text.find("err 2"), std::string::npos);
  EXPECT_NE(text.find("req/s"), std::string::npos);
  EXPECT_EQ(text.find("ETA"), std::string::npos);
  EXPECT_EQ(text.find("trials"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// --- Journaled metric summaries --------------------------------------------

TEST(CheckpointJournal, RoundTripsMetricSummaries) {
  auto tm = std::make_shared<TrialMetrics>();
  tm->counters[static_cast<std::size_t>(Counter::kKlPasses)] = 5;
  tm->counters[static_cast<std::size_t>(Counter::kDeadlinePolls)] = 123;
  tm->hists[static_cast<std::size_t>(Hist::kKlPassImprovement)].observe(9);
  tm->hists[static_cast<std::size_t>(Hist::kKlPassImprovement)].observe(9);
  tm->hists[static_cast<std::size_t>(Hist::kSaTempAcceptancePct)].observe(0);

  const std::string path = temp_path("journal_metrics.jsonl");
  {
    CheckpointJournal journal(path, /*fingerprint=*/1, /*num_trials=*/3);
    journal.append({0, TrialStatus::kOk, 7, 0.5, "", tm});
    // An error whose text mentions "metrics": must not confuse the flat
    // field scanner (it is JSON-escaped in the line).
    journal.append(
        {1, TrialStatus::kFailed, 0, 0.1, "bad \"metrics\": oops", tm});
    journal.append({2, TrialStatus::kOk, 8, 0.2, "", nullptr});
  }
  const CheckpointJournal::Loaded loaded = CheckpointJournal::load(path);
  ASSERT_EQ(loaded.records.size(), 3u);
  for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    ASSERT_NE(loaded.records[i].metrics, nullptr) << i;
    EXPECT_EQ(loaded.records[i].metrics->counters, tm->counters) << i;
    for (std::size_t h = 0; h < kNumHists; ++h) {
      EXPECT_EQ(loaded.records[i].metrics->hists[h].buckets,
                tm->hists[h].buckets)
          << "record " << i << " hist " << h;
    }
  }
  EXPECT_EQ(loaded.records[1].error, "bad \"metrics\": oops");
  EXPECT_EQ(loaded.records[2].metrics, nullptr);
}

// Kill a campaign halfway (stop@trial:N), resume from the journal, and
// require per-trial metric summaries — adopted ones included — to match
// an uninterrupted run exactly.
TEST(Campaign, KillAndResumeReproducesMetricSummaries) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl, Method::kSa, Method::kCkl};
  RunConfig config = fast_config(2, 1);
  config.obs.collect = true;
  const std::uint64_t seed = 21;
  const FaultPlan no_faults;

  CampaignOptions clean;
  clean.faults = &no_faults;
  const CampaignResult reference =
      run_campaign(graphs, methods, config, seed, clean);
  ASSERT_EQ(reference.ok, 6u);

  const std::string path = temp_path("journal_obs_resume.jsonl");
  const FaultPlan stop_plan = FaultPlan::parse("stop@trial:2");
  reset_shutdown();
  CampaignOptions interrupted;
  interrupted.journal_path = path;
  interrupted.stop = &shutdown_flag();
  interrupted.faults = &stop_plan;
  const CampaignResult partial =
      run_campaign(graphs, methods, config, seed, interrupted);
  reset_shutdown();
  ASSERT_TRUE(partial.interrupted);
  ASSERT_GT(partial.ok, 0u);

  CampaignOptions resume;
  resume.journal_path = path;
  resume.resume_path = path;
  resume.faults = &no_faults;
  const CampaignResult resumed =
      run_campaign(graphs, methods, config, seed, resume);
  EXPECT_EQ(resumed.ok, 6u);
  EXPECT_EQ(resumed.resumed, partial.ok);

  ASSERT_EQ(resumed.trials.size(), reference.trials.size());
  for (std::size_t t = 0; t < reference.trials.size(); ++t) {
    ASSERT_NE(reference.trials[t].metrics, nullptr) << t;
    ASSERT_NE(resumed.trials[t].metrics, nullptr) << t;
    EXPECT_EQ(resumed.trials[t].metrics->counters,
              reference.trials[t].metrics->counters)
        << "trial " << t;
    for (std::size_t h = 0; h < kNumHists; ++h) {
      EXPECT_EQ(resumed.trials[t].metrics->hists[h].buckets,
                reference.trials[t].metrics->hists[h].buckets)
          << "trial " << t << " hist " << h;
    }
  }

  // And so the campaign-level fold matches byte-for-byte too (after
  // zeroing the wall-clock CPU distribution).
  MetricsReport ref_report = build_metrics_report(reference.trials);
  MetricsReport res_report = build_metrics_report(resumed.trials);
  EXPECT_EQ(ref_report.totals.counters, res_report.totals.counters);
  for (std::size_t h = 0; h < kNumHists; ++h) {
    EXPECT_EQ(ref_report.totals.hists[h].buckets,
              res_report.totals.hists[h].buckets);
  }
}

// --- Request spans, the flight recorder, and exemplars ----------------------

SpanRec named_span(const std::string& name, std::uint64_t step) {
  SpanRec rec;
  rec.name = name;
  rec.step = step;
  rec.has_step = true;
  return rec;
}

TEST(SpanBuffer, NullBufferDropsEverything) {
  SpanBuffer buffer;
  EXPECT_FALSE(buffer.bound());
  for (int i = 0; i < 100; ++i) buffer.offer(named_span("kl.pass", i));
  // Nothing to assert beyond "did not crash": there is no destination.
}

TEST(SpanBuffer, DecimationIsBoundedAndKeepsTheOfferedPrefixRule) {
  std::vector<SpanRec> dest;
  SpanBuffer buffer(&dest, 8);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    buffer.offer(named_span("sa.temp", i));
  }
  EXPECT_LE(dest.size(), 8u);
  EXPECT_EQ(dest.front().step, 0u);  // ordinal 0 survives every stride
  // Deterministic: the same offered sequence keeps the same subset.
  std::vector<SpanRec> again;
  SpanBuffer rerun(&again, 8);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    rerun.offer(named_span("sa.temp", i));
  }
  ASSERT_EQ(dest.size(), again.size());
  for (std::size_t i = 0; i < dest.size(); ++i) {
    EXPECT_EQ(dest[i].step, again[i].step);
  }
}

SpanSet sample_span_set(std::uint64_t trace_id, std::uint64_t seq) {
  SpanSet set;
  set.trace_id = trace_id;
  set.seq = seq;
  set.id = "r" + std::to_string(seq);
  set.op = "solve";
  SpanRec accept;
  accept.name = "accept";
  accept.start_seconds = 0.001;
  set.spans.push_back(accept);
  SpanRec pass = named_span("kl.pass", 3);
  pass.value = 17;
  pass.has_value = true;
  pass.start_seconds = 0.002;
  pass.duration_seconds = 0.0005;
  set.spans.push_back(pass);
  return set;
}

TEST(SpanEncode, GoldenLineWithTimingKeysLast) {
  const std::string line = encode_span_set(sample_span_set(0xabcull, 7),
                                           "done");
  EXPECT_EQ(line,
            "{\"state\":\"done\",\"trace\":\"0000000000000abc\",\"seq\":7,"
            "\"id\":\"r7\",\"op\":\"solve\",\"status\":\"\",\"spans\":["
            "{\"name\":\"accept\",\"t_start_us\":1000,\"t_dur_us\":0},"
            "{\"name\":\"kl.pass\",\"step\":3,\"cut\":17,"
            "\"t_start_us\":2000,\"t_dur_us\":500}]}");
}

TEST(FlightRecorder, RingEvictsAndFindPrefersNewest) {
  FlightRecorder recorder(2, 4);
  recorder.complete(sample_span_set(1, 0));
  recorder.complete(sample_span_set(2, 1));
  recorder.complete(sample_span_set(3, 2));  // evicts trace 1
  EXPECT_EQ(recorder.completed().size(), 2u);
  EXPECT_EQ(recorder.find(1), nullptr);
  bool inflight = true;
  const SpanSet* found = recorder.find(3, &inflight);
  ASSERT_NE(found, nullptr);
  EXPECT_FALSE(inflight);
  recorder.record_inflight(sample_span_set(9, 3));
  found = recorder.find(9, &inflight);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(inflight);
  EXPECT_EQ(recorder.inflight_count(), 1u);
  // Completing clears the in-flight record.
  recorder.complete(sample_span_set(9, 3));
  recorder.find(9, &inflight);
  EXPECT_FALSE(inflight);
  EXPECT_EQ(recorder.inflight_count(), 0u);
}

TEST(FlightRecorder, DumpWritesCompletedAndInflightLines) {
  const std::string path = testing::TempDir() + "flight_unit.jsonl";
  std::remove(path.c_str());
  FlightRecorder recorder(4, 4);
  ASSERT_TRUE(recorder.open_dump_file(path));
  SpanSet done = sample_span_set(0x11, 0);
  done.status = "ok";
  recorder.complete(done);
  SpanSet live = sample_span_set(0x22, 1);
  live.status = "pending";
  recorder.record_inflight(live);
  recorder.dump_slots();
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"state\":\"done\",\"trace\":\"0000000000000011\""),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("\"state\":\"inflight\",\"trace\":\"0000000000000022\""),
      std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(HistExemplars, KeepsTheMaxSamplePerBucketAndOverall) {
  HistExemplars exemplars;
  exemplars.offer(100, 0xaaa);  // bucket of 100
  exemplars.offer(120, 0xbbb);  // same bucket, larger value wins
  exemplars.offer(110, 0xccc);  // same bucket, smaller: ignored
  exemplars.offer(5000, 0xddd);  // different bucket
  const std::size_t bucket = HistData::bucket_of(120);
  EXPECT_TRUE(exemplars.buckets[bucket].has);
  EXPECT_EQ(exemplars.buckets[bucket].trace, 0xbbbull);
  EXPECT_EQ(exemplars.buckets[bucket].value, 120ull);
  const BucketExemplar top = exemplars.top();
  ASSERT_TRUE(top.has);
  EXPECT_EQ(top.trace, 0xdddull);
}

TEST(PromExport, ExemplarSuffixOnBucketsNeverOnInf) {
  TrialMetrics metrics;
  metrics.hists[static_cast<std::size_t>(Hist::kSvcRequestLatencyUs)]
      .observe(120);
  HistExemplars exemplars;
  exemplars.offer(120, 0x0123456789abcdefull);
  std::array<const HistExemplars*, kNumHists> bound{};
  bound[static_cast<std::size_t>(Hist::kSvcRequestLatencyUs)] = &exemplars;
  std::ostringstream out;
  write_prom_exposition(out, metrics, bound);
  const std::string text = out.str();
  EXPECT_NE(
      text.find(" # {trace_id=\"0123456789abcdef\"} 120"),
      std::string::npos)
      << text;
  // +Inf buckets stay bare even when the bucket landed a sample.
  for (std::size_t pos = text.find("+Inf"); pos != std::string::npos;
       pos = text.find("+Inf", pos + 1)) {
    const std::size_t eol = text.find('\n', pos);
    EXPECT_EQ(text.substr(pos, eol - pos).find("trace_id"),
              std::string::npos);
  }
}

TEST(ProgressMeter, RatesStayFiniteOnZeroWidthIntervals) {
  std::ostringstream out;
  // min_interval 0: every record paints, including ones arriving
  // within the clock's resolution of construction.
  ProgressMeter meter(0, &out, 0.0, ProgressStyle::kRequests);
  for (int i = 0; i < 3; ++i) meter.record(ProgressOutcome::kOk);
  meter.finish();
  const std::string text = out.str();
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
}

}  // namespace
}  // namespace gbis
