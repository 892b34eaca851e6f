// Per-trial observability registry — the data model of the obs
// subsystem. Every trial of the parallel runner owns one TrialMetrics
// slot: a fixed set of named counters (KL passes and swaps, FM moves
// and gain-bucket ops, SA proposals/accepts/rejects by temperature
// stage, deadline polls), log2-bucket histograms, a bounded convergence
// trace, and wall-clock phase spans for the Chrome-trace export.
//
// Hot loops never see TrialMetrics directly; they hold a MetricsSink*
// (embedded in KlOptions/SaOptions/FmOptions/CompactionOptions). The
// disabled path is a branch on that pointer: a null options pointer (or
// a sink bound to no destination — the "null sink") records nothing.
// Compiling with -DGBIS_DISABLE_OBS empties the sink bodies entirely
// for a zero-instruction hot path.
//
// Determinism contract (extends PR 1's): counters, histograms, and
// trace points of trial t are pure functions of (seed, t) — no clocks,
// no thread identity — so aggregates merged in trial-id order are
// bit-identical for any GBIS_THREADS. Phase spans and the per-trial
// tid/start-offset fields are wall-clock data for the Chrome trace and
// are explicitly outside that contract.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gbis/harness/timer.hpp"

namespace gbis {

/// Counter registry. Names (metric catalog in docs/OBSERVABILITY.md)
/// are the stable schema used by the metrics JSON and the checkpoint
/// journal; append new counters at the end, never reorder.
enum class Counter : std::uint8_t {
  kKlPasses = 0,          ///< "kl.passes"
  kKlPairsSelected,       ///< "kl.pairs_selected"
  kKlPairsSwapped,        ///< "kl.pairs_swapped"
  kKlCandidatesScanned,   ///< "kl.candidates_scanned"
  kFmPasses,              ///< "fm.passes"
  kFmMovesConsidered,     ///< "fm.moves_considered"
  kFmMovesApplied,        ///< "fm.moves_applied"
  kFmBucketOps,           ///< "fm.bucket_ops" (insert/remove/update)
  kSaTemperatures,        ///< "sa.temperatures"
  kSaProposalsHot,        ///< "sa.proposals.hot"   (T >= T0/2)
  kSaProposalsWarm,       ///< "sa.proposals.warm"  (T0/20 <= T < T0/2)
  kSaProposalsCold,       ///< "sa.proposals.cold"  (T < T0/20)
  kSaAcceptsHot,          ///< "sa.accepts.hot"
  kSaAcceptsWarm,         ///< "sa.accepts.warm"
  kSaAcceptsCold,         ///< "sa.accepts.cold"
  kSaRejectsHot,          ///< "sa.rejects.hot"
  kSaRejectsWarm,         ///< "sa.rejects.warm"
  kSaRejectsCold,         ///< "sa.rejects.cold"
  kDeadlinePolls,         ///< "deadline.polls"
  // Partition-service counters (svc/scheduler.*); recorded per service
  // instance, not per trial, and merged into metric reports the same
  // way.
  kSvcRequests,           ///< "svc.requests"
  kSvcRejected,           ///< "svc.rejected" (admission control)
  kSvcCacheHits,          ///< "svc.cache.hits"
  kSvcCacheMisses,        ///< "svc.cache.misses"
  kSvcCacheEvictions,     ///< "svc.cache.evictions"
  kSvcCoalesced,          ///< "svc.coalesced" (within-batch dedup)
  // Socket-listener counters (svc/listener.*): connection lifecycle
  // and listener-level admission, recorded on the listener's driver
  // thread.
  kSvcConnAccepted,       ///< "svc.conn.accepted"
  kSvcConnClosed,         ///< "svc.conn.closed" (all causes)
  kSvcConnSlowClosed,     ///< "svc.conn.slow_closed" (write stall/backlog)
  kSvcConnRejected,       ///< "svc.conn.rejected" (over --max-conns)
  kSvcQuotaRejected,      ///< "svc.quota_rejected" (per-conn request quota)
  // Durable result-cache counters (svc/cache_store.*).
  kSvcCacheRestored,      ///< "svc.cache.restored" (entries from warm start)
  kSvcCacheJournalBytes,  ///< "svc.cache.journal_bytes" (cumulative appended)
  kSvcCacheCompactions,   ///< "svc.cache.compactions" (journal rewrites)
  // Brownout-controller counters (svc/scheduler.*).
  kSvcBrownoutEntered,    ///< "svc.brownout.entered" (level left 0)
  kSvcBrownoutRestored,   ///< "svc.brownout.restored" (level returned to 0)
  kSvcBrownoutShed,       ///< "svc.brownout.shed" (solves rejected at L3)
  // Dynamic-graph subsystem counters (dyn/*, svc/scheduler.*).
  kSvcMutateOk,           ///< "svc.mutate.ok" (mutations applied/replayed)
  kSvcMutateRejected,     ///< "svc.mutate.rejected" (invalid edit batches)
  kSvcSolveWarm,          ///< "svc.solve.warm" (lineage warm-start solves)
  kSvcSolveWarmFallback,  ///< "svc.solve.warm_fallback" (guardrail -> cold)
  kSvcGraphStoreEvictions,  ///< "svc.graphstore.evictions"
  kSvcLineageRestored,    ///< "svc.lineage.restored" (edges from journal)
  // Path-optimization counters (methods/path_opt.*), per trial like
  // the KL/FM/SA blocks above.
  kPoPasses,              ///< "po.passes"
  kPoPaths,               ///< "po.paths" (paths grown)
  kPoFlipsProposed,       ///< "po.flips_proposed" (vertices visited)
  kPoFlipsApplied,        ///< "po.flips_applied" (kept by a best prefix)
  // Quality-ladder counters (svc/scheduler.*, methods/registry.*).
  kSvcQualityFast,        ///< "svc.quality.fast" (resolved request tier)
  kSvcQualityBalanced,    ///< "svc.quality.balanced"
  kSvcQualityBest,        ///< "svc.quality.best"
  kSvcSolveByCkl,         ///< "svc.solve_by.ckl" (winning method of ok
                          ///  cold solves; registry solve_counter rows)
  kSvcSolveByCsa,         ///< "svc.solve_by.csa"
  kSvcSolveByKl,          ///< "svc.solve_by.kl"
  kSvcSolveBySa,          ///< "svc.solve_by.sa"
  kSvcSolveByMlkl,        ///< "svc.solve_by.mlkl"
  kSvcSolveByPath,        ///< "svc.solve_by.path"
  kSvcSolveByGreedyHc,    ///< "svc.solve_by.greedy_hc"
  kSvcSolveByOther,       ///< "svc.solve_by.other" (off-ladder methods)
  // Request-tracing counters (obs/span.*, svc/scheduler.*).
  kSvcTraceSpans,         ///< "svc.trace.spans" (spans recorded, all requests)
  kSvcTraceExports,       ///< "svc.trace.exports" (ok op:"trace" responses)
  kCount
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable journal/JSON name of a counter ("kl.passes", ...).
const char* counter_name(Counter counter);

/// Reverse lookup for journal parsing; false when `name` is unknown
/// (callers skip the field — journals stay forward-compatible with
/// counters added later).
bool counter_from_name(const std::string& name, Counter& out);

/// SA temperature stage relative to the calibrated T0 (see the
/// per-stage counters above). Deterministic: depends only on the
/// trial's own temperature trajectory.
enum class SaStage : std::uint8_t { kHot = 0, kWarm, kCold };
SaStage sa_stage(double temperature, double initial_temperature);

/// Gauge registry: last-written level values (queue depths, resident
/// bytes) as opposed to the monotonic counters above. Same stable-name
/// rules: append at the end, never reorder. Gauges are signed — deltas
/// via add_gauge may transiently dip below zero in embedders.
enum class Gauge : std::uint8_t {
  kSvcQueueDepth = 0,  ///< "svc.queue_depth" (undispatched requests)
  kSvcInflight,        ///< "svc.inflight" (cold solves in the running batch)
  kSvcCacheBytes,      ///< "svc.cache.bytes" (result-cache resident bytes)
  kSvcBatchSize,       ///< "svc.batch.size" (requests in the last batch)
  kSvcConnections,     ///< "svc.connections" (open listener connections)
  kSvcBrownoutLevel,   ///< "svc.brownout_level" (overload ladder rung, 0-3)
  kSvcGraphStoreBytes,    ///< "svc.graphstore.bytes" (resident graph bytes)
  kSvcGraphStoreEntries,  ///< "svc.graphstore.entries" (resident graphs)
  kSvcFlightRing,         ///< "svc.flight.ring" (completed sets held)
  kCount
};
inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::kCount);

/// Stable journal/JSON name of a gauge ("svc.queue_depth", ...).
const char* gauge_name(Gauge gauge);

/// Reverse lookup; false when `name` is unknown.
bool gauge_from_name(const std::string& name, Gauge& out);

/// Histogram registry (log2 buckets; see HistData).
enum class Hist : std::uint8_t {
  kKlPassImprovement = 0,  ///< "kl.pass_improvement" (cut gain per pass)
  kFmPassImprovement,      ///< "fm.pass_improvement"
  kSaTempAcceptancePct,    ///< "sa.temp_acceptance_pct" (round(ratio*100))
  // Partition-service latency histograms (svc/scheduler.*), sampled in
  // microseconds. Wall-clock data: bucket counts are stable but the
  // *values* are explicitly outside the determinism contract — stats
  // keys derived from them carry a "_us" suffix so replay comparisons
  // can strip them.
  kSvcRequestLatencyUs,    ///< "svc.request_latency_us" (submit -> response)
  kSvcSolveLatencyUs,      ///< "svc.solve_latency_us" (cold solve duration)
  kSvcQueueWaitUs,         ///< "svc.queue_wait_us" (submit -> dispatch)
  kCount
};
inline constexpr std::size_t kNumHists =
    static_cast<std::size_t>(Hist::kCount);

const char* hist_name(Hist hist);

/// Reverse lookup for journal parsing; false when unknown.
bool hist_from_name(const std::string& name, Hist& out);

/// Power-of-two histogram: value v lands in bucket bit_width(v)
/// (bucket 0 holds exactly v == 0, bucket b >= 1 holds
/// [2^(b-1), 2^b - 1]). 65 buckets cover the full uint64 range.
struct HistData {
  std::array<std::uint64_t, 65> buckets{};
  /// Exact sum of observed values (Prometheus `_sum`). Not part of the
  /// sparse [[bucket,count],...] journal serialization, so resumed
  /// campaigns carry bucket counts only — fine, because sums are only
  /// reported on the live service path.
  std::uint64_t sum = 0;

  static std::size_t bucket_of(std::uint64_t value) {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  void observe(std::uint64_t value) {
    ++buckets[bucket_of(value)];
    sum += value;
  }
  std::uint64_t total() const;
  bool empty() const { return total() == 0; }
};

/// Exemplar of one histogram bucket: the trace id of the max-value
/// sample that landed there (OpenMetrics exemplars; stats v5). The
/// *which sample was max* decision is wall-clock data, so every surface
/// that renders these does so under a "_us"-marked key (or on a
/// "_us"-named metric) — outside the determinism contract by the same
/// convention as the latency histograms themselves.
struct BucketExemplar {
  std::uint64_t trace = 0;  ///< trace id of the exemplar sample
  std::uint64_t value = 0;  ///< the sampled value (microseconds)
  bool has = false;
};

/// Per-bucket exemplars for one log2 histogram (65 buckets, matching
/// HistData). offer() keeps the max-value sample per bucket.
struct HistExemplars {
  std::array<BucketExemplar, 65> buckets{};

  void offer(std::uint64_t value, std::uint64_t trace) {
    BucketExemplar& slot = buckets[HistData::bucket_of(value)];
    if (!slot.has || value > slot.value) {
      slot.trace = trace;
      slot.value = value;
      slot.has = true;
    }
  }

  /// The overall max-latency exemplar across all buckets; has==false
  /// when no sample was ever offered.
  BucketExemplar top() const {
    BucketExemplar best;
    for (const BucketExemplar& slot : buckets) {
      if (slot.has && (!best.has || slot.value > best.value)) best = slot;
    }
    return best;
  }
};

/// Five-number summary of a log2 histogram, for the stats-v2 protocol
/// op and the bench snapshot. Percentiles are interpolated over bucket
/// representatives with exactly the `harness/stats.hpp percentile`
/// rank convention (rank p/100*(n-1), linear interpolation), treating
/// each bucket's count as that many samples at the representative.
struct HistSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double p50 = 0, p90 = 0, p99 = 0;
};

/// Representative value of bucket b: 0 for bucket 0, the midpoint of
/// [2^(b-1), 2^b - 1] for b >= 1.
double hist_bucket_representative(std::size_t bucket);

/// `percentile()`-convention percentile over the histogram's implied
/// sample (p clamped to [0,100]; empty histogram -> 0).
double hist_percentile(const HistData& hist, double p);

HistSummary summarize_hist(const HistData& hist);

/// Where a convergence-trace point came from.
enum class TraceSource : std::uint8_t { kKl = 0, kSa, kFm, kPo };
const char* trace_source_name(TraceSource source);

/// One convergence-trace sample: best-cut-so-far per KL/FM pass or per
/// SA temperature step. `step` is the per-trial record ordinal (0, 1,
/// ... across all refine calls of the trial), which stays monotone
/// through CKL's coarse-then-fine runs. `aux` carries the temperature
/// for SA points and 0 otherwise.
struct TracePoint {
  std::uint64_t step = 0;
  TraceSource source = TraceSource::kKl;
  std::int64_t cut = 0;
  std::int64_t best = 0;  ///< best cut seen so far in this trial
  double aux = 0.0;

  friend bool operator==(const TracePoint&, const TracePoint&) = default;
};

/// Trial phases for the Chrome-trace sub-spans.
enum class Phase : std::uint8_t {
  kGen = 0,     ///< initial random bisection
  kCompact,     ///< matching + contraction
  kBisect,      ///< solving the coarse graph (or a baseline end-to-end)
  kUncoalesce,  ///< projection back + rebalance
  kRefine,      ///< refinement on the (finer) graph
  kCount
};
inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kCount);

const char* phase_name(Phase phase);

/// One wall-clock phase span, relative to the trial's start.
struct PhaseSpan {
  Phase phase = Phase::kGen;
  double start_seconds = 0;
  double duration_seconds = 0;
};

/// Everything one trial recorded. Counters/hists/trace are the
/// deterministic part; phases/tid/start_offset/wall are Chrome-trace
/// timing data.
struct TrialMetrics {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistData, kNumHists> hists{};
  std::array<std::int64_t, kNumGauges> gauges{};
  std::vector<TracePoint> trace;
  std::vector<PhaseSpan> phases;
  double start_offset_seconds = 0;  ///< trial start relative to batch epoch
  double wall_seconds = 0;          ///< trial wall-clock duration
  std::uint32_t tid = 0;            ///< dense worker index within the batch

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t& counter(Counter c) {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistData& hist(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
  std::int64_t gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }
  std::int64_t& gauge(Gauge g) {
    return gauges[static_cast<std::size_t>(g)];
  }
  /// True when every counter, histogram, and gauge is zero.
  bool summary_empty() const;
};

/// Folds `from`'s counters and histograms into `into` (trace, phases,
/// and timing are per-trial data and are not merged). Integer sums, so
/// the fold is exact and order-independent; the aggregation layer still
/// merges in trial-id order by convention. Gauges are levels, not
/// flows: they fold by element-wise max (a high-water mark), which is
/// the only order-independent aggregate that keeps meaning.
void merge_metric_summaries(TrialMetrics& into, const TrialMetrics& from);

/// The recording handle the hot loops hold. Default-constructed it is
/// the *null sink*: every call is a no-op (used by bench/micro_obs to
/// price the call overhead alone). Bound to a TrialMetrics it
/// accumulates counters/hists directly, keeps a bounded convergence
/// trace via deterministic stride-doubling decimation, and stamps phase
/// spans against its own wall timer (started at construction, i.e. at
/// trial start).
class MetricsSink {
 public:
  MetricsSink() = default;
  explicit MetricsSink(TrialMetrics* dest, std::uint32_t trace_capacity = 512);

  void add(Counter c, std::uint64_t n = 1) {
#ifndef GBIS_DISABLE_OBS
    if (dest_ != nullptr) {
      dest_->counters[static_cast<std::size_t>(c)] += n;
    }
#endif
    (void)c;
    (void)n;
  }

  void observe(Hist h, std::uint64_t value) {
#ifndef GBIS_DISABLE_OBS
    if (dest_ != nullptr) {
      dest_->hists[static_cast<std::size_t>(h)].observe(value);
    }
#endif
    (void)h;
    (void)value;
  }

  void set_gauge(Gauge g, std::int64_t value) {
#ifndef GBIS_DISABLE_OBS
    if (dest_ != nullptr) {
      dest_->gauges[static_cast<std::size_t>(g)] = value;
    }
#endif
    (void)g;
    (void)value;
  }

  void add_gauge(Gauge g, std::int64_t delta) {
#ifndef GBIS_DISABLE_OBS
    if (dest_ != nullptr) {
      dest_->gauges[static_cast<std::size_t>(g)] += delta;
    }
#endif
    (void)g;
    (void)delta;
  }

  /// Records one convergence point. Bounded: once `trace_capacity`
  /// points are held, every other point is dropped and the keep-stride
  /// doubles — deterministic, unlike true reservoir sampling, which is
  /// what keeps traces bit-identical across thread counts. `best` is
  /// maintained as the running minimum across all sources.
  void trace_point(TraceSource source, std::int64_t cut, double aux = 0.0);

  /// Phase spans for the Chrome trace (wall-clock; outside the
  /// determinism contract). begin/end must pair per phase; distinct
  /// phases never overlap in the instrumented drivers.
  void begin_phase(Phase p);
  void end_phase(Phase p);

  /// Wall seconds since the sink was constructed (trial start).
  double elapsed_seconds() const { return timer_.elapsed_seconds(); }

  bool bound() const { return dest_ != nullptr; }

 private:
  TrialMetrics* dest_ = nullptr;
  std::uint32_t trace_capacity_ = 512;
  std::uint64_t trace_ordinal_ = 0;  ///< points offered so far
  std::uint64_t trace_stride_ = 1;   ///< keep every stride-th point
  std::int64_t best_cut_ = 0;
  bool have_best_ = false;
  std::array<double, kNumPhases> phase_start_{};
  WallTimer timer_;
};

/// RAII phase helper for a possibly-null sink.
class ScopedPhase {
 public:
  ScopedPhase(MetricsSink* sink, Phase phase) : sink_(sink), phase_(phase) {
    if (sink_ != nullptr) sink_->begin_phase(phase_);
  }
  ~ScopedPhase() {
    if (sink_ != nullptr) sink_->end_phase(phase_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  MetricsSink* sink_;
  Phase phase_;
};

/// Observability knobs carried by RunConfig. None of these influence
/// trial outcomes, so the campaign fingerprint ignores them.
struct ObsOptions {
  /// Aggregated-metrics JSON destination; "" = off.
  std::string metrics_path;
  /// Directory for convergence.jsonl / convergence.csv / trace.json;
  /// "" = off. Created if missing.
  std::string trace_dir;
  /// Live stderr campaign progress line (mutex-serialized,
  /// rate-limited).
  bool progress = false;
  /// Convergence points kept per trial before stride-doubling
  /// decimation kicks in.
  std::uint32_t trace_capacity = 512;
  /// Force in-memory metric collection even with no output file
  /// configured (tests and embedders read TrialResult::metrics).
  bool collect = false;

  /// True when any collection reason is active.
  bool enabled() const {
    return collect || !metrics_path.empty() || !trace_dir.empty();
  }
};

/// Applies the GBIS_METRICS / GBIS_TRACE_DIR / GBIS_PROGRESS
/// environment knobs on top of `base`. Malformed values keep the
/// default and warn on stderr (the PR 1 convention).
ObsOptions obs_options_from_env(ObsOptions base = {});

/// Campaign-level metric summary: the trial-id-order fold of every
/// collected trial plus sample distributions of per-trial CPU seconds
/// and ok-trial cuts (cut-distribution reporting a la Schreiber &
/// Martin — see PAPERS.md).
struct MetricsReport {
  TrialMetrics totals;  ///< counters + hists only
  std::uint64_t trials = 0;     ///< trials in the batch
  std::uint64_t collected = 0;  ///< trials that carried metrics
  std::uint64_t ok = 0, failed = 0, timed_out = 0, skipped = 0;
  /// Distribution of per-trial CPU seconds over executed trials.
  double cpu_min = 0, cpu_max = 0, cpu_mean = 0;
  double cpu_p50 = 0, cpu_p90 = 0, cpu_p99 = 0;
  /// Distribution of cuts over ok trials.
  double cut_min = 0, cut_max = 0, cut_mean = 0;
  double cut_p50 = 0, cut_p90 = 0;
};

/// Writes the stable-schema metrics JSON (docs/OBSERVABILITY.md).
void write_metrics_json(std::ostream& out, const MetricsReport& report);

}  // namespace gbis
