#include "gbis/svc/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "gbis/dyn/mutation.hpp"
#include "gbis/dyn/warm.hpp"
#include "gbis/io/edge_list.hpp"
#include "gbis/io/metis.hpp"
#include "gbis/obs/prom_export.hpp"
#include "gbis/obs/trace_export.hpp"
#include "gbis/rng/splitmix.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/util/env.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

const char* op_name(SvcRequest::Op op) {
  switch (op) {
    case SvcRequest::Op::kSolve: return "solve";
    case SvcRequest::Op::kPing: return "ping";
    case SvcRequest::Op::kStats: return "stats";
    case SvcRequest::Op::kMutate: return "mutate";
    case SvcRequest::Op::kTrace: return "trace";
  }
  return "solve";
}

/// A span from `start` to `end` on the service epoch, with an optional
/// "cut" payload; start == end makes a structural mark.
SpanRec make_span(const char* name, double start, double end,
                  std::optional<std::int64_t> cut = std::nullopt) {
  SpanRec span;
  span.name = name;
  span.start_seconds = start;
  span.duration_seconds = end - start;
  if (cut.has_value()) {
    span.value = *cut;
    span.has_value = true;
  }
  return span;
}

/// The first span named `name` in a set; null when it has none.
const SpanRec* find_span(const std::vector<SpanRec>& spans,
                         std::string_view name) {
  for (const SpanRec& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

/// Materializes a request's graph payload: a path (.metis or edge
/// list) or inline edge-list text. On failure returns null and sets
/// `error` to the client reason — path errors are I/O, inline payloads
/// that fail to parse are protocol errors.
std::shared_ptr<const Graph> load_graph(const SvcRequest& req,
                                        std::string& error) {
  try {
    if (!req.path.empty()) {
      return std::make_shared<const Graph>(
          req.path.ends_with(".metis") ? read_metis_file(req.path)
                                       : read_edge_list_file(req.path));
    }
    return std::make_shared<const Graph>(read_edge_list(req.inline_graph));
  } catch (const std::exception& e) {
    error = (req.path.empty() ? "parse: inline graph: " : "io: ") +
            std::string(e.what());
    return nullptr;
  }
}

}  // namespace

SvcOptions svc_options_from_env(SvcOptions base) {
  if (const auto mb = env_u64("GBIS_SVC_CACHE_MB", 0, kMaxMebibytes)) {
    base.cache_bytes = *mb << 20;
  }
  if (const char* v = std::getenv("GBIS_SVC_ACCESS_LOG"); v != nullptr) {
    if (*v == '\0') {
      warn_rejected("GBIS_SVC_ACCESS_LOG", v);
    } else {
      base.access_log_path = v;
    }
  }
  if (const char* v = std::getenv("GBIS_SVC_SLOW_MS"); v != nullptr) {
    double ms = 0;
    if (!parse_whole_double(v, ms) || ms < 0) {
      warn_rejected("GBIS_SVC_SLOW_MS", v);
    } else {
      base.slow_ms = ms;
    }
  }
  if (const char* v = std::getenv("GBIS_SVC_CACHE_FILE"); v != nullptr) {
    if (*v == '\0') {
      warn_rejected("GBIS_SVC_CACHE_FILE", v);
    } else {
      base.cache_file = v;
    }
  }
  // from_env warns and yields an empty plan on a malformed spec.
  if (FaultPlan plan = FaultPlan::from_env("GBIS_SVC_FAULTS", kServiceFaults);
      !plan.empty()) {
    base.faults = std::move(plan);
  }
  if (const char* v = std::getenv("GBIS_SVC_BROWNOUT"); v != nullptr) {
    const std::string text(v);
    if (text == "0") {
      base.brownout = false;
    } else if (text == "1") {
      base.brownout = true;
    } else {
      warn_rejected("GBIS_SVC_BROWNOUT", v);
    }
  }
  if (const auto window = env_u64("GBIS_SVC_BROWNOUT_WINDOW", 1, UINT32_MAX)) {
    base.brownout_window = static_cast<std::uint32_t>(*window);
  }
  if (const auto mb = env_u64("GBIS_SVC_GRAPH_MB", 0, kMaxMebibytes)) {
    base.graph_store_bytes = *mb << 20;
  }
  if (const char* v = std::getenv("GBIS_SVC_WARM"); v != nullptr) {
    const std::string text(v);
    if (text == "0") {
      base.warm = false;
    } else if (text == "1") {
      base.warm = true;
    } else {
      warn_rejected("GBIS_SVC_WARM", v);
    }
  }
  if (const char* v = std::getenv("GBIS_SVC_QUALITY"); v != nullptr) {
    QualityTier tier;
    if (quality_tier_from_name(v, tier)) {
      base.default_quality = tier;
    } else {
      warn_rejected("GBIS_SVC_QUALITY", v);
    }
  }
  if (const char* v = std::getenv("GBIS_SVC_FLIGHT"); v != nullptr) {
    if (*v == '\0') {
      warn_rejected("GBIS_SVC_FLIGHT", v);
    } else {
      base.flight_file = v;
    }
  }
  if (const auto ring = env_u64("GBIS_SVC_FLIGHT_RING", 1, UINT32_MAX)) {
    base.flight_ring = static_cast<std::uint32_t>(*ring);
  }
  if (const auto mb = env_u64("GBIS_SVC_ACCESS_LOG_MAX_MB", 0, kMaxMebibytes)) {
    base.access_log_max_mb = *mb;
  }
  return base;
}

/// One queued request: everything phase 1 resolves (graph, solve
/// identity, cache disposition) plus the response under construction.
struct Service::Pending {
  SvcRequest request;
  SvcResponse response;
  bool done = false;  ///< response fully materialized before phase 2

  // Solve identity (valid once `has_key`).
  SvcCacheKey key;
  bool has_key = false;
  PolicySpec spec;
  std::uint64_t seed = 0;
  /// Request-wide budget in seconds (0 = unlimited); one Deadline is
  /// armed from it per cold solve.
  double deadline_seconds = 0;

  /// Loaded/referenced payload; shared with the graph store so an
  /// eviction mid-batch cannot free a graph a worker is solving.
  std::shared_ptr<const Graph> graph;
  bool cold = false;  ///< leader of a cold solve
  /// A follower's same-batch leader; the follower answers its result.
  const Pending* leader = nullptr;
  std::uint64_t solve_ordinal = 0;  ///< service-lifetime cold-solve ordinal
  /// A leader's outcome, written by its phase-2 job.
  PolicyResult result;

  // Warm-start plan (dyn/warm), resolved in phase 1 for leaders only;
  // the worker consumes warm_seed and falls back to the cold policy
  // when the quality guardrail trips.
  bool warm_start = false;
  std::vector<std::uint8_t> warm_seed;  ///< projected sides (2 = unplaced)
  Weight warm_parent_cut = 0;           ///< donor partition's cut
  std::uint64_t warm_edits = 0;         ///< cumulative chain edit distance
  /// Raw internal-failure text (exception what()); clients get the
  /// stable "internal: ..." reason, this goes to stderr + access log.
  std::string internal_detail;

  std::uint64_t seq = 0;  ///< request ordinal (access-log "seq")

  // Request tracing (obs/span): the derived-or-client trace id plus
  // the span set under construction, whose first span is "accept".
  // `spans` is driver-owned (submit / phase 1 / phase 3);
  // `worker_spans` is what a phase-2 job writes besides `result`,
  // appended in phase 3 so merged span order is arrival-deterministic.
  std::uint64_t trace_id = 0;
  bool client_trace = false;  ///< id came from the request's "trace"
  std::vector<SpanRec> spans;
  std::vector<SpanRec> worker_spans;

  /// Answers with an error; a done record skips the later phases.
  void fail(std::string reason) {
    response.ok = false;
    response.error = std::move(reason);
    done = true;
  }
  /// Answers a mutate with the child's identity and shape.
  void answer_mutate(const LineageRecord& record) {
    response.ok = true;
    response.op = "mutate";
    response.has_mutate = true;
    response.fingerprint = record.child;
    response.parent = record.parent;
    response.vertices = record.child_vertices;
    response.edges = record.child_edges;
    response.edit_distance = record.edit_distance;
    response.depth = record.depth;
    // The child identity in the access log.
    key.fingerprint = record.child;
    has_key = true;
    done = true;
  }
  /// The set as currently known — what the flight recorder sees at
  /// each in-flight checkpoint and at completion.
  SpanSet span_set(const char* status_text) const {
    SpanSet set;
    set.trace_id = trace_id;
    set.seq = seq;
    set.id = request.id;
    set.op = op_name(request.op);
    set.status = status_text;
    set.spans = spans;
    return set;
  }
};

// Out-of-line for Pending; the flight recorder uninstalls itself from
// the dump hook in its own destructor.
Service::~Service() = default;

Service::Service(SvcOptions options)
    : options_(options),
      pool_(ThreadPool::resolve_threads(options.threads)),
      cache_(options.cache_bytes),
      graph_store_(options.graph_store_bytes),
      lineage_(std::max<std::uint32_t>(options.lineage_max_depth, 1),
               SvcOptions::lineage_max_records) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
  if (options_.default_budget == 0) options_.default_budget = 1;
  if (options_.brownout_window == 0) options_.brownout_window = 1;
  if (options_.flight_ring == 0) options_.flight_ring = 1;
  if (!options_.access_log_path.empty()) {
    access_log_ = std::make_unique<AccessLog>(
        options_.access_log_path, options_.access_log_max_mb << 20);
  }
  // The flight recorder always exists (it backs op:"trace"); the
  // signal-dump slots and fd only come with a configured flight file.
  flight_ = std::make_unique<FlightRecorder>(options_.flight_ring,
                                             2 * options_.max_queue);
  if (!options_.flight_file.empty()) {
    flight_ok_ = flight_->open_dump_file(options_.flight_file);
  }
  FlightRecorder::install(flight_.get());
  if (!options_.cache_file.empty()) {
    // Warm restart: replay the journal's longest valid prefix into the
    // LRU before the first request. A damaged tail is dropped (and the
    // file compacted) — a crash mid-append must never poison a start.
    store_ = std::make_unique<SvcCacheStore>(options_.cache_file);
    SvcCacheRestore report;
    store_open_ok_ = store_->open_and_restore(cache_, &lineage_, report);
    if (store_open_ok_) {
      metrics_.counter(Counter::kSvcCacheRestored) += report.entries_restored;
      metrics_.counter(Counter::kSvcLineageRestored) += report.lineage_restored;
      metrics_.counter(Counter::kSvcCacheJournalBytes) += report.bytes_written;
      if (report.compacted) ++metrics_.counter(Counter::kSvcCacheCompactions);
      if (report.lines_dropped > 0) {
        std::cerr << "gbis: serve: cache journal " << options_.cache_file
                  << ": dropped " << report.lines_dropped
                  << " damaged line(s), restored " << report.entries_restored
                  << " entrie(s) from the valid prefix\n";
      }
    }
  }
  metrics_.gauge(Gauge::kSvcBatchSize) = 0;
}

bool Service::access_log_ok() const {
  return access_log_ == nullptr || access_log_->ok();
}

bool Service::cache_store_ok() const {
  return store_ == nullptr || store_open_ok_;
}

void Service::note_conn_opened() {
  ++metrics_.counter(Counter::kSvcConnAccepted);
  ++metrics_.gauge(Gauge::kSvcConnections);
}

void Service::note_conn_closed(bool slow) {
  ++metrics_.counter(Counter::kSvcConnClosed);
  if (slow) ++metrics_.counter(Counter::kSvcConnSlowClosed);
  --metrics_.gauge(Gauge::kSvcConnections);
}

void Service::note_conn_rejected() {
  ++metrics_.counter(Counter::kSvcConnRejected);
}

void Service::note_quota_rejected() {
  ++metrics_.counter(Counter::kSvcQuotaRejected);
}

void Service::submit_line(const std::string& line,
                          std::vector<std::string>& out) {
  // Stdio path: connection 0, ordinal = lines submitted so far.
  submit_line(line, out, 0, stdio_submitted_++);
}

void Service::submit_line(const std::string& line,
                          std::vector<std::string>& out,
                          std::uint64_t conn_id,
                          std::uint64_t conn_ordinal) {
  ++metrics_.counter(Counter::kSvcRequests);
  auto entry = std::make_unique<Pending>();
  entry->seq = next_seq_++;
  const double accepted = clock_.elapsed_seconds();
  // Derived trace id first so even a parse failure is traceable; the
  // client's own "trace" (if the line parses) replaces it below.
  entry->trace_id = splitmix64_at(conn_id, conn_ordinal);
  entry->spans.push_back(make_span("accept", accepted, accepted));
  std::string error;
  const bool parsed = parse_request(line, entry->request, error);
  entry->response.id = entry->request.id;
  if (!parsed) {
    entry->fail(std::move(error));
  } else if (entry->request.has_trace &&
             entry->request.op != SvcRequest::Op::kTrace) {
    // On op:"trace" the field selects the set to export; on every
    // other op it overrides the derived id.
    entry->trace_id = entry->request.trace_id;
    entry->client_trace = true;
  }
  entry->spans.push_back(
      make_span("parse", accepted, clock_.elapsed_seconds()));
  if (queue_.size() >= options_.max_queue) {
    // Nowhere to hold it: this is the one response that jumps the
    // arrival-order queue (and the rejection itself is deterministic —
    // queue depth is a pure function of the submit/process call
    // sequence).
    ++metrics_.counter(Counter::kSvcRejected);
    entry->fail("rejected: queue full (" + std::to_string(queue_.size()) +
                " queued, max " + std::to_string(options_.max_queue) + ")");
    emit(*entry, out);
    // Logged at submit time to match the response's position in the
    // stream (rejections jump the queue there too), and still completed
    // into the flight ring: tail forensics need the shed requests most
    // of all.
    finish_request(*entry, "rejected", clock_.elapsed_seconds());
    if (access_log_ != nullptr) access_log_->flush();
    return;
  }
  const double admitted = clock_.elapsed_seconds();
  entry->spans.push_back(make_span("admit", admitted, admitted));
  flight_->record_inflight(entry->span_set("queued"));
  queue_.push_back(std::move(entry));
  metrics_.gauge(Gauge::kSvcQueueDepth) =
      static_cast<std::int64_t>(queue_.size());
}

void Service::resolve_solve(Pending& entry, LeaderMap& leaders) {
  const SvcRequest& req = entry.request;

  // Resolve the solve identity: method selector, budget, deadline,
  // seed. Unknown method names are protocol errors, not solve failures.
  entry.spec.portfolio = req.method == "auto";
  if (!entry.spec.portfolio &&
      !method_from_name(req.method, entry.spec.method)) {
    entry.fail("parse: unknown method \"" + req.method + "\"");
    return;
  }
  entry.spec.budget = req.budget != 0 ? req.budget : options_.default_budget;
  entry.deadline_seconds = req.deadline_seconds >= 0
                               ? req.deadline_seconds
                               : options_.default_deadline_seconds;
  entry.seed = req.has_seed ? req.seed : options_.default_seed;
  // Ladder rung: the request's "quality" when present (the protocol
  // layer already rejected unknown values), else the service default.
  // An explicit method accepts-and-ignores the field — the rung only
  // picks which portfolio an "auto" race draws from.
  entry.spec.quality = options_.default_quality;
  if (!req.quality.empty()) {
    quality_tier_from_name(req.quality, entry.spec.quality);
  }
  static constexpr Counter kQualityCounter[kNumQualityTiers] = {
      Counter::kSvcQualityFast, Counter::kSvcQualityBalanced,
      Counter::kSvcQualityBest};
  ++metrics_.counter(
      kQualityCounter[static_cast<std::size_t>(entry.spec.quality)]);

  // Brownout ladder (docs/ROBUSTNESS.md): degrade BEFORE the cache key
  // is computed, so a degraded solve is cached under its degraded
  // identity and can never answer a full-quality request later.
  if (brownout_level_ >= 3) {
    ++metrics_.counter(Counter::kSvcBrownoutShed);
    entry.fail("rejected: brownout (level 3): " +
               std::to_string(queue_.size()) + " queued of " +
               std::to_string(options_.max_queue));
    // The hint is a pure function of scheduler-visible state (queue
    // depth at dispatch), never of the clock, so replays agree.
    entry.response.retry_after_ms = static_cast<std::uint32_t>(
        std::clamp<std::size_t>(10 * queue_.size(), 100, 5000));
    return;
  }
  if (brownout_level_ == 2) {
    // Downgrade toward the cheap end of the quality/cost curve: "auto"
    // collapses to one CKL start — or one greedy+hill-climb start when
    // the request already asked for the fast rung, which is cheaper
    // still — and an explicitly named method keeps its method but
    // spends one trial.
    if (entry.spec.portfolio) {
      entry.spec.portfolio = false;
      entry.spec.method = entry.spec.quality == QualityTier::kFast
                              ? Method::kGreedyHc
                              : Method::kCkl;
    }
    entry.spec.budget = 1;
  } else if (brownout_level_ == 1) {
    entry.spec.budget = std::min<std::uint32_t>(entry.spec.budget, 2);
  }

  // Load the graph payload. A fingerprint reference defers
  // materialization until after the cache lookup — the key is
  // computable from the reference alone, so a pre-crash repeat can
  // answer as a hit even when the graph itself is gone.
  if (req.has_fingerprint) {
    entry.key.fingerprint = req.fingerprint;
  } else {
    std::string error;
    entry.graph = load_graph(req, error);
    if (entry.graph == nullptr) {
      entry.fail(std::move(error));
      return;
    }
    entry.key.fingerprint = graph_fingerprint(*entry.graph);
    // Every materialized graph feeds the store, so later requests can
    // name it by fingerprint (mutate parents, re-solves).
    graph_store_.insert(entry.key.fingerprint, entry.graph);
  }
  entry.key.method_key =
      entry.spec.portfolio
          ? SvcCacheKey::kPortfolio
          : static_cast<std::uint32_t>(entry.spec.method);
  // The rung is identity only for portfolio races; an explicit method
  // normalizes to kQualityNone so a decorated request coalesces with
  // an undecorated one (the rung cannot influence its outcome).
  entry.key.quality_key =
      entry.spec.portfolio ? static_cast<std::uint8_t>(entry.spec.quality)
                           : SvcCacheKey::kQualityNone;
  entry.key.budget = entry.spec.budget;
  entry.key.seed = entry.seed;
  entry.key.deadline_bits = std::bit_cast<std::uint64_t>(
      entry.deadline_seconds);
  entry.has_key = true;
  entry.response.fingerprint = entry.key.fingerprint;

  // Cache lookup and within-batch coalescing, on the dispatch thread in
  // arrival order — the hit/miss/coalesce disposition of every request
  // is decided before any solve runs.
  if (const SvcCacheValue* value = cache_.lookup(entry.key)) {
    // Materialize now: the pointer dies at the next insert.
    entry.response.ok = true;
    entry.response.cache = "hit";
    fill_from_value(entry.response, *value, req.want_sides);
    entry.done = true;
    return;
  }
  if (const auto it = leaders.find(entry.key); it != leaders.end()) {
    ++metrics_.counter(Counter::kSvcCoalesced);
    entry.leader = it->second;
    entry.graph.reset();  // the leader's copy is the one that solves
    return;
  }
  // A fingerprint-referenced solve needs the graph materialized now
  // (a miss past the cache means it must actually be solved).
  if (entry.graph == nullptr) {
    entry.graph = graph_store_.lookup(entry.key.fingerprint);
    if (entry.graph == nullptr) {
      entry.fail("io: unknown graph \"" + to_hex16(entry.key.fingerprint) +
                 "\"");
      return;
    }
  }
  entry.cold = true;
  entry.solve_ordinal = cold_ordinal_++;
  leaders.emplace(entry.key, &entry);
  if (options_.warm) plan_warm(entry);
}

void Service::plan_warm(Pending& entry) {
  // Guardrail: a chain whose cumulative edits rival the graph itself
  // makes the ancestor partition worthless as a seed.
  const std::uint64_t max_edits = static_cast<std::uint64_t>(
      options_.warm_edit_ratio *
      static_cast<double>(entry.graph->num_edges() + 1));
  WarmPlan plan;
  if (!plan_warm_start(
          lineage_, entry.key.fingerprint, max_edits,
          [this](std::uint64_t fp) {
            return cache_.best_for_fingerprint(fp) != nullptr;
          },
          plan)) {
    return;
  }
  const SvcCacheValue* donor = cache_.best_for_fingerprint(plan.ancestor);
  std::vector<std::uint8_t> seeded;
  if (donor == nullptr || !project_sides(plan, donor->sides, seeded) ||
      seeded.size() != entry.graph->num_vertices()) {
    return;  // stale plan (shape drift) — run cold
  }
  entry.warm_start = true;
  entry.warm_seed = std::move(seeded);
  entry.warm_parent_cut = donor->cut;
  entry.warm_edits = plan.cumulative_edits;
}

void Service::resolve_mutate(Pending& entry) {
  const SvcRequest& req = entry.request;
  const auto reject = [this, &entry](std::string reason) {
    ++metrics_.counter(Counter::kSvcMutateRejected);
    entry.fail(std::move(reason));
  };
  const auto answer = [this, &entry](const LineageRecord& record) {
    ++metrics_.counter(Counter::kSvcMutateOk);
    entry.answer_mutate(record);
  };

  // Resolve the parent graph and its fingerprint.
  std::shared_ptr<const Graph> parent;
  std::uint64_t parent_fp = 0;
  if (req.has_fingerprint) {
    parent_fp = req.fingerprint;
    parent = graph_store_.lookup(parent_fp);  // may miss; see below
  } else {
    std::string error;
    parent = load_graph(req, error);
    if (parent == nullptr) {
      reject(std::move(error));
      return;
    }
    parent_fp = graph_fingerprint(*parent);
    graph_store_.insert(parent_fp, parent);
  }

  const std::uint64_t batch_hash = req.batch.hash();
  const LineageRecord* known = lineage_.by_batch(parent_fp, batch_hash);
  if (parent == nullptr) {
    // Graphs are evictable and never journaled; the lineage record is
    // the durable identity. A known derivation answers without either
    // graph — which is exactly how a warm restart replays a pre-crash
    // mutation chain byte-identically.
    if (known != nullptr) {
      answer(*known);
      return;
    }
    reject("io: unknown graph \"" + to_hex16(parent_fp) + "\"");
    return;
  }
  if (known != nullptr && !known->map.empty() &&
      graph_store_.contains(known->child)) {
    // Fully-materialized repeat: nothing to recompute.
    answer(*known);
    return;
  }
  if (known == nullptr) {
    // Only a *new* derivation grows the lineage; repeats (known !=
    // nullptr) re-apply solely to heal maps / re-materialize the child.
    const std::uint32_t parent_depth = lineage_.depth_of(parent_fp);
    if (parent_depth >= lineage_.max_depth()) {
      reject("mutate: lineage depth limit (" +
             std::to_string(lineage_.max_depth()) + ") reached");
      return;
    }
    if (lineage_.full()) {
      reject("mutate: lineage store full (" +
             std::to_string(lineage_.size()) + " records)");
      return;
    }
  }

  MutationResult mutated;
  try {
    mutated = apply_mutation(*parent, req.batch);
  } catch (const std::invalid_argument& error) {
    reject(std::string("mutate: ") + error.what());
    return;
  } catch (const std::bad_alloc&) {
    reject("internal: out of memory");
    return;
  }
  const std::uint64_t child_fp = graph_fingerprint(mutated.child);
  LineageRecord record;
  record.parent = parent_fp;
  record.child = child_fp;
  record.batch_hash = batch_hash;
  record.adds = req.batch.add_edges.size() / 2;
  record.dels = req.batch.del_edges.size() / 2;
  record.vadds = req.batch.add_vertices;
  record.vdels = req.batch.del_vertices.size();
  record.edit_distance = req.batch.edit_distance();
  record.depth = lineage_.depth_of(parent_fp) + 1;
  record.parent_vertices = parent->num_vertices();
  record.child_vertices = mutated.child.num_vertices();
  record.child_edges = mutated.child.num_edges();
  record.map = std::move(mutated.map);
  graph_store_.insert(child_fp,
                      std::make_shared<const Graph>(std::move(mutated.child)));

  if (child_fp == parent_fp) {
    // Net no-op batch (e.g. add an edge, delete it again): the child
    // IS the parent. No lineage edge — a self-edge would put a cycle
    // in the DAG — but the response still reports the derivation.
    record.depth = lineage_.depth_of(parent_fp);
    answer(record);
    return;
  }
  const auto [stored, inserted] = lineage_.insert(std::move(record));
  if (stored == nullptr) {
    // Raced the record cap via a duplicate-child path; treat as full.
    reject("mutate: lineage store full (" + std::to_string(lineage_.size()) +
           " records)");
    return;
  }
  if (inserted && store_ != nullptr && store_->ok()) {
    // Journal-then-answer, like cache inserts: by the time the client
    // sees the child fingerprint, the lineage edge is on disk.
    metrics_.counter(Counter::kSvcCacheJournalBytes) +=
        store_->append_lineage(*stored);
  }
  answer(*stored);
}

void Service::update_brownout() {
  std::uint32_t level = 0;
  if (options_.brownout) {
    // Queue pressure: depth at dispatch as a fraction of the admission
    // bound. Deadline pressure: miss rate over the recent cold-solve
    // window (the window denominator even while filling, so a cold
    // start can't trip on its first miss).
    const std::size_t queue_pct =
        queue_.size() * 100 / std::max<std::size_t>(options_.max_queue, 1);
    const std::uint64_t miss_pct =
        window_misses_ * 100 /
        std::max<std::uint64_t>(options_.brownout_window, 1);
    if (queue_pct >= 90) {
      level = 3;
    } else if (queue_pct >= 75 || miss_pct >= 50) {
      level = 2;
    } else if (queue_pct >= 50 || miss_pct >= 25) {
      level = 1;
    }
  }
  if (brownout_level_ == 0 && level > 0) {
    ++metrics_.counter(Counter::kSvcBrownoutEntered);
  } else if (brownout_level_ > 0 && level == 0) {
    ++metrics_.counter(Counter::kSvcBrownoutRestored);
  }
  brownout_level_ = level;
  metrics_.gauge(Gauge::kSvcBrownoutLevel) = static_cast<std::int64_t>(level);
}

void Service::note_solve_outcome(bool deadline_miss) {
  miss_window_.push_back(deadline_miss);
  if (deadline_miss) ++window_misses_;
  while (miss_window_.size() > options_.brownout_window) {
    if (miss_window_.front()) --window_misses_;
    miss_window_.pop_front();
  }
}

void Service::fill_from_value(SvcResponse& response,
                              const SvcCacheValue& value, bool want_sides) {
  response.has_solve = true;
  response.cut = value.cut;
  response.method = value.method;
  response.trials_ok = value.trials_ok;
  response.degraded = value.trials_degraded;
  response.warm = value.warm;
  if (want_sides) {
    response.sides.reserve(value.sides.size());
    for (const std::uint8_t side : value.sides) {
      response.sides.push_back(side != 0 ? '1' : '0');
    }
  }
}

void Service::finalize_solve(Pending& entry) {
  const PolicyResult& result =
      entry.cold ? entry.result : entry.leader->result;
  SvcResponse& response = entry.response;
  response.cache = entry.cold ? "miss" : "coalesced";
  switch (result.status) {
    case TrialStatus::kOk: {
      SvcCacheValue value;
      value.cut = result.best_cut;
      // Warm results display "warm-kl" — method_from_name never says
      // that, so a warm result can never alias a requestable method.
      value.method = result.warm ? "warm-kl" : method_name(result.best_method);
      value.trials_ok = result.ok;
      value.trials_degraded = result.failed + result.timed_out + result.skipped;
      value.warm = result.warm;
      value.sides = result.best_sides;
      response.ok = true;
      fill_from_value(response, value, entry.request.want_sides);
      if (entry.cold) {
        // Attribute the solve to its winning method (methods/registry)
        // so sum(svc.solve_by.*) == ok cold solves; warm results go
        // under "other" — "warm-kl" is not a registry method, and warm
        // volume already has its own kSvcSolveWarm counter.
        const Counter solved_by =
            result.warm ? Counter::kSvcSolveByOther
                        : method_info(result.best_method).solve_counter;
        ++metrics_.counter(solved_by);
        // Journal before the in-memory insert (the value is still
        // whole) and flush per append: by the time any response of
        // this batch reaches a client, its entry is on disk.
        if (store_ != nullptr && store_->ok()) {
          metrics_.counter(Counter::kSvcCacheJournalBytes) +=
              store_->append(entry.key, value);
        }
        cache_.insert(entry.key, std::move(value));
      }
      break;
    }
    case TrialStatus::kTimedOut:
      response.ok = false;
      response.error = "deadline exceeded before any trial completed";
      break;
    case TrialStatus::kFailed:
      // Stable reasons only on the wire (SERVICE.md error catalog);
      // the raw exception text goes to stderr (leaders once) and the
      // access log, never to clients.
      response.ok = false;
      response.error =
          result.oom ? "internal: out of memory" : "internal: solve failed";
      entry.internal_detail = result.first_error;
      if (entry.cold) {
        std::cerr << "gbis: serve: internal error (seq " << entry.seq
                  << "): " << result.first_error << '\n';
      }
      break;
    case TrialStatus::kSkipped:
      response.ok = false;
      response.error = "shutdown: request drained before any trial ran";
      break;
  }
  if (!entry.cold) return;
  // Feed the brownout deadline-miss window (leaders only, in arrival
  // order): any trial the deadline took counts.
  note_solve_outcome(result.status == TrialStatus::kTimedOut ||
                     result.timed_out > 0);
  if (result.warm) {
    ++metrics_.counter(Counter::kSvcSolveWarm);
  } else if (entry.warm_start) {
    // Planned warm but ran cold — the guardrail tripped, or the warm
    // refinement itself failed/timed out.
    ++metrics_.counter(Counter::kSvcSolveWarmFallback);
  }
}

void Service::fill_stats(SvcResponse& response) const {
  const SvcCacheStats& cache = cache_.stats();
  const auto counter = [this](Counter c) { return metrics_.counter(c); };
  const auto gauge = [this](Gauge g) {
    return static_cast<std::uint64_t>(metrics_.gauge(g));
  };
  response.stats = {
      {"requests", counter(Counter::kSvcRequests)},
      {"rejected", counter(Counter::kSvcRejected)},
      {"coalesced", counter(Counter::kSvcCoalesced)},
      {"cache_hits", cache.hits},
      {"cache_misses", cache.misses},
      {"cache_evictions", cache.evictions},
      {"cache_entries", cache.entries},
      {"cache_bytes", cache.bytes},
      {"cache_max_bytes", cache_.max_bytes()},
      // v2: gauges and histogram summaries. v3: dynamic-graph keys.
      // v4: method-portfolio keys. v5: tracing/flight-recorder keys.
      // Keys are append-only; the *_count fields are deterministic
      // (they count finalized requests/solves at this stream
      // position), while everything under stats_real carries the
      // nondeterministic "_us" marker.
      {"stats_version", 5},
      {"queue_depth", gauge(Gauge::kSvcQueueDepth)},
      {"inflight", gauge(Gauge::kSvcInflight)},
      {"batch_size", gauge(Gauge::kSvcBatchSize)},
      // Listener surface (all zero without --listen; keys append-only).
      {"connections", gauge(Gauge::kSvcConnections)},
      {"conn_accepted", counter(Counter::kSvcConnAccepted)},
      {"conn_closed", counter(Counter::kSvcConnClosed)},
      {"conn_slow_closed", counter(Counter::kSvcConnSlowClosed)},
      {"conn_rejected", counter(Counter::kSvcConnRejected)},
      {"quota_rejected", counter(Counter::kSvcQuotaRejected)},
      // Durable-cache and brownout surface (PR 7; keys append-only).
      {"cache_restored", counter(Counter::kSvcCacheRestored)},
      {"cache_journal_bytes", counter(Counter::kSvcCacheJournalBytes)},
      {"cache_compactions", counter(Counter::kSvcCacheCompactions)},
      {"brownout_level", gauge(Gauge::kSvcBrownoutLevel)},
      {"brownout_entered", counter(Counter::kSvcBrownoutEntered)},
      {"brownout_restored", counter(Counter::kSvcBrownoutRestored)},
      {"brownout_shed", counter(Counter::kSvcBrownoutShed)},
      // Dynamic-graph surface (PR 8; keys append-only). Graph-store
      // numbers read the store directly so a stats op mid-batch is
      // already current.
      {"mutate_ok", counter(Counter::kSvcMutateOk)},
      {"mutate_rejected", counter(Counter::kSvcMutateRejected)},
      {"solve_warm", counter(Counter::kSvcSolveWarm)},
      {"warm_fallback", counter(Counter::kSvcSolveWarmFallback)},
      {"graphstore_bytes", graph_store_.stats().bytes},
      {"graphstore_entries", graph_store_.stats().entries},
      {"graphstore_evictions", graph_store_.stats().evictions},
      {"lineage_records", lineage_.size()},
      {"lineage_restored", counter(Counter::kSvcLineageRestored)},
      // Method-portfolio surface (PR 9, stats v4; keys append-only).
      // Counted at dispatch: quality_* when a solve's rung resolves,
      // solve_by_* when an ok cold solve finalizes — so both are pure
      // functions of the request stream position, like every other
      // *_count key.
      {"quality_fast", counter(Counter::kSvcQualityFast)},
      {"quality_balanced", counter(Counter::kSvcQualityBalanced)},
      {"quality_best", counter(Counter::kSvcQualityBest)},
      {"solve_by_ckl", counter(Counter::kSvcSolveByCkl)},
      {"solve_by_csa", counter(Counter::kSvcSolveByCsa)},
      {"solve_by_kl", counter(Counter::kSvcSolveByKl)},
      {"solve_by_sa", counter(Counter::kSvcSolveBySa)},
      {"solve_by_mlkl", counter(Counter::kSvcSolveByMlkl)},
      {"solve_by_path", counter(Counter::kSvcSolveByPath)},
      {"solve_by_greedy_hc", counter(Counter::kSvcSolveByGreedyHc)},
      {"solve_by_other", counter(Counter::kSvcSolveByOther)},
      // Request-tracing surface (PR 10, stats v5; keys append-only).
      // All deterministic: span structure and ring occupancy are pure
      // functions of the request stream.
      {"trace_spans", counter(Counter::kSvcTraceSpans)},
      {"trace_exports", counter(Counter::kSvcTraceExports)},
      {"flight_ring", static_cast<std::uint64_t>(flight_->completed().size())},
      {"flight_capacity", options_.flight_ring},
      {"flight_inflight",
       static_cast<std::uint64_t>(flight_->inflight_count())},
  };
  const struct {
    const char* prefix;
    Hist hist;
  } latency_stats[] = {
      {"request_latency", Hist::kSvcRequestLatencyUs},
      {"solve_latency", Hist::kSvcSolveLatencyUs},
      {"queue_wait", Hist::kSvcQueueWaitUs},
  };
  for (const auto& [prefix, hist] : latency_stats) {
    const HistSummary summary = summarize_hist(metrics_.hist(hist));
    const std::string p(prefix);
    response.stats.emplace_back(p + "_count", summary.count);
    response.stats_real.emplace_back(p + "_sum_us",
                                     static_cast<double>(summary.sum));
    response.stats_real.emplace_back(p + "_p50_us", summary.p50);
    response.stats_real.emplace_back(p + "_p90_us", summary.p90);
    response.stats_real.emplace_back(p + "_p99_us", summary.p99);
    // Max-latency exemplar (stats v5): the trace id of the slowest
    // sample, "" until one lands. *Which* request was slowest is
    // wall-clock data, hence the "_us" suffix on a trace-id value.
    const BucketExemplar top = exemplars_[static_cast<std::size_t>(hist)].top();
    response.stats_text.emplace_back(p + "_exemplar_us",
                                     top.has ? to_hex16(top.trace) : "");
  }
}

void Service::write_prom(std::ostream& out) const {
  std::array<const HistExemplars*, kNumHists> exemplars{};
  for (std::size_t h = 0; h < kNumHists; ++h) exemplars[h] = &exemplars_[h];
  write_prom_exposition(out, metrics_snapshot(), exemplars);
}

void Service::fill_trace(Pending& entry) {
  SvcResponse& response = entry.response;
  response.op = "trace";
  if (entry.request.has_trace) {
    // Export one set by id — echoed so the caller sees what it asked
    // for even on a miss.
    response.trace_id = entry.request.trace_id;
    response.has_trace = true;
    bool inflight = false;
    const SpanSet* found = flight_->find(entry.request.trace_id, &inflight);
    if (found == nullptr) {
      entry.fail("trace: unknown trace id \"" +
                 to_hex16(entry.request.trace_id) + "\"");
      return;
    }
    response.ok = true;
    response.has_traces = true;
    response.traces = 1;
    response.spans = encode_span_set(*found, inflight ? "inflight" : "done");
    response.spans += '\n';
  } else {
    response.ok = true;
    response.has_traces = true;
    response.traces = flight_->completed().size();
    response.spans = flight_->export_completed();
  }
  ++metrics_.counter(Counter::kSvcTraceExports);
  entry.done = true;
}

void Service::write_trace(std::ostream& out) const {
  write_span_trace(out, flight_->completed(), options_.slow_ms);
}

void Service::mirror_store_stats(TrialMetrics& into) const {
  const SvcCacheStats& cache = cache_.stats();
  into.counter(Counter::kSvcCacheHits) = cache.hits;
  into.counter(Counter::kSvcCacheMisses) = cache.misses;
  into.counter(Counter::kSvcCacheEvictions) = cache.evictions;
  into.gauge(Gauge::kSvcCacheBytes) = static_cast<std::int64_t>(cache.bytes);
  const GraphStoreStats& graphs = graph_store_.stats();
  into.counter(Counter::kSvcGraphStoreEvictions) = graphs.evictions;
  into.gauge(Gauge::kSvcGraphStoreBytes) =
      static_cast<std::int64_t>(graphs.bytes);
  into.gauge(Gauge::kSvcGraphStoreEntries) =
      static_cast<std::int64_t>(graphs.entries);
}

TrialMetrics Service::metrics_snapshot() const {
  TrialMetrics snapshot = metrics_;
  mirror_store_stats(snapshot);
  return snapshot;
}

void Service::finalize_telemetry(Pending& entry, double now_seconds) {
  // Close out the span set: the worker's solve sub-spans (leaders
  // only) merge here on the dispatch thread in arrival order, then the
  // finalize/write bookends.
  for (SpanRec& span : entry.worker_spans) {
    entry.spans.push_back(std::move(span));
  }
  entry.worker_spans.clear();
  entry.spans.push_back(make_span("finalize", now_seconds, now_seconds));
  const double written = clock_.elapsed_seconds();
  entry.spans.push_back(make_span("write", written, written));
  finish_request(entry, entry.response.ok ? "ok" : "error", now_seconds);
}

void Service::finish_request(Pending& entry, const char* status,
                             double end_seconds) {
  // Every duration comes from the span set; a request that never
  // queued or ran no cold solve has no such span and reads 0.
  const SpanRec* queue = find_span(entry.spans, "queue");
  const SpanRec* solve = find_span(entry.spans, "solve");
  const std::uint64_t queue_us =
      queue != nullptr ? to_us(queue->duration_seconds) : 0;
  const std::uint64_t solve_us =
      solve != nullptr ? to_us(solve->duration_seconds) : 0;
  const std::uint64_t total_us =
      to_us(end_seconds - entry.spans.front().start_seconds);
  const auto observe = [this, &entry](Hist hist, std::uint64_t us) {
    metrics_.hists[static_cast<std::size_t>(hist)].observe(us);
    exemplars_[static_cast<std::size_t>(hist)].offer(us, entry.trace_id);
  };
  if (queue != nullptr) {
    // The latency histograms cover admitted requests only: a queue-full
    // rejection never queued and records none.
    observe(Hist::kSvcRequestLatencyUs, total_us);
    observe(Hist::kSvcQueueWaitUs, queue_us);
    if (entry.cold) observe(Hist::kSvcSolveLatencyUs, solve_us);
  }
  if (access_log_ != nullptr) {
    AccessEntry logged;
    logged.seq = entry.seq;
    logged.id = entry.request.id;
    logged.op = op_name(entry.request.op);
    logged.status = status;
    logged.trace = entry.trace_id;
    logged.has_trace = true;
    logged.cache = entry.response.cache;
    if (entry.request.op == SvcRequest::Op::kSolve) {
      logged.method = entry.request.method;
    }
    logged.fingerprint = entry.key.fingerprint;
    logged.has_fingerprint = entry.has_key;
    if (entry.response.ok && entry.response.has_solve) {
      logged.cut = static_cast<std::int64_t>(entry.response.cut);
      logged.has_cut = true;
    }
    logged.error = entry.response.error;
    if (!entry.internal_detail.empty()) {
      // The access log keeps the full failure text the wire hides.
      logged.error += " (" + entry.internal_detail + ")";
    }
    logged.t_queue_us = queue_us;
    logged.t_solve_us = solve_us;
    logged.t_total_us = total_us;
    access_log_->append(logged);
  }
  // The completed set replaces the in-flight record in the flight ring.
  metrics_.counter(Counter::kSvcTraceSpans) += entry.spans.size();
  flight_->complete(entry.span_set(status));
  metrics_.gauge(Gauge::kSvcFlightRing) =
      static_cast<std::int64_t>(flight_->completed().size());
}

void Service::process_batch(std::vector<std::string>& out,
                            const std::atomic<bool>* stop) {
  if (queue_.empty()) return;
  // batch-site fault injection: the ordinal counts non-empty batches,
  // a deterministic function of the submit/process call sequence.
  // crash@batch:N is the chaos suite's SIGKILL — batches before N are
  // fully journaled and flushed, this one dies before any work.
  maybe_inject_fault(&options_.faults, FaultSite::kBatch, batch_ordinal_++,
                     Deadline(), stop);
  const bool stopping =
      stop != nullptr && stop->load(std::memory_order_acquire);

  // Brownout decision for the whole batch, from dispatch-time queue
  // depth and the recent deadline-miss window — scheduler-visible
  // state only, so a stdio --replay reproduces the same levels.
  update_brownout();
  metrics_.gauge(Gauge::kSvcBatchSize) =
      static_cast<std::int64_t>(queue_.size());

  const std::vector<Pending*> leaders = resolve(stopping);
  solve(leaders, stop);
  answer(out);

  // Journal upkeep: compact once the file outgrows the resident cache,
  // and surface a write failure exactly once (the service keeps
  // serving; durability is degraded until restart).
  if (store_ != nullptr) {
    const std::uint64_t rewritten = store_->maybe_compact(cache_, &lineage_);
    if (rewritten > 0) {
      metrics_.counter(Counter::kSvcCacheJournalBytes) += rewritten;
      ++metrics_.counter(Counter::kSvcCacheCompactions);
    }
    if (!store_->ok() && !store_warned_) {
      store_warned_ = true;
      std::cerr << "gbis: serve: cache journal " << store_->path()
                << ": write failed; continuing without durability\n";
    }
  }

  mirror_store_stats(metrics_);
  metrics_.gauge(Gauge::kSvcQueueDepth) = 0;
  metrics_.gauge(Gauge::kSvcInflight) = 0;
}

std::vector<Service::Pending*> Service::resolve(bool stopping) {
  const double dispatch_seconds = clock_.elapsed_seconds();
  for (auto& entry : queue_) {
    entry->spans.push_back(make_span(
        "queue", entry->spans.front().start_seconds, dispatch_seconds));
  }
  // Parse results are already in; resolve identities, load graphs and
  // decide hit / coalesce / cold in arrival order.
  LeaderMap by_key;
  std::vector<Pending*> leaders;
  for (auto& entry_ptr : queue_) {
    Pending& entry = *entry_ptr;
    const bool mutate = entry.request.op == SvcRequest::Op::kMutate;
    if (entry.done || (!mutate && entry.request.op != SvcRequest::Op::kSolve)) {
      continue;
    }
    if (stopping) {
      entry.fail("shutdown: request drained before any trial ran");
      continue;
    }
    const double start = clock_.elapsed_seconds();
    if (mutate) {
      resolve_mutate(entry);
      entry.spans.push_back(
          make_span("mutate", start, clock_.elapsed_seconds()));
      continue;
    }
    resolve_solve(entry, by_key);
    entry.spans.push_back(make_span("lookup", start, clock_.elapsed_seconds()));
    if (!entry.cold) continue;
    leaders.push_back(&entry);
    if (entry.warm_start) {
      // The projection's edit count is the span's "cut" payload — it is
      // what the guardrail reasons about.
      const double at = clock_.elapsed_seconds();
      entry.spans.push_back(make_span(
          "warm.project", at, at, static_cast<std::int64_t>(entry.warm_edits)));
    }
  }
  // Checkpoint every in-flight set now that lookups are resolved: from
  // here to phase 3 the driver never touches these spans, so the flight
  // recorder's slots are quiescent while workers run — which is what
  // makes the crash-path dump complete AND race-free.
  for (auto& entry : queue_) {
    flight_->record_inflight(entry->span_set("pending"));
  }
  return leaders;
}

void Service::solve(const std::vector<Pending*>& leaders,
                    const std::atomic<bool>* stop) {
  // Cross-request parallelism only; trials inside a request stay serial
  // (svc/policy).
  metrics_.gauge(Gauge::kSvcInflight) =
      static_cast<std::int64_t>(leaders.size());
  if (leaders.empty()) return;
  const auto outcomes = pool_.parallel_for_collect(
      leaders.size(), [&](std::size_t j) { solve_one(*leaders[j], stop); },
      stop);
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    if (outcomes[j].state == JobState::kDone) continue;
    // kNotRun (drained) stays kSkipped; a thrown job takes the trial
    // exception mapping (failed_trial: a deadline overrun kTimedOut,
    // an allocation failure flagged oom for the stable reason).
    PolicyResult& result = leaders[j]->result;
    result = PolicyResult{};
    if (outcomes[j].state == JobState::kError) {
      TrialResult failure = failed_trial(outcomes[j].error);
      result.status = failure.status;
      result.first_error = std::move(failure.error);
      result.oom = failure.oom;
    }
  }
}

void Service::solve_one(Pending& entry, const std::atomic<bool>* stop) const {
  const double start = clock_.elapsed_seconds();
  // One deadline for the whole solve: the fault sites, the warm refine
  // and a guardrail fallback to the cold policy all spend the same
  // request budget.
  const Deadline deadline = entry.deadline_seconds > 0
                                ? Deadline::after(entry.deadline_seconds)
                                : Deadline();
  // req-/solve-site fault injection, at the exact point a cold solve
  // starts. Exceptions land in the pool's per-job error slot and are
  // mapped like any other solve failure.
  maybe_inject_fault(&options_.faults, FaultSite::kReq, entry.seq, deadline,
                     stop);
  maybe_inject_fault(&options_.faults, FaultSite::kSolve, entry.solve_ordinal,
                     deadline, stop);
  SpanBuffer spans(&entry.worker_spans);
  if (!entry.warm_start || !solve_warm(entry, deadline, spans)) {
    const std::size_t first = entry.worker_spans.size();
    const double policy_start = clock_.elapsed_seconds();
    entry.result = run_policy(*entry.graph, entry.spec, entry.seed,
                              options_.run, /*keep_sides=*/true, stop, &spans,
                              deadline);
    // Policy spans are recorded against the policy's own clock; rebase
    // them onto the service epoch (wall-clock data only — structure is
    // already epoch-free).
    for (std::size_t k = first; k < entry.worker_spans.size(); ++k) {
      entry.worker_spans[k].start_seconds += policy_start;
    }
  }
  const double end = clock_.elapsed_seconds();
  entry.worker_spans.insert(entry.worker_spans.begin(),
                            make_span("solve", start, end));
}

bool Service::solve_warm(Pending& entry, const Deadline& deadline,
                         SpanBuffer& spans) const {
  // Refine the projected ancestor partition with bounded KL. The
  // quality guardrail compares against what the chain could plausibly
  // have cost — each edit can change the cut by at most its own
  // weight-1 edge, so a warm cut far beyond parent + edits means the
  // projection landed badly and the cold policy should run instead.
  const double start = clock_.elapsed_seconds();
  WarmSolveResult warm =
      warm_solve(*entry.graph, std::move(entry.warm_seed),
                 SvcOptions::warm_max_passes, deadline);
  spans.offer(
      make_span("warm.refine", start, clock_.elapsed_seconds(), warm.cut));
  const Weight bound =
      2 * (entry.warm_parent_cut + static_cast<Weight>(entry.warm_edits)) + 8;
  if (warm.cut > bound) return false;
  PolicyResult& result = entry.result;
  result.status = TrialStatus::kOk;
  result.best_cut = warm.cut;
  result.best_method = Method::kKl;
  result.ok = 1;
  result.warm = true;
  result.best_sides = std::move(warm.sides);
  return true;
}

void Service::answer(std::vector<std::string>& out) {
  for (auto& entry_ptr : queue_) {
    Pending& entry = *entry_ptr;
    SvcResponse& response = entry.response;
    if (!entry.done) {
      switch (entry.request.op) {
        case SvcRequest::Op::kPing:
          response.ok = true;
          response.op = "ping";
          break;
        case SvcRequest::Op::kStats:
          response.ok = true;
          response.op = "stats";
          if (entry.request.format == "prom") {
            std::ostringstream prom;
            write_prom(prom);
            response.prom = prom.str();
          } else {
            fill_stats(response);
          }
          break;
        case SvcRequest::Op::kTrace:
          fill_trace(entry);
          break;
        default:
          finalize_solve(entry);  // a leader or a follower
      }
    }
    emit(entry, out);
    // After the response: a stats op reports the latencies of requests
    // strictly before it in the stream, which keeps its *_count fields
    // deterministic.
    finalize_telemetry(entry, clock_.elapsed_seconds());
  }
  queue_.clear();
  if (access_log_ != nullptr) access_log_->flush();
}

void Service::emit(Pending& entry, std::vector<std::string>& out) {
  // Echo the trace id only when the client supplied one — derived ids
  // live in the access log / flight recorder, so byte streams of
  // trace-unaware clients are unchanged.
  if (entry.client_trace && !entry.response.has_trace) {
    entry.response.trace_id = entry.trace_id;
    entry.response.has_trace = true;
  }
  out.push_back(encode_response(entry.response));
}

void Service::drain(std::vector<std::string>& out,
                    const std::atomic<bool>* stop) {
  while (!queue_.empty()) process_batch(out, stop);
}

}  // namespace gbis
