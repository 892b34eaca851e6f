// The partition service scheduler: an embeddable front end that turns
// NDJSON request lines (svc/protocol) into solved bisections, batching
// admitted requests onto the harness ThreadPool and answering repeats
// from the LRU result cache (svc/cache).
//
// process_batch is three phases over the queued requests:
//   * resolve (dispatch thread, arrival order) resolves each solve's
//     identity, applies the brownout clamp or shed, loads and
//     fingerprints its graph, looks up the cache, coalesces duplicates
//     onto their leader, completes mutates and plans warm starts. It
//     alone touches the cache, graph store and lineage before the
//     solves run, and it hands phase 2 the batch's cold-solve leaders.
//   * solve (worker pool) runs one job per leader. A job writes only
//     its leader's `result` and `worker_spans`; it reads the rest of
//     that record and the options, and no other Service state.
//   * answer (dispatch thread, arrival order) fills ping, stats and
//     trace payloads, finalizes each solve (cache insert, journal
//     append, counters, the brownout miss window), lets a follower
//     answer with its leader's result, and emits every response.
//
// Determinism contract — the whole point of the design:
//   * Responses are emitted in request-arrival order (the single
//     exception is a queue-full rejection, which is produced at submit
//     time because a full queue has nowhere to hold it).
//   * All cache lookups, cache inserts, and counter updates happen on
//     the dispatching thread, in arrival order; the worker pool only
//     ever runs the solve bodies. Combined with the per-request seeding
//     scheme (svc/policy), the response byte stream is a pure function
//     of the request byte stream plus the service options, for ANY
//     worker count — `gbis serve --replay` asserts exactly this.
//   * Duplicate solve keys inside one batch coalesce onto the first
//     occurrence (the leader); followers answer "cache":"coalesced"
//     without spending budget.
//
// The service is single-driver: one thread calls submit_line /
// process_batch / drain (the CLI serve loop, or a test). It is not a
// socket server on purpose — stdin/stdout framing keeps it trivially
// embeddable and testable; callers who need transport put one in front.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gbis/dyn/graph_store.hpp"
#include "gbis/dyn/lineage.hpp"
#include "gbis/harness/fault_injection.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/harness/thread_pool.hpp"
#include "gbis/harness/timer.hpp"
#include "gbis/obs/flight_recorder.hpp"
#include "gbis/obs/metrics.hpp"
#include "gbis/svc/access_log.hpp"
#include "gbis/svc/cache.hpp"
#include "gbis/svc/cache_store.hpp"
#include "gbis/svc/policy.hpp"
#include "gbis/svc/protocol.hpp"

namespace gbis {

/// Service configuration. Defaults suit the CLI; tests shrink them.
struct SvcOptions {
  /// Admitted requests dispatched per process_batch call. The serve
  /// loop flushes whenever this many are queued (and at EOF), so it is
  /// also the coalescing window. 1 = fully interactive, no batching.
  std::size_t batch_size = 16;
  /// Admission bound: submit_line rejects ("rejected: queue full")
  /// once this many requests are queued and unprocessed.
  std::size_t max_queue = 256;
  /// Result-cache byte budget; 0 disables caching.
  std::uint64_t cache_bytes = 64ull << 20;
  /// Trials per solve when the request does not say ("budget":0/absent).
  std::uint32_t default_budget = 2;
  /// Request deadline in seconds when the request does not say; 0 =
  /// unlimited.
  double default_deadline_seconds = 0;
  /// Seed for requests without one. Part of the solve identity.
  std::uint64_t default_seed = 42;
  /// Ladder rung for "auto" solves that do not say ("quality" absent).
  /// kBest races the historical portfolio, so pre-ladder request
  /// streams replay byte-identically under the default.
  QualityTier default_quality = QualityTier::kBest;
  /// Worker threads for cross-request parallelism; 0 = hardware.
  unsigned threads = 0;
  /// Per-request JSONL access log destination (svc/access_log);
  /// "" = off. Opened append-mode at construction.
  std::string access_log_path;
  /// Access-log size bound in whole mebibytes: once the file would
  /// cross it, it rolls to `<path>.1` and starts fresh. 0 = unbounded
  /// (the historical behavior).
  std::uint64_t access_log_max_mb = 0;
  /// Flight-recorder dump path (`--flight-file` / GBIS_SVC_FLIGHT):
  /// the fd pre-opened for async-signal-safe JSONL dumps on SIGQUIT
  /// and the injected-crash path. "" = the recorder still serves
  /// op:"trace" from memory but signal dumps go nowhere.
  std::string flight_file;
  /// Completed span sets held by the flight recorder's ring.
  std::uint32_t flight_ring = 64;
  /// Trace-export duration filter in milliseconds (`--slow-ms`):
  /// write_trace keeps a completed span set only if its accept -> write
  /// time reaches it. < 0 (unset) keeps every set.
  double slow_ms = -1;
  /// Durable result-cache journal path (svc/cache_store); "" = the
  /// cache is memory-only. A warm restart replays the journal before
  /// the first request, so repeats of pre-crash solves answer as hits
  /// with byte-identical payloads.
  std::string cache_file;
  /// Service fault plan (kServiceFaults, GBIS_SVC_FAULTS); empty = no
  /// faults.
  FaultPlan faults;
  /// Overload brownout ladder (see docs/ROBUSTNESS.md): false turns
  /// every level into 0 (no clamping, no shedding).
  bool brownout = true;
  /// Cold-solve outcomes in the deadline-miss window the brownout
  /// controller watches.
  std::uint32_t brownout_window = 32;
  /// Graph-store byte budget (dyn/graph_store): materialized graphs a
  /// mutate or solve-by-fingerprint request can reference. 0 keeps
  /// only the most recent graph (the store always retains one).
  std::uint64_t graph_store_bytes = 256ull << 20;
  /// Lineage chain-depth cap: a mutate whose parent already sits at
  /// this depth is rejected ("mutate: lineage depth limit ...").
  std::uint32_t lineage_max_depth = 64;
  /// Lineage record cap; at the cap new mutates are rejected
  /// ("mutate: lineage store full").
  static constexpr std::uint64_t lineage_max_records = 65536;
  /// Warm-start solves (dyn/warm): project a cached ancestor partition
  /// through the lineage and refine with bounded KL instead of cold
  /// portfolio racing. false = every solve runs cold.
  bool warm = true;
  /// Warm-start edit guardrail: the chain's cumulative edit distance
  /// must stay within this fraction of the target's |E|+1, else the
  /// solve runs cold (the ancestor partition is too stale to help).
  static constexpr double warm_edit_ratio = 0.25;
  /// KL pass cap for warm refinement.
  static constexpr std::uint32_t warm_max_passes = 8;
  /// Solver knobs shared by every request (KlOptions etc.). The obs
  /// block and metric sinks are ignored — the service keeps its own.
  RunConfig run;
};

/// The largest mebibyte count (cache, graph store, access-log budgets)
/// whose byte value still fits in 64 bits.
inline constexpr std::uint64_t kMaxMebibytes = (std::uint64_t{1} << 44) - 1;

/// Overlays GBIS_SVC_CACHE_MB (whole mebibytes; 0 disables the cache),
/// GBIS_SVC_ACCESS_LOG (a path), GBIS_SVC_SLOW_MS (milliseconds,
/// >= 0), GBIS_SVC_CACHE_FILE (a journal path), GBIS_SVC_FAULTS (a
/// service fault plan), GBIS_SVC_BROWNOUT (0/1),
/// GBIS_SVC_BROWNOUT_WINDOW (> 0), GBIS_SVC_GRAPH_MB (whole mebibytes
/// for the graph store), GBIS_SVC_WARM (0/1), and GBIS_SVC_QUALITY
/// (fast|balanced|best, the ladder rung for "auto" solves that do not
/// say), GBIS_SVC_FLIGHT (a flight-recorder dump path),
/// GBIS_SVC_FLIGHT_RING (> 0 completed span sets held), and
/// GBIS_SVC_ACCESS_LOG_MAX_MB (whole mebibytes; 0 = unbounded) onto
/// `base`.
/// Malformed values warn on stderr and keep the default, matching
/// every other GBIS_* knob. Counts and milliseconds follow the flags'
/// whole-text rules (util/env); a mebibyte count is also malformed
/// above kMaxMebibytes.
SvcOptions svc_options_from_env(SvcOptions base);

/// The service. See the file comment for the determinism contract.
class Service {
 public:
  explicit Service(SvcOptions options);
  ~Service();  // out-of-line: Pending is an implementation detail

  /// Feeds one request line. Responses that become ready — which is
  /// only a queue-full rejection here; everything else waits for a
  /// batch — are appended to `out` as encoded lines without trailing
  /// newlines. Call process_batch once pending() reaches batch_size.
  /// The two-argument form is the stdio path: connection id 0 with a
  /// service-internal line ordinal, so its trace ids are a pure
  /// function of line position.
  void submit_line(const std::string& line, std::vector<std::string>& out);

  /// Transport-aware submit: `conn_id` and `conn_ordinal` (lines
  /// previously submitted on that connection) derive the request's
  /// trace id via splitmix64_at(conn_id, conn_ordinal) — deterministic
  /// per (connection, line) at any thread count. The listener calls
  /// this; embedders with their own framing can too.
  void submit_line(const std::string& line, std::vector<std::string>& out,
                   std::uint64_t conn_id, std::uint64_t conn_ordinal);

  /// Dispatches every queued request and appends their responses to
  /// `out` in arrival order. When `stop` is non-null and set, queued
  /// solves drain as "shutdown" errors instead of running (in-flight
  /// pool jobs still finish) — the kill-mid-replay path.
  void process_batch(std::vector<std::string>& out,
                     const std::atomic<bool>* stop = nullptr);

  /// Flushes everything still queued (EOF / shutdown).
  void drain(std::vector<std::string>& out,
             const std::atomic<bool>* stop = nullptr);

  std::size_t pending() const { return queue_.size(); }
  const SvcOptions& options() const { return options_; }
  const SvcCacheStats& cache_stats() const { return cache_.stats(); }
  const GraphStoreStats& graph_store_stats() const {
    return graph_store_.stats();
  }
  /// Lineage records currently held (tests and the stats op).
  std::uint64_t lineage_size() const { return lineage_.size(); }
  /// Service-lifetime obs counters, gauges, and latency histograms
  /// (svc.* plus nothing else; solver counters stay with the solver
  /// runs that own them). Cache counters and svc.cache.bytes are
  /// mirrored once per batch — metrics_snapshot() re-mirrors them
  /// fresh, which is what the prom exposition and stats op use.
  const TrialMetrics& metrics() const { return metrics_; }
  TrialMetrics metrics_snapshot() const;
  /// False when the configured access log could not be opened.
  bool access_log_ok() const;
  /// False when the configured cache journal could not be opened for
  /// writing (corruption is tolerated and is NOT this — see
  /// svc/cache_store).
  bool cache_store_ok() const;
  /// Current brownout ladder rung (0 = normal ... 3 = shedding),
  /// recomputed at every batch dispatch.
  std::uint32_t brownout_level() const { return brownout_level_; }
  /// The request-trace flight recorder (always present; the ring backs
  /// op:"trace" even with no dump file configured).
  const FlightRecorder& flight() const { return *flight_; }
  /// False when the configured --flight-file could not be opened.
  bool flight_ok() const { return flight_ok_; }
  /// Prometheus exposition with latency-histogram exemplars attached —
  /// what the stats op's "prom" format and the CLI --stats-file
  /// snapshot both emit.
  void write_prom(std::ostream& out) const;
  /// Chrome trace of the flight recorder's completed span sets, those
  /// shorter than options().slow_ms left out — the serve trace.json.
  void write_trace(std::ostream& out) const;

  /// Listener hooks (svc/listener.*). Single-driver like everything
  /// else here: the listener event loop runs on the same thread that
  /// calls submit_line/process_batch, so these are plain updates of
  /// the service's own metric slots.
  void note_conn_opened();                ///< svc.conn.accepted + gauge
  void note_conn_closed(bool slow);       ///< svc.conn.closed (+slow_closed)
  void note_conn_rejected();              ///< svc.conn.rejected (limit)
  void note_quota_rejected();             ///< svc.quota_rejected

 private:
  struct Pending;
  using LeaderMap = std::unordered_map<SvcCacheKey, Pending*, SvcCacheKeyHash>;

  /// Phase 1 (dispatch thread, arrival order): stamps every queue span,
  /// resolves every queued solve and mutate, then checkpoints each set
  /// as "pending". Returns the batch's cold-solve leaders.
  std::vector<Pending*> resolve(bool stopping);
  /// Identity, brownout, graph, cache lookup and coalescing of one solve;
  /// a new leader enters `leaders` and gets its warm start planned.
  void resolve_solve(Pending& entry, LeaderMap& leaders);
  /// The whole mutate op — parent lookup, apply, lineage + graph-store
  /// inserts, journal append — so a later request in the same batch can
  /// already reference the child fingerprint.
  void resolve_mutate(Pending& entry);
  /// Lineage walk + partition projection onto a leader's graph.
  void plan_warm(Pending& entry);
  /// Phase 2 (worker pool): one job per leader. A job that throws or
  /// never runs resets its leader's `result` through failed_trial.
  void solve(const std::vector<Pending*>& leaders,
             const std::atomic<bool>* stop);
  /// One leader's solve: writes only `entry.result` and
  /// `entry.worker_spans`.
  void solve_one(Pending& entry, const std::atomic<bool>* stop) const;
  /// Warm refine of a planned leader; false sends it cold (the quality
  /// guardrail tripped).
  bool solve_warm(Pending& entry, const Deadline& deadline,
                  SpanBuffer& spans) const;
  /// Phase 3 (dispatch thread, arrival order): payloads, solve
  /// finalization, then every response and its telemetry.
  void answer(std::vector<std::string>& out);
  /// Answers a leader (cache insert, journal, counters, miss window) or
  /// a follower (its leader's result, "cache":"coalesced").
  void finalize_solve(Pending& entry);
  void update_brownout();
  void note_solve_outcome(bool deadline_miss);
  void fill_stats(SvcResponse& response) const;
  /// Phase-3 handler for op:"trace": exports one span set (request has
  /// a "trace" id) or the whole completed ring.
  void fill_trace(Pending& entry);
  /// Echoes a client trace id and appends the encoded response.
  static void emit(Pending& entry, std::vector<std::string>& out);
  void finalize_telemetry(Pending& entry, double now_seconds);
  /// The one exit of a request record, from phase 3 or a queue-full
  /// rejection: reads the timings from the span set (queue span, solve
  /// span, accept -> `end_seconds`), feeds the latency histograms and
  /// their exemplars, appends the access-log line and completes the set
  /// into the flight ring under `status`.
  void finish_request(Pending& entry, const char* status, double end_seconds);
  /// Mirrors the cache's and graph store's own monotone counters and
  /// gauges into `into` (absolute: both sides count service lifetime).
  void mirror_store_stats(TrialMetrics& into) const;
  static void fill_from_value(SvcResponse& response, const SvcCacheValue& value,
                              bool want_sides);

  SvcOptions options_;
  ThreadPool pool_;
  SvcResultCache cache_;
  GraphStore graph_store_;
  SvcLineage lineage_;
  std::unique_ptr<SvcCacheStore> store_;  ///< non-null with cache_file
  bool store_open_ok_ = true;
  bool store_warned_ = false;  ///< one stderr warning per write failure
  TrialMetrics metrics_;
  std::vector<std::unique_ptr<Pending>> queue_;
  std::unique_ptr<AccessLog> access_log_;
  std::unique_ptr<FlightRecorder> flight_;
  bool flight_ok_ = true;
  std::uint64_t stdio_submitted_ = 0;  ///< 2-arg submit_line ordinal
  /// Max-latency exemplars per histogram, fed with it (stats v5 +
  /// OpenMetrics exemplar rows; only the svc latency ones get samples).
  std::array<HistExemplars, kNumHists> exemplars_{};
  WallTimer clock_;               ///< service epoch for all timings
  std::uint64_t next_seq_ = 0;    ///< request ordinal (access-log "seq")
  std::uint64_t batch_ordinal_ = 0;  ///< non-empty batches dispatched
  std::uint64_t cold_ordinal_ = 0;   ///< cold solves started (leaders)
  // Brownout controller state: the current rung plus a sliding window
  // of recent cold-solve outcomes (true = deadline miss), all updated
  // on the dispatch thread in arrival order.
  std::uint32_t brownout_level_ = 0;
  std::deque<bool> miss_window_;
  std::uint64_t window_misses_ = 0;
};

}  // namespace gbis
