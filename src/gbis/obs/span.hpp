// Request spans for the partition service: the causal record of one
// request's path through accept -> parse -> admit -> queue -> phase-1
// lookup/mutate -> solve (with per-method sub-spans from the registry)
// -> finalize -> write. A SpanSet is everything one request recorded,
// and it is the service's only per-request record: the access log and
// the latency histograms read their timings from it, and the flight
// recorder (obs/flight_recorder) keeps the last N completed sets plus
// every in-flight one for op:"trace", signal dumps and the serve
// trace.json (obs/trace_export). The scheduler assembles a set on the
// dispatch thread in arrival order; workers contribute only their own
// solve sub-spans.
//
// Determinism contract (the service-wide one, see docs/SERVICE.md):
// span *structure* — names, order, step ordinals, cut values, the
// trace id — is a pure function of the request stream at any
// GBIS_THREADS. The per-span `t_start_us` / `t_dur_us` fields are
// wall-clock data; like every other timing key they end in "_us" and
// sit last in each span object, so byte comparisons strip them with
// the one shared pattern.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gbis/obs/metrics.hpp"

namespace gbis {

/// One recorded span. `step`/`value`/`aux` are optional payloads:
/// `step` is a pass/trial ordinal, `value` a cut (or edit count for
/// warm.project), `aux` an SA temperature.
struct SpanRec {
  std::string name;  ///< taxonomy name ("accept", "kl.pass", ...)
  std::uint64_t step = 0;
  bool has_step = false;
  std::int64_t value = 0;  ///< encoded as "cut"
  bool has_value = false;
  double aux = 0.0;  ///< encoded as "temp" (SA sub-spans)
  bool has_aux = false;
  /// Wall-clock placement against the service epoch — nondeterministic;
  /// encoded last in the span object as t_start_us / t_dur_us.
  double start_seconds = 0;
  double duration_seconds = 0;
};

/// Everything one request recorded: identity plus its spans in
/// chronological (record) order.
struct SpanSet {
  std::uint64_t trace_id = 0;  ///< rendered to_hex16 on every surface
  std::uint64_t seq = 0;       ///< request ordinal (access-log "seq")
  std::string id;              ///< request id, verbatim
  std::string op;              ///< "solve" | "ping" | ... (op_name)
  std::string status;          ///< "queued"/"pending" in flight; "ok"/"error"/"rejected" done
  std::vector<SpanRec> spans;
};

/// Whole microseconds, rounded; 0 for a non-positive or NaN duration.
/// Every "_us" value a span feeds (span lines, access-log timings,
/// latency histograms) goes through it.
std::uint64_t to_us(double seconds);

/// Encodes one span set as a single JSON line (no trailing newline):
/// `{"state":"done","trace":"<hex16>","seq":N,...,"spans":[...]}` with
/// all non-"_us" keys first in each span object. `state` is "done" for
/// completed sets and "inflight" for crash/SIGQUIT dumps of live work.
std::string encode_span_set(const SpanSet& set, const char* state);

/// Sub-span taxonomy name of a convergence-trace source: kl.pass,
/// sa.temp, fm.pass, po.pass.
const char* span_name_for_trace_source(TraceSource source);

/// Bounded span collector for the solve path (svc/policy): the same
/// deterministic stride-doubling decimation as the convergence trace,
/// so a budget-1e6 request cannot grow an unbounded span list and the
/// kept subset is thread-count invariant. Default-constructed it is the
/// null buffer: offer() is a no-op (bench/micro_obs prices exactly
/// that), and -DGBIS_DISABLE_OBS empties the body entirely.
class SpanBuffer {
 public:
  SpanBuffer() = default;
  explicit SpanBuffer(std::vector<SpanRec>* dest,
                      std::uint32_t capacity = kDefaultCapacity);

  /// Offers one span; kept or dropped purely as a function of the
  /// offered sequence.
  void offer(SpanRec rec);

  bool bound() const { return dest_ != nullptr; }

  static constexpr std::uint32_t kDefaultCapacity = 48;

 private:
  std::vector<SpanRec>* dest_ = nullptr;
  std::uint32_t capacity_ = kDefaultCapacity;
  std::uint64_t ordinal_ = 0;  ///< spans offered so far
  std::uint64_t stride_ = 1;   ///< keep every stride-th span
};

}  // namespace gbis
