// The service black box: a fixed-size ring of the last N completed
// span sets plus every in-flight one, queryable by the `{"op":"trace"}`
// protocol op and dumped as JSONL on SIGQUIT or from the fatal
// crash/chaos path — so a SIGKILL-adjacent death still leaves the
// causal record of what was in flight.
//
// Two parallel representations, both maintained only on the service's
// single driver thread:
//   * structured SpanSets (deque ring + in-flight map) for the trace
//     op, the serve Chrome trace.json, and tests;
//   * pre-serialized byte slots guarded by a seqlock, so the
//     async-signal-safe dump path (SIGQUIT handler, crash hook) can
//     copy-and-write() without touching the allocator, a lock, or any
//     std::string. A reader that races a driver-side update simply
//     skips that slot (odd or changed version).
// The three-phase scheduler guarantees the slots are quiescent at
// every crash-injection site (workers crash while the driver blocks in
// the pool join; crash@batch fires on the driver itself before any
// mutation), so chaos dumps are complete, and deterministic after the
// "_us" strip.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "gbis/obs/span.hpp"

namespace gbis {

/// Byte capacity of one pre-serialized dump slot. Generous against the
/// worst decorated line (SpanBuffer caps sub-spans, so a normal set
/// encodes to a few KiB); a line that still does not fit is replaced
/// by a minimal `{"state":...,"truncated":true}` stub.
inline constexpr std::size_t kFlightSlotBytes = 12288;

class FlightRecorder {
 public:
  /// `ring_capacity` completed sets are held (oldest evicted);
  /// `inflight_slots` sizes the signal-dump slot array for live
  /// requests (the scheduler passes 2x its admission bound). Slots are
  /// only allocated once open_dump_file() succeeds — a recorder with
  /// no flight file is the cheap in-memory query surface alone.
  FlightRecorder(std::uint32_t ring_capacity, std::size_t inflight_slots);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Opens (O_TRUNC) and holds the dump fd for the async-signal-safe
  /// path. False when the path cannot be opened (the CLI treats that
  /// as an I/O error).
  bool open_dump_file(const std::string& path);
  bool dump_enabled() const { return fd_ >= 0; }

  /// Records/updates one in-flight request (driver thread; at submit
  /// and again after phase 1, so a crash mid-solve dumps the lookup
  /// spans too).
  void record_inflight(const SpanSet& set);
  /// Completes one request: moves it into the ring (evicting the
  /// oldest past capacity) and clears its in-flight slot.
  void complete(SpanSet set);

  const std::deque<SpanSet>& completed() const { return ring_; }
  std::size_t inflight_count() const { return inflight_.size(); }

  /// Most recent set recorded under `trace_id` — completed ring first
  /// (newest wins), then in-flight. Null when unknown. `*inflight` (if
  /// non-null) reports which side matched.
  const SpanSet* find(std::uint64_t trace_id, bool* inflight = nullptr) const;

  /// The whole completed ring as JSONL (state "done", oldest first,
  /// trailing newline) — the payload of a bare `{"op":"trace"}`.
  std::string export_completed() const;

  /// Async-signal-safe dump of every populated slot (completed ring
  /// oldest-first, then in-flight by slot index) to the pre-opened fd.
  /// Safe to call from a signal handler on any thread: atomics,
  /// stack buffers, and write(2) only.
  void dump_slots() const;

  /// Publishes `recorder` as the process-wide flight-dump hook
  /// (harness/shutdown trigger_flight_dump); uninstall before
  /// destroying it.
  static void install(FlightRecorder* recorder);
  static void uninstall(FlightRecorder* recorder);
  /// The installed hook body (registered with set_flight_dump_hook).
  static void signal_dump();

 private:
  struct Slot {
    std::atomic<std::uint64_t> version{0};  ///< seqlock: odd = mid-write
    std::atomic<std::uint32_t> len{0};
    char buf[kFlightSlotBytes];
  };

  void write_slot(Slot& slot, const SpanSet& set, const char* state);
  void clear_slot(Slot& slot);
  Slot* ring_slot(std::uint64_t completed_ordinal) const;
  Slot* inflight_slot(std::uint64_t seq) const;

  std::uint32_t ring_capacity_;
  std::size_t inflight_capacity_;
  std::deque<SpanSet> ring_;
  std::map<std::uint64_t, SpanSet> inflight_;  ///< by seq (ordered)
  /// completed() lifetime count; the signal reader derives the ring
  /// slot window [total - held, total) from it.
  std::atomic<std::uint64_t> completed_total_{0};
  std::unique_ptr<Slot[]> slots_;  ///< ring slots then in-flight slots
  int fd_ = -1;
};

}  // namespace gbis
