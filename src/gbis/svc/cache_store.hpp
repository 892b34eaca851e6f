// Durable backing store for the partition service's result cache
// (svc/cache): an append-only JSONL journal with CRC-guarded lines and
// atomic tmp+rename compaction, written and read through io/journal
// like the campaign checkpoint journal (harness/checkpoint).
//
// File format (one flat JSON object per line, util/json_lite contract):
//
//   {"type":"svc_cache","version":2}                          <- header
//   {"fingerprint":"<hex16>","method_key":N,"budget":N,"seed":N,
//    "deadline_bits":"<hex16>","cut":N,"method":"CKL","trials_ok":N,
//    "degraded":N,"warm":1,"sides":"0110...","crc":"<hex16>"} <- entry
//   {"lineage":1,"child":"<hex16>","parent":"<hex16>","batch":"<hex16>",
//    "adds":N,"dels":N,"vadds":N,"vdels":N,"edit":N,"depth":N,"pv":N,
//    "vertices":N,"edges":N,"crc":"<hex16>"}                  <- lineage
//
// Every entry carries the full solve-identity key (the same
// SvcCacheKey the live cache uses, graph fingerprint included) plus
// the cached value, and ends in a Hash64 CRC over the preceding bytes
// of its own line. The optional "warm" field (emitted only when set,
// so version-1 cold entries are byte-identical under version 2) marks
// a lineage warm-start result. Lineage lines journal the dynamic-graph
// subsystem's derivation edges (dyn/lineage) — identity only, no
// vertex maps — so a warm restart can answer repeated mutates
// byte-identically; restored edges are non-projectable until the chain
// is re-materialized. A crash mid-append leaves a torn tail, a last
// line without its '\n' that restore never reads; a damaged complete
// line fails the CRC (or the structural gate). Either way restore falls
// back to the longest valid prefix and compacts — corruption never
// crashes the service and a damaged line is never served. Version-1
// files (no lineage lines, no warm fields) restore unchanged.
//
// Restore replays valid entries in append order into the LRU (so the
// recency order survives a restart), then compacts the file when the
// tail was damaged or the journal carries dead weight (refreshed or
// evicted entries). At runtime every insert appends one line and
// flushes before the scheduler emits the batch's responses, keeping
// the invariant that any response a client saw is recoverable from the
// journal. Single-driver like the cache itself: the service scheduler
// owns all calls on the dispatch thread.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "gbis/dyn/lineage.hpp"
#include "gbis/svc/cache.hpp"

namespace gbis {

/// What a warm restart recovered (mirrored into svc.cache.* counters).
struct SvcCacheRestore {
  std::uint64_t entries_restored = 0;  ///< valid entries replayed
  std::uint64_t lineage_restored = 0;  ///< valid lineage edges replayed
  std::uint64_t lines_dropped = 0;     ///< invalid-tail lines discarded
  std::uint64_t bytes_written = 0;     ///< bytes appended during open
  bool compacted = false;              ///< the open rewrote the journal
};

/// The journal. Construct, then open_and_restore() once; append() /
/// append_lineage() per insert; maybe_compact() once per batch.
class SvcCacheStore {
 public:
  explicit SvcCacheStore(std::string path) : path_(std::move(path)) {}

  /// Opens the journal and replays its longest valid prefix into
  /// `cache` and (when non-null) `lineage` (both should be empty).
  /// Tolerates a missing file (fresh journal), a torn or corrupt tail
  /// (drops it and compacts), and a foreign or wrong-version header
  /// (restores nothing, rewrites fresh). Returns false only when the
  /// path cannot be opened for writing — the one condition the caller
  /// should treat as fatal configuration.
  bool open_and_restore(SvcResultCache& cache, SvcLineage* lineage,
                        SvcCacheRestore& report);

  /// Appends one entry line and flushes. Returns the bytes appended
  /// (0 on a write error, which also clears ok()).
  std::uint64_t append(const SvcCacheKey& key, const SvcCacheValue& value);

  /// Appends one lineage line and flushes (same error contract).
  std::uint64_t append_lineage(const LineageRecord& record);

  /// Compacts when the journal has outgrown its resident state (dead
  /// entries from refreshes and evictions): rewrites lineage records
  /// in insertion order, then live cache entries in LRU->MRU order, to
  /// `<path>.tmp`, renames over the journal, and reopens for append.
  /// Returns the bytes written by the rewrite, 0 when no compaction
  /// ran. `lineage` may be null (no lineage lines are written).
  std::uint64_t maybe_compact(const SvcResultCache& cache,
                              const SvcLineage* lineage);

  /// False after any write failure; the service keeps serving (the
  /// cache still works, durability is degraded) and warns once.
  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }
  /// Entry lines in the current journal file (restore + appends).
  std::uint64_t file_entries() const { return file_entries_; }

  // Wire format, exposed for the corruption-corpus tests.
  static std::string header_line();
  static std::string encode_entry(const SvcCacheKey& key,
                                  const SvcCacheValue& value);
  static bool decode_entry(const std::string& line, SvcCacheKey& key,
                           SvcCacheValue& value);
  static std::string encode_lineage(const LineageRecord& record);
  /// Decoded records carry an empty vertex map (maps are not
  /// journaled): valid for identity, non-projectable for warm starts.
  static bool decode_lineage(const std::string& line, LineageRecord& record);
  /// True when `line` is a lineage line (top-level "lineage" key) —
  /// how restore dispatches between the two line kinds.
  static bool is_lineage_line(const std::string& line);
  /// The CRC every entry line carries (Hash64 over the line's bytes
  /// before the ",\"crc\":" suffix, length-extended).
  static std::uint64_t text_crc(const std::string& text);

 private:
  std::uint64_t write_line(const std::string& line);
  std::uint64_t rewrite(const SvcResultCache& cache,
                        const SvcLineage* lineage);

  std::string path_;
  std::ofstream out_;
  std::uint64_t file_entries_ = 0;
  bool ok_ = true;
};

}  // namespace gbis
