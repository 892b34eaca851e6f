#include "gbis/svc/cache_store.hpp"

#include <cstdlib>
#include <utility>

#include "gbis/io/journal.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

/// The gate both line kinds pass before their fields are read: a valid
/// object whose CRC covers every byte before its own ",\"crc\":" suffix.
/// A line without the suffix (or with bytes after the object) fails.
bool sealed(const std::string& line) {
  if (!json_object_valid(line)) return false;
  const std::size_t crc_pos = line.rfind(",\"crc\":\"");
  if (crc_pos == std::string::npos) return false;
  std::string crc_text;
  std::uint64_t crc = 0;
  return json_parse_string(line, "crc", crc_text) &&
         parse_hex16(crc_text, crc) &&
         crc == SvcCacheStore::text_crc(line.substr(0, crc_pos));
}

/// Versions 1-3 replay through the same loop: version 1 is a strict
/// subset of version 2 (no lineage lines, no "warm" fields) and version
/// 3 only adds the optional "quality" key field. Any other first line
/// is a foreign or future-version file: restore nothing, rewrite fresh.
bool known_header(const std::string& line) {
  std::string type;
  std::uint64_t version = 0;
  return json_object_valid(line) && json_parse_string(line, "type", type) &&
         type == "svc_cache" && json_parse_u64(line, "version", version) &&
         version >= 1 && version <= 3;
}

}  // namespace

std::uint64_t SvcCacheStore::text_crc(const std::string& text) {
  Hash64 h;
  std::uint64_t word = 0;
  int packed = 0;
  for (const unsigned char c : text) {
    word |= static_cast<std::uint64_t>(c) << (8 * packed);
    if (++packed == 8) {
      h.add(word);
      word = 0;
      packed = 0;
    }
  }
  if (packed != 0) h.add(word);
  // Length extension: a truncated line whose packed words happen to
  // agree must still miss.
  h.add(static_cast<std::uint64_t>(text.size()));
  return h.digest();
}

std::string SvcCacheStore::header_line() {
  return "{\"type\":\"svc_cache\",\"version\":3}";
}

std::string SvcCacheStore::encode_entry(const SvcCacheKey& key,
                                        const SvcCacheValue& value) {
  std::string line = "{\"fingerprint\":\"" + to_hex16(key.fingerprint) + "\"";
  line += ",\"method_key\":" + std::to_string(key.method_key);
  line += ",\"budget\":" + std::to_string(key.budget);
  line += ",\"seed\":" + std::to_string(key.seed);
  line += ",\"deadline_bits\":\"" + to_hex16(key.deadline_bits) + "\"";
  line += ",\"quality\":" + std::to_string(key.quality_key);
  line += ",\"cut\":" + std::to_string(value.cut);
  line += ",\"method\":";
  append_json_string(line, value.method);
  line += ",\"trials_ok\":" + std::to_string(value.trials_ok);
  line += ",\"degraded\":" + std::to_string(value.trials_degraded);
  // Emitted only when set: cold entries keep their version-1 bytes.
  if (value.warm) line += ",\"warm\":1";
  std::string sides;
  sides.reserve(value.sides.size());
  for (const std::uint8_t side : value.sides) {
    sides.push_back(side != 0 ? '1' : '0');
  }
  line += ",\"sides\":";
  append_json_string(line, sides);
  line += ",\"crc\":\"" + to_hex16(text_crc(line)) + "\"}";
  return line;
}

bool SvcCacheStore::decode_entry(const std::string& line, SvcCacheKey& key,
                                 SvcCacheValue& value) {
  if (!sealed(line)) return false;
  std::string hex;
  if (!json_parse_string(line, "fingerprint", hex) ||
      !parse_hex16(hex, key.fingerprint)) {
    return false;
  }
  std::uint64_t method_key = 0, budget = 0, trials_ok = 0, degraded = 0;
  if (!json_parse_u64(line, "method_key", method_key) ||
      method_key > 0xffffffffull ||
      !json_parse_u64(line, "budget", budget) || budget == 0 ||
      budget > 0xffffffffull || !json_parse_u64(line, "seed", key.seed) ||
      !json_parse_string(line, "deadline_bits", hex) ||
      !parse_hex16(hex, key.deadline_bits)) {
    return false;
  }
  key.method_key = static_cast<std::uint32_t>(method_key);
  key.budget = static_cast<std::uint32_t>(budget);
  // Version <= 2 lines predate the quality rung. Portfolio entries
  // were implicitly the (then only) "best" race and explicit-method
  // entries never depended on a rung, which is exactly how the
  // scheduler normalizes quality_key today — so the default
  // reconstructs the identity the entry would get now, and pre-ladder
  // journals keep answering byte-identical warm hits.
  if (json_find_value(line, "quality") != std::string::npos) {
    std::uint64_t quality = 0;
    if (!json_parse_u64(line, "quality", quality) ||
        (quality >= kNumQualityTiers &&
         quality != SvcCacheKey::kQualityNone)) {
      return false;
    }
    key.quality_key = static_cast<std::uint8_t>(quality);
  } else {
    key.quality_key = key.method_key == SvcCacheKey::kPortfolio
                          ? static_cast<std::uint8_t>(QualityTier::kBest)
                          : SvcCacheKey::kQualityNone;
  }

  std::int64_t cut = 0;
  if (!json_parse_i64(line, "cut", cut) ||
      !json_parse_string(line, "method", value.method) ||
      value.method.empty() || !json_parse_u64(line, "trials_ok", trials_ok) ||
      trials_ok > 0xffffffffull ||
      !json_parse_u64(line, "degraded", degraded) ||
      degraded > 0xffffffffull) {
    return false;
  }
  value.cut = cut;
  value.trials_ok = static_cast<std::uint32_t>(trials_ok);
  value.trials_degraded = static_cast<std::uint32_t>(degraded);
  value.warm = false;
  if (json_find_value(line, "warm") != std::string::npos) {
    std::uint64_t warm = 0;
    if (!json_parse_u64(line, "warm", warm) || warm != 1) return false;
    value.warm = true;
  }

  std::string sides;
  if (!json_parse_string(line, "sides", sides)) return false;
  value.sides.clear();
  value.sides.reserve(sides.size());
  for (const char c : sides) {
    if (c != '0' && c != '1') return false;
    value.sides.push_back(c == '1' ? 1 : 0);
  }
  return true;
}

std::string SvcCacheStore::encode_lineage(const LineageRecord& record) {
  std::string line = "{\"lineage\":1";
  line += ",\"child\":\"" + to_hex16(record.child) + "\"";
  line += ",\"parent\":\"" + to_hex16(record.parent) + "\"";
  line += ",\"batch\":\"" + to_hex16(record.batch_hash) + "\"";
  line += ",\"adds\":" + std::to_string(record.adds);
  line += ",\"dels\":" + std::to_string(record.dels);
  line += ",\"vadds\":" + std::to_string(record.vadds);
  line += ",\"vdels\":" + std::to_string(record.vdels);
  line += ",\"edit\":" + std::to_string(record.edit_distance);
  line += ",\"depth\":" + std::to_string(record.depth);
  line += ",\"pv\":" + std::to_string(record.parent_vertices);
  line += ",\"vertices\":" + std::to_string(record.child_vertices);
  line += ",\"edges\":" + std::to_string(record.child_edges);
  line += ",\"crc\":\"" + to_hex16(text_crc(line)) + "\"}";
  return line;
}

bool SvcCacheStore::is_lineage_line(const std::string& line) {
  return json_find_value(line, "lineage") != std::string::npos;
}

bool SvcCacheStore::decode_lineage(const std::string& line,
                                   LineageRecord& record) {
  if (!sealed(line)) return false;
  std::uint64_t tag = 0;
  if (!json_parse_u64(line, "lineage", tag) || tag != 1) return false;
  std::string hex;
  if (!json_parse_string(line, "child", hex) ||
      !parse_hex16(hex, record.child) ||
      !json_parse_string(line, "parent", hex) ||
      !parse_hex16(hex, record.parent) ||
      !json_parse_string(line, "batch", hex) ||
      !parse_hex16(hex, record.batch_hash)) {
    return false;
  }
  std::uint64_t depth = 0;
  if (!json_parse_u64(line, "adds", record.adds) ||
      !json_parse_u64(line, "dels", record.dels) ||
      !json_parse_u64(line, "vadds", record.vadds) ||
      !json_parse_u64(line, "vdels", record.vdels) ||
      !json_parse_u64(line, "edit", record.edit_distance) ||
      !json_parse_u64(line, "depth", depth) || depth == 0 ||
      depth > 0xffffffffull ||
      !json_parse_u64(line, "pv", record.parent_vertices) ||
      !json_parse_u64(line, "vertices", record.child_vertices) ||
      !json_parse_u64(line, "edges", record.child_edges)) {
    return false;
  }
  record.depth = static_cast<std::uint32_t>(depth);
  // Maps are never journaled: the restored edge answers identity
  // queries but cannot project a partition (dyn/lineage file comment).
  record.map.clear();
  return true;
}

bool SvcCacheStore::open_and_restore(SvcResultCache& cache,
                                     SvcLineage* lineage,
                                     SvcCacheRestore& report) {
  report = SvcCacheRestore{};
  std::uint64_t lines = 0;          // lines replayed, header included
  std::uint64_t lineage_lines = 0;  // valid lineage lines
  const auto replay = [&](const std::string& line) {
    if (lines++ == 0) return known_header(line);
    if (is_lineage_line(line)) {
      LineageRecord record;
      if (!decode_lineage(line, record)) return false;
      ++lineage_lines;
      if (lineage != nullptr && lineage->insert(std::move(record)).second) {
        ++report.lineage_restored;
      }
      return true;
    }
    SvcCacheKey key;
    SvcCacheValue value;
    if (!decode_entry(line, key, value)) return false;
    cache.insert(key, std::move(value));
    ++report.entries_restored;
    return true;
  };
  // Longest-valid-prefix semantics: a damaged line orphans everything
  // after it (append order is the recency order, so replaying past a
  // hole would scramble it). A torn last line is one more dropped line:
  // appending after it would glue the next entry onto it.
  bool intact = true;
  bool torn = false;
  const bool opened = read_lines(
      path_,
      [&](const std::string& line) {
        intact = intact && replay(line);
        if (!intact) ++report.lines_dropped;
      },
      torn);
  if (torn) ++report.lines_dropped;
  const bool lineage_dead_weight =
      lineage != nullptr ? lineage_lines > lineage->size() : lineage_lines > 0;
  if (!opened || lines == 0 || !intact || torn ||
      report.entries_restored > cache.stats().entries ||
      lineage_dead_weight) {
    // Fresh or empty file, damaged tail, or dead weight (entries evicted
    // during replay because the byte budget shrank, duplicates, or
    // lineage lines the bounded store refused): rewrite the canonical
    // snapshot.
    const std::uint64_t written = rewrite(cache, lineage);
    if (!ok_) return false;
    report.bytes_written = written;
    report.compacted = opened;
    return true;
  }
  out_.open(path_, std::ios::app);
  if (!out_) {
    ok_ = false;
    return false;
  }
  file_entries_ = report.entries_restored + lineage_lines;
  return true;
}

std::uint64_t SvcCacheStore::append(const SvcCacheKey& key,
                                    const SvcCacheValue& value) {
  return write_line(encode_entry(key, value));
}

std::uint64_t SvcCacheStore::append_lineage(const LineageRecord& record) {
  return write_line(encode_lineage(record));
}

std::uint64_t SvcCacheStore::write_line(const std::string& line) {
  if (!ok_ || !out_.is_open()) return 0;
  if (!append_line(out_, line)) {
    ok_ = false;
    return 0;
  }
  ++file_entries_;
  return line.size() + 1;
}

std::uint64_t SvcCacheStore::rewrite(const SvcResultCache& cache,
                                     const SvcLineage* lineage) {
  if (out_.is_open()) out_.close();
  std::uint64_t written = 0;
  std::uint64_t lines = 0;
  const std::string error = publish_file(path_, [&](std::ostream& out) {
    const auto put = [&](const std::string& line) {
      out << line << '\n';
      written += line.size() + 1;
      ++lines;
    };
    put(header_line());
    // Lineage first, in insertion order: parents precede children, so
    // a restore replays the DAG without forward references.
    if (lineage != nullptr) {
      lineage->visit([&](const LineageRecord& r) { put(encode_lineage(r)); });
    }
    cache.visit_lru_to_mru([&](const SvcCacheKey& key,
                               const SvcCacheValue& value) {
      put(encode_entry(key, value));
    });
  });
  if (error.empty()) out_.open(path_, std::ios::app);
  if (!error.empty() || !out_) {
    ok_ = false;
    return 0;
  }
  file_entries_ = lines - 1;  // the header is not an entry
  return written;
}

std::uint64_t SvcCacheStore::maybe_compact(const SvcResultCache& cache,
                                           const SvcLineage* lineage) {
  if (!ok_) return 0;
  // Dead weight bound: the journal may hold up to 4x the resident
  // lines (plus slack so tiny caches don't thrash) before a rewrite.
  const std::uint64_t live =
      cache.stats().entries + (lineage != nullptr ? lineage->size() : 0);
  if (file_entries_ <= 4 * live + 64) return 0;
  return rewrite(cache, lineage);
}

}  // namespace gbis
