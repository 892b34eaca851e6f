#include "gbis/obs/span.hpp"

#include <cmath>
#include <cstdio>

#include "gbis/util/json_lite.hpp"

namespace gbis {

std::uint64_t to_us(double seconds) {
  if (!(seconds > 0)) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

namespace {

constexpr const char* kSubSpanNames[] = {"kl.pass", "sa.temp", "fm.pass",
                                         "po.pass"};

}  // namespace

const char* span_name_for_trace_source(TraceSource source) {
  return kSubSpanNames[static_cast<std::size_t>(source)];
}

std::string encode_span_set(const SpanSet& set, const char* state) {
  std::string line = "{\"state\":\"";
  line += state;
  line += "\",\"trace\":\"" + to_hex16(set.trace_id) + "\"";
  line += ",\"seq\":" + std::to_string(set.seq);
  line += ",\"id\":";
  append_json_string(line, set.id);
  line += ",\"op\":";
  append_json_string(line, set.op);
  line += ",\"status\":";
  append_json_string(line, set.status);
  line += ",\"spans\":[";
  bool first = true;
  for (const SpanRec& span : set.spans) {
    if (!first) line += ",";
    first = false;
    line += "{\"name\":";
    append_json_string(line, span.name);
    if (span.has_step) line += ",\"step\":" + std::to_string(span.step);
    if (span.has_value) line += ",\"cut\":" + std::to_string(span.value);
    if (span.has_aux) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", span.aux);
      line += ",\"temp\":";
      line += buf;
    }
    // Timing keys last in each span object (the repo-wide "_us"
    // convention), so one strip pattern recovers the deterministic
    // bytes.
    line += ",\"t_start_us\":" + std::to_string(to_us(span.start_seconds));
    line += ",\"t_dur_us\":" + std::to_string(to_us(span.duration_seconds));
    line += "}";
  }
  line += "]}";
  return line;
}

SpanBuffer::SpanBuffer(std::vector<SpanRec>* dest, std::uint32_t capacity)
    : dest_(dest), capacity_(capacity == 0 ? 1 : capacity) {}

void SpanBuffer::offer(SpanRec rec) {
#ifndef GBIS_DISABLE_OBS
  if (dest_ == nullptr) return;
  const std::uint64_t ordinal = ordinal_++;
  if (ordinal % stride_ != 0) return;
  if (dest_->size() >= capacity_) {
    // Decimate exactly like MetricsSink::trace_point: keep every other
    // held span, double the stride — a pure function of the offered
    // sequence, so thread-count invariant.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < dest_->size(); i += 2) {
      if (i != kept) (*dest_)[kept] = std::move((*dest_)[i]);
      ++kept;
    }
    dest_->resize(kept);
    stride_ *= 2;
    if (ordinal % stride_ != 0) return;
  }
  dest_->push_back(std::move(rec));
#else
  (void)rec;
#endif
}

}  // namespace gbis
