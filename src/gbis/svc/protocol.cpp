#include "gbis/svc/protocol.hpp"

#include <cstdio>

#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

/// Parses the graph reference shared by solve ("graph") and mutate
/// ("parent"): a to_hex16 fingerprint string. False only on a
/// present-but-invalid value; absence leaves `out` untouched.
bool parse_fingerprint_field(const JsonFieldIndex& fields,
                             const std::string& key, SvcRequest& out,
                             std::string& error) {
  if (!fields.has(key)) return true;
  std::string hex;
  if (!fields.parse_string(key, hex) ||
      !parse_hex16(hex, out.fingerprint)) {
    error = "parse: \"" + key + "\" must be a 16-digit hex fingerprint";
    return false;
  }
  out.has_fingerprint = true;
  return true;
}

/// Parses one optional edit array. False on a present-but-invalid
/// value (wrong type, bad element, over the length cap).
bool parse_edit_array(const JsonFieldIndex& fields, const std::string& key,
                      std::vector<std::uint64_t>& out, std::string& error) {
  if (!fields.has(key)) return true;
  if (!fields.parse_u64_array(key, out, kMaxEditElements)) {
    error = "parse: \"" + key + "\" must be an array of at most " +
            std::to_string(kMaxEditElements) + " non-negative integers";
    return false;
  }
  return true;
}

bool parse_mutate_fields(const JsonFieldIndex& fields, SvcRequest& out,
                         std::string& error) {
  const int payloads = (out.path.empty() ? 0 : 1) +
                       (out.inline_graph.empty() ? 0 : 1) +
                       (out.has_fingerprint ? 1 : 0);
  if (payloads != 1) {
    error = payloads == 0
                ? "parse: mutate needs a parent graph (\"parent\", \"path\" "
                  "or \"inline\")"
                : "parse: mutate parent references are mutually exclusive";
    return false;
  }
  if (!parse_edit_array(fields, "add_edges", out.batch.add_edges, error) ||
      !parse_edit_array(fields, "del_edges", out.batch.del_edges, error) ||
      !parse_edit_array(fields, "del_vertices", out.batch.del_vertices,
                        error)) {
    return false;
  }
  if (out.batch.add_edges.size() % 2 != 0 ||
      out.batch.del_edges.size() % 2 != 0) {
    error = "parse: edge arrays must hold (u,v) pairs";
    return false;
  }
  if (fields.has("add_vertices")) {
    std::uint64_t count = 0;
    if (!fields.parse_u64("add_vertices", count) ||
        count > 0xFFFFFFFFull) {
      error = "parse: add_vertices out of range";
      return false;
    }
    out.batch.add_vertices = count;
  }
  // A no-op mutate would mint a fresh lineage edge aliasing the parent
  // fingerprint; reject it at the parse layer so it can never reach
  // the mutation machinery.
  if (out.batch.empty()) {
    error = "parse: empty edit batch";
    return false;
  }
  return true;
}

}  // namespace

bool parse_request(const std::string& line, SvcRequest& out,
                   std::string& error) {
  out = SvcRequest{};
  json_parse_string(line, "id", out.id);  // best-effort, for correlation
  if (line.empty() || line.find_first_not_of(" \t") == std::string::npos) {
    error = "parse: empty request";
    return false;
  }
  if (line[line.find_first_not_of(" \t")] != '{') {
    error = "parse: request is not a JSON object";
    return false;
  }
  // Structural gate before any field scan: on a socket, arbitrary
  // bytes arrive here, and a lenient scan of a malformed line is how
  // fields get silently misread (see util/json_lite).
  if (!json_object_valid(line)) {
    error = "parse: malformed request line";
    return false;
  }
  // One walk over the line finds every member read below.
  const JsonFieldIndex fields(line);
  std::string op;
  if (fields.parse_string("op", op)) {
    if (op == "solve") {
      out.op = SvcRequest::Op::kSolve;
    } else if (op == "ping") {
      out.op = SvcRequest::Op::kPing;
    } else if (op == "stats") {
      out.op = SvcRequest::Op::kStats;
    } else if (op == "mutate") {
      out.op = SvcRequest::Op::kMutate;
    } else if (op == "trace") {
      out.op = SvcRequest::Op::kTrace;
    } else {
      error = "parse: unknown op \"" + op + "\"";
      return false;
    }
  }
  // The optional client trace id rides on any op (it selects the span
  // set to export on op:"trace" and overrides the derived id
  // elsewhere), so it parses before the early returns below.
  if (fields.has("trace")) {
    std::string hex;
    if (!fields.parse_string("trace", hex) ||
        !parse_hex16(hex, out.trace_id)) {
      error = "parse: \"trace\" must be a 16-digit hex trace id";
      return false;
    }
    out.has_trace = true;
  }
  if (out.op == SvcRequest::Op::kStats) {
    static constexpr const char* kFormats[] = {"json", "prom"};
    if (fields.parse_enum("format", kFormats, 2, out.format) ==
        JsonEnumStatus::kInvalid) {
      error = "parse: unknown stats format \"" + out.format + "\"";
      return false;
    }
  }
  if (out.op == SvcRequest::Op::kPing || out.op == SvcRequest::Op::kStats ||
      out.op == SvcRequest::Op::kTrace) {
    return true;
  }

  fields.parse_string("path", out.path);
  fields.parse_string("inline", out.inline_graph);
  if (out.op == SvcRequest::Op::kMutate) {
    return parse_fingerprint_field(fields, "parent", out, error) &&
           parse_mutate_fields(fields, out, error);
  }

  if (!parse_fingerprint_field(fields, "graph", out, error)) return false;
  const int payloads = (out.path.empty() ? 0 : 1) +
                       (out.inline_graph.empty() ? 0 : 1) +
                       (out.has_fingerprint ? 1 : 0);
  if (payloads != 1) {
    error = payloads == 0
                ? "parse: solve needs a graph payload (\"path\", \"inline\" "
                  "or \"graph\")"
                : "parse: graph payloads are mutually exclusive";
    return false;
  }
  fields.parse_string("method", out.method);
  if (out.method.empty()) {
    error = "parse: empty method";
    return false;
  }
  static constexpr const char* kQualities[] = {"fast", "balanced", "best"};
  if (fields.parse_enum("quality", kQualities, 3, out.quality) ==
      JsonEnumStatus::kInvalid) {
    error = "parse: unknown quality \"" + out.quality + "\"";
    return false;
  }
  // Present-but-invalid scalars are errors, not silent defaults: a
  // request that says {"budget":-1} meant something; answering it with
  // the default budget would hide the mistake (and pre-hardening, the
  // strtoull wraparound turned it into 2^64-1 trials).
  std::uint64_t budget = 0;
  if (fields.has("budget")) {
    if (!fields.parse_u64("budget", budget) || budget == 0 ||
        budget > 0xFFFFFFFFull) {
      error = "parse: budget out of range";
      return false;
    }
    out.budget = static_cast<std::uint32_t>(budget);
  }
  if (fields.has("deadline_s")) {
    double deadline = 0;
    if (!fields.parse_double("deadline_s", deadline) ||
        !(deadline >= 0)) {  // rejects negatives and NaN
      error = "parse: deadline_s must be >= 0";
      return false;
    }
    out.deadline_seconds = deadline;
  }
  if (fields.has("seed")) {
    if (!fields.parse_u64("seed", out.seed)) {
      error = "parse: seed out of range";
      return false;
    }
    out.has_seed = true;
  }
  if (fields.has("want_sides") &&
      !fields.parse_bool("want_sides", out.want_sides)) {
    error = "parse: want_sides must be true or false";
    return false;
  }
  return true;
}

std::string encode_response(const SvcResponse& response) {
  std::string line = "{\"id\":";
  append_json_string(line, response.id);
  line += response.ok ? ",\"ok\":true" : ",\"ok\":false";
  if (!response.op.empty()) {
    line += ",\"op\":";
    append_json_string(line, response.op);
  }
  // Only when the client sent a "trace" field: derived ids are not
  // echoed, keeping pre-tracing response streams byte-identical.
  if (response.has_trace) {
    line += ",\"trace\":\"" + to_hex16(response.trace_id) + "\"";
  }
  if (response.has_solve && response.ok) {
    line += ",\"cut\":" + std::to_string(response.cut);
    line += ",\"method\":";
    append_json_string(line, response.method);
    line += ",\"trials_ok\":" + std::to_string(response.trials_ok);
    line += ",\"degraded\":" + std::to_string(response.degraded);
    line += ",\"fingerprint\":\"" + to_hex16(response.fingerprint) + "\"";
    // Emitted only when true: cold solve lines predate the field and
    // must stay byte-identical.
    if (response.warm) line += ",\"warm\":true";
  }
  if (response.has_mutate && response.ok) {
    line += ",\"fingerprint\":\"" + to_hex16(response.fingerprint) + "\"";
    line += ",\"parent\":\"" + to_hex16(response.parent) + "\"";
    line += ",\"vertices\":" + std::to_string(response.vertices);
    line += ",\"edges\":" + std::to_string(response.edges);
    line += ",\"edit_distance\":" + std::to_string(response.edit_distance);
    line += ",\"depth\":" + std::to_string(response.depth);
  }
  if (response.has_traces && response.ok) {
    line += ",\"traces\":" + std::to_string(response.traces);
  }
  for (const auto& [key, value] : response.stats) {
    line += ",\"" + key + "\":" + std::to_string(value);
  }
  for (const auto& [key, value] : response.stats_real) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    line += ",\"" + key + "\":" + buf;
  }
  for (const auto& [key, value] : response.stats_text) {
    line += ",\"" + key + "\":";
    append_json_string(line, value);
  }
  if (!response.cache.empty()) {
    line += ",\"cache\":";
    append_json_string(line, response.cache);
  }
  // Free-form strings last (flat-scanner convention).
  if (!response.sides.empty()) {
    line += ",\"sides\":";
    append_json_string(line, response.sides);
  }
  if (!response.prom.empty()) {
    line += ",\"prom\":";
    append_json_string(line, response.prom);
  }
  if (response.has_traces && response.ok) {
    line += ",\"spans\":";
    append_json_string(line, response.spans);
  }
  if (!response.ok) {
    if (response.retry_after_ms != 0) {
      line += ",\"retry_after_ms\":" + std::to_string(response.retry_after_ms);
    }
    line += ",\"error\":";
    append_json_string(line, response.error);
  }
  line += "}";
  return line;
}

}  // namespace gbis
