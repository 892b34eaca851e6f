#include "gbis/obs/trace.hpp"

#include <cstdint>
#include <limits>
#include <ostream>

#include "gbis/io/io_error.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

void write_aux(std::ostream& out, double aux) {
  const auto precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << aux;
  out.precision(precision);
}

TraceSource source_from_name(const std::string& name,
                             const std::string& line) {
  if (name == "kl") return TraceSource::kKl;
  if (name == "sa") return TraceSource::kSa;
  if (name == "fm") return TraceSource::kFm;
  if (name == "po") return TraceSource::kPo;
  throw IoError("convergence: unknown source \"" + name + "\" in: " + line);
}

}  // namespace

void write_convergence_jsonl(std::ostream& out,
                             std::span<const TrialResult> results,
                             std::span<const TrialSpec> trials) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& result = results[i];
    if (result.metrics == nullptr) continue;
    const TrialSpec& spec = trials[i];
    const std::string method = method_name(spec.method);
    for (const TracePoint& p : result.metrics->trace) {
      out << "{\"trial\":" << i << ",\"graph\":" << spec.graph_index
          << ",\"method\":\"" << method << "\",\"start\":"
          << spec.start_index << ",\"step\":" << p.step << ",\"source\":\""
          << trace_source_name(p.source) << "\",\"cut\":" << p.cut
          << ",\"best\":" << p.best << ",\"aux\":";
      write_aux(out, p.aux);
      out << "}\n";
    }
  }
}

void write_convergence_csv(std::ostream& out,
                           std::span<const TrialResult> results,
                           std::span<const TrialSpec> trials) {
  out << "trial,graph,method,start,step,source,cut,best,aux\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& result = results[i];
    if (result.metrics == nullptr) continue;
    const TrialSpec& spec = trials[i];
    const std::string method = method_name(spec.method);
    for (const TracePoint& p : result.metrics->trace) {
      out << i << ',' << spec.graph_index << ',' << method << ','
          << spec.start_index << ',' << p.step << ','
          << trace_source_name(p.source) << ',' << p.cut << ',' << p.best
          << ',';
      write_aux(out, p.aux);
      out << '\n';
    }
  }
}

ConvergenceLine parse_convergence_line(const std::string& line) {
  const JsonFieldIndex fields(line);
  const auto require = [&](std::string_view key, bool parsed) {
    if (parsed) return;
    throw IoError("convergence: " +
                  std::string(fields.has(key) ? "bad" : "missing") + " \"" +
                  std::string(key) + "\" in: " + line);
  };
  ConvergenceLine parsed;
  std::uint64_t graph = 0, start = 0;
  std::string source;
  require("trial", fields.parse_u64("trial", parsed.trial));
  require("graph", fields.parse_u64("graph", graph) && graph <= UINT32_MAX);
  require("method", fields.parse_string("method", parsed.method));
  require("start", fields.parse_u64("start", start) && start <= UINT32_MAX);
  require("step", fields.parse_u64("step", parsed.point.step));
  require("source", fields.parse_string("source", source));
  require("cut", fields.parse_i64("cut", parsed.point.cut));
  require("best", fields.parse_i64("best", parsed.point.best));
  require("aux", fields.parse_double("aux", parsed.point.aux));
  parsed.graph = static_cast<std::uint32_t>(graph);
  parsed.start = static_cast<std::uint32_t>(start);
  parsed.point.source = source_from_name(source, line);
  return parsed;
}

}  // namespace gbis
