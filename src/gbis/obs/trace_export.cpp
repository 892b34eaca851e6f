#include "gbis/obs/trace_export.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "gbis/harness/stats.hpp"
#include "gbis/io/io_error.hpp"
#include "gbis/obs/trace.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

void write_us(std::ostream& out, double seconds) {
  const auto precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << seconds * 1e6;
  out.precision(precision);
}

/// The one Chrome trace-event writer behind every trace.json: a
/// traceEvents array of complete events, one per line, in the JSON
/// object format. Construction opens the object, finish() closes it.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out) : out_(out) {
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }

  /// One complete event ("ph":"X") on lane `tid`; times in seconds
  /// against the trace's epoch, `args` the rendered members of the
  /// event's args object.
  void event(const std::string& name, const char* cat, double start_seconds,
             double duration_seconds, std::uint32_t tid,
             const std::string& args) {
    std::string head = first_ ? "\n{\"name\":" : ",\n{\"name\":";
    first_ = false;
    append_json_string(head, name);
    out_ << head << ",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"ts\":";
    write_us(out_, start_seconds);
    out_ << ",\"dur\":";
    write_us(out_, duration_seconds);
    out_ << ",\"pid\":0,\"tid\":" << tid << ",\"args\":{" << args << "}}";
  }

  void finish() { out_ << "\n]}\n"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

}  // namespace

MetricsReport build_metrics_report(std::span<const TrialResult> results) {
  MetricsReport report;
  report.trials = results.size();
  std::vector<double> cpu;
  std::vector<double> cuts;
  cpu.reserve(results.size());
  for (const TrialResult& result : results) {
    switch (result.status) {
      case TrialStatus::kOk: ++report.ok; break;
      case TrialStatus::kFailed: ++report.failed; break;
      case TrialStatus::kTimedOut: ++report.timed_out; break;
      case TrialStatus::kSkipped: ++report.skipped; break;
    }
    if (result.status != TrialStatus::kSkipped) {
      cpu.push_back(result.cpu_seconds);
    }
    if (result.status == TrialStatus::kOk) {
      cuts.push_back(static_cast<double>(result.cut));
    }
    if (result.metrics != nullptr) {
      ++report.collected;
      merge_metric_summaries(report.totals, *result.metrics);
    }
  }
  const Summary cpu_summary = summarize(cpu);
  report.cpu_min = cpu_summary.min;
  report.cpu_max = cpu_summary.max;
  report.cpu_mean = cpu_summary.mean;
  report.cpu_p50 = percentile(cpu, 50);
  report.cpu_p90 = percentile(cpu, 90);
  report.cpu_p99 = percentile(cpu, 99);
  const Summary cut_summary = summarize(cuts);
  report.cut_min = cut_summary.min;
  report.cut_max = cut_summary.max;
  report.cut_mean = cut_summary.mean;
  report.cut_p50 = percentile(cuts, 50);
  report.cut_p90 = percentile(cuts, 90);
  return report;
}

void write_chrome_trace(std::ostream& out,
                        std::span<const TrialResult> results,
                        std::span<const TrialSpec> trials) {
  ChromeTraceWriter trace(out);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& result = results[i];
    if (result.metrics == nullptr) continue;
    const TrialMetrics& tm = *result.metrics;
    const TrialSpec& spec = trials[i];
    const std::string trial = "\"trial\":" + std::to_string(i);
    std::string args = trial + ",\"status\":\"" +
                       trial_status_name(result.status) + "\"";
    if (result.status == TrialStatus::kOk) {
      args += ",\"cut\":" + std::to_string(result.cut);
    }
    if (!result.error.empty()) {
      args += ",\"error\":";
      append_json_string(args, result.error);
    }
    trace.event(method_name(spec.method) + " g" +
                    std::to_string(spec.graph_index) + " s" +
                    std::to_string(spec.start_index),
                "trial", tm.start_offset_seconds, tm.wall_seconds, tm.tid,
                args);
    for (const PhaseSpan& span : tm.phases) {
      trace.event(phase_name(span.phase), "phase",
                  tm.start_offset_seconds + span.start_seconds,
                  span.duration_seconds, tm.tid, trial);
    }
  }
  trace.finish();
}

void write_span_trace(std::ostream& out, const std::deque<SpanSet>& sets,
                      double min_ms) {
  ChromeTraceWriter trace(out);
  for (const SpanSet& set : sets) {
    if (set.spans.empty()) continue;  // nothing to place on the timeline
    const double start = set.spans.front().start_seconds;
    const double seconds = set.spans.back().start_seconds +
                           set.spans.back().duration_seconds - start;
    if (seconds * 1000.0 < min_ms) continue;
    const std::string key = "\"trace\":\"" + to_hex16(set.trace_id) +
                            "\",\"seq\":" + std::to_string(set.seq);
    std::string args = key + ",\"id\":";
    append_json_string(args, set.id);
    args += ",\"op\":";
    append_json_string(args, set.op);
    args += ",\"status\":";
    append_json_string(args, set.status);
    trace.event("req " + std::to_string(set.seq) +
                    (set.id.empty() ? "" : " " + set.id),
                "request", start, seconds, 0, args);
    for (const SpanRec& span : set.spans) {
      std::string span_args = key;
      if (span.has_step) span_args += ",\"step\":" + std::to_string(span.step);
      if (span.has_value) span_args += ",\"cut\":" + std::to_string(span.value);
      trace.event(span.name, "span", span.start_seconds, span.duration_seconds,
                  0, span_args);
    }
  }
  trace.finish();
}

void export_observability(const ObsOptions& obs,
                          std::span<const TrialResult> results,
                          std::span<const TrialSpec> trials) {
  if (!obs.metrics_path.empty()) {
    std::ofstream out(obs.metrics_path, std::ios::trunc);
    if (!out) throw IoError("metrics: cannot open " + obs.metrics_path);
    write_metrics_json(out, build_metrics_report(results));
    out.flush();
    if (!out) throw IoError("metrics: write failed: " + obs.metrics_path);
  }
  if (!obs.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(obs.trace_dir, ec);
    if (ec) {
      throw IoError("trace: cannot create directory " + obs.trace_dir +
                    ": " + ec.message());
    }
    const std::filesystem::path dir(obs.trace_dir);
    const struct {
      const char* name;
      void (*write)(std::ostream&, std::span<const TrialResult>,
                    std::span<const TrialSpec>);
    } files[] = {
        {"convergence.jsonl", &write_convergence_jsonl},
        {"convergence.csv", &write_convergence_csv},
        {"trace.json", &write_chrome_trace},
    };
    for (const auto& file : files) {
      const std::string path = (dir / file.name).string();
      std::ofstream out(path, std::ios::trunc);
      if (!out) throw IoError("trace: cannot open " + path);
      file.write(out, results, trials);
      out.flush();
      if (!out) throw IoError("trace: write failed: " + path);
    }
  }
}

}  // namespace gbis
