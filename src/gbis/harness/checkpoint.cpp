#include "gbis/harness/checkpoint.hpp"

#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "gbis/io/io_error.hpp"
#include "gbis/io/journal.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {
// The fingerprint accumulator (Hash64) and the flat-JSON field
// scanners this file originally carried in-line now live in
// svc/fingerprint.* and util/json_lite.* so the service result cache
// and protocol share them; the hashing sequence and the journal wire
// format are unchanged (test_svc pins a golden fingerprint).

[[noreturn]] void journal_fail(const std::string& path, std::size_t line_no,
                               const std::string& what) {
  throw IoError("checkpoint: " + path + ": line " +
                std::to_string(line_no) + ": " + what);
}

TrialStatus status_from_name(const std::string& name, const std::string& path,
                             std::size_t line_no) {
  if (name == "ok") return TrialStatus::kOk;
  if (name == "failed") return TrialStatus::kFailed;
  if (name == "timed_out") return TrialStatus::kTimedOut;
  if (name == "skipped") return TrialStatus::kSkipped;
  journal_fail(path, line_no, "unknown trial status \"" + name + "\"");
}

std::string encode_trial(const TrialRecord& record) {
  std::string line = "{\"type\":\"trial\",\"id\":";
  line += std::to_string(record.trial_id);
  line += ",\"status\":\"";
  line += trial_status_name(record.status);
  line += "\"";
  if (record.status == TrialStatus::kOk) {
    line += ",\"cut\":" + std::to_string(record.cut);
  }
  {
    // max_digits10 keeps journaled times round-trip exact, so resumed
    // campaigns report the original trials' CPU seconds unchanged.
    std::ostringstream seconds;
    seconds.precision(std::numeric_limits<double>::max_digits10);
    seconds << record.cpu_seconds;
    line += ",\"cpu_seconds\":" + seconds.str();
  }
  // Metric summary (counters + hists only; traces/phases are not
  // journaled). Emitted before "error" so the flat field scanner never
  // has to look past free-form text.
  if (record.metrics != nullptr && !record.metrics->summary_empty()) {
    line += ",\"metrics\":{";
    bool first = true;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      if (record.metrics->counters[i] == 0) continue;
      if (!first) line += ",";
      first = false;
      line += "\"";
      line += counter_name(static_cast<Counter>(i));
      line += "\":" + std::to_string(record.metrics->counters[i]);
    }
    line += "},\"hists\":{";
    first = true;
    for (std::size_t i = 0; i < kNumHists; ++i) {
      const HistData& h = record.metrics->hists[i];
      if (h.empty()) continue;
      if (!first) line += ",";
      first = false;
      line += "\"";
      line += hist_name(static_cast<Hist>(i));
      line += "\":[";
      bool first_bucket = true;
      for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] == 0) continue;
        if (!first_bucket) line += ",";
        first_bucket = false;
        line += "[" + std::to_string(b) + "," +
                std::to_string(h.buckets[b]) + "]";
      }
      line += "]";
    }
    line += "}";
  }
  if (!record.error.empty()) {
    line += ",\"error\":";
    append_json_string(line, record.error);
  }
  line += "}";
  return line;
}

/// Parses the optional "metrics"/"hists" sub-objects of a trial line.
/// Flat scan: the sub-objects contain no nested braces, so the first
/// `}` closes them; unknown metric names are skipped (forward
/// compatibility with counters added later). Returns null when the
/// line carries no metric fields.
std::shared_ptr<const TrialMetrics> parse_metrics_fields(
    const std::string& line) {
  const std::size_t counters_at = json_find_value(line, "metrics");
  const std::size_t hists_at = json_find_value(line, "hists");
  if (counters_at == std::string::npos && hists_at == std::string::npos) {
    return nullptr;
  }
  auto tm = std::make_shared<TrialMetrics>();
  if (counters_at != std::string::npos && counters_at < line.size() &&
      line[counters_at] == '{') {
    std::size_t i = counters_at + 1;
    while (i < line.size() && line[i] != '}') {
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] != '"') break;
      const std::size_t name_end = line.find('"', i + 1);
      if (name_end == std::string::npos) break;
      const std::string name = line.substr(i + 1, name_end - i - 1);
      i = name_end + 1;
      if (i >= line.size() || line[i] != ':') break;
      ++i;
      char* end = nullptr;
      const std::uint64_t value = std::strtoull(line.c_str() + i, &end, 10);
      if (end == line.c_str() + i) break;
      i = static_cast<std::size_t>(end - line.c_str());
      Counter c;
      if (counter_from_name(name, c)) {
        tm->counters[static_cast<std::size_t>(c)] = value;
      }
    }
  }
  if (hists_at != std::string::npos && hists_at < line.size() &&
      line[hists_at] == '{') {
    std::size_t i = hists_at + 1;
    while (i < line.size() && line[i] != '}') {
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] != '"') break;
      const std::size_t name_end = line.find('"', i + 1);
      if (name_end == std::string::npos) break;
      const std::string name = line.substr(i + 1, name_end - i - 1);
      i = name_end + 1;
      if (i + 1 >= line.size() || line[i] != ':' || line[i + 1] != '[') break;
      i += 2;  // past ":["
      Hist h;
      const bool known = hist_from_name(name, h);
      while (i < line.size() && line[i] == '[') {
        ++i;
        char* end = nullptr;
        const std::uint64_t bucket = std::strtoull(line.c_str() + i, &end, 10);
        if (end == line.c_str() + i) break;
        i = static_cast<std::size_t>(end - line.c_str());
        if (i >= line.size() || line[i] != ',') break;
        ++i;
        const std::uint64_t count = std::strtoull(line.c_str() + i, &end, 10);
        if (end == line.c_str() + i) break;
        i = static_cast<std::size_t>(end - line.c_str());
        if (i >= line.size() || line[i] != ']') break;
        ++i;
        if (known && bucket < tm->hists[static_cast<std::size_t>(h)]
                                  .buckets.size()) {
          tm->hists[static_cast<std::size_t>(h)].buckets[bucket] = count;
        }
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i < line.size() && line[i] == ']') ++i;
    }
  }
  if (tm->summary_empty()) return nullptr;
  return tm;
}

}  // namespace

std::uint64_t campaign_fingerprint(std::uint64_t seed,
                                   const RunConfig& config,
                                   std::span<const TrialSpec> trials,
                                   std::span<const Graph> graphs) {
  Hash64 h;
  h.add(seed);
  h.add(static_cast<std::uint64_t>(config.starts));
  h.add(config.trial_deadline);
  // KL
  h.add(static_cast<std::uint64_t>(config.kl.max_passes));
  h.add(static_cast<std::uint64_t>(config.kl.pair_selection));
  // SA
  h.add(static_cast<std::uint64_t>(config.sa.neighborhood));
  h.add(config.sa.imbalance_alpha);
  h.add(config.sa.cooling_ratio);
  h.add(config.sa.temperature_length_factor);
  h.add(config.sa.init_acceptance_target);
  h.add(config.sa.initial_temperature);
  h.add(config.sa.min_acceptance);
  h.add(static_cast<std::uint64_t>(config.sa.frozen_temperatures));
  h.add(config.sa.max_total_moves);
  h.add(static_cast<std::uint64_t>(config.sa.stagnation_temperatures));
  // FM
  h.add(static_cast<std::uint64_t>(config.fm.max_passes));
  h.add(config.fm.balance_tolerance);
  h.add(static_cast<std::uint64_t>(config.fm.balance));
  // Compaction / multilevel
  h.add(static_cast<std::uint64_t>(config.compaction.match_policy));
  h.add(static_cast<std::uint64_t>(config.compaction.pair_leftovers));
  h.add(config.compaction.csa_fine_acceptance);
  h.add(static_cast<std::uint64_t>(config.multilevel.max_levels));
  h.add(static_cast<std::uint64_t>(config.multilevel.min_vertices));
  h.add(config.multilevel.min_shrink_factor);
  h.add(static_cast<std::uint64_t>(config.multilevel.match_policy));
  h.add(static_cast<std::uint64_t>(config.multilevel.pair_leftovers));
  // Trial enumeration
  h.add(trials.size());
  for (const TrialSpec& t : trials) {
    h.add(static_cast<std::uint64_t>(t.graph_index));
    h.add(static_cast<std::uint64_t>(t.method));
    h.add(static_cast<std::uint64_t>(t.start_index));
  }
  // Graph contents, via the shared canonical hasher (svc/fingerprint):
  // vertex weights plus every (u, v, w) with u < v, straight off the
  // CSR — the same byte sequence this function always hashed.
  h.add(graphs.size());
  for (const Graph& g : graphs) hash_graph(h, g);
  return h.digest();
}

CheckpointJournal::CheckpointJournal(std::string path,
                                     std::uint64_t fingerprint,
                                     std::uint64_t num_trials,
                                     std::span<const TrialRecord> initial)
    : path_(std::move(path)) {
  const std::string error = publish_file(path_, [&](std::ostream& out) {
    out << "{\"type\":\"campaign\",\"version\":1,\"fingerprint\":\""
        << to_hex16(fingerprint) << "\",\"trials\":"
        << std::to_string(num_trials) << "}\n";
    for (const TrialRecord& r : initial) out << encode_trial(r) << '\n';
  });
  if (!error.empty()) throw IoError("checkpoint: " + error);
  out_.open(path_, std::ios::app);
  if (!out_) throw IoError("checkpoint: cannot open " + path_);
}

void CheckpointJournal::append(const TrialRecord& record) {
  const std::string line = encode_trial(record);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!append_line(out_, line)) {
    throw IoError("checkpoint: write failed: " + path_);
  }
}

CheckpointJournal::Loaded CheckpointJournal::load(const std::string& path) {
  Loaded loaded;
  std::size_t line_no = 0;
  bool saw_header = false;
  const auto load_line = [&](const std::string& line) {
    ++line_no;
    if (line.empty()) return;
    std::string type;
    if (!json_parse_string(line, "type", type)) {
      journal_fail(path, line_no, "missing \"type\" in: " + line);
    }
    if (type == "campaign") {
      if (saw_header) journal_fail(path, line_no, "duplicate header");
      saw_header = true;
      std::string fp;
      if (!json_parse_string(line, "fingerprint", fp) || fp.size() != 16) {
        journal_fail(path, line_no, "bad fingerprint");
      }
      loaded.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
      if (!json_parse_u64(line, "trials", loaded.num_trials)) {
        journal_fail(path, line_no, "missing trial count");
      }
    } else if (type == "trial") {
      if (!saw_header) {
        journal_fail(path, line_no, "trial record before campaign header");
      }
      TrialRecord record;
      if (!json_parse_u64(line, "id", record.trial_id)) {
        journal_fail(path, line_no, "missing trial id in: " + line);
      }
      std::string status;
      if (!json_parse_string(line, "status", status)) {
        journal_fail(path, line_no, "missing status in: " + line);
      }
      record.status = status_from_name(status, path, line_no);
      std::int64_t cut = 0;
      if (json_parse_i64(line, "cut", cut)) record.cut = cut;
      json_parse_double(line, "cpu_seconds", record.cpu_seconds);
      record.metrics = parse_metrics_fields(line);
      json_parse_string(line, "error", record.error);
      if (record.trial_id >= loaded.num_trials) {
        journal_fail(path, line_no,
                     "trial id " + std::to_string(record.trial_id) +
                         " out of range [0, " +
                         std::to_string(loaded.num_trials) + ")");
      }
      loaded.records.push_back(std::move(record));
    } else {
      journal_fail(path, line_no, "unknown record type \"" + type + "\"");
    }
  };
  bool torn = false;  // a torn last line: a trial that never finished
  if (!read_lines(path, load_line, torn)) {
    throw IoError("checkpoint: cannot open " + path);
  }
  if (!saw_header) {
    throw IoError("checkpoint: " + path + ": missing campaign header");
  }
  return loaded;
}

CampaignResult run_campaign(std::span<const Graph> graphs,
                            std::span<const Method> methods,
                            const RunConfig& config, std::uint64_t seed,
                            const CampaignOptions& options) {
  if (config.starts == 0) {
    throw std::invalid_argument("run_campaign: starts >= 1");
  }
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(graphs.size(), methods, config.starts);

  CampaignResult result;
  result.fingerprint = campaign_fingerprint(seed, config, trials, graphs);

  // Resume: adopt every completed (non-skipped) trial from the journal.
  std::unordered_map<std::uint64_t, TrialResult> precompleted;
  std::vector<TrialRecord> adopted_records;
  if (!options.resume_path.empty()) {
    const CheckpointJournal::Loaded loaded =
        CheckpointJournal::load(options.resume_path);
    if (loaded.fingerprint != result.fingerprint) {
      throw std::runtime_error(
          "run_campaign: journal " + options.resume_path +
          " belongs to a different campaign (fingerprint mismatch); "
          "refusing to resume");
    }
    if (loaded.num_trials != trials.size()) {
      throw std::runtime_error(
          "run_campaign: journal " + options.resume_path + " enumerates " +
          std::to_string(loaded.num_trials) + " trials, this campaign has " +
          std::to_string(trials.size()));
    }
    for (const TrialRecord& record : loaded.records) {
      if (record.status == TrialStatus::kSkipped) continue;
      TrialResult adopted;
      adopted.status = record.status;
      adopted.cut = record.cut;
      adopted.cpu_seconds = record.cpu_seconds;
      adopted.error = record.error;
      adopted.metrics = record.metrics;  // journaled counter/hist summary
      precompleted[record.trial_id] = std::move(adopted);
    }
    adopted_records.reserve(precompleted.size());
    for (std::uint64_t id = 0; id < trials.size(); ++id) {
      const auto it = precompleted.find(id);
      if (it == precompleted.end()) continue;
      adopted_records.push_back({id, it->second.status, it->second.cut,
                                 it->second.cpu_seconds, it->second.error,
                                 it->second.metrics});
    }
    result.resumed = precompleted.size();
  }

  // Journal (fresh or rewritten in place with the adopted prefix).
  std::unique_ptr<CheckpointJournal> journal;
  if (!options.journal_path.empty()) {
    journal = std::make_unique<CheckpointJournal>(
        options.journal_path, result.fingerprint, trials.size(),
        adopted_records);
  }

  TrialRunOptions run_options;
  run_options.keep_sides = options.keep_sides;
  run_options.stop = options.stop;
  run_options.faults = options.faults;
  run_options.precompleted = precompleted.empty() ? nullptr : &precompleted;
  if (journal != nullptr) {
    run_options.on_complete = [&journal](std::uint64_t id,
                                         const TrialResult& trial) {
      journal->append({id, trial.status, trial.cut, trial.cpu_seconds,
                       trial.error, trial.metrics});
    };
  }

  result.trials = run_trials_ex(graphs, trials, config, seed, config.threads,
                                run_options);
  result.cells =
      reduce_trial_matrix(result.trials, graphs.size() * methods.size(),
                          config.starts, options.keep_sides);
  for (const TrialResult& trial : result.trials) {
    switch (trial.status) {
      case TrialStatus::kOk: ++result.ok; break;
      case TrialStatus::kFailed: ++result.failed; break;
      case TrialStatus::kTimedOut: ++result.timed_out; break;
      case TrialStatus::kSkipped: ++result.skipped; break;
    }
  }
  result.interrupted =
      result.skipped > 0 ||
      (options.stop != nullptr &&
       options.stop->load(std::memory_order_acquire));
  return result;
}

}  // namespace gbis
