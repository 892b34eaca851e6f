#include "gbis/harness/parallel_runner.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#include "gbis/harness/fault_injection.hpp"
#include "gbis/harness/thread_pool.hpp"
#include "gbis/harness/timer.hpp"
#include "gbis/obs/progress.hpp"
#include "gbis/obs/trace_export.hpp"
#include "gbis/rng/splitmix.hpp"

namespace gbis {

namespace {

ProgressOutcome progress_outcome(TrialStatus status) {
  switch (status) {
    case TrialStatus::kOk: return ProgressOutcome::kOk;
    case TrialStatus::kFailed: return ProgressOutcome::kFailed;
    case TrialStatus::kTimedOut: return ProgressOutcome::kTimedOut;
    case TrialStatus::kSkipped: return ProgressOutcome::kSkipped;
  }
  return ProgressOutcome::kFailed;
}

}  // namespace

const char* trial_status_name(TrialStatus status) {
  switch (status) {
    case TrialStatus::kOk: return "ok";
    case TrialStatus::kFailed: return "failed";
    case TrialStatus::kTimedOut: return "timed_out";
    case TrialStatus::kSkipped: return "skipped";
  }
  return "unknown";
}

const char* trial_status_cell(TrialStatus status) {
  switch (status) {
    case TrialStatus::kOk: return "";
    case TrialStatus::kFailed: return "err";
    case TrialStatus::kTimedOut: return "t/o";
    case TrialStatus::kSkipped: return "skip";
  }
  return "?";
}

TrialResult run_trial(const Graph& g, Method method, std::uint64_t seed,
                      std::uint64_t trial_id, const RunConfig& config,
                      const TrialContext& context, bool keep_sides) {
  RunConfig local = config;
  local.metrics = context.sink;
  local.kl.metrics = context.sink;
  local.sa.metrics = context.sink;
  local.fm.metrics = context.sink;
  local.path.metrics = context.sink;
  local.compaction.metrics = context.sink;
  local.multilevel.metrics = context.sink;
  local.kl.deadline = context.deadline;
  local.sa.deadline = context.deadline;
  local.fm.deadline = context.deadline;
  local.path.deadline = context.deadline;
  TrialResult out;
  const CpuTimer timer;
  try {
    maybe_inject_fault(context.faults, trial_id, context.deadline);
    Rng rng(splitmix64_at(seed, trial_id));
    const Bisection b = run_one_start(g, method, rng, local);
    out.cut = b.cut();
    if (keep_sides) out.sides.assign(b.sides().begin(), b.sides().end());
  } catch (...) {
    out = failed_trial(std::current_exception());
  }
  out.cpu_seconds = timer.elapsed_seconds();
  return out;
}

TrialResult failed_trial(std::exception_ptr error) {
  TrialResult out;
  out.status = TrialStatus::kFailed;
  try {
    std::rethrow_exception(error);
  } catch (const DeadlineExceeded& e) {
    out.status = TrialStatus::kTimedOut;
    out.error = e.what();
  } catch (const std::bad_alloc& e) {
    out.error = e.what();
    out.oom = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  return out;
}

void fold_trial(MethodOutcome& cell, std::uint32_t start,
                const TrialResult& trial, bool keep_sides) {
  cell.cpu_seconds += trial.cpu_seconds;
  cell.trial_seconds.push_back(trial.cpu_seconds);
  switch (trial.status) {
    case TrialStatus::kOk:
      if (cell.ok++ == 0 || trial.cut < cell.best_cut) {
        cell.best_cut = trial.cut;
        cell.best_start = start;
        if (keep_sides) cell.best_sides = trial.sides;
      }
      break;
    case TrialStatus::kFailed: ++cell.failed; break;
    case TrialStatus::kTimedOut: ++cell.timed_out; break;
    case TrialStatus::kSkipped: ++cell.skipped; break;
  }
  if (cell.first_error.empty()) cell.first_error = trial.error;
  cell.status = cell.ok > 0          ? TrialStatus::kOk
                : cell.failed > 0    ? TrialStatus::kFailed
                : cell.timed_out > 0 ? TrialStatus::kTimedOut
                                     : TrialStatus::kSkipped;
}

std::vector<TrialResult> run_trials_ex(std::span<const Graph> graphs,
                                       std::span<const TrialSpec> trials,
                                       const RunConfig& config,
                                       std::uint64_t seed, unsigned threads,
                                       const TrialRunOptions& options) {
  std::vector<TrialResult> results(trials.size());
  if (trials.empty()) return results;
  for (const TrialSpec& t : trials) {
    if (t.graph_index >= graphs.size()) {
      throw std::out_of_range("run_trials: graph_index out of range");
    }
  }

  // Resume: adopt precompleted results up front; their jobs no-op.
  std::vector<std::uint8_t> adopted(trials.size(), 0);
  if (options.precompleted != nullptr) {
    for (const auto& [id, result] : *options.precompleted) {
      if (id < results.size()) {
        results[id] = result;
        adopted[id] = 1;
      }
    }
  }

  // Observability: per-trial metric collection (deterministic part),
  // the batch epoch timer and worker-lane registry (Chrome-trace
  // part), and the live progress meter.
  const bool collect = config.obs.enabled();
  const WallTimer epoch;  // trial start offsets are relative to this
  std::mutex tid_mutex;   // guards the thread-id -> dense-lane map
  std::unordered_map<std::thread::id, std::uint32_t> tid_map;
  std::unique_ptr<ProgressMeter> progress;
  if (config.obs.progress) {
    progress = std::make_unique<ProgressMeter>(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (adopted[i]) progress->adopt(progress_outcome(results[i].status));
    }
  }

  std::mutex complete_mutex;  // serializes the on_complete hook

  // Never spin up more workers than there are trials.
  const unsigned workers = std::min<std::uint64_t>(
      ThreadPool::resolve_threads(threads), trials.size());
  ThreadPool pool(workers);
  const std::vector<JobOutcome> outcomes = pool.parallel_for_collect(
      trials.size(),
      [&](std::size_t i) {
        if (adopted[i]) return;
        const TrialSpec& spec = trials[i];
        TrialResult& out = results[i];
        // A shutdown between dequeue checks: skip without running.
        if (options.stop != nullptr &&
            options.stop->load(std::memory_order_acquire)) {
          out.status = TrialStatus::kSkipped;
          if (progress != nullptr) progress->record(ProgressOutcome::kSkipped);
          return;
        }
        TrialContext context;
        context.deadline = config.trial_deadline > 0
                               ? Deadline::after(config.trial_deadline)
                               : Deadline();
        context.faults = options.faults;
        // Bind the recording sink before the trial starts, so failed
        // and timed-out trials still carry their partial metrics and a
        // Chrome-trace span. Counters/hists/trace points depend only on
        // (seed, i); the lane id and epoch offset are wall-clock data.
        std::shared_ptr<TrialMetrics> tm;
        MetricsSink sink;
        if (collect) {
          tm = std::make_shared<TrialMetrics>();
          tm->start_offset_seconds = epoch.elapsed_seconds();
          {
            const std::lock_guard<std::mutex> lock(tid_mutex);
            tm->tid = static_cast<std::uint32_t>(
                tid_map.try_emplace(std::this_thread::get_id(),
                                    static_cast<std::uint32_t>(tid_map.size()))
                    .first->second);
          }
          sink = MetricsSink(tm.get(), config.obs.trace_capacity);
          context.sink = &sink;
        }
        out = run_trial(graphs[spec.graph_index], spec.method, seed, i,
                        config, context, options.keep_sides);
        if (tm != nullptr) {
          tm->wall_seconds = sink.elapsed_seconds();
          out.metrics = std::move(tm);
        }
        if (progress != nullptr) {
          progress->record(progress_outcome(out.status));
        }
        if (options.on_complete != nullptr &&
            out.status != TrialStatus::kSkipped) {
          const std::lock_guard<std::mutex> lock(complete_mutex);
          options.on_complete(static_cast<std::uint64_t>(i), out);
        }
      },
      options.stop);

  // Trials the drained pool never claimed.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].state == JobState::kNotRun && !adopted[i]) {
      results[i].status = TrialStatus::kSkipped;
      if (progress != nullptr) progress->record(ProgressOutcome::kSkipped);
    }
  }
  if (progress != nullptr) progress->finish();

  // run_trial maps every trial error to a status, so a job that threw
  // failed outside it: in the on_complete hook, say, when a checkpoint
  // append hit a full disk. Dropping that error would report a short
  // journal as a finished campaign. The batch is settled; rethrow the
  // first such error in trial-id order.
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.state == JobState::kError) {
      std::rethrow_exception(outcome.error);
    }
  }

  // Exports run once the whole batch is settled so the files always
  // describe a complete, trial-id-ordered result set.
  if (!config.obs.metrics_path.empty() || !config.obs.trace_dir.empty()) {
    export_observability(config.obs, results, trials);
  }
  return results;
}

std::vector<TrialResult> run_trials(std::span<const Graph> graphs,
                                    std::span<const TrialSpec> trials,
                                    const RunConfig& config,
                                    std::uint64_t seed, unsigned threads,
                                    bool keep_sides) {
  TrialRunOptions options;
  options.keep_sides = keep_sides;
  return run_trials_ex(graphs, trials, config, seed, threads, options);
}

std::vector<TrialSpec> enumerate_trial_matrix(std::size_t num_graphs,
                                              std::span<const Method> methods,
                                              std::uint32_t starts) {
  std::vector<TrialSpec> trials;
  trials.reserve(num_graphs * methods.size() * starts);
  for (std::uint32_t g = 0; g < num_graphs; ++g) {
    for (const Method m : methods) {
      for (std::uint32_t s = 0; s < starts; ++s) {
        trials.push_back({g, m, s});
      }
    }
  }
  return trials;
}

std::vector<MethodOutcome> reduce_trial_matrix(
    std::span<const TrialResult> raw, std::size_t num_cells,
    std::uint32_t starts, bool keep_sides) {
  std::vector<MethodOutcome> outcomes(num_cells);
  std::size_t t = 0;
  for (MethodOutcome& cell : outcomes) {
    cell.trial_seconds.reserve(starts);
    for (std::uint32_t s = 0; s < starts; ++s) {
      fold_trial(cell, s, raw[t++], keep_sides);
    }
  }
  return outcomes;
}

std::vector<MethodOutcome> run_trial_matrix(std::span<const Graph> graphs,
                                            std::span<const Method> methods,
                                            const RunConfig& config,
                                            std::uint64_t seed,
                                            bool keep_sides) {
  if (config.starts == 0) {
    throw std::invalid_argument("run_trial_matrix: starts >= 1");
  }
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(graphs.size(), methods, config.starts);
  const std::vector<TrialResult> raw =
      run_trials(graphs, trials, config, seed, config.threads, keep_sides);
  return reduce_trial_matrix(raw, graphs.size() * methods.size(),
                             config.starts, keep_sides);
}

}  // namespace gbis
