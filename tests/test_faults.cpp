// Robustness suite: fault-isolated trials, cooperative deadlines,
// graceful shutdown, checkpoint/resume, and the deterministic fault
// injector that drives them. The load-bearing property throughout:
// because trial t's Rng depends only on (seed, t), a campaign that is
// faulted, interrupted, journaled, and resumed reports cuts
// bit-identical to an uninterrupted run — for any thread count.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/gen/gnp.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/harness/checkpoint.hpp"
#include "gbis/harness/fault_injection.hpp"
#include "gbis/harness/parallel_runner.hpp"
#include "gbis/harness/shutdown.hpp"
#include "gbis/harness/thread_pool.hpp"
#include "gbis/io/io_error.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {
namespace {

RunConfig fast_config(std::uint32_t starts, std::uint32_t threads) {
  RunConfig config;
  config.starts = starts;
  config.threads = threads;
  config.sa.temperature_length_factor = 2.0;
  config.sa.cooling_ratio = 0.85;
  return config;
}

Graph test_graph() {
  Rng rng(7);
  return make_gnp(96, gnp_p_for_degree(96, 3.0), rng);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// --- Deadline --------------------------------------------------------------

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.unlimited());
  EXPECT_FALSE(deadline.expired());
  EXPECT_NO_THROW(deadline.check());
}

TEST(Deadline, ExpiresAndThrows) {
  const Deadline deadline = Deadline::after(0.005);
  EXPECT_FALSE(deadline.unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(deadline.expired());
  EXPECT_THROW(deadline.check(), DeadlineExceeded);
}

// A budget past what steady_clock can hold from now (~292 years of
// nanoseconds) must not wrap into the past.
TEST(Deadline, BudgetsPastTheClockNeverExpireAndNonPositiveOnesDo) {
  for (const double seconds : {1e10, 1e300}) {
    const Deadline deadline = Deadline::after(seconds);
    EXPECT_FALSE(deadline.expired()) << seconds;
    EXPECT_NO_THROW(deadline.check()) << seconds;
  }
  for (const double seconds : {0.0, -1.0}) {
    EXPECT_TRUE(Deadline::after(seconds).expired()) << seconds;
  }
}

TEST(Deadline, RemainingSecondsDecreases) {
  const Deadline deadline = Deadline::after(10.0);
  const double first = deadline.remaining_seconds();
  EXPECT_GT(first, 0.0);
  EXPECT_LE(first, 10.0);
}

// --- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse(
      "throw@trial:17,hang@trial:23,stop@trial:0", kCampaignFaults);
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.at(FaultSite::kTrial, 17), FaultKind::kThrow);
  EXPECT_EQ(plan.at(FaultSite::kTrial, 23), FaultKind::kHang);
  EXPECT_EQ(plan.at(FaultSite::kTrial, 0), FaultKind::kStop);
  EXPECT_EQ(plan.at(FaultSite::kTrial, 5), FaultKind::kNone);
  EXPECT_TRUE(FaultPlan::parse("", kCampaignFaults).empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus", kCampaignFaults),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("throw@trial:", kCampaignFaults),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("throw@vertex:3", kCampaignFaults),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("explode@trial:3", kCampaignFaults),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("throw@trial:3,,", kCampaignFaults),
               std::invalid_argument);
}

// Generated over every FaultKind x FaultSite pair, so a kind or site
// added later is checked without editing a list. Each mode accepts
// exactly the pairs its grammar has always accepted (campaigns:
// throw/hang/stop at trial; the service: throw/hang/oom/crash at
// req/solve/batch), reads `kind@site:n` as at(site, n) == kind, and
// rejects everything else with its own message.
TEST(FaultPlan, EachModeAcceptsExactlyItsKindsAndSites) {
  struct Mode {
    const FaultGrammar& grammar;
    const char* var;
    std::vector<std::string> kinds, sites;
    std::string message_prefix, usage;
  };
  const Mode modes[] = {
      {kCampaignFaults, "GBIS_FAULTS", {"throw", "hang", "stop"}, {"trial"},
       "fault spec entry \"", "<throw|hang|stop>@trial:<id>"},
      {kServiceFaults, "GBIS_SVC_FAULTS", {"throw", "hang", "oom", "crash"},
       {"req", "solve", "batch"}, "service fault spec entry \"",
       "<throw|hang|oom|crash>@<req|solve|batch>:<n>"},
  };
  const auto listed = [](const std::vector<std::string>& names,
                         const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  int accepted = 0;
  for (const Mode& mode : modes) {
    for (int k = 1; k < kNumFaultKinds; ++k) {
      for (int s = 0; s < kNumFaultSites; ++s) {
        const auto kind = static_cast<FaultKind>(k);
        const auto site = static_cast<FaultSite>(s);
        const std::string spec = std::string(fault_kind_name(kind)) + "@" +
                                 fault_site_name(site) + ":7";
        ::setenv(mode.var, spec.c_str(), 1);
        const FaultPlan from_env = FaultPlan::from_env(mode.var, mode.grammar);
        if (listed(mode.kinds, fault_kind_name(kind)) &&
            listed(mode.sites, fault_site_name(site))) {
          ++accepted;
          const FaultPlan plan = FaultPlan::parse(spec, mode.grammar);
          EXPECT_EQ(plan.size(), 1u) << spec;
          EXPECT_EQ(plan.at(site, 7), kind) << spec;
          EXPECT_EQ(plan.at(site, 6), FaultKind::kNone) << spec;
          EXPECT_EQ(from_env.at(site, 7), kind) << mode.var << "=" << spec;
          continue;
        }
        EXPECT_TRUE(from_env.empty()) << mode.var << "=" << spec;
        try {
          FaultPlan::parse(spec, mode.grammar);
          ADD_FAILURE() << mode.var << " accepted " << spec;
        } catch (const std::invalid_argument& error) {
          EXPECT_EQ(error.what(), mode.message_prefix + spec +
                                      "\" does not match " + mode.usage);
        }
      }
    }
    ::unsetenv(mode.var);
  }
  EXPECT_EQ(accepted, 3 + 12);
}

TEST(FaultPlan, FromEnvParsesAndToleratesGarbage) {
  ::setenv("GBIS_FAULTS", "throw@trial:4", 1);
  EXPECT_EQ(FaultPlan::from_env("GBIS_FAULTS", kCampaignFaults)
                .at(FaultSite::kTrial, 4),
            FaultKind::kThrow);
  // Malformed env must not throw (a bad knob degrades, never crashes).
  ::setenv("GBIS_FAULTS", "not-a-spec", 1);
  EXPECT_TRUE(FaultPlan::from_env("GBIS_FAULTS", kCampaignFaults).empty());
  ::unsetenv("GBIS_FAULTS");
  EXPECT_TRUE(FaultPlan::from_env("GBIS_FAULTS", kCampaignFaults).empty());
}

TEST(SvcFaults, FromEnvParsesAndToleratesGarbage) {
  ::setenv("GBIS_SVC_FAULTS", "oom@solve:2,throw@req:0", 1);
  const FaultPlan plan = FaultPlan::from_env("GBIS_SVC_FAULTS", kServiceFaults);
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.at(FaultSite::kSolve, 2), FaultKind::kOom);
  ::setenv("GBIS_SVC_FAULTS", "kaboom@everything:9", 1);
  EXPECT_TRUE(FaultPlan::from_env("GBIS_SVC_FAULTS", kServiceFaults).empty());
  ::unsetenv("GBIS_SVC_FAULTS");
  EXPECT_TRUE(FaultPlan::from_env("GBIS_SVC_FAULTS", kServiceFaults).empty());
}

TEST(SvcFaults, InjectorThrowsTheDocumentedExceptionTypes) {
  const FaultPlan plan = FaultPlan::parse(
      "throw@req:0,oom@solve:0,hang@solve:1", kServiceFaults);
  // No fault at this site/ordinal: a no-op.
  maybe_inject_fault(&plan, FaultSite::kBatch, 0, Deadline());
  maybe_inject_fault(nullptr, FaultSite::kReq, 0, Deadline());
  EXPECT_THROW(maybe_inject_fault(&plan, FaultSite::kReq, 0, Deadline()),
               InjectedFault);
  EXPECT_THROW(maybe_inject_fault(&plan, FaultSite::kSolve, 0, Deadline()),
               std::bad_alloc);
  // A hang against an already-expired deadline resolves immediately.
  EXPECT_THROW(maybe_inject_fault(&plan, FaultSite::kSolve, 1,
                                  Deadline::after(1e-9)),
               DeadlineExceeded);
  // ... and against an unlimited deadline, the stop flag frees it.
  std::atomic<bool> stop{true};
  EXPECT_THROW(
      maybe_inject_fault(&plan, FaultSite::kSolve, 1, Deadline(), &stop),
      DeadlineExceeded);
  // An ordinal is matched whole: req:2^62 fires there, not at req:0.
  const FaultPlan far =
      FaultPlan::parse("throw@req:4611686018427387904", kServiceFaults);
  maybe_inject_fault(&far, FaultSite::kReq, 0, Deadline());
  EXPECT_THROW(maybe_inject_fault(&far, FaultSite::kReq,
                                  std::uint64_t{1} << 62, Deadline()),
               InjectedFault);
}

// --- Shutdown escalation (second signal during a graceful drain) -----------

TEST(Shutdown, EscalationIsASecondPhaseAboveGracefulShutdown) {
  reset_shutdown();
  EXPECT_FALSE(shutdown_requested());
  EXPECT_FALSE(shutdown_escalated());
  request_shutdown();  // first signal: graceful drain
  EXPECT_TRUE(shutdown_requested());
  EXPECT_FALSE(shutdown_escalated());
  request_escalation();  // second signal: bounded-flush exit
  EXPECT_TRUE(shutdown_requested());
  EXPECT_TRUE(shutdown_escalated());
  reset_shutdown();  // clears both phases
  EXPECT_FALSE(shutdown_requested());
  EXPECT_FALSE(shutdown_escalated());
}

// --- ThreadPool fault isolation -------------------------------------------

TEST(ThreadPool, CollectRecordsEveryFailureSlot) {
  // Multi-failure regression: the old pool kept only the first captured
  // exception; the collect path must keep one outcome per index.
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const std::vector<JobOutcome> outcomes =
        pool.parallel_for_collect(12, [](std::size_t i) {
          if (i % 3 == 0) {
            throw std::runtime_error("job " + std::to_string(i));
          }
        });
    ASSERT_EQ(outcomes.size(), 12u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i % 3 == 0) {
        EXPECT_EQ(outcomes[i].state, JobState::kError) << i;
        ASSERT_TRUE(outcomes[i].error);
        try {
          std::rethrow_exception(outcomes[i].error);
        } catch (const std::runtime_error& error) {
          EXPECT_EQ(std::string(error.what()), "job " + std::to_string(i));
        }
      } else {
        EXPECT_EQ(outcomes[i].state, JobState::kDone) << i;
        EXPECT_FALSE(outcomes[i].error);
      }
    }
  }
}

TEST(ThreadPool, CollectDrainsOnStopWithoutHanging) {
  // Single worker: claims are sequential, so the drain point is exact —
  // jobs 0-3 run, 4-63 come back kNotRun.
  {
    ThreadPool pool(1);
    std::atomic<bool> stop{false};
    const std::vector<JobOutcome> outcomes = pool.parallel_for_collect(
        64,
        [&](std::size_t i) {
          if (i == 3) stop.store(true, std::memory_order_release);
        },
        &stop);
    ASSERT_EQ(outcomes.size(), 64u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(outcomes[i].state, JobState::kDone) << i;
    }
    for (std::size_t i = 4; i < 64; ++i) {
      EXPECT_EQ(outcomes[i].state, JobState::kNotRun) << i;
    }
  }
  // Multi-worker: the exact drain point races, but the batch must still
  // return (pending reaches 0) with every slot resolved.
  {
    ThreadPool pool(4);
    std::atomic<bool> stop{true};  // pre-set: nothing should run
    const std::vector<JobOutcome> outcomes = pool.parallel_for_collect(
        64, [](std::size_t) {}, &stop);
    ASSERT_EQ(outcomes.size(), 64u);
    for (const JobOutcome& outcome : outcomes) {
      EXPECT_EQ(outcome.state, JobState::kNotRun);
    }
  }
}

TEST(ThreadPool, StrictRethrowsLowestIndexError) {
  // With one worker indices are claimed in order, so the first failure
  // is index 3 and nothing after the drain threshold runs.
  ThreadPool pool(1);
  std::vector<int> ran(16, 0);
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      ran[i] = 1;
      if (i == 3 || i == 5) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "boom 3");
  }
  EXPECT_EQ(ran[3], 1);
  EXPECT_EQ(ran[5], 0);  // drained after the first failure
}

// --- Trial fault isolation -------------------------------------------------

TEST(TrialIsolation, InjectedThrowDegradesOnlyThatTrial) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  const RunConfig config = fast_config(/*starts=*/4, /*threads=*/2);
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);

  const std::vector<TrialResult> clean =
      run_trials(graphs, trials, config, /*seed=*/123, config.threads);

  const FaultPlan plan = FaultPlan::parse("throw@trial:1", kCampaignFaults);
  TrialRunOptions options;
  options.faults = &plan;
  const std::vector<TrialResult> faulted = run_trials_ex(
      graphs, trials, config, /*seed=*/123, config.threads, options);

  ASSERT_EQ(faulted.size(), 4u);
  EXPECT_EQ(faulted[1].status, TrialStatus::kFailed);
  EXPECT_NE(faulted[1].error.find("injected"), std::string::npos);
  for (std::size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(faulted[i].status, TrialStatus::kOk) << i;
    // Sibling trials are untouched: bit-identical to the clean run.
    EXPECT_EQ(faulted[i].cut, clean[i].cut) << i;
  }
}

TEST(TrialIsolation, InjectedHangHitsDeadlineNotTheCampaign) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  RunConfig config = fast_config(/*starts=*/3, /*threads=*/2);
  config.trial_deadline = 0.05;
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);

  const FaultPlan plan = FaultPlan::parse("hang@trial:2", kCampaignFaults);
  TrialRunOptions options;
  options.faults = &plan;
  const std::vector<TrialResult> results = run_trials_ex(
      graphs, trials, config, /*seed=*/9, config.threads, options);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, TrialStatus::kOk);
  EXPECT_EQ(results[1].status, TrialStatus::kOk);
  EXPECT_EQ(results[2].status, TrialStatus::kTimedOut);
}

TEST(TrialIsolation, CellAggregationCountsStatuses) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  const RunConfig config = fast_config(/*starts=*/3, /*threads=*/1);
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);
  const FaultPlan plan =
      FaultPlan::parse("throw@trial:0,throw@trial:2", kCampaignFaults);
  TrialRunOptions options;
  options.faults = &plan;
  const std::vector<TrialResult> raw = run_trials_ex(
      graphs, trials, config, /*seed=*/5, config.threads, options);
  const std::vector<MethodOutcome> cells =
      reduce_trial_matrix(raw, 1, config.starts);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].status, TrialStatus::kOk);  // one start survived
  EXPECT_EQ(cells[0].ok, 1u);
  EXPECT_EQ(cells[0].failed, 2u);
  EXPECT_EQ(cells[0].best_cut, raw[1].cut);
  EXPECT_FALSE(cells[0].first_error.empty());
}

// --- Checkpoint journal ----------------------------------------------------

TEST(CheckpointJournal, RoundTripsRecords) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    CheckpointJournal journal(path, /*fingerprint=*/0xabcdef0123456789ULL,
                              /*num_trials=*/6);
    journal.append({0, TrialStatus::kOk, 42, 0.5, "", nullptr});
    journal.append({3, TrialStatus::kFailed, 0, 0.25,
                    "metis: line 2: \"quoted\"\nnewline", nullptr});
    journal.append({5, TrialStatus::kTimedOut, 0, 1.0, "deadline", nullptr});
  }
  const CheckpointJournal::Loaded loaded = CheckpointJournal::load(path);
  EXPECT_EQ(loaded.fingerprint, 0xabcdef0123456789ULL);
  EXPECT_EQ(loaded.num_trials, 6u);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(loaded.records[0].trial_id, 0u);
  EXPECT_EQ(loaded.records[0].status, TrialStatus::kOk);
  EXPECT_EQ(loaded.records[0].cut, 42);
  EXPECT_DOUBLE_EQ(loaded.records[0].cpu_seconds, 0.5);
  EXPECT_EQ(loaded.records[1].trial_id, 3u);
  EXPECT_EQ(loaded.records[1].status, TrialStatus::kFailed);
  EXPECT_EQ(loaded.records[1].error,
            "metis: line 2: \"quoted\"\nnewline");
  EXPECT_EQ(loaded.records[2].status, TrialStatus::kTimedOut);
}

TEST(CheckpointJournal, LoadErrorsNameTheLine) {
  EXPECT_THROW(CheckpointJournal::load(temp_path("no_such_journal.jsonl")),
               IoError);
  const std::string path = temp_path("journal_bad.jsonl");
  {
    CheckpointJournal journal(path, 1, 2);
    journal.append({0, TrialStatus::kOk, 1, 0.1, "", nullptr});
  }
  {
    // Corrupt it: a record with an out-of-range id.
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"trial\",\"id\":9,\"status\":\"ok\"}\n", f);
    std::fclose(f);
  }
  try {
    CheckpointJournal::load(path);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

// A crash mid-append tears at most the last line. Cut a journal at
// every byte past its header: load returns exactly the trials whose
// '\n' survived, and never throws on (or adopts) a torn prefix — the
// scanner would read `"cut":4` out of a torn `"cut":42`.
TEST(CheckpointJournal, EveryTruncationLoadsExactlyTheCompleteTrials) {
  auto tm = std::make_shared<TrialMetrics>();
  tm->counters[static_cast<std::size_t>(Counter::kKlPasses)] = 3;
  tm->hists[static_cast<std::size_t>(Hist::kKlPassImprovement)].observe(4);
  const std::vector<TrialRecord> records = {
      {0, TrialStatus::kOk, 42, 0.5, "", nullptr},
      {1, TrialStatus::kFailed, 0, 0.25, "metis: line 2: \"quoted\"\nnewline",
       nullptr},
      {2, TrialStatus::kOk, 17, 0.125, "", tm},
      {3, TrialStatus::kTimedOut, 0, 1.0, "deadline", nullptr},
      {4, TrialStatus::kOk, 1234567, 0.0625, "", nullptr},
      {5, TrialStatus::kOk, 9, 3.0, "", tm}};
  const std::string path = temp_path("journal_torn_source.jsonl");
  {
    CheckpointJournal journal(path, 0x0123456789abcdefULL, records.size());
    for (const TrialRecord& record : records) journal.append(record);
  }
  const std::string bytes = read_file(path);
  const std::size_t header_end = bytes.find('\n') + 1;
  const std::string torn = temp_path("journal_torn.jsonl");
  for (std::size_t cut = header_end; cut <= bytes.size(); ++cut) {
    write_file(torn, bytes.substr(0, cut));
    const std::size_t complete = static_cast<std::size_t>(
        std::count(bytes.begin() + header_end, bytes.begin() + cut, '\n'));
    CheckpointJournal::Loaded loaded;
    ASSERT_NO_THROW(loaded = CheckpointJournal::load(torn)) << "cut " << cut;
    ASSERT_EQ(loaded.records.size(), complete) << "cut " << cut;
    for (std::size_t i = 0; i < complete; ++i) {
      const TrialRecord& got = loaded.records[i];
      const TrialRecord& want = records[i];
      ASSERT_EQ(got.trial_id, want.trial_id) << "cut " << cut;
      ASSERT_EQ(got.status, want.status) << "cut " << cut;
      ASSERT_EQ(got.cut, want.cut) << "cut " << cut;
      ASSERT_EQ(got.cpu_seconds, want.cpu_seconds) << "cut " << cut;
      ASSERT_EQ(got.error, want.error) << "cut " << cut;
      ASSERT_EQ(got.metrics != nullptr, want.metrics != nullptr) << cut;
      if (want.metrics != nullptr) {
        ASSERT_EQ(got.metrics->counters, want.metrics->counters) << cut;
        for (std::size_t h = 0; h < kNumHists; ++h) {
          ASSERT_EQ(got.metrics->hists[h].buckets,
                    want.metrics->hists[h].buckets)
              << "cut " << cut << " hist " << h;
        }
      }
    }
  }
}

TEST(CheckpointFingerprint, SensitiveToInputsButNotThreads) {
  const Graph g = test_graph();
  const Graph graphs[] = {g};
  const Method methods[] = {Method::kKl, Method::kSa};
  RunConfig config = fast_config(2, 1);
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(1, methods, config.starts);

  const std::uint64_t base =
      campaign_fingerprint(1, config, trials, graphs);
  EXPECT_NE(base, campaign_fingerprint(2, config, trials, graphs));

  RunConfig other = config;
  other.sa.cooling_ratio = 0.99;
  EXPECT_NE(base, campaign_fingerprint(1, other, trials, graphs));

  // Threads do not affect outcomes, so they must not affect identity:
  // a journal from a 1-thread run resumes on an 8-thread run.
  RunConfig threaded = config;
  threaded.threads = 8;
  EXPECT_EQ(base, campaign_fingerprint(1, threaded, trials, graphs));
}

// --- Campaign: shutdown, journal, resume -----------------------------------

TEST(Campaign, ResumeRefusesForeignJournal) {
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  const RunConfig config = fast_config(2, 1);
  const std::string path = temp_path("journal_foreign.jsonl");

  CampaignOptions options;
  options.journal_path = path;
  run_campaign(graphs, methods, config, /*seed=*/1, options);

  CampaignOptions resume;
  resume.resume_path = path;
  EXPECT_THROW(run_campaign(graphs, methods, config, /*seed=*/2, resume),
               std::runtime_error);
}

// The tentpole acceptance test: kill a campaign halfway via injected
// in-process SIGTERM (stop@trial:N -> request_shutdown(), exactly what
// the signal handler does), confirm the journal is valid, resume, and
// require the resumed tables bit-identical to an uninterrupted run —
// at 1 thread and at 8.
TEST(Campaign, KillAndResumeIsBitIdentical) {
  const Graph g = test_graph();
  const Graph graphs[] = {g};
  const Method methods[] = {Method::kKl, Method::kSa, Method::kCkl};

  for (unsigned threads : {1u, 8u}) {
    RunConfig config = fast_config(/*starts=*/2, threads);
    const std::uint64_t seed = 20260806;

    // Reference: uninterrupted, no journal.
    CampaignOptions plain;
    const CampaignResult reference =
        run_campaign(graphs, methods, config, seed, plain);
    ASSERT_EQ(reference.ok, 6u);

    // Interrupted: trial 2 requests shutdown as it starts. With the
    // process-wide stop flag wired in, the pool drains and the tail of
    // the matrix is skipped (never journaled).
    const std::string path =
        temp_path("journal_resume_" + std::to_string(threads) + ".jsonl");
    const FaultPlan stop_plan =
        FaultPlan::parse("stop@trial:2", kCampaignFaults);
    reset_shutdown();
    CampaignOptions interrupted;
    interrupted.journal_path = path;
    interrupted.stop = &shutdown_flag();
    interrupted.faults = &stop_plan;
    const CampaignResult partial =
        run_campaign(graphs, methods, config, seed, interrupted);
    reset_shutdown();
    EXPECT_TRUE(partial.interrupted);
    if (threads == 1) {
      // Sequential claiming makes the drain deterministic: trials 0-2
      // complete, 3-5 are skipped. At 8 threads every trial may already
      // be claimed when the flag flips, so only the flag is guaranteed.
      EXPECT_EQ(partial.ok, 3u);
      EXPECT_EQ(partial.skipped, 3u);
    }

    // The journal on disk is valid mid-campaign state.
    const CheckpointJournal::Loaded loaded = CheckpointJournal::load(path);
    EXPECT_EQ(loaded.fingerprint, partial.fingerprint);
    EXPECT_EQ(loaded.records.size(), partial.ok);
    for (const TrialRecord& record : loaded.records) {
      EXPECT_EQ(record.status, TrialStatus::kOk);
    }

    // A crash mid-append instead: the same journal with its last line
    // cut in half. That trial never finished, so it reruns.
    ASSERT_GT(partial.ok, 0u);
    const std::string torn =
        temp_path("journal_torn_" + std::to_string(threads) + ".jsonl");
    const std::string bytes = read_file(path);
    const std::size_t last = bytes.rfind('\n', bytes.size() - 2) + 1;
    write_file(torn, bytes.substr(0, last + (bytes.size() - last) / 2));

    // Resume in place from each: adopt, run the rest, compare everything.
    for (const auto& [journal, adopted] :
         {std::pair{path, partial.ok}, std::pair{torn, partial.ok - 1}}) {
      CampaignOptions resume;
      resume.journal_path = journal;
      resume.resume_path = journal;
      const CampaignResult resumed =
          run_campaign(graphs, methods, config, seed, resume);
      EXPECT_FALSE(resumed.interrupted);
      EXPECT_EQ(resumed.ok, 6u);
      EXPECT_EQ(resumed.resumed, adopted) << journal;

      ASSERT_EQ(resumed.trials.size(), reference.trials.size());
      for (std::size_t t = 0; t < reference.trials.size(); ++t) {
        EXPECT_EQ(resumed.trials[t].status, TrialStatus::kOk) << t;
        EXPECT_EQ(resumed.trials[t].cut, reference.trials[t].cut)
            << "trial " << t << " at " << threads << " threads, " << journal;
      }
      ASSERT_EQ(resumed.cells.size(), reference.cells.size());
      for (std::size_t c = 0; c < reference.cells.size(); ++c) {
        EXPECT_EQ(resumed.cells[c].best_cut, reference.cells[c].best_cut)
            << "cell " << c << " at " << threads << " threads, " << journal;
        EXPECT_EQ(resumed.cells[c].best_start,
                  reference.cells[c].best_start);
      }

      // The completed journal now covers every trial.
      EXPECT_EQ(CheckpointJournal::load(journal).records.size(), 6u);
    }
  }
}

TEST(Campaign, ShutdownFlagSkipsUndequeuedTrials) {
  // Pre-set stop: nothing should run, everything comes back skipped,
  // and the result is flagged interrupted.
  const Graph graphs[] = {test_graph()};
  const Method methods[] = {Method::kKl};
  const RunConfig config = fast_config(4, 2);
  std::atomic<bool> stop{true};
  CampaignOptions options;
  options.stop = &stop;
  const CampaignResult result =
      run_campaign(graphs, methods, config, /*seed=*/3, options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.ok, 0u);
  EXPECT_EQ(result.skipped, 4u);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].status, TrialStatus::kSkipped);
}

}  // namespace
}  // namespace gbis
