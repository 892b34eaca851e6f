// gbis_trace — the benchmark's in-process traced replay.
//
// The end-to-end benchmark drives the real `gbis serve` / `gbis campaign`
// binaries from outside. This program replays the same generated inputs
// in-process and times calls into each layer's public entry points from
// its own code, so the per-layer metrics need no tracing inside gbis.
//
//   gbis_trace refs GRAPH...
//       prints the exact bisection width of each forest ("-" otherwise)
//   gbis_trace serve --requests FILE --seconds S [--threads N]
//                    [--cache-file SEED_JOURNAL] [--access-log F]
//       feeds each request line through an in-process Service
//       (submit_line -> drain, timed), then replays the layers that
//       request used against a shadow of the service state
//   gbis_trace campaign --methods CSV --starts N --seed S --threads T
//                       --journal J GRAPH...
//       runs the campaign trial matrix through run_trials_ex with a
//       timed checkpoint hook and per-trial counters
//
// Every timed call is one span (name, start, end, parent, request id),
// kept in memory and written to <out>.spans.jsonl when the run ends.
// A span's self time is its duration minus its children's. Results go
// to stdout as one flat JSON object.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gbis/core/contract.hpp"
#include "gbis/core/matching.hpp"
#include "gbis/dyn/graph_store.hpp"
#include "gbis/dyn/lineage.hpp"
#include "gbis/dyn/mutation.hpp"
#include "gbis/dyn/warm.hpp"
#include "gbis/exact/tree.hpp"
#include "gbis/graph/ops.hpp"
#include "gbis/harness/checkpoint.hpp"
#include "gbis/harness/parallel_runner.hpp"
#include "gbis/harness/timer.hpp"
#include "gbis/io/edge_list.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/obs/span.hpp"
#include "gbis/rng/splitmix.hpp"
#include "gbis/svc/cache.hpp"
#include "gbis/svc/cache_store.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/svc/policy.hpp"
#include "gbis/svc/protocol.hpp"
#include "gbis/svc/scheduler.hpp"

namespace {

using namespace gbis;

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  double start = 0, end = 0;
  int parent = -1;
  std::uint64_t request = 0;
  double child_seconds = 0;  // filled as children close
};

class Tracer {
 public:
  int begin(const std::string& name, std::uint64_t request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, clock_.elapsed_seconds(), 0, parent, request, 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes the innermost open span; returns its duration in seconds.
  double end() {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end = clock_.elapsed_seconds();
    if (s.parent >= 0) spans_[s.parent].child_seconds += s.end - s.start;
    return s.end - s.start;
  }
  /// Records an already-measured child span of the innermost open span.
  void child(const std::string& name, double start, double seconds,
             std::uint64_t request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, start, start + seconds, parent, request, 0});
    if (parent >= 0) spans_[parent].child_seconds += seconds;
  }
  double now() const { return clock_.elapsed_seconds(); }
  const std::vector<Span>& spans() const { return spans_; }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"req\":" << s.request
          << ",\"start_us\":" << s.start * 1e6 << ",\"end_us\":" << s.end * 1e6
          << "}\n";
    }
  }

 private:
  WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Self time (seconds) and span count per span name.
std::map<std::string, std::pair<double, std::uint64_t>> self_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (const Span& s : spans) {
    auto& slot = out[s.name];
    slot.first += (s.end - s.start) - s.child_seconds;
    slot.second += 1;
  }
  return out;
}

// -------------------------------------------------------------- output

class Json {
 public:
  void put(const std::string& key, double value) {
    if (!std::isfinite(value)) value = 0;
    out_ << (first_ ? "{" : ",") << '"' << key << "\":" << value;
    first_ = false;
  }
  void put_list(const std::string& key, const std::vector<double>& values) {
    out_ << (first_ ? "{" : ",") << '"' << key << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out_ << (i ? "," : "") << values[i];
    }
    out_ << ']';
    first_ = false;
  }
  std::string str() const { return out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string arg_value(const std::vector<std::string>& args,
                      const std::string& flag, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

// ------------------------------------------------- per-trial solver counts

/// Aggregates of the solver layers, fed one trial at a time.
struct SolverCounts {
  struct Sa {
    double trials = 0, temps = 0, proposals = 0, seconds = 0;
    double cold_accepts = 0, cold_proposals = 0;
  };
  Sa sa[2];  // [0] even |V|, [1] odd |V|
  double kl_trials = 0, kl_passes = 0, kl_candidates = 0;
  double kl_plain_passes = 0, kl_seconds = 0;
  double fm_trials = 0, fm_passes = 0, fm_bucket_ops = 0;
  double po_trials = 0, po_passes = 0, po_proposed = 0, po_applied = 0;
  std::map<std::string, std::pair<double, double>> trial_ms;  // sum, count
  double compact_seconds = 0, compact_count = 0;

  void add(Method method, const TrialMetrics& tm, double seconds,
           bool odd) {
    const auto c = [&tm](Counter k) {
      return static_cast<double>(tm.counter(k));
    };
    auto& slot = trial_ms[method_short(method)];
    slot.first += seconds * 1e3;
    slot.second += 1;
    // Pass counts cover every trial that ran KL (KL, CKL, MLKL); time
    // per pass only plain KL trials, where passes are all the work.
    if (c(Counter::kKlPasses) > 0) {
      kl_trials += 1;
      kl_passes += c(Counter::kKlPasses);
      kl_candidates += c(Counter::kKlCandidatesScanned);
    }
    if (method == Method::kKl) {
      kl_plain_passes += c(Counter::kKlPasses);
      kl_seconds += seconds;
    }
    if (method == Method::kSa) {
      Sa& s = sa[odd ? 1 : 0];
      s.trials += 1;
      s.temps += c(Counter::kSaTemperatures);
      const double proposals = c(Counter::kSaProposalsHot) +
                               c(Counter::kSaProposalsWarm) +
                               c(Counter::kSaProposalsCold);
      s.proposals += proposals;
      s.seconds += seconds;
      s.cold_accepts += c(Counter::kSaAcceptsCold);
      s.cold_proposals += c(Counter::kSaProposalsCold);
    }
    if (method == Method::kFm) {
      fm_trials += 1;
      fm_passes += c(Counter::kFmPasses);
      fm_bucket_ops += c(Counter::kFmBucketOps);
    }
    if (method == Method::kPathOpt) {
      po_trials += 1;
      po_passes += c(Counter::kPoPasses);
      po_proposed += c(Counter::kPoFlipsProposed);
      po_applied += c(Counter::kPoFlipsApplied);
    }
    for (const PhaseSpan& p : tm.phases) {
      if (p.phase == Phase::kCompact) {
        compact_seconds += p.duration_seconds;
        compact_count += 1;
      }
    }
  }

  static std::string method_short(Method m) {
    switch (m) {
      case Method::kCkl: return "ckl";
      case Method::kCsa: return "csa";
      case Method::kMultilevelKl: return "mlkl";
      case Method::kPathOpt: return "path";
      case Method::kGreedyHc: return "greedy_hc";
      case Method::kFm: return "fm";
      case Method::kKl: return "kl";
      case Method::kSa: return "sa";
      default: return "other";
    }
  }

  void emit(Json& j) const {
    j.put("kl.passes_per_trial", ratio(kl_passes, kl_trials));
    j.put("kl.candidates_per_pass", ratio(kl_candidates, kl_passes));
    j.put("kl.us_per_pass", ratio(kl_seconds * 1e6, kl_plain_passes));
    const char* parity[2] = {"even", "odd"};
    for (int p = 0; p < 2; ++p) {
      const Sa& s = sa[p];
      const std::string suffix = std::string(".") + parity[p];
      j.put("sa.temperatures_per_trial" + suffix, ratio(s.temps, s.trials));
      j.put("sa.proposals_per_trial" + suffix, ratio(s.proposals, s.trials));
      j.put("sa.ns_per_proposal" + suffix, ratio(s.seconds * 1e9, s.proposals));
      j.put("sa.accept_ratio.cold" + suffix,
            ratio(s.cold_accepts, s.cold_proposals));
      j.put("sa.trials" + suffix, s.trials);
    }
    j.put("fm.passes_per_trial", ratio(fm_passes, fm_trials));
    j.put("fm.bucket_ops_per_pass", ratio(fm_bucket_ops, fm_passes));
    j.put("po.passes_per_trial", ratio(po_passes, po_trials));
    j.put("po.flip_yield", ratio(po_applied, po_proposed));
    for (const char* m :
         {"ckl", "csa", "mlkl", "path", "greedy_hc", "fm", "kl", "sa"}) {
      const auto it = trial_ms.find(m);
      j.put(std::string("trial_ms.") + m,
            it == trial_ms.end() ? 0 : ratio(it->second.first, it->second.second));
    }
    j.put("compaction.coarsen_us.in_trial",
          ratio(compact_seconds * 1e6, compact_count));
  }
};

/// Runs one trial exactly as the policy and the trial runner do (same
/// Rng derivation), with a bound MetricsSink; returns wall seconds.
double counted_trial(const Graph& g, Method method, std::uint64_t seed,
                     std::uint32_t trial, const RunConfig& base,
                     TrialMetrics& tm) {
  RunConfig config = base;
  MetricsSink sink(&tm, 64);
  config.metrics = &sink;
  config.kl.metrics = &sink;
  config.sa.metrics = &sink;
  config.fm.metrics = &sink;
  config.path.metrics = &sink;
  config.compaction.metrics = &sink;
  config.multilevel.metrics = &sink;
  Rng rng(splitmix64_at(seed, trial));
  const WallTimer timer;
  run_one_start(g, method, rng, config);
  return timer.elapsed_seconds();
}

/// One coarsening step (matching + contraction) timed from outside.
struct Coarsening {
  double seconds = 0, count = 0, ratio_sum = 0;
  void run(const Graph& g, std::uint64_t seed) {
    if (g.num_vertices() < 2) return;
    Rng rng(seed);
    const WallTimer timer;
    const Matching m = maximal_matching(g, rng);
    const Contraction c = contract_matching(g, m, rng);
    seconds += timer.elapsed_seconds();
    count += 1;
    ratio_sum += static_cast<double>(c.coarse.num_vertices()) /
                 static_cast<double>(g.num_vertices());
  }
  void emit(Json& j) const {
    j.put("compaction.coarse_ratio", ratio(ratio_sum, count));
    j.put("compaction.coarsen_us", ratio(seconds * 1e6, count));
  }
};

// ---------------------------------------------------------------- refs

int cmd_refs(const std::vector<std::string>& files) {
  for (const std::string& f : files) {
    const Graph g = read_edge_list_file(f);
    if (is_forest(g)) {
      std::cout << tree_bisection_width(g) << '\n';
    } else {
      std::cout << "-\n";
    }
  }
  return 0;
}

// --------------------------------------------------------------- serve

/// What the shadow replay learned about one request.
struct Disposition {
  bool solve = false, inline_graph = false, hit = false, warm_attempt = false,
       warm_ok = false;
};

int cmd_serve(const std::vector<std::string>& args) {
  const std::string requests = arg_value(args, "--requests", "");
  const double budget = std::stod(arg_value(args, "--seconds", "10"));
  const std::string out_prefix = arg_value(args, "--out", "trace");
  const std::string seed_journal = arg_value(args, "--cache-file", "");

  SvcOptions options;
  options.threads = static_cast<unsigned>(std::stoul(arg_value(args, "--threads", "1")));
  options.access_log_path = arg_value(args, "--access-log", "");
  options.flight_ring = 4;  // only the last request's span set is read

  Json json;
  // The service and the shadow each restore their own copy of the seed
  // journal, so both start from the state the served run started from.
  SvcResultCache cache(options.cache_bytes);
  GraphStore store(options.graph_store_bytes);
  SvcLineage lineage(options.lineage_max_depth, options.lineage_max_records);
  std::unique_ptr<SvcCacheStore> journal;
  double restore_ms = 0;
  if (!seed_journal.empty()) {
    const std::string svc_copy = out_prefix + ".svc-journal";
    const std::string shadow_copy = out_prefix + ".shadow-journal";
    std::filesystem::copy_file(seed_journal, svc_copy,
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(seed_journal, shadow_copy,
                               std::filesystem::copy_options::overwrite_existing);
    options.cache_file = svc_copy;
    journal = std::make_unique<SvcCacheStore>(shadow_copy);
    SvcCacheRestore report;
    const WallTimer timer;
    journal->open_and_restore(cache, &lineage, report);
    restore_ms = timer.elapsed_seconds() * 1e3;
  }
  Service service(options);

  std::ifstream in(requests);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }

  Tracer tracer;
  SolverCounts counts;
  Coarsening coarsening;
  const RunConfig base_config = options.run;
  std::vector<double> t_req_us, t_shadow_us;
  std::map<std::string, std::vector<double>> latency_by_kind;
  double svc_layer_s = 0, scheduler_self_s = 0, queue_wait_s = 0;
  double shadow_layer_s = 0, request_s = 0;
  double solves = 0, inline_solves = 0, inline_bytes = 0;
  double fp_calls = 0, cold_requests = 0, policy_trials = 0;
  double materialize_inline_req_s = 0, materialize_fp_req_s = 0;
  double inline_req_s = 0, fp_requests = 0;
  double journal_bytes = 0, journal_appends = 0;
  double warm_attempts = 0, warm_ok = 0, warm_passes = 0;
  std::uint64_t processed = 0;
  std::vector<std::string> out;
  const WallTimer wall;

  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    if (wall.elapsed_seconds() > budget) break;
    const std::string& line = lines[idx];
    const std::uint64_t rid = idx + 1;

    // In-process request time, untouched by the shadow below.
    out.clear();
    tracer.begin("request", rid);
    service.submit_line(line, out);
    service.drain(out);
    const double t_req = tracer.end();
    t_req_us.push_back(t_req * 1e6);
    request_s += t_req;
    double svc_spans = 0;
    if (!service.flight().completed().empty()) {
      for (const SpanRec& s : service.flight().completed().back().spans) {
        if (s.name == "parse" || s.name == "lookup" || s.name == "mutate" ||
            s.name == "solve") {
          svc_spans += s.duration_seconds;
        } else if (s.name == "queue") {
          queue_wait_s += s.duration_seconds;
        }
      }
    }

    // Shadow replay: the same layer calls the service made, one span each.
    Disposition d;
    double encode_s = 0, append_s = 0;
    double shadow_start = tracer.now();
    double line_shadow_s = 0, req_materialize_s = 0;
    tracer.begin("shadow", rid);
    SvcRequest req;
    std::string error;
    tracer.begin("protocol.parse", rid);
    const bool parsed = parse_request(line, req, error);
    tracer.end();
    SvcResponse response;
    response.id = req.id;
    response.ok = parsed;
    if (parsed && req.op == SvcRequest::Op::kSolve) {
      d.solve = true;
      solves += 1;
      std::shared_ptr<const Graph> graph;
      SvcCacheKey key;
      if (!req.inline_graph.empty()) {
        d.inline_graph = true;
        inline_solves += 1;
        inline_bytes += static_cast<double>(req.inline_graph.size());
        tracer.begin("io.materialize", rid);
        std::istringstream is(req.inline_graph);
        graph = std::make_shared<const Graph>(read_edge_list(is));
        req_materialize_s += tracer.end();
        tracer.begin("fingerprint", rid);
        key.fingerprint = graph_fingerprint(*graph);
        tracer.end();
        fp_calls += 1;
        store.insert(key.fingerprint, graph);
      } else {
        key.fingerprint = req.fingerprint;
        fp_requests += 1;
      }
      PolicySpec spec;
      spec.portfolio = req.method == "auto";
      if (!spec.portfolio) method_from_name(req.method, spec.method);
      spec.quality = options.default_quality;
      if (!req.quality.empty()) quality_tier_from_name(req.quality, spec.quality);
      spec.budget = req.budget != 0 ? req.budget : options.default_budget;
      const std::uint64_t seed = req.has_seed ? req.seed : options.default_seed;
      key.method_key = spec.portfolio ? SvcCacheKey::kPortfolio
                                      : static_cast<std::uint32_t>(spec.method);
      key.quality_key = spec.portfolio ? static_cast<std::uint8_t>(spec.quality)
                                       : SvcCacheKey::kQualityNone;
      key.budget = spec.budget;
      key.seed = seed;
      key.deadline_bits = 0;
      tracer.begin("cache.lookup", rid);
      const SvcCacheValue* value = cache.lookup(key);
      tracer.end();
      if (value != nullptr) {
        d.hit = true;
        response.has_solve = true;
        response.cut = value->cut;
        response.method = value->method;
        response.warm = value->warm;
        if (req.want_sides) {
          for (std::uint8_t s : value->sides) response.sides.push_back(s ? '1' : '0');
        }
      } else {
        if (graph == nullptr) {
          tracer.begin("graph_store.lookup", rid);
          graph = store.lookup(key.fingerprint);
          tracer.end();
        }
        if (graph != nullptr) {
          SvcCacheValue fresh;
          bool solved = false;
          // Warm start: plan, project, refine, guardrail (dyn/warm).
          WarmPlan plan;
          tracer.begin("warm.plan", rid);
          const std::uint64_t max_edits = static_cast<std::uint64_t>(
              options.warm_edit_ratio *
              static_cast<double>(graph->num_edges() + 1));
          const bool planned = plan_warm_start(
              lineage, key.fingerprint, max_edits,
              [&cache](std::uint64_t fp) {
                return cache.best_for_fingerprint(fp) != nullptr;
              },
              plan);
          tracer.end();
          if (planned) {
            const SvcCacheValue* donor = cache.best_for_fingerprint(plan.ancestor);
            std::vector<std::uint8_t> seeded;
            tracer.begin("warm.project", rid);
            const bool projected = donor != nullptr &&
                                   project_sides(plan, donor->sides, seeded) &&
                                   seeded.size() == graph->num_vertices();
            tracer.end();
            if (projected) {
              d.warm_attempt = true;
              warm_attempts += 1;
              tracer.begin("warm.refine", rid);
              WarmSolveResult w = warm_solve(*graph, std::move(seeded),
                                             options.warm_max_passes, Deadline());
              tracer.end();
              warm_passes += w.kl_passes;
              const Weight bound =
                  2 * (donor->cut + static_cast<Weight>(plan.cumulative_edits)) + 8;
              if (w.cut <= bound) {
                d.warm_ok = true;
                warm_ok += 1;
                solved = true;
                fresh.cut = w.cut;
                fresh.method = "warm-kl";
                fresh.trials_ok = 1;
                fresh.warm = true;
                fresh.sides = std::move(w.sides);
              }
            }
          }
          if (!solved) {
            cold_requests += 1;
            std::vector<SpanRec> trial_spans;
            SpanBuffer buffer(&trial_spans, 1u << 20);
            tracer.begin("policy", rid);
            const double policy_start = tracer.now();
            const PolicyResult r = run_policy(*graph, spec, seed, base_config,
                                              /*keep_sides=*/true, nullptr, &buffer);
            for (const SpanRec& s : trial_spans) {
              if (s.name == "trial") {
                tracer.child("trial", policy_start + s.start_seconds,
                             s.duration_seconds, rid);
                policy_trials += 1;
              }
            }
            tracer.end();
            fresh.cut = r.best_cut;
            fresh.method = method_name(r.best_method);
            fresh.trials_ok = r.ok;
            fresh.trials_degraded = r.failed + r.timed_out + r.skipped;
            fresh.sides = r.best_sides;
          }
          response.has_solve = true;
          response.cut = fresh.cut;
          response.method = fresh.method;
          response.warm = fresh.warm;
          if (req.want_sides) {
            for (std::uint8_t s : fresh.sides) response.sides.push_back(s ? '1' : '0');
          }
          if (journal != nullptr) {
            const double a0 = tracer.now();
            tracer.begin("cache_store.append", rid);
            journal_bytes += static_cast<double>(journal->append(key, fresh));
            tracer.end();
            append_s += tracer.now() - a0;
            journal_appends += 1;
          }
          cache.insert(key, std::move(fresh));
        }
      }
      response.fingerprint = key.fingerprint;
      response.cache = d.hit ? "hit" : "miss";
      if (!d.hit && graph != nullptr && !d.warm_ok) {
        // Solver counts come from a separate, untimed-for-the-sum pass:
        // the same trials with a bound MetricsSink.
        const std::span<const Method> portfolio = quality_portfolio(spec.quality);
        const bool odd = graph->num_vertices() % 2 == 1;
        tracer.end();  // close "shadow" before the counting pass
        line_shadow_s += tracer.now() - shadow_start;
        tracer.begin("counts", rid);
        for (std::uint32_t i = 0; i < spec.budget; ++i) {
          const Method m = spec.portfolio ? portfolio[i % portfolio.size()]
                                          : spec.method;
          TrialMetrics tm;
          counts.add(m, tm, counted_trial(*graph, m, seed, i, base_config, tm), odd);
        }
        coarsening.run(*graph, seed);
        tracer.end();
        shadow_start = tracer.now();
        tracer.begin("shadow", rid);
      }
    } else if (parsed && req.op == SvcRequest::Op::kMutate) {
      std::shared_ptr<const Graph> parent;
      std::uint64_t parent_fp = req.fingerprint;
      if (req.has_fingerprint) {
        tracer.begin("graph_store.lookup", rid);
        parent = store.lookup(parent_fp);
        tracer.end();
      } else {
        tracer.begin("io.materialize", rid);
        std::istringstream is(req.inline_graph);
        parent = std::make_shared<const Graph>(read_edge_list(is));
        tracer.end();
        tracer.begin("fingerprint", rid);
        parent_fp = graph_fingerprint(*parent);
        tracer.end();
        fp_calls += 1;
        store.insert(parent_fp, parent);
      }
      const LineageRecord* known = lineage.by_batch(parent_fp, req.batch.hash());
      if (parent != nullptr && known == nullptr) {
        tracer.begin("mutation.apply", rid);
        MutationResult mutated = apply_mutation(*parent, req.batch);
        tracer.end();
        tracer.begin("fingerprint", rid);
        const std::uint64_t child_fp = graph_fingerprint(mutated.child);
        tracer.end();
        fp_calls += 1;
        LineageRecord record;
        record.parent = parent_fp;
        record.child = child_fp;
        record.batch_hash = req.batch.hash();
        record.adds = req.batch.add_edges.size() / 2;
        record.dels = req.batch.del_edges.size() / 2;
        record.vadds = req.batch.add_vertices;
        record.vdels = req.batch.del_vertices.size();
        record.edit_distance = req.batch.edit_distance();
        record.depth = lineage.depth_of(parent_fp) + 1;
        record.parent_vertices = parent->num_vertices();
        record.child_vertices = mutated.child.num_vertices();
        record.child_edges = mutated.child.num_edges();
        record.map = std::move(mutated.map);
        store.insert(child_fp, std::make_shared<const Graph>(std::move(mutated.child)));
        if (child_fp != parent_fp) {
          const auto [stored, inserted] = lineage.insert(std::move(record));
          if (inserted && journal != nullptr) {
            const double a0 = tracer.now();
            tracer.begin("cache_store.append", rid);
            journal_bytes += static_cast<double>(journal->append_lineage(*stored));
            tracer.end();
            append_s += tracer.now() - a0;
            journal_appends += 1;
          }
        }
      }
      response.op = "mutate";
      response.has_mutate = true;
    } else if (parsed) {
      response.op = req.op == SvcRequest::Op::kPing ? "ping" : "stats";
    }
    tracer.begin("protocol.encode", rid);
    const std::string encoded = encode_response(response);
    encode_s = tracer.end();
    tracer.end();  // shadow
    line_shadow_s += tracer.now() - shadow_start;
    shadow_layer_s += line_shadow_s;
    t_shadow_us.push_back(line_shadow_s * 1e6);

    svc_layer_s += svc_spans;
    const double sched = t_req - svc_spans - encode_s - append_s;
    scheduler_self_s += sched;
    tracer.child("scheduler.self", tracer.now(), sched, rid);

    const char* kind = !d.solve ? "other"
                       : d.hit ? "hit"
                       : d.warm_ok ? "warm"
                       : d.warm_attempt ? "fallback"
                                        : "cold";
    latency_by_kind[kind].push_back(t_req * 1e3);
    if (d.solve && d.inline_graph) {
      inline_req_s += t_req;
      materialize_inline_req_s += req_materialize_s;
    } else if (d.solve) {
      materialize_fp_req_s += req_materialize_s;
    }
    ++processed;
  }

  // Layer self times, from the spans (shadow trees only).
  double layer_sum_s = scheduler_self_s;
  std::map<std::string, double> layer_s, span_count;
  for (const auto& [name, v] : self_by_name(tracer.spans())) {
    layer_s[name] = v.first;
    span_count[name] = static_cast<double>(v.second);
    if (name != "request" && name != "shadow" && name != "counts" &&
        name != "scheduler.self") {
      layer_sum_s += v.first;
    }
  }
  const auto per = [&](const std::string& name, double n) {
    return ratio(layer_s[name] * 1e6, n);
  };
  const double n = static_cast<double>(processed);
  json.put("lines", n);
  json.put("request_us", ratio(request_s * 1e6, n));
  json.put("shadow_us", ratio(shadow_layer_s * 1e6, n));
  json.put("trace.wall_s", wall.elapsed_seconds());
  json.put("protocol.parse_us", per("protocol.parse", n));
  json.put("protocol.encode_us", per("protocol.encode", n));
  json.put("io.materialize_us", per("io.materialize", inline_solves));
  json.put("io.materialize_us.fp_req", ratio(materialize_fp_req_s * 1e6, fp_requests));
  json.put("io.materialize_share.inline", ratio(materialize_inline_req_s, inline_req_s));
  json.put("io.ns_per_byte", ratio(layer_s["io.materialize"] * 1e9, inline_bytes));
  json.put("io.inline_share", ratio(inline_solves, solves));
  json.put("fingerprint.us", per("fingerprint", fp_calls));
  json.put("fingerprint.calls_per_req", ratio(fp_calls, n));
  const SvcCacheStats& cs = cache.stats();
  json.put("cache.hit_ratio", ratio(static_cast<double>(cs.hits),
                                    static_cast<double>(cs.hits + cs.misses)));
  json.put("cache.lookup_us", per("cache.lookup", static_cast<double>(cs.hits + cs.misses)));
  json.put("cache.evictions", static_cast<double>(cs.evictions));
  const GraphStoreStats& gs = store.stats();
  json.put("graph_store.hit_ratio", ratio(static_cast<double>(gs.hits),
                                          static_cast<double>(gs.hits + gs.misses)));
  json.put("graph_store.bytes", static_cast<double>(gs.bytes));
  json.put("scheduler.self_us", ratio(scheduler_self_s * 1e6, n));
  json.put("scheduler.queue_wait_us", ratio(queue_wait_s * 1e6, n));
  for (const char* kind : {"hit", "cold", "warm", "fallback"}) {
    json.put(std::string("scheduler.latency_p50_ms.") + kind,
             median(latency_by_kind[kind]));
  }
  const double trials_s = layer_s["trial"];
  json.put("policy.self_us", ratio(layer_s["policy"] * 1e6, cold_requests));
  json.put("policy.trials_per_req", ratio(policy_trials, cold_requests));
  json.put("policy.trial_us", ratio(trials_s * 1e6, policy_trials));
  counts.emit(json);
  coarsening.emit(json);
  json.put("mutation.apply_us", per("mutation.apply", span_count["mutation.apply"]));
  json.put("warm.plan_us", per("warm.plan", span_count["warm.plan"]));
  json.put("warm.project_us", per("warm.project", warm_attempts));
  json.put("warm.refine_us", per("warm.refine", warm_attempts));
  json.put("warm.kl_passes", ratio(warm_passes, warm_attempts));
  json.put("warm.yield", ratio(warm_ok, warm_attempts));
  json.put("warm.attempts", warm_attempts);
  json.put("cache_store.append_us", per("cache_store.append", journal_appends));
  json.put("cache_store.bytes_per_req", ratio(journal_bytes, n));
  json.put("cache_store.restore_ms", restore_ms);
  json.put("layer_sum_us", ratio(layer_sum_s * 1e6, n));
  json.put("trace.unattributed_pct",
           ratio((request_s - layer_sum_s) * 100.0, request_s));
  json.put("svc_layer_us", ratio(svc_layer_s * 1e6, n));
  json.put_list("t_req_us", t_req_us);
  json.put_list("t_shadow_us", t_shadow_us);
  tracer.write(out_prefix + ".spans.jsonl");
  std::cout << json.str() << std::endl;
  return 0;
}

// ------------------------------------------------------------ campaign

int cmd_campaign(const std::vector<std::string>& args,
                 const std::vector<std::string>& files) {
  const std::string csv = arg_value(args, "--methods", "kl,sa,ckl,csa,fm");
  const std::uint32_t starts =
      static_cast<std::uint32_t>(std::stoul(arg_value(args, "--starts", "1")));
  const std::uint64_t seed = std::stoull(arg_value(args, "--seed", "42"));
  const unsigned threads =
      static_cast<unsigned>(std::stoul(arg_value(args, "--threads", "1")));
  const std::string journal_path = arg_value(args, "--journal", "trace.journal");
  const std::string out_prefix = arg_value(args, "--out", "trace");

  std::vector<Method> methods;
  for (std::size_t b = 0; b <= csv.size();) {
    const std::size_t comma = std::min(csv.find(',', b), csv.size());
    Method m;
    if (comma > b && method_from_name(csv.substr(b, comma - b), m)) {
      methods.push_back(m);
    }
    b = comma + 1;
  }
  Tracer tracer;
  std::vector<Graph> graphs;
  tracer.begin("io.load", 0);
  for (const std::string& f : files) graphs.push_back(read_edge_list_file(f));
  tracer.end();

  RunConfig config;
  config.starts = starts;
  config.threads = threads;
  config.obs.collect = true;  // per-trial TrialMetrics, no files
  const std::vector<TrialSpec> trials =
      enumerate_trial_matrix(graphs.size(), methods, starts);
  CheckpointJournal journal(journal_path,
                            campaign_fingerprint(seed, config, trials, graphs),
                            trials.size());
  double append_s = 0, appends = 0;
  TrialRunOptions run_options;
  run_options.on_complete = [&](std::uint64_t id, const TrialResult& r) {
    const WallTimer timer;
    journal.append({id, r.status, r.cut, r.cpu_seconds, r.error, r.metrics});
    append_s += timer.elapsed_seconds();
    appends += 1;
  };
  tracer.begin("runner", 0);
  const WallTimer batch;
  const std::vector<TrialResult> results =
      run_trials_ex(graphs, trials, config, seed, threads, run_options);
  const double batch_s = batch.elapsed_seconds();
  tracer.end();

  SolverCounts counts;
  double busy_s = 0;
  std::map<std::uint32_t, double> last_end;  // per worker, from batch start
  for (std::size_t t = 0; t < results.size(); ++t) {
    const TrialResult& r = results[t];
    if (r.metrics == nullptr) continue;
    const Graph& g = graphs[trials[t].graph_index];
    busy_s += r.metrics->wall_seconds;
    double& end = last_end[r.metrics->tid];
    end = std::max(end, r.metrics->start_offset_seconds + r.metrics->wall_seconds);
    tracer.child(std::string("trial.") + SolverCounts::method_short(trials[t].method),
                 r.metrics->start_offset_seconds, r.metrics->wall_seconds, t + 1);
    counts.add(trials[t].method, *r.metrics, r.metrics->wall_seconds,
               g.num_vertices() % 2 == 1);
  }
  Coarsening coarsening;
  for (std::size_t g = 0; g < graphs.size(); ++g) coarsening.run(graphs[g], seed + g);

  Json json;
  const double n = static_cast<double>(results.size());
  json.put("lines", n);
  json.put("trace.wall_s", batch_s);
  json.put("runner.pool_busy_frac", ratio(busy_s, batch_s * threads));
  // Layer sum for a batch: worker time is trials, checkpoint appends, and
  // the tail once a worker's queue ran dry; what is left of threads x
  // wall is runner overhead between trials.
  double tail_idle_s = batch_s * static_cast<double>(threads - last_end.size());
  for (const auto& [tid, end] : last_end) tail_idle_s += batch_s - end;
  json.put("runner.tail_idle_frac", ratio(tail_idle_s, batch_s * threads));
  json.put("trace.unattributed_pct",
           ratio((batch_s * threads - busy_s - append_s - tail_idle_s) * 100.0,
                 batch_s * threads));
  json.put("checkpoint.append_us", ratio(append_s * 1e6, appends));
  json.put("checkpoint.bytes_per_trial",
           ratio(static_cast<double>(std::filesystem::file_size(journal_path)), n));
  counts.emit(json);
  coarsening.emit(json);
  tracer.write(out_prefix + ".spans.jsonl");
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: gbis_trace refs|serve|campaign ...\n";
    return 2;
  }
  const std::string cmd = args.front();
  args.erase(args.begin());
  try {
    if (cmd == "refs") return cmd_refs(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "campaign") {
      std::vector<std::string> flags, files;
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i].rfind("--", 0) == 0 && i + 1 < args.size()) {
          flags.push_back(args[i]);
          flags.push_back(args[++i]);
        } else {
          files.push_back(args[i]);
        }
      }
      return cmd_campaign(flags, files);
    }
  } catch (const std::exception& e) {
    std::cerr << "gbis_trace: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "gbis_trace: unknown command " << cmd << '\n';
  return 2;
}
