// Partition-service suite: graph fingerprinting (shared with the
// campaign journal — the golden value below pins cross-version journal
// compatibility), the LRU result cache, the budgeted solver policy,
// the NDJSON protocol, and the scheduler's determinism contract: the
// response stream is a pure function of the request stream for any
// worker count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "gbis/dyn/mutation.hpp"
#include "gbis/exact/brute.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/harness/checkpoint.hpp"
#include "gbis/harness/shutdown.hpp"
#include "gbis/io/edge_list.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/obs/span.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/svc/cache.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/svc/listener.hpp"
#include "gbis/svc/policy.hpp"
#include "gbis/svc/protocol.hpp"
#include "gbis/rng/splitmix.hpp"
#include "gbis/svc/scheduler.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {
namespace {

std::string inline_payload(const Graph& g) {
  std::ostringstream out;
  write_edge_list(out, g);
  return out.str();
}

std::string solve_line(const std::string& id, const Graph& g,
                       const std::string& extra = "") {
  std::string payload;
  append_json_string(payload, inline_payload(g));
  return "{\"id\":\"" + id + "\"" + extra + ",\"op\":\"solve\",\"inline\":" +
         payload + "}";
}

// Deletes the wall-clock fields from a response / access-log line so
// the rest can be byte-compared across thread counts. By convention
// (docs/SERVICE.md) every nondeterministic key ends in `_us`; values
// are bare numbers or (exemplar keys) strings, and span payloads carry
// the same keys JSON-escaped inside the "spans" string, so the pattern
// accepts an optional backslash before each quote.
std::string strip_timing(const std::string& line) {
  static const std::regex timing(
      ",(\\\\)?\"[A-Za-z0-9_]*_us(\\\\)?\":(\"[^\"]*\"|[-+0-9.eE]+)");
  return std::regex_replace(line, timing, "");
}

std::vector<std::string> strip_timing(std::vector<std::string> lines) {
  for (std::string& line : lines) line = strip_timing(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// --- Fingerprint -----------------------------------------------------------

// Golden value captured from the pre-refactor checkpoint hash (the
// same bytes, then private to harness/checkpoint.cpp). If this test
// breaks, every existing campaign journal stops resuming — change the
// fingerprint only with a journal-migration story.
TEST(Fingerprint, CampaignGoldenValueIsStable) {
  std::vector<Graph> graphs;
  graphs.push_back(make_grid(4, 4));
  graphs.push_back(make_ladder(5));
  const std::vector<Method> methods{Method::kKl, Method::kCkl};
  RunConfig config;
  config.starts = 2;
  const auto trials =
      enumerate_trial_matrix(graphs.size(), methods, config.starts);
  EXPECT_EQ(campaign_fingerprint(7, config, trials, graphs),
            0x308ed261561afa99ull);
}

TEST(Fingerprint, InsertionOrderInvariant) {
  GraphBuilder forward(4);
  forward.add_edge(0, 1);
  forward.add_edge(1, 2);
  forward.add_edge(2, 3);
  GraphBuilder backward(4);
  backward.add_edge(3, 2);
  backward.add_edge(2, 1);
  backward.add_edge(1, 0);
  EXPECT_EQ(graph_fingerprint(forward.build()),
            graph_fingerprint(backward.build()));
}

TEST(Fingerprint, SensitiveToStructureLabelsAndWeights) {
  const std::uint64_t base = graph_fingerprint(make_grid(3, 3));
  EXPECT_NE(base, graph_fingerprint(make_grid(3, 4)));

  GraphBuilder path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  GraphBuilder relabeled(3);  // same shape, different center label
  relabeled.add_edge(1, 0);
  relabeled.add_edge(0, 2);
  EXPECT_NE(graph_fingerprint(path.build()),
            graph_fingerprint(relabeled.build()));

  GraphBuilder weighted(3);
  weighted.add_edge(0, 1, 2);
  weighted.add_edge(1, 2);
  GraphBuilder unit(3);
  unit.add_edge(0, 1);
  unit.add_edge(1, 2);
  EXPECT_NE(graph_fingerprint(weighted.build()),
            graph_fingerprint(unit.build()));

  GraphBuilder heavy_vertex(3);
  heavy_vertex.add_edge(0, 1);
  heavy_vertex.add_edge(1, 2);
  heavy_vertex.set_vertex_weight(0, 5);
  EXPECT_NE(graph_fingerprint(heavy_vertex.build()),
            graph_fingerprint(unit.build()));
}

// --- Result cache ----------------------------------------------------------

SvcCacheValue small_value(Weight cut, std::size_t sides_bytes) {
  SvcCacheValue value;
  value.cut = cut;
  value.method = "KL";
  value.trials_ok = 1;
  value.sides.assign(sides_bytes, 0);
  return value;
}

SvcCacheKey key_of(std::uint64_t fingerprint) {
  SvcCacheKey key;
  key.fingerprint = fingerprint;
  return key;
}

TEST(SvcCache, HitMissAndPromotion) {
  SvcResultCache cache(1 << 20);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(1), small_value(10, 8));
  const SvcCacheValue* hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cut, 10);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SvcCache, EvictsLeastRecentlyUsed) {
  // Budget sized to hold exactly two entries of this shape.
  SvcResultCache probe(1 << 20);
  probe.insert(key_of(0), small_value(0, 64));
  const std::uint64_t entry_bytes = probe.stats().bytes;

  SvcResultCache cache(2 * entry_bytes);
  cache.insert(key_of(1), small_value(1, 64));
  cache.insert(key_of(2), small_value(2, 64));
  ASSERT_NE(cache.lookup(key_of(1)), nullptr);  // 1 is now MRU
  cache.insert(key_of(3), small_value(3, 64));  // evicts 2, the LRU
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
  EXPECT_LE(cache.stats().bytes, 2 * entry_bytes);
}

TEST(SvcCache, ZeroBudgetDisablesCaching) {
  SvcResultCache cache(0);
  cache.insert(key_of(1), small_value(1, 8));
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SvcCache, DistinctIdentityFieldsNeverAlias) {
  SvcResultCache cache(1 << 20);
  SvcCacheKey key = key_of(7);
  cache.insert(key, small_value(1, 8));
  SvcCacheKey other = key;
  other.seed = 99;
  EXPECT_EQ(cache.lookup(other), nullptr);
  other = key;
  other.budget = 4;
  EXPECT_EQ(cache.lookup(other), nullptr);
  other = key;
  other.method_key = 0;
  EXPECT_EQ(cache.lookup(other), nullptr);
  other = key;
  other.deadline_bits = 42;
  EXPECT_EQ(cache.lookup(other), nullptr);
}

// --- Policy ----------------------------------------------------------------

Graph policy_graph() {
  Rng rng(11);
  return make_gnp(64, gnp_p_for_degree(64, 4.0), rng);
}

TEST(Policy, PortfolioIsDeterministicAndKeepsSides) {
  const Graph g = policy_graph();
  PolicySpec spec;
  spec.budget = 5;
  const PolicyResult a = run_policy(g, spec, 7, {}, /*keep_sides=*/true);
  const PolicyResult b = run_policy(g, spec, 7, {}, /*keep_sides=*/true);
  ASSERT_EQ(a.status, TrialStatus::kOk);
  EXPECT_EQ(a.ok, 5u);
  EXPECT_EQ(a.best_cut, b.best_cut);
  EXPECT_EQ(a.best_method, b.best_method);
  EXPECT_EQ(a.best_sides, b.best_sides);

  // The reported sides must actually be a bisection with the reported
  // cut.
  Bisection check(g, std::vector<std::uint8_t>(a.best_sides));
  EXPECT_EQ(check.cut(), a.best_cut);
}

TEST(Policy, BudgetOneIsOneCklStart) {
  const Graph g = policy_graph();
  PolicySpec spec;
  spec.budget = 1;
  const PolicyResult result = run_policy(g, spec, 7);
  ASSERT_EQ(result.status, TrialStatus::kOk);
  EXPECT_EQ(result.best_method, Method::kCkl);

  PolicySpec single;
  single.portfolio = false;
  single.method = Method::kCkl;
  single.budget = 1;
  EXPECT_EQ(run_policy(g, single, 7).best_cut, result.best_cut);
}

TEST(Policy, ExpiredDeadlineTimesOutEveryTrial) {
  const Graph g = policy_graph();
  PolicySpec spec;
  spec.budget = 3;
  const PolicyResult result = run_policy(g, spec, 7, {}, false, nullptr,
                                         nullptr, Deadline::after(1e-9));
  EXPECT_EQ(result.status, TrialStatus::kTimedOut);
  EXPECT_EQ(result.timed_out, 3u);
  EXPECT_EQ(result.ok, 0u);
}

// One trial path: an explicit-method request with budget k runs the
// same k trials as a k-start campaign cell at the same seed, and
// reduces them the same way (ties keep the earliest start).
TEST(Policy, ExplicitMethodAnswersLikeACampaignCell) {
  const Graph g = policy_graph();
  for (const MethodInfo& info : method_registry()) {
    PolicySpec spec;
    spec.portfolio = false;
    spec.method = info.method;
    spec.budget = 3;
    const PolicyResult served = run_policy(g, spec, 7, {}, /*keep_sides=*/true);
    RunConfig config;
    config.starts = 3;
    std::vector<std::uint8_t> sides;
    const RunResult cell = run_method_seeded(g, info.method, 7, config, &sides);
    ASSERT_EQ(served.status, TrialStatus::kOk) << info.name;
    EXPECT_EQ(served.best_method, info.method) << info.name;
    EXPECT_EQ(served.best_cut, cell.best_cut) << info.name;
    EXPECT_EQ(served.best_sides, sides) << info.name;
  }
}

TEST(Policy, StopFlagSkipsRemainingTrials) {
  const Graph g = policy_graph();
  PolicySpec spec;
  spec.budget = 4;
  std::atomic<bool> stop{true};
  const PolicyResult result = run_policy(g, spec, 7, {}, false, &stop);
  EXPECT_EQ(result.status, TrialStatus::kSkipped);
  EXPECT_EQ(result.skipped, 4u);
}

// --- Protocol --------------------------------------------------------------

TEST(Protocol, ParsesSolveRequest) {
  SvcRequest request;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id":"r1","op":"solve","path":"g.graph","method":"kl",)"
      R"("budget":4,"deadline_s":0.5,"seed":9,"want_sides":true})",
      request, error));
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.op, SvcRequest::Op::kSolve);
  EXPECT_EQ(request.path, "g.graph");
  EXPECT_EQ(request.method, "kl");
  EXPECT_EQ(request.budget, 4u);
  EXPECT_DOUBLE_EQ(request.deadline_seconds, 0.5);
  EXPECT_TRUE(request.has_seed);
  EXPECT_EQ(request.seed, 9u);
  EXPECT_TRUE(request.want_sides);
}

TEST(Protocol, RejectsMalformedRequests) {
  SvcRequest request;
  std::string error;
  EXPECT_FALSE(parse_request("", request, error));
  EXPECT_TRUE(error.starts_with("parse:"));
  EXPECT_FALSE(parse_request("not json", request, error));
  EXPECT_FALSE(parse_request(R"({"op":"explode"})", request, error));
  EXPECT_FALSE(parse_request(R"({"op":"solve"})", request, error));
  EXPECT_FALSE(
      parse_request(R"({"op":"solve","path":"a","inline":"b"})", request,
                    error));
  EXPECT_FALSE(
      parse_request(R"({"op":"solve","path":"a","budget":0})", request,
                    error));
  EXPECT_FALSE(parse_request(R"({"op":"solve","path":"a","deadline_s":-1})",
                             request, error));
  // The id still comes back for correlation.
  EXPECT_FALSE(
      parse_request(R"({"id":"bad","op":"explode"})", request, error));
  EXPECT_EQ(request.id, "bad");
}

TEST(Protocol, EncodeIsScannableByTheSharedParser) {
  SvcResponse response;
  response.id = "weird \"id\"\n";
  response.ok = true;
  response.has_solve = true;
  response.cut = 12;
  response.method = "CKL";
  response.trials_ok = 2;
  response.fingerprint = 0xabcull;
  response.cache = "hit";
  const std::string line = encode_response(response);
  std::string id, cache;
  std::uint64_t cut = 0;
  EXPECT_TRUE(json_parse_string(line, "id", id));
  EXPECT_EQ(id, response.id);
  EXPECT_TRUE(json_parse_u64(line, "cut", cut));
  EXPECT_EQ(cut, 12u);
  EXPECT_TRUE(json_parse_string(line, "cache", cache));
  EXPECT_EQ(cache, "hit");
}

// --- Service / scheduler ---------------------------------------------------

SvcOptions test_options(unsigned threads = 1) {
  SvcOptions options;
  options.threads = threads;
  options.batch_size = 4;
  options.default_budget = 2;
  return options;
}

std::vector<std::string> run_sequence(const SvcOptions& options,
                                      const std::vector<std::string>& lines) {
  Service service(options);
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    service.submit_line(line, out);
    if (service.pending() >= options.batch_size) service.process_batch(out);
  }
  service.drain(out);
  return out;
}

TEST(Service, SolvesAndEchoesIdentity) {
  const Graph g = make_grid(6, 6);
  const auto out = run_sequence(test_options(), {solve_line("a", g)});
  ASSERT_EQ(out.size(), 1u);
  std::string cache;
  std::uint64_t cut = 0;
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"a\",\"ok\":true"));
  EXPECT_TRUE(json_parse_u64(out[0], "cut", cut));
  EXPECT_EQ(cut, 6u);  // the 6x6 grid's optimal bisection
  EXPECT_TRUE(json_parse_string(out[0], "cache", cache));
  EXPECT_EQ(cache, "miss");
}

TEST(Service, ResponseStreamIsThreadCountInvariant) {
  const Graph grid = make_grid(7, 5);
  const Graph ladder = make_ladder(9);
  Rng rng(3);
  const Graph gnp = make_gnp(48, gnp_p_for_degree(48, 3.0), rng);
  std::vector<std::string> lines;
  lines.push_back(solve_line("a", grid, ",\"want_sides\":true"));
  lines.push_back(solve_line("b", ladder, ",\"method\":\"kl\""));
  lines.push_back(solve_line("c", gnp, ",\"budget\":5"));
  lines.push_back("{\"id\":\"p\",\"op\":\"ping\"}");
  lines.push_back(solve_line("d", grid, ",\"want_sides\":true"));  // repeat
  lines.push_back(solve_line("e", gnp, ",\"seed\":99"));
  lines.push_back("{\"id\":\"s\",\"op\":\"stats\"}");

  // The stats line carries wall-clock latency fields (`*_us`), which
  // are the one documented exception to the determinism contract —
  // strip them, then require byte identity.
  const auto one = strip_timing(run_sequence(test_options(1), lines));
  const auto two = strip_timing(run_sequence(test_options(2), lines));
  const auto eight = strip_timing(run_sequence(test_options(8), lines));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Service, RepeatAcrossBatchesIsServedFromCache) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;  // every request is its own batch
  Service service(options);
  std::vector<std::string> first, second;
  service.submit_line(solve_line("cold", g, ",\"want_sides\":true"), first);
  service.drain(first);
  service.submit_line(solve_line("warm", g, ",\"want_sides\":true"), second);
  service.drain(second);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);

  std::string cold_cache, warm_cache, cold_sides, warm_sides;
  ASSERT_TRUE(json_parse_string(first[0], "cache", cold_cache));
  ASSERT_TRUE(json_parse_string(second[0], "cache", warm_cache));
  EXPECT_EQ(cold_cache, "miss");
  EXPECT_EQ(warm_cache, "hit");
  // Identical payloads: the hit is byte-for-byte the cold answer.
  ASSERT_TRUE(json_parse_string(first[0], "sides", cold_sides));
  ASSERT_TRUE(json_parse_string(second[0], "sides", warm_sides));
  EXPECT_EQ(cold_sides, warm_sides);
  EXPECT_EQ(service.cache_stats().hits, 1u);
}

TEST(Service, DuplicatesWithinABatchCoalesce) {
  const Graph g = make_grid(6, 6);
  Service service(test_options());
  std::vector<std::string> out;
  service.submit_line(solve_line("lead", g), out);
  service.submit_line(solve_line("follow", g), out);
  // Same graph, different seed: NOT a duplicate.
  service.submit_line(solve_line("other", g, ",\"seed\":5"), out);
  service.drain(out);
  ASSERT_EQ(out.size(), 3u);
  std::string cache;
  ASSERT_TRUE(json_parse_string(out[0], "cache", cache));
  EXPECT_EQ(cache, "miss");
  ASSERT_TRUE(json_parse_string(out[1], "cache", cache));
  EXPECT_EQ(cache, "coalesced");
  ASSERT_TRUE(json_parse_string(out[2], "cache", cache));
  EXPECT_EQ(cache, "miss");
  EXPECT_EQ(service.metrics().counter(Counter::kSvcCoalesced), 1u);

  std::uint64_t lead_cut = 0, follow_cut = 0;
  ASSERT_TRUE(json_parse_u64(out[0], "cut", lead_cut));
  ASSERT_TRUE(json_parse_u64(out[1], "cut", follow_cut));
  EXPECT_EQ(lead_cut, follow_cut);
}

TEST(Service, FullQueueRejectsWithReason) {
  SvcOptions options = test_options();
  options.max_queue = 2;
  options.batch_size = 100;  // never auto-flush
  Service service(options);
  const Graph g = make_grid(4, 4);
  std::vector<std::string> out;
  service.submit_line(solve_line("a", g), out);
  service.submit_line(solve_line("b", g), out);
  EXPECT_TRUE(out.empty());
  service.submit_line(solve_line("c", g), out);  // bounces
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"c\",\"ok\":false"));
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_TRUE(error.starts_with("rejected: queue full"));
  EXPECT_EQ(service.metrics().counter(Counter::kSvcRejected), 1u);
  // The admitted requests still answer, in order.
  service.drain(out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[1].starts_with("{\"id\":\"a\""));
  EXPECT_TRUE(out[2].starts_with("{\"id\":\"b\""));
}

TEST(Service, ExpiredDeadlineAnswersDeadlineError) {
  const Graph g = make_grid(6, 6);
  const auto out = run_sequence(
      test_options(), {solve_line("d", g, ",\"deadline_s\":1e-9")});
  ASSERT_EQ(out.size(), 1u);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_TRUE(error.starts_with("deadline"));
  // And the degraded answer must not poison the cache for the same
  // request without a deadline.
  const auto ok = run_sequence(test_options(), {solve_line("d", g)});
  EXPECT_TRUE(ok[0].starts_with("{\"id\":\"d\",\"ok\":true"));
}

TEST(Service, DeadlinePastTheClockIsNoDeadline) {
  // 1e12 s is past what steady_clock can hold from now; it used to wrap
  // into the past and time out before any trial ran.
  const Graph g = make_grid(6, 6);
  const auto out = run_sequence(
      test_options(), {solve_line("d", g, ",\"deadline_s\":1e12")});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"d\",\"ok\":true")) << out[0];
}

TEST(Service, StopFlagDrainsQueuedSolvesAsShutdown) {
  const Graph g = make_grid(6, 6);
  Service service(test_options());
  std::vector<std::string> out;
  service.submit_line(solve_line("q1", g), out);
  service.submit_line(solve_line("q2", g), out);
  std::atomic<bool> stop{true};  // the kill arrives before dispatch
  service.drain(out, &stop);
  ASSERT_EQ(out.size(), 2u);
  for (const std::string& line : out) {
    std::string error;
    ASSERT_TRUE(json_parse_string(line, "error", error));
    EXPECT_TRUE(error.starts_with("shutdown"));
  }
}

TEST(Service, BadInputsAnswerInOrderWithoutKillingTheStream) {
  const Graph g = make_grid(4, 4);
  const auto out = run_sequence(
      test_options(),
      {"{\"id\":\"m\",\"op\":\"solve\",\"inline\":\"2 1\\n0 1\\n\","
       "\"method\":\"bogus\"}",
       "{\"id\":\"io\",\"op\":\"solve\",\"path\":\"/nonexistent.graph\"}",
       "{\"id\":\"junk\" this is not json",
       "{\"id\":\"g\",\"op\":\"solve\",\"inline\":\"garbage here\"}",
       solve_line("ok", g)});
  ASSERT_EQ(out.size(), 5u);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_TRUE(error.starts_with("parse: unknown method"));
  ASSERT_TRUE(json_parse_string(out[1], "error", error));
  EXPECT_TRUE(error.starts_with("io:"));
  ASSERT_TRUE(json_parse_string(out[2], "error", error));
  EXPECT_TRUE(error.starts_with("parse:"));
  ASSERT_TRUE(json_parse_string(out[3], "error", error));
  EXPECT_TRUE(error.starts_with("parse: inline graph:"));
  EXPECT_TRUE(out[4].starts_with("{\"id\":\"ok\",\"ok\":true"));
}

TEST(Service, StatsReportsTheCounterCatalog) {
  const Graph g = make_grid(4, 4);
  Service service(test_options());
  std::vector<std::string> out;
  service.submit_line(solve_line("a", g), out);
  service.submit_line(solve_line("b", g), out);  // coalesces with a
  service.submit_line("{\"id\":\"s\",\"op\":\"stats\"}", out);
  service.drain(out);
  ASSERT_EQ(out.size(), 3u);
  std::uint64_t requests = 0, coalesced = 0, misses = 0;
  ASSERT_TRUE(json_parse_u64(out[2], "requests", requests));
  ASSERT_TRUE(json_parse_u64(out[2], "coalesced", coalesced));
  ASSERT_TRUE(json_parse_u64(out[2], "cache_misses", misses));
  EXPECT_EQ(requests, 3u);
  EXPECT_EQ(coalesced, 1u);
  EXPECT_EQ(misses, 2u);  // the follower's lookup also missed
  // The obs-catalog mirror matches what stats reported.
  EXPECT_EQ(service.metrics().counter(Counter::kSvcRequests), 3u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcCacheMisses), 2u);
}

TEST(Service, StatsV2ReportsGaugesAndLatencySummaries) {
  const Graph g = make_grid(4, 4);
  Service service(test_options());
  std::vector<std::string> out;
  service.submit_line(solve_line("a", g), out);
  service.submit_line(solve_line("b", g), out);  // coalesces with a
  service.submit_line("{\"id\":\"s\",\"op\":\"stats\"}", out);
  service.drain(out);
  ASSERT_EQ(out.size(), 3u);
  const std::string& stats = out[2];

  std::uint64_t value = 0;
  ASSERT_TRUE(json_parse_u64(stats, "stats_version", value));
  EXPECT_EQ(value, 5u);
  // Gauges read mid-batch: all three requests were queued, and exactly
  // one cold solve ran (the follower coalesced).
  ASSERT_TRUE(json_parse_u64(stats, "queue_depth", value));
  EXPECT_EQ(value, 3u);
  ASSERT_TRUE(json_parse_u64(stats, "inflight", value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(json_parse_u64(stats, "batch_size", value));
  EXPECT_EQ(value, 3u);
  // The *_count fields are deterministic: a stats op covers requests
  // strictly before it in the stream (here: a and b; one cold solve).
  ASSERT_TRUE(json_parse_u64(stats, "request_latency_count", value));
  EXPECT_EQ(value, 2u);
  ASSERT_TRUE(json_parse_u64(stats, "solve_latency_count", value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(json_parse_u64(stats, "queue_wait_count", value));
  EXPECT_EQ(value, 2u);
  // The wall-clock summaries are present and sane; their values are
  // explicitly not deterministic, so only shape is pinned.
  for (const char* key :
       {"request_latency_sum_us", "request_latency_p50_us",
        "request_latency_p90_us", "request_latency_p99_us",
        "solve_latency_p50_us", "queue_wait_p99_us"}) {
    double real = -1.0;
    ASSERT_TRUE(json_parse_double(stats, key, real)) << key;
    EXPECT_GE(real, 0.0) << key;
  }
}

TEST(Protocol, StatsFormatParsesKnownAndRejectsUnknown) {
  SvcRequest request;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"op":"stats","format":"prom"})", request,
                            error));
  EXPECT_EQ(request.format, "prom");
  EXPECT_TRUE(parse_request(R"({"op":"stats","format":"json"})", request,
                            error));
  EXPECT_TRUE(parse_request(R"({"op":"stats"})", request, error));
  EXPECT_FALSE(parse_request(R"({"op":"stats","format":"xml"})", request,
                             error));
  EXPECT_TRUE(error.starts_with("parse: unknown stats format"));
}

TEST(Service, StatsPromFormatReturnsExposition) {
  const Graph g = make_grid(4, 4);
  Service service(test_options());
  std::vector<std::string> out;
  service.submit_line(solve_line("a", g), out);
  service.submit_line("{\"id\":\"p\",\"op\":\"stats\",\"format\":\"prom\"}",
                      out);
  service.drain(out);
  ASSERT_EQ(out.size(), 2u);
  std::string prom;
  ASSERT_TRUE(json_parse_string(out[1], "prom", prom));
  EXPECT_NE(prom.find("# TYPE gbis_svc_requests_total counter\n"
                      "gbis_svc_requests_total 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("gbis_svc_cache_misses_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE gbis_svc_queue_depth gauge\n"),
            std::string::npos);
  // Request "a" finalized before the stats op, so the latency
  // histogram exists — with its full cumulative-bucket tail.
  EXPECT_NE(prom.find("# TYPE gbis_svc_request_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("gbis_svc_request_latency_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("gbis_svc_request_latency_us_count 1\n"),
            std::string::npos);
  // A prom response never carries the JSON stats block.
  std::uint64_t ignored = 0;
  EXPECT_FALSE(json_parse_u64(out[1], "stats_version", ignored));
}

// --- Method portfolio / quality ladder -------------------------------------

TEST(Protocol, QualityParsesKnownAndRejectsUnknown) {
  SvcRequest request;
  std::string error;
  for (const char* tier : {"fast", "balanced", "best"}) {
    ASSERT_TRUE(parse_request(std::string(R"({"op":"solve","path":"x",)") +
                                  "\"quality\":\"" + tier + "\"}",
                              request, error))
        << tier;
    EXPECT_EQ(request.quality, tier);
  }
  // Absent means "serve's default rung", not an error.
  ASSERT_TRUE(parse_request(R"({"op":"solve","path":"x"})", request, error));
  EXPECT_TRUE(request.quality.empty());
  // Present-but-invalid is a parse error, never a silent default.
  EXPECT_FALSE(parse_request(
      R"({"op":"solve","path":"x","quality":"fastest"})", request, error));
  EXPECT_TRUE(error.starts_with("parse: unknown quality \"fastest\""));
  EXPECT_FALSE(parse_request(R"({"op":"solve","path":"x","quality":3})",
                             request, error));
}

TEST(Service, QualityLadderIsThreadCountInvariant) {
  const Graph grid = make_grid(7, 5);
  const Graph ladder = make_ladder(9);
  Rng rng(3);
  const Graph gnp = make_gnp(48, gnp_p_for_degree(48, 3.0), rng);
  std::vector<std::string> lines;
  for (const char* tier : {"fast", "balanced", "best"}) {
    const std::string extra = std::string(",\"quality\":\"") + tier +
                              "\",\"want_sides\":true";
    lines.push_back(solve_line(std::string("g-") + tier, grid, extra));
    lines.push_back(solve_line(std::string("l-") + tier, ladder, extra));
    lines.push_back(solve_line(std::string("n-") + tier, gnp, extra));
  }
  lines.push_back(solve_line("again", gnp, ",\"quality\":\"fast\""));
  lines.push_back("{\"id\":\"s\",\"op\":\"stats\"}");
  const auto one = strip_timing(run_sequence(test_options(1), lines));
  const auto eight = strip_timing(run_sequence(test_options(8), lines));
  EXPECT_EQ(one, eight);
}

TEST(Service, QualityTiersCacheUnderDistinctIdentities) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(solve_line("f", g, ",\"quality\":\"fast\""), out);
  service.drain(out);
  service.submit_line(solve_line("b", g, ",\"quality\":\"best\""), out);
  service.drain(out);
  service.submit_line(solve_line("f2", g, ",\"quality\":\"fast\""), out);
  service.drain(out);
  ASSERT_EQ(out.size(), 3u);
  std::string cache;
  ASSERT_TRUE(json_parse_string(out[0], "cache", cache));
  EXPECT_EQ(cache, "miss");
  // A different rung is a different cached identity, not a hit on the
  // fast answer.
  ASSERT_TRUE(json_parse_string(out[1], "cache", cache));
  EXPECT_EQ(cache, "miss");
  // The same rung repeated is the first answer again (id and the
  // miss/hit marker aside, the payload is identical).
  ASSERT_TRUE(json_parse_string(out[2], "cache", cache));
  EXPECT_EQ(cache, "hit");
  std::uint64_t cold_cut = 0, warm_cut = 0;
  std::string cold_fp, warm_fp;
  ASSERT_TRUE(json_parse_u64(out[0], "cut", cold_cut));
  ASSERT_TRUE(json_parse_u64(out[2], "cut", warm_cut));
  ASSERT_TRUE(json_parse_string(out[0], "fingerprint", cold_fp));
  ASSERT_TRUE(json_parse_string(out[2], "fingerprint", warm_fp));
  EXPECT_EQ(warm_cut, cold_cut);
  EXPECT_EQ(warm_fp, cold_fp);
}

TEST(Service, StatsV4ReportsQualityAndSolveByCounters) {
  const Graph g = make_grid(6, 6);
  Service service(test_options());
  std::vector<std::string> out;
  service.submit_line(solve_line("f", g, ",\"quality\":\"fast\""), out);
  service.submit_line(solve_line("b", g, ",\"quality\":\"balanced\""), out);
  service.submit_line("{\"id\":\"s\",\"op\":\"stats\"}", out);
  service.drain(out);
  ASSERT_EQ(out.size(), 3u);
  const std::string& stats = out[2];
  std::uint64_t value = 0;
  ASSERT_TRUE(json_parse_u64(stats, "quality_fast", value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(json_parse_u64(stats, "quality_balanced", value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(json_parse_u64(stats, "quality_best", value));
  EXPECT_EQ(value, 0u);
  // The fast rung is greedy+hill-climb by construction, so its cold
  // solve lands on exactly that per-method counter; across the board
  // the solve_by.* counters partition the ok cold solves.
  ASSERT_TRUE(json_parse_u64(stats, "solve_by_greedy_hc", value));
  EXPECT_EQ(value, 1u);
  std::uint64_t total = 0;
  for (const char* key :
       {"solve_by_ckl", "solve_by_csa", "solve_by_kl", "solve_by_sa",
        "solve_by_mlkl", "solve_by_path", "solve_by_greedy_hc",
        "solve_by_other"}) {
    ASSERT_TRUE(json_parse_u64(stats, key, value)) << key;
    total += value;
  }
  EXPECT_EQ(total, 2u);  // two cold ok solves, nothing double-counted
  // The obs catalog mirrors what stats reported.
  EXPECT_EQ(service.metrics().counter(Counter::kSvcQualityFast), 1u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcSolveByGreedyHc), 1u);
}

TEST(Service, AccessLogRecordsOutcomesInStreamOrder) {
  const Graph g = make_grid(6, 6);
  const std::string path = testing::TempDir() + "svc_access_content.jsonl";
  std::remove(path.c_str());  // the log appends; start fresh
  SvcOptions options = test_options();
  options.access_log_path = path;
  {
    Service service(options);
    ASSERT_TRUE(service.access_log_ok());
    std::vector<std::string> out;
    service.submit_line(solve_line("a", g), out);
    service.submit_line(solve_line("b", g), out);  // coalesces
    service.submit_line("{\"id\":\"s\",\"op\":\"stats\"}", out);
    service.submit_line("{\"id\":\"junk\" nope", out);
    service.drain(out);
  }  // destruction closes (and flushes) the log

  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);

  std::uint64_t seq = 99;
  std::string text;
  std::int64_t cut = 0;
  ASSERT_TRUE(json_parse_u64(lines[0], "seq", seq));
  EXPECT_EQ(seq, 0u);
  ASSERT_TRUE(json_parse_string(lines[0], "op", text));
  EXPECT_EQ(text, "solve");
  ASSERT_TRUE(json_parse_string(lines[0], "status", text));
  EXPECT_EQ(text, "ok");
  ASSERT_TRUE(json_parse_string(lines[0], "cache", text));
  EXPECT_EQ(text, "miss");
  EXPECT_TRUE(json_parse_string(lines[0], "fingerprint", text));
  ASSERT_TRUE(json_parse_i64(lines[0], "cut", cut));
  EXPECT_EQ(cut, 6);

  ASSERT_TRUE(json_parse_string(lines[1], "cache", text));
  EXPECT_EQ(text, "coalesced");
  std::uint64_t t_solve = 1;
  ASSERT_TRUE(json_parse_u64(lines[1], "t_solve_us", t_solve));
  EXPECT_EQ(t_solve, 0u);  // the follower never solved

  ASSERT_TRUE(json_parse_string(lines[2], "op", text));
  EXPECT_EQ(text, "stats");
  EXPECT_FALSE(json_parse_string(lines[2], "cache", text));

  ASSERT_TRUE(json_parse_string(lines[3], "status", text));
  EXPECT_EQ(text, "error");
  EXPECT_TRUE(json_parse_string(lines[3], "error", text));
}

TEST(Service, AccessLogIsThreadCountInvariantAfterTimingStrip) {
  const Graph grid = make_grid(7, 5);
  const Graph ladder = make_ladder(9);
  Rng rng(3);
  const Graph gnp = make_gnp(48, gnp_p_for_degree(48, 3.0), rng);
  std::vector<std::string> lines;
  lines.push_back(solve_line("a", grid));
  lines.push_back(solve_line("b", ladder));
  lines.push_back(solve_line("c", gnp, ",\"budget\":5"));
  lines.push_back("{\"id\":\"s\",\"op\":\"stats\"}");
  lines.push_back(solve_line("d", grid));  // cache hit
  lines.push_back("{\"id\":\"junk\" nope");

  const auto log_at = [&](unsigned threads) {
    const std::string path = testing::TempDir() + "svc_access_t" +
                             std::to_string(threads) + ".jsonl";
    std::remove(path.c_str());
    SvcOptions options = test_options(threads);
    options.access_log_path = path;
    {
      Service service(options);
      std::vector<std::string> out;
      for (const std::string& line : lines) {
        service.submit_line(line, out);
        if (service.pending() >= options.batch_size)
          service.process_batch(out);
      }
      service.drain(out);
    }
    return strip_timing(read_file(path));
  };
  const std::string one = log_at(1);
  const std::string eight = log_at(8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
  // The strip really removed the wall-clock fields and nothing else.
  EXPECT_EQ(one.find("_us\":"), std::string::npos);
  EXPECT_NE(one.find("\"fingerprint\":"), std::string::npos);
}

// The span set is the one per-request record: every access-log timing
// is read from it — the queue span, the solve span, accept -> finalize.
TEST(Service, AccessLogTimingsAreTheSpanSetDurations) {
  const Graph g = make_grid(6, 6);
  const std::string path = testing::TempDir() + "svc_access_spans.jsonl";
  std::remove(path.c_str());
  SvcOptions options = test_options();
  options.faults = FaultPlan::parse("throw@solve:0", kServiceFaults);
  options.access_log_path = path;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(solve_line("f", g), out);  // cold leader, job throws
  service.submit_line(solve_line("a", g, ",\"seed\":9"), out);  // cold
  service.submit_line(solve_line("b", g, ",\"seed\":9"), out);  // coalesced
  service.process_batch(out);
  service.submit_line(solve_line("h", g, ",\"seed\":9"), out);  // cache hit
  service.submit_line("{\"id\":\"s\",\"op\":\"stats\"}", out);
  service.drain(out);
  ASSERT_EQ(out.size(), 5u);
  std::string text;
  ASSERT_TRUE(json_parse_string(out[0], "error", text));
  EXPECT_EQ(text, "internal: solve failed");
  for (const auto& [index, cache] :
       {std::pair{1, "miss"}, {2, "coalesced"}, {3, "hit"}}) {
    ASSERT_TRUE(json_parse_string(out[index], "cache", text)) << out[index];
    EXPECT_EQ(text, cache);
  }
  // Both cold leaders count, the one whose job threw included (it
  // never closed a solve span, so it records 0).
  std::uint64_t solves = 0;
  ASSERT_TRUE(json_parse_u64(out[4], "solve_latency_count", solves));
  EXPECT_EQ(solves, 2u);

  std::istringstream log(read_file(path));
  std::size_t lines = 0;
  for (std::string line; std::getline(log, line); ++lines) {
    std::string trace;
    ASSERT_TRUE(json_parse_string(line, "trace", trace)) << line;
    const SpanSet* set = nullptr;
    for (const SpanSet& done : service.flight().completed()) {
      if (to_hex16(done.trace_id) == trace) set = &done;
    }
    ASSERT_NE(set, nullptr) << line;
    double queue = 0, solve = 0, accept = 0, finalize = 0;
    for (const SpanRec& span : set->spans) {
      if (span.name == "queue") queue = span.duration_seconds;
      if (span.name == "solve") solve = span.duration_seconds;
      if (span.name == "accept") accept = span.start_seconds;
      if (span.name == "finalize") finalize = span.start_seconds;
    }
    std::uint64_t t_queue = 0, t_solve = 0, t_total = 0;
    ASSERT_TRUE(json_parse_u64(line, "t_queue_us", t_queue));
    ASSERT_TRUE(json_parse_u64(line, "t_solve_us", t_solve));
    ASSERT_TRUE(json_parse_u64(line, "t_total_us", t_total));
    EXPECT_EQ(t_queue, to_us(queue)) << line;
    EXPECT_EQ(t_solve, to_us(solve)) << line;
    EXPECT_EQ(t_total, to_us(finalize - accept)) << line;
    std::string id;
    ASSERT_TRUE(json_parse_string(line, "id", id));
    if (id == "a") {
      EXPECT_GT(t_solve, 0u);
    } else if (id != "s") {
      EXPECT_EQ(t_solve, 0u);  // f threw, b coalesced, h hit the cache
    }
  }
  EXPECT_EQ(lines, 5u);
}

TEST(SvcOptionsEnv, OverlaysTelemetryKnobsAndKeepsDefaultsOnMalformed) {
  ::setenv("GBIS_SVC_CACHE_MB", "8", 1);
  ::setenv("GBIS_SVC_ACCESS_LOG", "/tmp/al.jsonl", 1);
  ::setenv("GBIS_SVC_SLOW_MS", "2.5", 1);
  SvcOptions options = svc_options_from_env(SvcOptions{});
  EXPECT_EQ(options.cache_bytes, 8ull << 20);
  EXPECT_EQ(options.access_log_path, "/tmp/al.jsonl");
  EXPECT_DOUBLE_EQ(options.slow_ms, 2.5);

  ::setenv("GBIS_SVC_SLOW_MS", "fast", 1);  // malformed: warn, keep off
  ::setenv("GBIS_SVC_ACCESS_LOG", "", 1);   // empty path is malformed too
  options = svc_options_from_env(SvcOptions{});
  EXPECT_DOUBLE_EQ(options.slow_ms, -1.0);
  EXPECT_TRUE(options.access_log_path.empty());

  ::setenv("GBIS_SVC_SLOW_MS", "-3", 1);  // sampling has no negative knob
  options = svc_options_from_env(SvcOptions{});
  EXPECT_DOUBLE_EQ(options.slow_ms, -1.0);

  ::unsetenv("GBIS_SVC_CACHE_MB");
  ::unsetenv("GBIS_SVC_ACCESS_LOG");
  ::unsetenv("GBIS_SVC_SLOW_MS");
}

TEST(SvcOptionsEnv, MebibyteKnobsRejectSignsAndByteOverflow) {
  const char* knobs[] = {"GBIS_SVC_CACHE_MB", "GBIS_SVC_GRAPH_MB",
                         "GBIS_SVC_ACCESS_LOG_MAX_MB"};
  const auto read = [](const SvcOptions& options, int knob) {
    return knob == 0   ? options.cache_bytes >> 20
           : knob == 1 ? options.graph_store_bytes >> 20
                       : options.access_log_max_mb;
  };
  const SvcOptions defaults;
  for (int knob = 0; knob < 3; ++knob) {
    // 2^44 - 1 MiB is the largest count whose byte value fits 64 bits.
    ::setenv(knobs[knob], "17592186044415", 1);
    EXPECT_EQ(read(svc_options_from_env(SvcOptions{}), knob), kMaxMebibytes);
    for (const char* bad : {"-1", "+1", " 1", "1x", "", "17592186044416",
                            "99999999999999999999"}) {
      ::setenv(knobs[knob], bad, 1);  // warn, keep the default
      EXPECT_EQ(read(svc_options_from_env(SvcOptions{}), knob),
                read(defaults, knob))
          << knobs[knob] << "=\"" << bad << "\"";
    }
    ::unsetenv(knobs[knob]);
  }

  // The count and milliseconds knobs follow the flags' whole-text
  // rules: no sign or space on a count, nothing past its type, no
  // suffix, and a finite, non-negative number of milliseconds.
  const char* counts[] = {"GBIS_SVC_BROWNOUT_WINDOW", "GBIS_SVC_FLIGHT_RING"};
  const auto read_count = [](const SvcOptions& options, int knob) {
    return knob == 0 ? options.brownout_window : options.flight_ring;
  };
  for (int knob = 0; knob < 2; ++knob) {
    ::setenv(counts[knob], "4294967295", 1);
    EXPECT_EQ(read_count(svc_options_from_env(SvcOptions{}), knob),
              4294967295u);
    for (const char* bad : {"-1", "+5", " 7", "1x", "", "0", "4294967296",
                            "-18446744073709551615",
                            "99999999999999999999"}) {
      ::setenv(counts[knob], bad, 1);
      EXPECT_EQ(read_count(svc_options_from_env(SvcOptions{}), knob),
                read_count(defaults, knob))
          << counts[knob] << "=\"" << bad << "\"";
    }
    ::unsetenv(counts[knob]);
  }
  ::setenv("GBIS_SVC_SLOW_MS", "2.5", 1);
  EXPECT_EQ(svc_options_from_env(SvcOptions{}).slow_ms, 2.5);
  for (const char* bad : {"inf", "-inf", "nan", "1e999", "-1", "1x", ""}) {
    ::setenv("GBIS_SVC_SLOW_MS", bad, 1);
    EXPECT_EQ(svc_options_from_env(SvcOptions{}).slow_ms, defaults.slow_ms)
        << "GBIS_SVC_SLOW_MS=\"" << bad << "\"";
  }
  ::unsetenv("GBIS_SVC_SLOW_MS");
}

TEST(Service, UnopenableAccessLogReportsNotOk) {
  SvcOptions options = test_options();
  options.access_log_path =
      testing::TempDir() + "no_such_dir_svc/log.jsonl";
  Service service(options);
  EXPECT_FALSE(service.access_log_ok());
  Service plain(test_options());  // no log configured: trivially ok
  EXPECT_TRUE(plain.access_log_ok());
}

// --- Listener (svc/listener): sockets in front of the service -------------

// The client side runs on plain blocking sockets in helper threads;
// the listener event loop is pumped on the test thread, exactly the
// single-driver arrangement the CLI uses.

int connect_tcp_client(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoul(endpoint.substr(colon + 1))));
  ::inet_pton(AF_INET, endpoint.substr(0, colon).c_str(), &addr.sin_addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

int connect_unix_client(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_to_eof(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string recv_line(int fd) {
  std::string out;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') break;
    out += c;
  }
  return out;
}

/// Sends `lines`, half-closes, and returns the full response stream
/// (the server closes once everything owed has been answered).
std::string client_session(int fd, const std::vector<std::string>& lines) {
  std::string payload;
  for (const std::string& line : lines) {
    payload += line;
    payload += '\n';
  }
  send_all(fd, payload);
  ::shutdown(fd, SHUT_WR);
  std::string out = recv_to_eof(fd);
  ::close(fd);
  return out;
}

/// Pumps the listener's event loop on the calling thread until `done`
/// (or a generous cycle bound — a failure, not a hang).
template <typename Done>
void pump_until(Listener& listener, Done done, int max_cycles = 20000) {
  for (int i = 0; i < max_cycles && !done(); ++i) {
    listener.poll_once(/*timeout_ms=*/5);
  }
  EXPECT_TRUE(done()) << "listener pump timed out";
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST(Listener, TcpAndUnixRoundTripsMatchTheStdioReplay) {
  const Graph g = make_grid(6, 6);
  // Distinct seeds everywhere: every solve is a cold miss on both the
  // socket service and the per-client stdio replay, so batching
  // boundaries (which TCP segmentation can shift) cannot change any
  // cache label.
  const std::vector<std::string> tcp_lines = {
      "{\"id\":\"p\",\"op\":\"ping\"}",
      solve_line("t1", g, ",\"seed\":501"),
      solve_line("t2", g, ",\"seed\":502,\"want_sides\":true"),
  };
  const std::vector<std::string> unix_lines = {
      solve_line("u1", g, ",\"seed\":601"),
      "{\"id\":\"q\",\"op\":\"ping\"}",
      solve_line("u2", g, ",\"seed\":602"),
  };
  const std::string tcp_expected = joined(run_sequence(test_options(),
                                                       tcp_lines));
  const std::string unix_expected = joined(run_sequence(test_options(),
                                                        unix_lines));

  Service service(test_options());
  ListenerOptions lopt;
  lopt.tcp_endpoint = "127.0.0.1:0";
  lopt.unix_path = testing::TempDir() + "gbis_rt.sock";
  lopt.ready_file = testing::TempDir() + "gbis_rt.ready";
  Listener listener(service, lopt);
  listener.start();
  EXPECT_NE(listener.tcp_endpoint().find("127.0.0.1:"), std::string::npos);
  EXPECT_NE(listener.tcp_endpoint(), "127.0.0.1:0") << "real port expected";
  const std::string ready = read_file(lopt.ready_file);
  EXPECT_NE(ready.find("tcp " + listener.tcp_endpoint()), std::string::npos);
  EXPECT_NE(ready.find("unix " + lopt.unix_path), std::string::npos);

  std::string tcp_stream, unix_stream;
  std::atomic<int> done{0};
  std::thread tcp_client([&] {
    tcp_stream =
        client_session(connect_tcp_client(listener.tcp_endpoint()),
                       tcp_lines);
    ++done;
  });
  std::thread unix_client([&] {
    unix_stream = client_session(connect_unix_client(lopt.unix_path),
                                 unix_lines);
    ++done;
  });
  pump_until(listener, [&] { return done.load() == 2; });
  tcp_client.join();
  unix_client.join();

  EXPECT_EQ(tcp_stream, tcp_expected);
  EXPECT_EQ(unix_stream, unix_expected);
  pump_until(listener, [&] { return listener.connection_count() == 0; });
  EXPECT_EQ(service.metrics().counter(Counter::kSvcConnAccepted), 2u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcConnClosed), 2u);
  EXPECT_EQ(service.metrics().gauge(Gauge::kSvcConnections), 0);
}

TEST(Listener, ManyConcurrentClientsKeepPerConnectionDeterminism) {
  // The acceptance bar: >= 64 concurrent loopback clients, each
  // connection's response stream byte-identical to a stdio replay of
  // its own requests, at 1 worker thread and at 8.
  constexpr int kClients = 64;
  const Graph g = make_grid(4, 4);

  std::vector<std::vector<std::string>> requests(kClients);
  std::vector<std::string> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    const std::string tag = std::to_string(c);
    requests[c] = {
        solve_line("c" + tag + "a", g,
                   ",\"seed\":" + std::to_string(10000 + 10 * c)),
        "{\"id\":\"c" + tag + "p\",\"op\":\"ping\"}",
        solve_line("c" + tag + "b", g,
                   ",\"seed\":" + std::to_string(10001 + 10 * c)),
    };
    expected[c] = joined(run_sequence(test_options(), requests[c]));
  }

  const auto streams_at = [&](unsigned threads) {
    Service service(test_options(threads));
    ListenerOptions lopt;
    lopt.unix_path = testing::TempDir() + "gbis_many.sock";
    Listener listener(service, lopt);
    listener.start();
    std::vector<std::string> streams(kClients);
    std::atomic<int> done{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        streams[c] = client_session(connect_unix_client(lopt.unix_path),
                                    requests[c]);
        ++done;
      });
    }
    pump_until(listener, [&] { return done.load() == kClients; }, 200000);
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(service.metrics().counter(Counter::kSvcConnAccepted),
              static_cast<std::uint64_t>(kClients));
    return streams;
  };

  const auto one = streams_at(1);
  const auto eight = streams_at(8);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(one[c], expected[c]) << "client " << c << " (1 thread)";
    EXPECT_EQ(eight[c], expected[c]) << "client " << c << " (8 threads)";
  }
}

TEST(Listener, GarbageMidStreamAnswersErrorsAndKeepsTheConnection) {
  Service service(test_options());
  ListenerOptions lopt;
  lopt.unix_path = testing::TempDir() + "gbis_garbage.sock";
  Listener listener(service, lopt);
  listener.start();

  const std::vector<std::string> lines = {
      "{\"id\":\"g1\",\"op\":\"ping\"}",
      "!!!! not json at all \x01\x02 ****",
      R"({"id":"x"op":"ping","budget":1})",  // the json_lite regression
      R"({"id":"neg","op":"solve","inline":"2 1\n0 1\n","budget":-1})",
      "{\"id\":\"g2\",\"op\":\"ping\"}",
  };
  std::string stream;
  std::atomic<bool> done{false};
  std::thread client([&] {
    stream = client_session(connect_unix_client(lopt.unix_path), lines);
    done = true;
  });
  pump_until(listener, [&] { return done.load(); });
  client.join();

  std::istringstream in(stream);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"g1\",\"ok\":true"));
  std::string error;
  ASSERT_TRUE(json_parse_string(out[1], "error", error));
  EXPECT_TRUE(error.starts_with("parse:"));
  ASSERT_TRUE(json_parse_string(out[2], "error", error));
  EXPECT_TRUE(error.starts_with("parse: malformed request line"));
  ASSERT_TRUE(json_parse_string(out[3], "error", error));
  EXPECT_TRUE(error.starts_with("parse:")) << "budget:-1 must not wrap";
  EXPECT_TRUE(out[4].starts_with("{\"id\":\"g2\",\"ok\":true"));
}

TEST(Listener, OverlongLinesRejectAndResync) {
  Service service(test_options());
  ListenerOptions lopt;
  lopt.unix_path = testing::TempDir() + "gbis_overlong.sock";
  lopt.max_line_bytes = 64;
  Listener listener(service, lopt);
  listener.start();

  std::string stream;
  std::atomic<bool> done{false};
  std::thread client([&] {
    const int fd = connect_unix_client(lopt.unix_path);
    send_all(fd, std::string(200, 'x') + "\n" +
                     "{\"id\":\"after\",\"op\":\"ping\"}\n");
    ::shutdown(fd, SHUT_WR);
    stream = recv_to_eof(fd);
    ::close(fd);
    done = true;
  });
  pump_until(listener, [&] { return done.load(); });
  client.join();

  std::istringstream in(stream);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  ASSERT_EQ(out.size(), 2u);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_EQ(error, "parse: request line exceeds 64 bytes");
  EXPECT_TRUE(out[1].starts_with("{\"id\":\"after\",\"ok\":true"))
      << "the connection must survive an overlong line";
}

TEST(Listener, PerConnectionQuotaRejectsJumpTheStream) {
  SvcOptions options = test_options();
  options.max_queue = 100;
  Service service(options);
  ListenerOptions lopt;
  lopt.unix_path = testing::TempDir() + "gbis_quota.sock";
  lopt.conn_request_quota = 2;
  Listener listener(service, lopt);
  listener.start();

  // One small write on a unix socket: the four lines arrive in one
  // read sweep, so q1/q2 are in flight when q3/q4 hit the quota.
  const std::vector<std::string> lines = {
      "{\"id\":\"q1\",\"op\":\"ping\"}",
      "{\"id\":\"q2\",\"op\":\"ping\"}",
      "{\"id\":\"q3\",\"op\":\"ping\"}",
      "{\"id\":\"q4\",\"op\":\"ping\"}",
  };
  std::string stream;
  std::atomic<bool> done{false};
  std::thread client([&] {
    stream = client_session(connect_unix_client(lopt.unix_path), lines);
    done = true;
  });
  pump_until(listener, [&] { return done.load(); });
  client.join();

  std::istringstream in(stream);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  ASSERT_EQ(out.size(), 4u);
  // Quota rejects are emitted at read time and jump the arrival-order
  // stream, exactly like the service's queue-full reject.
  std::string error;
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"q3\",\"ok\":false"));
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_TRUE(error.starts_with("rejected: connection request quota"));
  EXPECT_TRUE(out[1].starts_with("{\"id\":\"q4\",\"ok\":false"));
  EXPECT_TRUE(out[2].starts_with("{\"id\":\"q1\",\"ok\":true"));
  EXPECT_TRUE(out[3].starts_with("{\"id\":\"q2\",\"ok\":true"));
  EXPECT_EQ(service.metrics().counter(Counter::kSvcQuotaRejected), 2u);
}

TEST(Listener, ConnectionLimitShedsExtraClientsWithAReason) {
  Service service(test_options());
  ListenerOptions lopt;
  lopt.unix_path = testing::TempDir() + "gbis_limit.sock";
  lopt.max_connections = 1;
  Listener listener(service, lopt);
  listener.start();

  std::atomic<bool> first_served{false}, second_done{false};
  std::string reject_stream;
  std::thread first([&] {
    const int fd = connect_unix_client(lopt.unix_path);
    send_all(fd, "{\"id\":\"a\",\"op\":\"ping\"}\n");
    const std::string line = recv_line(fd);
    EXPECT_TRUE(line.starts_with("{\"id\":\"a\",\"ok\":true"));
    first_served = true;
    while (!second_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);
  });
  pump_until(listener, [&] { return first_served.load(); });

  std::thread second([&] {
    const int fd = connect_unix_client(lopt.unix_path);
    reject_stream = recv_to_eof(fd);  // one reject line, then EOF
    ::close(fd);
    second_done = true;
  });
  pump_until(listener, [&] { return second_done.load(); });
  first.join();
  second.join();

  std::string error;
  ASSERT_TRUE(json_parse_string(reject_stream, "error", error));
  EXPECT_TRUE(error.starts_with("rejected: connection limit"));
  EXPECT_EQ(service.metrics().counter(Counter::kSvcConnRejected), 1u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcConnAccepted), 1u);
  pump_until(listener, [&] { return listener.connection_count() == 0; });
}

TEST(Listener, SlowClientsAreDisconnectedAndCounted) {
  // A client that never reads: responses pile up in the connection's
  // write buffer (the peer's tiny receive window stops the kernel from
  // draining it) until the backlog cap / stall clock sheds it.
  const Graph big = make_grid(100, 200);  // 20000-char sides payload
  const std::string graph_path = testing::TempDir() + "gbis_slow.graph";
  {
    std::ofstream out(graph_path);
    write_edge_list(out, big);
  }
  Service service(test_options());
  ListenerOptions lopt;
  // A unix socket's send buffer is a fixed kernel bound (no TCP-style
  // auto-tuning), so ~800KB of unread responses reliably lands in the
  // connection's write buffer and trips the backlog cap.
  lopt.unix_path = testing::TempDir() + "gbis_slowclient.sock";
  lopt.max_write_buffer = 16 * 1024;
  lopt.write_timeout_seconds = 0.2;
  Listener listener(service, lopt);
  listener.start();

  std::atomic<bool> sent{false}, closed{false};
  std::thread client([&] {
    const int fd = connect_unix_client(lopt.unix_path);
    std::string payload;
    for (int i = 0; i < 40; ++i) {
      payload += "{\"id\":\"s" + std::to_string(i) +
                 "\",\"op\":\"solve\",\"path\":";
      append_json_string(payload, graph_path);
      payload += ",\"method\":\"random\",\"budget\":1,\"want_sides\":true,"
                 "\"seed\":" +
                 std::to_string(7000 + i) + "}\n";
    }
    send_all(fd, payload);
    sent = true;
    // Never read: wait for the server to shed us.
    while (!closed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);
  });
  pump_until(listener, [&] {
    return service.metrics().counter(Counter::kSvcConnSlowClosed) >= 1;
  });
  closed = true;
  client.join();
  EXPECT_EQ(service.metrics().counter(Counter::kSvcConnSlowClosed), 1u);
  EXPECT_EQ(service.metrics().gauge(Gauge::kSvcConnections), 0);
  EXPECT_TRUE(sent.load());
}

TEST(Listener, DrainAnswersAdmittedRequestsAsShutdownAndClosesAll) {
  const Graph g = make_grid(6, 6);
  Service service(test_options());
  ListenerOptions lopt;
  lopt.unix_path = testing::TempDir() + "gbis_drain.sock";
  Listener listener(service, lopt);
  listener.start();

  // The stop flag is already up when the requests arrive — the
  // SIGTERM-during-a-burst shape. Everything admitted must still be
  // answered (as "shutdown" errors), flushed, and closed.
  std::atomic<bool> stop{true};
  std::string stream;
  std::atomic<bool> done{false};
  std::thread client([&] {
    stream = client_session(
        connect_unix_client(lopt.unix_path),
        {solve_line("d1", g, ",\"seed\":801"),
         solve_line("d2", g, ",\"seed\":802")});
    done = true;
  });
  for (int i = 0; i < 20000 && !done.load(); ++i) {
    listener.poll_once(/*timeout_ms=*/5, &stop);
  }
  ASSERT_TRUE(done.load());
  client.join();
  listener.drain(&stop);

  std::istringstream in(stream);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  ASSERT_EQ(out.size(), 2u);
  for (const std::string& response : out) {
    std::string error;
    ASSERT_TRUE(json_parse_string(response, "error", error));
    EXPECT_TRUE(error.starts_with("shutdown"));
  }
  EXPECT_EQ(listener.connection_count(), 0u);
  // The drain unlinked the socket file.
  EXPECT_FALSE(std::ifstream(lopt.unix_path).good());
}

TEST(Service, CacheEvictionsSurfaceInStats) {
  const Graph a = make_grid(5, 5);
  const Graph b = make_grid(5, 6);
  const Graph c = make_grid(5, 7);
  SvcOptions options = test_options();
  options.batch_size = 1;
  options.cache_bytes = 400;  // roughly two 25-30 vertex entries
  Service service(options);
  std::vector<std::string> out;
  for (const auto* g : {&a, &b, &c, &a}) {
    service.submit_line(solve_line("x", *g), out);
    service.drain(out);
  }
  EXPECT_GT(service.cache_stats().evictions, 0u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcCacheEvictions),
            service.cache_stats().evictions);
}

// --- Durable cache store (svc/cache_store) ---------------------------------

SvcCacheKey store_key(std::uint64_t fingerprint, std::uint64_t seed = 7) {
  SvcCacheKey key;
  key.fingerprint = fingerprint;
  key.method_key = SvcCacheKey::kPortfolio;
  key.budget = 2;
  key.seed = seed;
  key.deadline_bits = 0;
  return key;
}

SvcCacheValue store_value(Weight cut) {
  SvcCacheValue value;
  value.cut = cut;
  value.method = "CKL";
  value.trials_ok = 2;
  value.trials_degraded = 0;
  value.sides = {0, 1, 1, 0};
  return value;
}

std::string temp_journal(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(SvcCacheStore, EntryLinesRoundTripThroughTheSharedScanner) {
  const SvcCacheKey key = store_key(0xdeadbeefcafef00dull, 99);
  const SvcCacheValue value = store_value(12);
  const std::string line = SvcCacheStore::encode_entry(key, value);
  EXPECT_TRUE(json_object_valid(line));
  SvcCacheKey decoded_key;
  SvcCacheValue decoded_value;
  ASSERT_TRUE(SvcCacheStore::decode_entry(line, decoded_key, decoded_value));
  EXPECT_TRUE(decoded_key == key);
  EXPECT_EQ(decoded_value.cut, value.cut);
  EXPECT_EQ(decoded_value.method, value.method);
  EXPECT_EQ(decoded_value.trials_ok, value.trials_ok);
  EXPECT_EQ(decoded_value.sides, value.sides);
}

TEST(SvcCacheStore, RestoreReplaysAppendsAndPreservesRecency) {
  const std::string path = temp_journal("svc_store_roundtrip.jsonl");
  {
    SvcResultCache cache(1 << 20);
    SvcCacheStore store(path);
    SvcCacheRestore report;
    ASSERT_TRUE(store.open_and_restore(cache, nullptr, report));
    EXPECT_EQ(report.entries_restored, 0u);
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_GT(store.append(store_key(i), store_value(Weight(10 + i))), 0u);
    }
  }
  // A tiny second cache: replay preserves append (recency) order, so
  // the OLDEST entries are the ones evicted when the budget is small.
  SvcResultCache probe(1 << 20);
  probe.insert(store_key(0), store_value(0));
  SvcResultCache small(3 * probe.stats().bytes);
  SvcCacheStore warm(path);
  SvcCacheRestore report;
  ASSERT_TRUE(warm.open_and_restore(small, nullptr, report));
  EXPECT_EQ(report.entries_restored, 4u);
  EXPECT_EQ(report.lines_dropped, 0u);
  EXPECT_EQ(small.lookup(store_key(0)), nullptr);  // oldest, evicted
  const SvcCacheValue* newest = small.lookup(store_key(3));
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->cut, 13);
  EXPECT_EQ(newest->sides, (std::vector<std::uint8_t>{0, 1, 1, 0}));
}

// Writes `bytes` as a journal, restores it, and checks the restore
// against the journal's `kinds` (one per line; 'h' header, 'e' entry,
// 'l' lineage) when only its first `intact` lines survive: exactly the
// entries and lineage edges on those lines come back, every other line
// counts as dropped, damage is compacted away, and the compacted file
// re-reads with nothing dropped.
void expect_restores_intact_prefix(const std::string& bytes,
                                   const std::string& kinds,
                                   std::size_t intact, bool damaged,
                                   const std::string& what) {
  const std::string path = temp_journal("svc_store_corpus.jsonl");
  std::ofstream(path, std::ios::binary) << bytes;
  const std::size_t lines = static_cast<std::size_t>(
      std::count(bytes.begin(), bytes.end(), '\n') +
      (!bytes.empty() && bytes.back() != '\n' ? 1 : 0));
  std::uint64_t entries = 0, edges = 0;
  for (std::size_t i = 1; i < intact; ++i) {
    (kinds[i] == 'e' ? entries : edges) += 1;
  }
  for (int pass = 0; pass < 2; ++pass) {
    SvcResultCache cache(1 << 20);
    SvcLineage lineage(8, 16);
    SvcCacheStore store(path);
    SvcCacheRestore report;
    ASSERT_TRUE(store.open_and_restore(cache, &lineage, report)) << what;
    ASSERT_EQ(report.entries_restored, entries) << what << " pass " << pass;
    ASSERT_EQ(report.lineage_restored, edges) << what << " pass " << pass;
    if (pass == 1) {
      ASSERT_EQ(report.lines_dropped, 0u) << what;
      ASSERT_FALSE(report.compacted) << what;
      continue;
    }
    ASSERT_EQ(report.lines_dropped, lines - std::min(lines, intact)) << what;
    ASSERT_EQ(report.compacted, damaged) << what;
    // The valid prefix is served; a damaged line never is.
    for (std::uint64_t k = 0; k < 3; ++k) {
      const SvcCacheValue* hit = cache.lookup(store_key(k + 1));
      ASSERT_EQ(hit != nullptr, k < entries) << what << " key " << k;
      if (hit != nullptr) {
        ASSERT_EQ(hit->cut, Weight(10 * (k + 1))) << what;
      }
    }
  }
}

TEST(SvcCacheStore, CorruptionCorpusFallsBackToTheLongestValidPrefix) {
  // Header, two entries, a lineage edge, a third entry.
  LineageRecord edge;
  edge.parent = 0xaa;
  edge.child = 0xbb;
  edge.batch_hash = 0xcc;
  edge.adds = 1;
  edge.edit_distance = 1;
  edge.parent_vertices = 4;
  edge.child_vertices = 4;
  edge.child_edges = 5;
  const std::vector<std::string> lines = {
      SvcCacheStore::header_line(),
      SvcCacheStore::encode_entry(store_key(1), store_value(10)),
      SvcCacheStore::encode_entry(store_key(2), store_value(20)),
      SvcCacheStore::encode_lineage(edge),
      SvcCacheStore::encode_entry(store_key(3), store_value(30))};
  const std::string kinds = "heele";
  std::string bytes;
  for (const std::string& line : lines) bytes += line + '\n';
  const auto lines_before = [&bytes](std::size_t offset) {
    return static_cast<std::size_t>(
        std::count(bytes.begin(), bytes.begin() + offset, '\n'));
  };

  // A crash tears the tail at any byte: every '\n'-terminated line
  // survives, and a torn last line is dropped, never appended to.
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const bool torn = cut > 0 && bytes[cut - 1] != '\n';
    ASSERT_NO_FATAL_FAILURE(expect_restores_intact_prefix(
        bytes.substr(0, cut), kinds, lines_before(cut), torn || cut == 0,
        "truncated at " + std::to_string(cut)));
  }

  // One flipped bit or case anywhere damages exactly the line holding
  // it (a flipped '\n' merges two lines into one damaged line). The one
  // flip that leaves a valid journal is the header's version digit
  // turning 3 into 2, an older header the same entries replay under.
  const std::size_t version_digit = bytes.find('3');
  ASSERT_LT(version_digit, lines[0].size());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      const bool older_header = at == version_digit && mask == 0x01;
      ASSERT_NO_FATAL_FAILURE(expect_restores_intact_prefix(
          flipped, kinds, older_header ? lines.size() : lines_before(at),
          !older_header,
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask)));
    }
  }

  // Complete lines that are not entries at all.
  for (const std::string tail : {"\x01\x02" "binary junk not json",
                                 "{\"type\":\"not_an_entry\"}"}) {
    ASSERT_NO_FATAL_FAILURE(expect_restores_intact_prefix(
        bytes + tail + '\n', kinds + 'x', lines.size(), true, tail));
  }
}

// A final line that is a complete entry but lacks its '\n' was never
// acknowledged (the append flushes before the response goes out). At
// restore it is dropped and compacted away; appending after it would
// glue the next entry onto it and lose both at the next restart.
TEST(SvcCacheStore, UnterminatedLastLineIsDroppedNotAppendedTo) {
  const std::string path = temp_journal("svc_store_unterminated.jsonl");
  std::ofstream(path, std::ios::binary)
      << SvcCacheStore::header_line() << '\n'
      << SvcCacheStore::encode_entry(store_key(1), store_value(10));
  {
    SvcResultCache cache(1 << 20);
    SvcCacheStore store(path);
    SvcCacheRestore report;
    ASSERT_TRUE(store.open_and_restore(cache, nullptr, report));
    EXPECT_EQ(report.entries_restored, 0u);
    EXPECT_EQ(report.lines_dropped, 1u);
    EXPECT_TRUE(report.compacted);
    cache.insert(store_key(2), store_value(20));
    ASSERT_GT(store.append(store_key(2), store_value(20)), 0u);
  }
  SvcResultCache cache(1 << 20);
  SvcCacheStore store(path);
  SvcCacheRestore report;
  ASSERT_TRUE(store.open_and_restore(cache, nullptr, report));
  EXPECT_EQ(report.entries_restored, 1u);
  EXPECT_EQ(report.lines_dropped, 0u);
  const SvcCacheValue* acknowledged = cache.lookup(store_key(2));
  ASSERT_NE(acknowledged, nullptr);
  EXPECT_EQ(acknowledged->cut, 20);
}

TEST(SvcCacheStore, ForeignOrWrongVersionHeaderRestoresNothing) {
  // Versions 1-3 all restore (3 is the current format; 2 lacks the
  // quality key, 1 is cache-entry lines only); version 4 is from the
  // future and must not.
  for (const char* header :
       {"{\"type\":\"svc_cache\",\"version\":4}",
        "{\"type\":\"checkpoint\",\"version\":1}", "not a header at all"}) {
    const std::string path = temp_journal("svc_store_header.jsonl");
    {
      std::ofstream out(path);
      out << header << '\n'
          << SvcCacheStore::encode_entry(store_key(1), store_value(10))
          << '\n';
    }
    SvcResultCache cache(1 << 20);
    SvcCacheStore store(path);
    SvcCacheRestore report;
    ASSERT_TRUE(store.open_and_restore(cache, nullptr, report)) << header;
    EXPECT_EQ(report.entries_restored, 0u) << header;
    EXPECT_GT(report.lines_dropped, 0u) << header;
    EXPECT_EQ(cache.stats().entries, 0u) << header;
  }
}

TEST(SvcCacheStore, MissingFileIsAFreshJournal) {
  const std::string path = temp_journal("svc_store_fresh.jsonl");
  SvcResultCache cache(1 << 20);
  SvcCacheStore store(path);
  SvcCacheRestore report;
  ASSERT_TRUE(store.open_and_restore(cache, nullptr, report));
  EXPECT_EQ(report.entries_restored, 0u);
  EXPECT_EQ(report.lines_dropped, 0u);
  EXPECT_TRUE(store.ok());
  EXPECT_GT(store.append(store_key(1), store_value(10)), 0u);
  // The header went down first, so a restart replays cleanly.
  const std::string text = read_file(path);
  EXPECT_TRUE(text.starts_with(SvcCacheStore::header_line()));
}

TEST(SvcCacheStore, CompactionShedsDeadEntries) {
  const std::string path = temp_journal("svc_store_compact.jsonl");
  SvcResultCache cache(1 << 20);
  SvcCacheStore store(path);
  SvcCacheRestore report;
  ASSERT_TRUE(store.open_and_restore(cache, nullptr, report));
  // Refresh one key far past the 4*live+64 threshold: the journal
  // carries dead weight the resident cache no longer holds.
  for (int i = 0; i < 100; ++i) {
    cache.insert(store_key(1), store_value(Weight(i)));
    ASSERT_GT(store.append(store_key(1), store_value(Weight(i))), 0u);
  }
  EXPECT_EQ(store.file_entries(), 100u);
  EXPECT_GT(store.maybe_compact(cache, nullptr), 0u);
  EXPECT_EQ(store.file_entries(), 1u);
  EXPECT_EQ(store.maybe_compact(cache, nullptr), 0u);  // already compact
  // The survivor is the live value.
  SvcResultCache warm(1 << 20);
  SvcCacheStore reread(path);
  SvcCacheRestore second;
  ASSERT_TRUE(reread.open_and_restore(warm, nullptr, second));
  EXPECT_EQ(second.entries_restored, 1u);
  const SvcCacheValue* live = warm.lookup(store_key(1));
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->cut, 99);
}

TEST(SvcCacheStore, UnopenablePathReportsFalse) {
  SvcResultCache cache(1 << 20);
  SvcCacheStore store(testing::TempDir() + "no_such_dir_store/j.jsonl");
  SvcCacheRestore report;
  EXPECT_FALSE(store.open_and_restore(cache, nullptr, report));
  EXPECT_FALSE(store.ok());
}

// --- Warm restart ----------------------------------------------------------

TEST(Service, WarmRestartServesByteIdenticalHits) {
  const std::string path = temp_journal("svc_warm_restart.jsonl");
  const Graph grid = make_grid(6, 6);
  const Graph ladder = make_ladder(9);
  SvcOptions options = test_options();
  options.cache_file = path;
  options.batch_size = 2;  // the repeats land in a later batch: hits,
                           // not within-batch coalesces

  // Cold service: solve each graph, then repeat it so the pre-crash
  // stream contains the canonical hit bytes for each solve identity.
  std::vector<std::string> cold = run_sequence(
      options, {solve_line("w1", grid, ",\"want_sides\":true"),
                solve_line("w2", ladder), solve_line("w1", grid,
                ",\"want_sides\":true"), solve_line("w2", ladder)});
  ASSERT_EQ(cold.size(), 4u);
  std::string disposition;
  ASSERT_TRUE(json_parse_string(cold[2], "cache", disposition));
  ASSERT_EQ(disposition, "hit");

  // Warm service (fresh process stand-in): the same requests answer as
  // hits with bytes identical to the pre-restart hit responses.
  Service warm(options);
  ASSERT_TRUE(warm.cache_store_ok());
  EXPECT_EQ(warm.metrics().counter(Counter::kSvcCacheRestored), 2u);
  EXPECT_EQ(warm.cache_stats().entries, 2u);
  std::vector<std::string> out;
  warm.submit_line(solve_line("w1", grid, ",\"want_sides\":true"), out);
  warm.submit_line(solve_line("w2", ladder), out);
  warm.drain(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], cold[2]);
  EXPECT_EQ(out[1], cold[3]);
  EXPECT_EQ(warm.cache_stats().hits, 2u);
}

TEST(Service, UnopenableCacheJournalReportsNotOk) {
  SvcOptions options = test_options();
  options.cache_file = testing::TempDir() + "no_such_dir_warm/j.jsonl";
  Service service(options);
  EXPECT_FALSE(service.cache_store_ok());
  Service plain(test_options());  // no journal configured: trivially ok
  EXPECT_TRUE(plain.cache_store_ok());
}

// --- Service-scoped fault injection (GBIS_SVC_FAULTS) ----------------------

TEST(SvcFaultPlan, ParsesTheGrammarAndRejectsMalformedSpecs) {
  const FaultPlan plan = FaultPlan::parse(
      "throw@req:0,oom@solve:1,hang@solve:3,crash@batch:2", kServiceFaults);
  EXPECT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.at(FaultSite::kReq, 0), FaultKind::kThrow);
  EXPECT_EQ(plan.at(FaultSite::kSolve, 1), FaultKind::kOom);
  EXPECT_EQ(plan.at(FaultSite::kSolve, 3), FaultKind::kHang);
  EXPECT_EQ(plan.at(FaultSite::kBatch, 2), FaultKind::kCrash);
  EXPECT_EQ(plan.at(FaultSite::kReq, 1), FaultKind::kNone);
  EXPECT_TRUE(FaultPlan::parse("", kServiceFaults).empty());
  for (const char* bad :
       {"stop@req:0", "throw@trial:0", "throw@req", "throw@req:x",
        "throw@req:0,bogus", "@req:0", "  ", ",throw@req:0", "throw@req:0,",
        "throw@req:99999999999999999999999"}) {
    EXPECT_THROW(FaultPlan::parse(bad, kServiceFaults),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Service, InjectedThrowAnswersTheStableInternalReason) {
  const std::string log_path = temp_journal("svc_fault_throw.jsonl");
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.faults = FaultPlan::parse("throw@solve:0", kServiceFaults);
  options.access_log_path = log_path;
  // Distinct seed: a separate solve identity, so it runs as its own
  // cold solve (ordinal 1) instead of coalescing with the faulted one.
  const auto out = run_sequence(
      options, {solve_line("f", g), solve_line("ok", g, ",\"seed\":9")});
  ASSERT_EQ(out.size(), 2u);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  // Clients get the catalog reason, never the raw exception text.
  EXPECT_EQ(error, "internal: solve failed");
  EXPECT_EQ(out[0].find("injected"), std::string::npos);
  // The raw detail is preserved for operators in the access log.
  const std::string log = read_file(log_path);
  EXPECT_NE(log.find("internal: solve failed (injected fault: "
                     "throw@solve:0)"),
            std::string::npos);
  // The stream survives: the next solve (a fresh ordinal) answers.
  EXPECT_TRUE(out[1].starts_with("{\"id\":\"ok\",\"ok\":true"));
}

TEST(Service, InjectedOomMapsToTheOutOfMemoryReason) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.faults = FaultPlan::parse("oom@solve:0", kServiceFaults);
  const auto out = run_sequence(options, {solve_line("m", g)});
  ASSERT_EQ(out.size(), 1u);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_EQ(error, "internal: out of memory");
}

TEST(Service, InjectedHangIsBoundedByTheRequestDeadline) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.faults = FaultPlan::parse("hang@solve:0", kServiceFaults);
  const auto out = run_sequence(
      options, {solve_line("h", g, ",\"deadline_s\":0.05")});
  ASSERT_EQ(out.size(), 1u);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_TRUE(error.starts_with("deadline"));
}

TEST(Service, ReqSiteFaultsKeyOnTheRequestSequence) {
  const Graph grid = make_grid(6, 6);
  const Graph ladder = make_ladder(9);
  SvcOptions options = test_options();
  options.faults = FaultPlan::parse("throw@req:1", kServiceFaults);
  // Request seq 1 is the second line; seq 0 solves untouched.
  const auto out = run_sequence(
      options, {solve_line("a", grid), solve_line("b", ladder)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"a\",\"ok\":true"));
  std::string error;
  ASSERT_TRUE(json_parse_string(out[1], "error", error));
  EXPECT_EQ(error, "internal: solve failed");
}

// --- Brownout ladder -------------------------------------------------------

// Reads the effective trial spend of a solve response: the brownout
// clamps show up as trials_ok + degraded (the trials that ran).
std::uint64_t trials_spent(const std::string& line) {
  std::uint64_t ok = 0, degraded = 0;
  EXPECT_TRUE(json_parse_u64(line, "trials_ok", ok));
  EXPECT_TRUE(json_parse_u64(line, "degraded", degraded));
  return ok + degraded;
}

TEST(Service, BrownoutLevelThreeShedsWithARetryHint) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.max_queue = 4;
  options.batch_size = 100;  // fill the queue before dispatch
  Service service(options);
  std::vector<std::string> out;
  for (int i = 0; i < 4; ++i) {
    service.submit_line(solve_line("q" + std::to_string(i), g), out);
  }
  ASSERT_TRUE(out.empty());
  service.drain(out);  // queue at 100% >= the level-3 rung
  ASSERT_EQ(out.size(), 4u);
  for (const std::string& line : out) {
    std::string error;
    ASSERT_TRUE(json_parse_string(line, "error", error));
    EXPECT_TRUE(error.starts_with("rejected: brownout (level 3)"));
    std::uint64_t retry = 0;
    ASSERT_TRUE(json_parse_u64(line, "retry_after_ms", retry));
    EXPECT_EQ(retry, 100u);  // clamp(10 * 4 queued, 100, 5000)
  }
  EXPECT_EQ(service.brownout_level(), 3u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcBrownoutShed), 4u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcBrownoutEntered), 1u);
}

TEST(Service, BrownoutLevelTwoCollapsesToOneCheapTrial) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.max_queue = 8;
  options.batch_size = 100;
  options.default_budget = 4;
  Service service(options);
  std::vector<std::string> out;
  for (int i = 0; i < 6; ++i) {  // 6 of 8 queued = 75% -> level 2
    service.submit_line(solve_line("q" + std::to_string(i), g), out);
  }
  service.drain(out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"q0\",\"ok\":true"));
  EXPECT_EQ(trials_spent(out[0]), 1u);  // portfolio collapsed to 1 start
  std::string method;
  ASSERT_TRUE(json_parse_string(out[0], "method", method));
  EXPECT_EQ(method, "CKL");  // ... at the cheap end of the ladder
}

TEST(Service, BrownoutLevelOneClampsTheTrialBudget) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.max_queue = 8;
  options.batch_size = 100;
  Service service(options);
  std::vector<std::string> out;
  for (int i = 0; i < 4; ++i) {  // 4 of 8 queued = 50% -> level 1
    service.submit_line(
        solve_line("q" + std::to_string(i), g, ",\"budget\":5"), out);
  }
  service.drain(out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"q0\",\"ok\":true"));
  EXPECT_EQ(trials_spent(out[0]), 2u);  // budget 5 clamped to 2
}

TEST(Service, BrownoutDisabledSpendsTheFullBudget) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.max_queue = 4;
  options.batch_size = 100;
  options.brownout = false;
  Service service(options);
  std::vector<std::string> out;
  for (int i = 0; i < 4; ++i) {  // would be level 3 with brownout on
    service.submit_line(
        solve_line("q" + std::to_string(i), g, ",\"seed\":" +
                   std::to_string(i) + ",\"budget\":3"), out);
  }
  service.drain(out);
  ASSERT_EQ(out.size(), 4u);
  for (const std::string& line : out) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(trials_spent(line), 3u);
  }
  EXPECT_EQ(service.brownout_level(), 0u);
}

TEST(Service, BrownoutRestoreIsCountedWhenLoadDrains) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.max_queue = 4;
  options.batch_size = 100;
  Service service(options);
  std::vector<std::string> out;
  for (int i = 0; i < 4; ++i) {
    service.submit_line(solve_line("q" + std::to_string(i), g), out);
  }
  service.drain(out);  // enters level 3
  EXPECT_EQ(service.brownout_level(), 3u);
  out.clear();
  service.submit_line(solve_line("calm", g), out);
  service.drain(out);  // 1 of 4 queued: back to normal
  EXPECT_EQ(service.brownout_level(), 0u);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcBrownoutRestored), 1u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"calm\",\"ok\":true"));
}

TEST(Service, DegradedSolvesCacheUnderTheirDegradedIdentity) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.max_queue = 8;
  options.batch_size = 100;
  options.default_budget = 4;
  Service service(options);
  std::vector<std::string> out;
  for (int i = 0; i < 6; ++i) {  // level 2: collapsed to 1 CKL start
    service.submit_line(solve_line("q", g), out);
  }
  service.drain(out);
  out.clear();
  // Calm again: the same request must NOT be answered by the degraded
  // cache entry — its identity (budget 1, CKL) differs.
  service.submit_line(solve_line("calm", g), out);
  service.drain(out);
  ASSERT_EQ(out.size(), 1u);
  std::string disposition;
  ASSERT_TRUE(json_parse_string(out[0], "cache", disposition));
  EXPECT_EQ(disposition, "miss");
  EXPECT_EQ(trials_spent(out[0]), 4u);  // full default budget
}

TEST(Service, BrownoutStreamIsThreadCountInvariant) {
  const Graph grid = make_grid(7, 5);
  const Graph ladder = make_ladder(9);
  std::vector<std::string> lines;
  for (int i = 0; i < 12; ++i) {
    lines.push_back(solve_line("r" + std::to_string(i),
                               i % 2 == 0 ? grid : ladder,
                               ",\"seed\":" + std::to_string(i / 3)));
  }
  const auto make_options = [](unsigned threads) {
    SvcOptions options = test_options(threads);
    options.max_queue = 8;   // small enough that batches brown out
    options.batch_size = 6;  // 6 of 8 queued trips level 2 at dispatch
    return options;
  };
  const auto one = strip_timing(run_sequence(make_options(1), lines));
  const auto eight = strip_timing(run_sequence(make_options(8), lines));
  EXPECT_EQ(one, eight);
}

TEST(Service, StatsReportsTheRobustnessSurface) {
  const std::string path = temp_journal("svc_stats_robust.jsonl");
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.cache_file = path;
  const auto out = run_sequence(
      options, {solve_line("a", g), "{\"id\":\"s\",\"op\":\"stats\"}"});
  ASSERT_EQ(out.size(), 2u);
  std::uint64_t value = 0;
  ASSERT_TRUE(json_parse_u64(out[1], "cache_restored", value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(json_parse_u64(out[1], "cache_journal_bytes", value));
  EXPECT_GT(value, 0u);  // the cold solve was journaled
  ASSERT_TRUE(json_parse_u64(out[1], "cache_compactions", value));
  ASSERT_TRUE(json_parse_u64(out[1], "brownout_level", value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(json_parse_u64(out[1], "brownout_entered", value));
  ASSERT_TRUE(json_parse_u64(out[1], "brownout_restored", value));
  ASSERT_TRUE(json_parse_u64(out[1], "brownout_shed", value));
}

TEST(SvcOptionsEnv, OverlaysTheRobustnessKnobs) {
  ::setenv("GBIS_SVC_CACHE_FILE", "/tmp/journal.jsonl", 1);
  ::setenv("GBIS_SVC_FAULTS", "throw@req:2,crash@batch:1", 1);
  ::setenv("GBIS_SVC_BROWNOUT", "0", 1);
  ::setenv("GBIS_SVC_BROWNOUT_WINDOW", "16", 1);
  SvcOptions options = svc_options_from_env(SvcOptions{});
  EXPECT_EQ(options.cache_file, "/tmp/journal.jsonl");
  EXPECT_EQ(options.faults.size(), 2u);
  EXPECT_EQ(options.faults.at(FaultSite::kBatch, 1),
            FaultKind::kCrash);
  EXPECT_FALSE(options.brownout);
  EXPECT_EQ(options.brownout_window, 16u);

  ::setenv("GBIS_SVC_FAULTS", "bogus@nowhere", 1);   // warn, keep empty
  ::setenv("GBIS_SVC_BROWNOUT", "maybe", 1);         // warn, keep default
  ::setenv("GBIS_SVC_BROWNOUT_WINDOW", "0", 1);      // warn, keep default
  options = svc_options_from_env(SvcOptions{});
  EXPECT_TRUE(options.faults.empty());
  EXPECT_TRUE(options.brownout);
  EXPECT_EQ(options.brownout_window, 32u);

  ::unsetenv("GBIS_SVC_CACHE_FILE");
  ::unsetenv("GBIS_SVC_FAULTS");
  ::unsetenv("GBIS_SVC_BROWNOUT");
  ::unsetenv("GBIS_SVC_BROWNOUT_WINDOW");
}

TEST(SvcOptionsFromEnv, OverlaysDynamicGraphKnobs) {
  ::setenv("GBIS_SVC_GRAPH_MB", "3", 1);
  ::setenv("GBIS_SVC_WARM", "0", 1);
  SvcOptions options = svc_options_from_env(SvcOptions{});
  EXPECT_EQ(options.graph_store_bytes, 3ull << 20);
  EXPECT_FALSE(options.warm);

  ::setenv("GBIS_SVC_GRAPH_MB", "lots", 1);  // warn, keep default
  ::setenv("GBIS_SVC_WARM", "maybe", 1);     // warn, keep default
  options = svc_options_from_env(SvcOptions{});
  EXPECT_EQ(options.graph_store_bytes, SvcOptions{}.graph_store_bytes);
  EXPECT_TRUE(options.warm);

  ::unsetenv("GBIS_SVC_GRAPH_MB");
  ::unsetenv("GBIS_SVC_WARM");
}

// --- The mutate op and warm-start solves -----------------------------------

std::string mutate_inline_line(const std::string& id, const Graph& parent,
                               const std::string& edits) {
  std::string payload;
  append_json_string(payload, inline_payload(parent));
  return "{\"id\":\"" + id + "\",\"op\":\"mutate\",\"inline\":" + payload +
         edits + "}";
}

std::string mutate_ref_line(const std::string& id, std::uint64_t parent,
                            const std::string& edits) {
  return "{\"id\":\"" + id + "\",\"op\":\"mutate\",\"parent\":\"" +
         to_hex16(parent) + "\"" + edits + "}";
}

std::string solve_ref_line(const std::string& id, const std::string& child_fp,
                           const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"op\":\"solve\",\"graph\":\"" + child_fp +
         "\"" + extra + "}";
}

TEST(Service, MutateDerivesAChildAndSolvesItByFingerprint) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(
      mutate_inline_line("m", g, ",\"add_vertices\":1,\"add_edges\":[36,0]"),
      out);
  service.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"m\",\"ok\":true,\"op\":\"mutate\""));
  std::string child_fp, parent_fp;
  std::uint64_t value = 0;
  ASSERT_TRUE(json_parse_string(out[0], "fingerprint", child_fp));
  ASSERT_TRUE(json_parse_string(out[0], "parent", parent_fp));
  EXPECT_EQ(parent_fp, to_hex16(graph_fingerprint(g)));
  EXPECT_NE(child_fp, parent_fp);
  EXPECT_TRUE(json_parse_u64(out[0], "vertices", value));
  EXPECT_EQ(value, 37u);
  EXPECT_TRUE(json_parse_u64(out[0], "edges", value));
  EXPECT_EQ(value, 61u);
  EXPECT_TRUE(json_parse_u64(out[0], "edit_distance", value));
  EXPECT_EQ(value, 2u);
  EXPECT_TRUE(json_parse_u64(out[0], "depth", value));
  EXPECT_EQ(value, 1u);
  EXPECT_EQ(service.lineage_size(), 1u);

  // The child is resident in the graph store: solvable by reference.
  out.clear();
  service.submit_line(solve_ref_line("s", child_fp), out);
  service.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"s\",\"ok\":true"));
  std::string echoed;
  ASSERT_TRUE(json_parse_string(out[0], "fingerprint", echoed));
  EXPECT_EQ(echoed, child_fp);
}

TEST(Service, SolveByUnknownFingerprintIsAnIoError) {
  Service service(test_options());
  std::vector<std::string> out;
  service.submit_line(solve_ref_line("s", to_hex16(0x1234)), out);
  service.drain(out);
  ASSERT_EQ(out.size(), 1u);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_EQ(error, "io: unknown graph \"" + to_hex16(0x1234) + "\"");
}

TEST(Service, OverLimitWeightsAnswerAnErrorForEveryMethod) {
  // A saturated weight reads as INT64_MAX. Past the 2^60 total weight
  // limit the graph is refused at parse time, before any solver forms
  // a weight sum, and the stream keeps serving.
  const std::string graph =
      "\"inline\":\"4 4\\n0 1 99999999999999999999\\n1 2\\n2 3\\n3 0\\n\"";
  std::vector<std::string> lines;
  for (const char* pick :
       {"\"quality\":\"balanced\"", "\"quality\":\"best\"",
        "\"method\":\"ckl\"", "\"method\":\"cfm\"", "\"method\":\"sa\"",
        "\"method\":\"csa\""}) {
    lines.push_back("{\"id\":\"w\",\"op\":\"solve\"," + graph + "," + pick +
                    "}");
  }
  lines.push_back("{\"id\":\"p\",\"op\":\"ping\"}");
  const auto out = run_sequence(test_options(), lines);
  ASSERT_EQ(out.size(), 7u);
  for (std::size_t i = 0; i < 6; ++i) {
    std::string error;
    ASSERT_TRUE(json_parse_string(out[i], "error", error)) << out[i];
    EXPECT_EQ(error,
              "parse: inline graph: edge_list: total edge weight exceeds "
              "the 2^60 limit");
  }
  EXPECT_TRUE(out[6].starts_with("{\"id\":\"p\",\"ok\":true")) << out[6];

  // A mutation that would carry a graph across the limit is refused.
  GraphBuilder at_limit(3);
  at_limit.add_edge(0, 1, kMaxTotalWeight);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> mutated;
  service.submit_line(
      mutate_inline_line("m", at_limit.build(), ",\"add_edges\":[1,2]"),
      mutated);
  service.drain(mutated);
  ASSERT_EQ(mutated.size(), 1u);
  std::string error;
  ASSERT_TRUE(json_parse_string(mutated[0], "error", error)) << mutated[0];
  EXPECT_EQ(error, "mutate: total edge weight exceeds the 2^60 limit");
}

TEST(Service, MutateRejectsBadBatchesWithStableReasons) {
  const Graph g = make_grid(4, 4);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  const struct {
    std::string edits;
    std::string expected;
  } cases[] = {
      {"", "parse: empty edit batch"},
      {",\"add_edges\":[0]", "parse: edge arrays must hold (u,v) pairs"},
      {",\"add_edges\":[0,1]", "mutate: edge (0,1) already exists"},
      {",\"add_edges\":[2,2]", "mutate: self-loop (2,2)"},
      {",\"del_edges\":[0,5]", "mutate: edge (0,5) not found"},
      {",\"del_vertices\":[3,3]", "mutate: vertex 3 deleted twice"},
      {",\"del_vertices\":[16]", "mutate: vertex 16 out of range"},
  };
  for (const auto& test_case : cases) {
    std::vector<std::string> out;
    service.submit_line(mutate_inline_line("m", g, test_case.edits), out);
    service.drain(out);
    ASSERT_EQ(out.size(), 1u) << test_case.edits;
    std::string error;
    ASSERT_TRUE(json_parse_string(out[0], "error", error)) << out[0];
    EXPECT_EQ(error, test_case.expected);
  }
  // Unknown parent reference.
  std::vector<std::string> out;
  service.submit_line(mutate_ref_line("m", 0x77, ",\"add_vertices\":1"), out);
  service.drain(out);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_EQ(error, "io: unknown graph \"" + to_hex16(0x77) + "\"");
  // Six of the cases reached the mutate layer; the two parse: rejects
  // failed at submit time and are protocol errors, not mutate ones.
  EXPECT_EQ(service.metrics().counter(Counter::kSvcMutateRejected), 6u);
}

TEST(Service, MutateRepeatAnswersByteIdentically) {
  const Graph g = make_grid(4, 4);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> first, second;
  service.submit_line(mutate_inline_line("m", g, ",\"del_edges\":[0,1]"),
                      first);
  service.drain(first);
  service.submit_line(mutate_inline_line("m", g, ",\"del_edges\":[0,1]"),
                      second);
  service.drain(second);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.lineage_size(), 1u);  // one record, not two
}

TEST(Service, LineageDepthLimitRejectsDeepChains) {
  const Graph g = make_grid(4, 4);
  SvcOptions options = test_options();
  options.batch_size = 1;
  options.lineage_max_depth = 2;
  Service service(options);
  std::string parent_fp = to_hex16(graph_fingerprint(g));
  std::vector<std::string> out;
  service.submit_line(mutate_inline_line("m0", g, ",\"add_vertices\":1"), out);
  service.drain(out);
  std::string child_fp;
  ASSERT_TRUE(json_parse_string(out[0], "fingerprint", child_fp));
  for (int step = 1; step <= 2; ++step) {
    out.clear();
    std::uint64_t fp = 0;
    ASSERT_TRUE(parse_hex16(child_fp, fp));
    service.submit_line(
        mutate_ref_line("m" + std::to_string(step), fp, ",\"add_vertices\":1"),
        out);
    service.drain(out);
    ASSERT_EQ(out.size(), 1u);
    if (step < 2) {
      ASSERT_TRUE(json_parse_string(out[0], "fingerprint", child_fp)) << out[0];
    } else {
      std::string error;
      ASSERT_TRUE(json_parse_string(out[0], "error", error)) << out[0];
      EXPECT_EQ(error, "mutate: lineage depth limit (2) reached");
    }
  }
}

TEST(Service, SolveAfterMutationRunsWarmWithinQuality) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  // Cold-solve the parent so its partition is cached.
  service.submit_line(solve_line("p", g), out);
  service.drain(out);
  std::uint64_t parent_cut = 0;
  ASSERT_TRUE(json_parse_u64(out[0], "cut", parent_cut));

  // One-edge edit, then solve the child: the warm path must kick in.
  out.clear();
  service.submit_line(
      mutate_ref_line("m", graph_fingerprint(g), ",\"add_edges\":[0,35]"),
      out);
  service.drain(out);
  std::string child_fp;
  ASSERT_TRUE(json_parse_string(out[0], "fingerprint", child_fp)) << out[0];

  out.clear();
  service.submit_line(solve_ref_line("s", child_fp), out);
  service.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].starts_with("{\"id\":\"s\",\"ok\":true")) << out[0];
  bool warm = false;
  ASSERT_TRUE(json_parse_bool(out[0], "warm", warm)) << out[0];
  EXPECT_TRUE(warm);
  std::string method;
  ASSERT_TRUE(json_parse_string(out[0], "method", method));
  EXPECT_EQ(method, "warm-kl");
  // Adding one edge can raise the optimal cut by at most 1.
  std::uint64_t warm_cut = 0;
  ASSERT_TRUE(json_parse_u64(out[0], "cut", warm_cut));
  EXPECT_LE(warm_cut, parent_cut + 1);
  EXPECT_EQ(service.metrics().counter(Counter::kSvcSolveWarm), 1u);

  // Warm results cache under the child identity: the repeat is a hit
  // with the same warm payload.
  std::vector<std::string> repeat;
  service.submit_line(solve_ref_line("s2", child_fp), repeat);
  service.drain(repeat);
  std::string cache;
  ASSERT_TRUE(json_parse_string(repeat[0], "cache", cache));
  EXPECT_EQ(cache, "hit");
  ASSERT_TRUE(json_parse_bool(repeat[0], "warm", warm));
  EXPECT_TRUE(warm);
}

TEST(Service, NoWarmOptionRunsEverySolveCold) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  options.warm = false;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(solve_line("p", g), out);
  service.submit_line(
      mutate_ref_line("m", graph_fingerprint(g), ",\"add_edges\":[0,35]"),
      out);
  service.drain(out);
  std::string child_fp;
  ASSERT_TRUE(json_parse_string(out[1], "fingerprint", child_fp));
  out.clear();
  service.submit_line(solve_ref_line("s", child_fp), out);
  service.drain(out);
  bool warm = false;
  EXPECT_FALSE(json_parse_bool(out[0], "warm", warm));
  std::string method;
  ASSERT_TRUE(json_parse_string(out[0], "method", method));
  EXPECT_NE(method, "warm-kl");
  EXPECT_EQ(service.metrics().counter(Counter::kSvcSolveWarm), 0u);
}

TEST(Service, MutationChainIsThreadCountInvariant) {
  const Graph grid = make_grid(6, 6);
  const Graph ladder = make_ladder(9);
  const std::string grid_fp = to_hex16(graph_fingerprint(grid));
  std::vector<std::string> lines;
  lines.push_back(solve_line("a", grid, ",\"want_sides\":true"));
  lines.push_back(solve_line("b", ladder));
  lines.push_back(mutate_inline_line("m1", grid, ",\"add_edges\":[0,35]"));
  lines.push_back(mutate_inline_line(
      "m2", grid, ",\"add_vertices\":2,\"add_edges\":[36,0,37,35]"));
  // Chain the first child: mutate-of-mutate inside the same stream.
  lines.push_back(
      "{\"id\":\"bad\",\"op\":\"mutate\",\"parent\":\"" + grid_fp +
      "\",\"add_edges\":[0,1]}");  // duplicate edge: deterministic error
  lines.push_back(solve_line("c", grid, ",\"want_sides\":true"));  // repeat
  lines.push_back("{\"id\":\"s\",\"op\":\"stats\"}");

  const auto one = strip_timing(run_sequence(test_options(1), lines));
  const auto two = strip_timing(run_sequence(test_options(2), lines));
  const auto eight = strip_timing(run_sequence(test_options(8), lines));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Service, WarmSolveChainIsThreadCountInvariant) {
  // The full dynamic pipeline — cold solve, mutate, warm solve of the
  // child — must keep the byte-determinism contract. Fingerprints are
  // content-addressed, so the request lines can name the child without
  // reading earlier responses.
  const Graph grid = make_grid(6, 6);
  MutationBatch batch;
  batch.add_edges = {0, 35};
  const Graph child = apply_mutation(grid, batch).child;
  const std::string child_fp = to_hex16(graph_fingerprint(child));
  std::vector<std::string> lines;
  lines.push_back(solve_line("p", grid));
  lines.push_back(mutate_ref_line("m", graph_fingerprint(grid),
                                  ",\"add_edges\":[0,35]"));
  lines.push_back(solve_ref_line("w", child_fp, ",\"want_sides\":true"));
  lines.push_back(solve_ref_line("w2", child_fp, ",\"want_sides\":true"));

  SvcOptions options = test_options(1);
  options.batch_size = 1;  // each step lands before the next is planned
  const auto one = run_sequence(options, lines);
  options.threads = 8;
  const auto eight = run_sequence(options, lines);
  EXPECT_EQ(one, eight);
  ASSERT_EQ(one.size(), 4u);
  EXPECT_NE(one[2].find("\"warm\":true"), std::string::npos) << one[2];
}

// Every way a leader can end — a throw, an allocation failure, a hang
// past its deadline, a warm start — reaches its same-batch follower,
// which answers with the leader's outcome without solving anything.
TEST(Service, CoalescedFollowerTakesItsLeadersOutcome) {
  const Graph g = make_grid(6, 6);
  const Graph parent = make_ladder(12);
  const std::string grow = ",\"add_vertices\":1,\"add_edges\":[" +
                           std::to_string(parent.num_vertices()) + ",0]";
  std::vector<std::string> streams[2], logs[2];
  for (int run = 0; run < 2; ++run) {
    const std::string log_path =
        temp_journal("svc_coalesced_" + std::to_string(run) + ".jsonl");
    SvcOptions options = test_options(run == 0 ? 1 : 4);
    options.batch_size = 100;  // batches are cut by hand below
    options.faults = FaultPlan::parse(
        "throw@solve:0,oom@solve:1,hang@solve:2", kServiceFaults);
    options.access_log_path = log_path;
    Service service(options);
    std::vector<std::string>& out = streams[run];
    testing::internal::CaptureStderr();
    for (const char* extra :
         {",\"seed\":1", ",\"seed\":2", ",\"seed\":3,\"deadline_s\":0.05"}) {
      service.submit_line(solve_line("lead", g, extra), out);
      service.submit_line(solve_line("follow", g, extra), out);
    }
    service.process_batch(out);
    const std::string errors = testing::internal::GetCapturedStderr();
    service.submit_line(solve_line("parent", parent), out);
    service.submit_line(mutate_inline_line("m", parent, grow), out);
    service.process_batch(out);
    std::string child;
    ASSERT_TRUE(json_parse_string(out.back(), "fingerprint", child));
    service.submit_line(solve_ref_line("lead", child), out);
    service.submit_line(solve_ref_line("follow", child), out);
    service.process_batch(out);
    ASSERT_EQ(out.size(), 10u);

    // Only the two failed leaders (seq 0 and 2) report on stderr.
    EXPECT_NE(errors.find("internal error (seq 0): injected fault"),
              std::string::npos) << errors;
    EXPECT_NE(errors.find("internal error (seq 2): std::bad_alloc"),
              std::string::npos) << errors;
    EXPECT_EQ(std::count(errors.begin(), errors.end(), '\n'), 2) << errors;
    for (const std::size_t lead : {0u, 2u, 4u, 8u}) {
      std::string lead_cache, follow_cache, lead_error, follow_error;
      ASSERT_TRUE(json_parse_string(out[lead], "cache", lead_cache));
      ASSERT_TRUE(json_parse_string(out[lead + 1], "cache", follow_cache));
      EXPECT_EQ(lead_cache, "miss") << out[lead];
      EXPECT_EQ(follow_cache, "coalesced") << out[lead + 1];
      json_parse_string(out[lead], "error", lead_error);
      json_parse_string(out[lead + 1], "error", follow_error);
      EXPECT_EQ(lead_error, follow_error) << out[lead + 1];
    }
    std::string error;
    ASSERT_TRUE(json_parse_string(out[1], "error", error));
    EXPECT_EQ(error, "internal: solve failed");
    ASSERT_TRUE(json_parse_string(out[3], "error", error));
    EXPECT_EQ(error, "internal: out of memory");
    ASSERT_TRUE(json_parse_string(out[5], "error", error));
    EXPECT_TRUE(error.starts_with("deadline")) << error;
    EXPECT_NE(out[9].find("\"method\":\"warm-kl\""), std::string::npos);
    EXPECT_NE(out[9].find("\"warm\":true"), std::string::npos) << out[9];

    // The followers' access-log lines keep their leaders' detail.
    std::istringstream log(read_file(log_path));
    for (std::string line; std::getline(log, line);) {
      logs[run].push_back(strip_timing(line));
    }
    ASSERT_EQ(logs[run].size(), 10u);
    EXPECT_NE(logs[run][1].find("internal: solve failed (injected fault: "
                                "throw@solve:0)"),
              std::string::npos) << logs[run][1];
    EXPECT_NE(logs[run][3].find("internal: out of memory (std::bad_alloc)"),
              std::string::npos) << logs[run][3];
  }
  EXPECT_EQ(strip_timing(streams[0]), strip_timing(streams[1]));
  EXPECT_EQ(logs[0], logs[1]);
}

// ROADMAP item 5's oracle for service answers: on graphs small enough to
// solve exactly, every ok answer the service gives — each registered
// method, each quality rung, a coalesced follower, a cache hit and a
// warm solve of a mutated child — is a legal bisection whose cut
// recounts and never beats the optimum of its own graph.
TEST(Service, EveryAnswerIsALegalBisectionNoBetterThanExact) {
  std::uint32_t warm_answers = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = make_gnp(14, gnp_p_for_degree(14, 3.0), rng);
    MutationBatch batch;
    batch.add_vertices = 1;
    batch.add_edges = {14, 0};
    const Graph child = apply_mutation(g, batch).child;
    const std::string child_fp = to_hex16(graph_fingerprint(child));

    const std::string sides = ",\"want_sides\":true";
    std::vector<std::string> lines;
    for (const MethodInfo& info : method_registry()) {
      lines.push_back(solve_line(info.name, g,
                                 ",\"method\":\"" + std::string(info.name) +
                                     "\"" + sides));
    }
    for (const std::string rung : {"fast", "balanced", "best"}) {
      lines.push_back(
          solve_line(rung, g, ",\"quality\":\"" + rung + "\"" + sides));
    }
    lines.push_back(solve_line("follower", g, ",\"quality\":\"best\"" + sides));
    lines.push_back(mutate_inline_line("m", g, ",\"add_vertices\":1,"
                                               "\"add_edges\":[14,0]"));
    SvcOptions options = test_options();
    options.batch_size = 64;  // one batch: the follower coalesces
    Service service(options);
    std::vector<std::string> out;
    for (const std::string& line : lines) service.submit_line(line, out);
    service.drain(out);
    // The next batch: a repeat, and the child's solve, which warm-starts
    // from the parent answers the first batch cached.
    service.submit_line(solve_line("hit", g, ",\"method\":\"kl\"" + sides),
                        out);
    service.submit_line(solve_ref_line("warm", child_fp, sides), out);
    service.drain(out);

    const Weight optimum = brute_force_bisection(g).cut;
    const Weight child_optimum = brute_force_bisection(child).cut;
    std::size_t answered = 0;
    for (const std::string& line : out) {
      bool ok = false;
      ASSERT_TRUE(json_parse_bool(line, "ok", ok)) << line;
      std::string fp, side_text;
      if (!ok || !json_parse_string(line, "sides", side_text)) {
        ASSERT_NE(line.find("\"op\":\"mutate\""), std::string::npos) << line;
        continue;
      }
      ++answered;
      ASSERT_TRUE(json_parse_string(line, "fingerprint", fp));
      const bool on_child = fp == child_fp;
      const Graph& own = on_child ? child : g;
      std::uint64_t cut = 0;
      ASSERT_TRUE(json_parse_u64(line, "cut", cut));
      ASSERT_EQ(side_text.size(), own.num_vertices()) << line;
      std::vector<std::uint8_t> parts;
      for (const char c : side_text) parts.push_back(c == '1' ? 1 : 0);
      const Bisection recount(own, parts);
      EXPECT_LE(recount.count_imbalance(), 1u) << line;
      EXPECT_EQ(recount.cut(), static_cast<Weight>(cut)) << line;
      EXPECT_GE(static_cast<Weight>(cut), on_child ? child_optimum : optimum)
          << line;
      if (line.find("\"warm\":true") != std::string::npos) ++warm_answers;
    }
    EXPECT_EQ(answered, out.size() - 1) << "seed " << seed;
    EXPECT_NE(out[method_registry().size() + 3].find("\"coalesced\""),
              std::string::npos);
    EXPECT_NE(out[out.size() - 2].find("\"cache\":\"hit\""),
              std::string::npos) << out[out.size() - 2];
  }
  EXPECT_GT(warm_answers, 0u);
}

TEST(Service, LineageJournalReplaysMutationsAcrossRestart) {
  const std::string path = temp_journal("svc_lineage_restart.jsonl");
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  options.cache_file = path;

  std::vector<std::string> cold;
  {
    Service service(options);
    ASSERT_TRUE(service.cache_store_ok());
    service.submit_line(
        mutate_inline_line("m", g, ",\"add_edges\":[0,35]"), cold);
    service.drain(cold);
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_TRUE(cold[0].find("\"ok\":true") != std::string::npos) << cold[0];
  }

  // Fresh service (crash stand-in): the graph is gone — graphs are
  // never journaled — but the lineage record replays, so the same
  // mutate (now by parent reference) answers byte-identically.
  Service warm(options);
  ASSERT_TRUE(warm.cache_store_ok());
  EXPECT_EQ(warm.metrics().counter(Counter::kSvcLineageRestored), 1u);
  EXPECT_EQ(warm.lineage_size(), 1u);
  std::vector<std::string> replayed;
  warm.submit_line(
      mutate_ref_line("m", graph_fingerprint(g), ",\"add_edges\":[0,35]"),
      replayed);
  warm.drain(replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], cold[0]);

  // A *different* batch on the vanished parent still fails: only
  // recorded derivations survive a restart without the graph.
  std::vector<std::string> out;
  warm.submit_line(
      mutate_ref_line("x", graph_fingerprint(g), ",\"add_edges\":[0,14]"),
      out);
  warm.drain(out);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_EQ(error,
            "io: unknown graph \"" + to_hex16(graph_fingerprint(g)) + "\"");
}

TEST(Service, RestoredLineageHealsAndWarmStartsAfterRematerialization) {
  const std::string path = temp_journal("svc_lineage_heal.jsonl");
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  options.cache_file = path;
  {
    Service service(options);
    std::vector<std::string> out;
    service.submit_line(
        mutate_inline_line("m", g, ",\"add_edges\":[0,35]"), out);
    service.drain(out);
  }
  // After restart the restored record has no vertex map. Re-sending
  // the parent (inline) re-materializes the chain, heals the map in
  // place, and the child solve warm-starts off the parent's partition.
  Service warm(options);
  std::vector<std::string> out;
  warm.submit_line(solve_line("p", g), out);
  warm.submit_line(
      mutate_ref_line("m", graph_fingerprint(g), ",\"add_edges\":[0,35]"),
      out);
  warm.drain(out);
  ASSERT_EQ(out.size(), 2u);
  std::string child_fp;
  ASSERT_TRUE(json_parse_string(out[1], "fingerprint", child_fp));
  out.clear();
  warm.submit_line(solve_ref_line("s", child_fp), out);
  warm.drain(out);
  bool is_warm = false;
  ASSERT_TRUE(json_parse_bool(out[0], "warm", is_warm)) << out[0];
  EXPECT_TRUE(is_warm);
}

TEST(Service, StatsV3ReportsDynamicGraphCounters) {
  const Graph g = make_grid(4, 4);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(mutate_inline_line("m", g, ",\"add_vertices\":1"), out);
  // Rejected at the mutate layer (a parse error would not count).
  service.submit_line(mutate_inline_line("bad", g, ",\"add_edges\":[0,1]"),
                      out);
  service.drain(out);
  out.clear();
  service.submit_line("{\"id\":\"s\",\"op\":\"stats\"}", out);
  service.drain(out);
  ASSERT_EQ(out.size(), 1u);
  std::uint64_t value = 0;
  ASSERT_TRUE(json_parse_u64(out[0], "mutate_ok", value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(json_parse_u64(out[0], "mutate_rejected", value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(json_parse_u64(out[0], "graphstore_entries", value));
  EXPECT_EQ(value, 2u);  // parent + child
  ASSERT_TRUE(json_parse_u64(out[0], "graphstore_bytes", value));
  EXPECT_GT(value, 0u);
  ASSERT_TRUE(json_parse_u64(out[0], "lineage_records", value));
  EXPECT_EQ(value, 1u);
  EXPECT_TRUE(json_parse_u64(out[0], "solve_warm", value));
  EXPECT_TRUE(json_parse_u64(out[0], "warm_fallback", value));
  EXPECT_TRUE(json_parse_u64(out[0], "graphstore_evictions", value));
  EXPECT_TRUE(json_parse_u64(out[0], "lineage_restored", value));
}

TEST(Protocol, MutateParseErrorsAreStable) {
  SvcRequest request;
  std::string error;
  // No parent at all.
  EXPECT_FALSE(parse_request("{\"id\":\"m\",\"op\":\"mutate\"}", request,
                             error));
  EXPECT_EQ(error,
            "parse: mutate needs a parent graph (\"parent\", \"path\" or "
            "\"inline\")");
  // Two parent references at once.
  EXPECT_FALSE(parse_request(
      "{\"id\":\"m\",\"op\":\"mutate\",\"parent\":\"" + to_hex16(1) +
          "\",\"path\":\"g.graph\",\"add_vertices\":1}",
      request, error));
  EXPECT_EQ(error, "parse: mutate parent references are mutually exclusive");
  // Malformed fingerprint.
  EXPECT_FALSE(parse_request(
      "{\"id\":\"m\",\"op\":\"mutate\",\"parent\":\"xyz\",\"add_vertices\":1}",
      request, error));
  EXPECT_EQ(error, "parse: \"parent\" must be a 16-digit hex fingerprint");
  // Bad edit arrays.
  EXPECT_FALSE(parse_request("{\"id\":\"m\",\"op\":\"mutate\",\"parent\":\"" +
                                 to_hex16(1) + "\",\"add_edges\":[1,-2]}",
                             request, error));
  EXPECT_EQ(error,
            "parse: \"add_edges\" must be an array of at most 1048576 "
            "non-negative integers");
  // A valid line round-trips the batch.
  ASSERT_TRUE(parse_request(
      "{\"id\":\"m\",\"op\":\"mutate\",\"parent\":\"" + to_hex16(9) +
          "\",\"add_edges\":[3,4],\"del_edges\":[1,2],\"add_vertices\":2,"
          "\"del_vertices\":[0]}",
      request, error))
      << error;
  EXPECT_EQ(request.op, SvcRequest::Op::kMutate);
  EXPECT_TRUE(request.has_fingerprint);
  EXPECT_EQ(request.fingerprint, 9u);
  EXPECT_EQ(request.batch.add_edges, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(request.batch.del_edges, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(request.batch.add_vertices, 2u);
  EXPECT_EQ(request.batch.del_vertices, (std::vector<std::uint64_t>{0}));
  // Solve accepts a graph reference; mixing it with a payload fails.
  ASSERT_TRUE(parse_request("{\"id\":\"s\",\"op\":\"solve\",\"graph\":\"" +
                                to_hex16(9) + "\"}",
                            request, error));
  EXPECT_TRUE(request.has_fingerprint);
  EXPECT_FALSE(parse_request("{\"id\":\"s\",\"op\":\"solve\",\"graph\":\"" +
                                 to_hex16(9) + "\",\"path\":\"g\"}",
                             request, error));
  EXPECT_EQ(error, "parse: graph payloads are mutually exclusive");
}

// --- Request tracing and the flight recorder --------------------------------

TEST(Service, TraceIsEchoedOnlyWhenTheClientSuppliedOne) {
  const Graph g = make_grid(4, 4);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(solve_line("a", g), out);
  service.submit_line(solve_line("b", g, ",\"trace\":\"00000000000000ff\""),
                      out);
  service.submit_line("{\"id\":\"p\",\"op\":\"ping\",\"trace\":\"deadbeef"
                      "deadbeef\"}",
                      out);
  service.drain(out);
  ASSERT_EQ(out.size(), 3u);
  // Derived ids never appear on the wire — pre-tracing byte streams
  // are unchanged.
  EXPECT_EQ(out[0].find("\"trace\""), std::string::npos) << out[0];
  std::string echoed;
  ASSERT_TRUE(json_parse_string(out[1], "trace", echoed));
  EXPECT_EQ(echoed, "00000000000000ff");
  ASSERT_TRUE(json_parse_string(out[2], "trace", echoed));
  EXPECT_EQ(echoed, "deadbeefdeadbeef");

  // A malformed trace id is a parse error, never a silent default.
  out.clear();
  service.submit_line(solve_line("bad", g, ",\"trace\":\"xyz\""), out);
  service.drain(out);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[0], "error", error));
  EXPECT_EQ(error, "parse: \"trace\" must be a 16-digit hex trace id");
}

TEST(Service, TraceOpExportsSpanSetsAndLooksUpById) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(solve_line("a", g), out);
  service.submit_line("{\"id\":\"t\",\"op\":\"trace\"}", out);
  service.drain(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[1].starts_with("{\"id\":\"t\",\"ok\":true,"
                                 "\"op\":\"trace\""));
  std::uint64_t traces = 0;
  ASSERT_TRUE(json_parse_u64(out[1], "traces", traces));
  EXPECT_EQ(traces, 1u);
  std::string spans;
  ASSERT_TRUE(json_parse_string(out[1], "spans", spans));
  // The solve's span set, complete: structural marks, the queue wait,
  // the lookup, the worker's solve span, and the finalize bookends.
  const std::string expected_id = to_hex16(splitmix64_at(0, 0));
  EXPECT_NE(spans.find("\"trace\":\"" + expected_id + "\""),
            std::string::npos)
      << spans;
  for (const char* name : {"accept", "parse", "admit", "queue", "lookup",
                           "solve", "trial", "finalize", "write"}) {
    EXPECT_NE(spans.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name << " missing in " << spans;
  }
  EXPECT_NE(spans.find("\"state\":\"done\""), std::string::npos);

  // Lookup by id returns exactly that set; an unknown id is a stable
  // error carrying the requested id.
  out.clear();
  service.submit_line(
      "{\"id\":\"t2\",\"op\":\"trace\",\"trace\":\"" + expected_id + "\"}",
      out);
  service.submit_line(
      "{\"id\":\"t3\",\"op\":\"trace\",\"trace\":\"ffffffffffffffff\"}",
      out);
  service.drain(out);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(json_parse_u64(out[0], "traces", traces));
  EXPECT_EQ(traces, 1u);
  std::string echoed;
  ASSERT_TRUE(json_parse_string(out[0], "trace", echoed));
  EXPECT_EQ(echoed, expected_id);
  std::string error;
  ASSERT_TRUE(json_parse_string(out[1], "error", error));
  EXPECT_EQ(error, "trace: unknown trace id \"ffffffffffffffff\"");
}

TEST(Service, TraceStreamIsThreadCountInvariant) {
  const Graph grid = make_grid(7, 5);
  const Graph ladder = make_ladder(9);
  Rng rng(3);
  const Graph gnp = make_gnp(48, gnp_p_for_degree(48, 3.0), rng);
  std::vector<std::string> lines;
  lines.push_back(solve_line("a", grid));
  lines.push_back(solve_line("b", ladder, ",\"budget\":4"));
  lines.push_back(solve_line("c", gnp, ",\"trace\":\"00000000000000aa\""));
  lines.push_back(solve_line("d", grid));  // cache hit
  lines.push_back("{\"id\":\"t\",\"op\":\"trace\"}");
  lines.push_back("{\"id\":\"s\",\"op\":\"stats\"}");
  const auto one = strip_timing(run_sequence(test_options(1), lines));
  const auto two = strip_timing(run_sequence(test_options(2), lines));
  const auto eight = strip_timing(run_sequence(test_options(8), lines));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // The trace export survived the strip with its structure intact.
  const std::string& trace_response = one[4];
  EXPECT_NE(trace_response.find("kl.pass"), std::string::npos)
      << trace_response;
  EXPECT_EQ(trace_response.find("_us"), std::string::npos);
}

// Path-optimization trials emit their po.pass convergence points as
// sub-spans, whether the request names the method or races it on the
// balanced rung.
TEST(Service, TraceCarriesPathOptSubSpans) {
  const Graph g = make_grid(6, 6);
  const std::vector<std::string> out = run_sequence(
      test_options(),
      {solve_line("p", g, ",\"method\":\"path\",\"trace\":\"00000000000000a1\""),
       solve_line("b", g,
                  ",\"quality\":\"balanced\",\"trace\":\"00000000000000b2\""),
       "{\"id\":\"t\",\"op\":\"trace\"}"});
  ASSERT_EQ(out.size(), 3u);
  std::string spans;
  ASSERT_TRUE(json_parse_string(out[2], "spans", spans)) << out[2];
  for (const char* trace : {"00000000000000a1", "00000000000000b2"}) {
    std::istringstream sets(spans);
    std::string set;
    bool found = false;
    while (std::getline(sets, set)) {
      if (set.find("\"trace\":\"" + std::string(trace) + "\"") ==
          std::string::npos) {
        continue;
      }
      found = true;
      EXPECT_NE(set.find("\"name\":\"po.pass\""), std::string::npos)
          << trace << ": " << set;
    }
    EXPECT_TRUE(found) << trace << " missing in " << spans;
  }
}

TEST(Service, TraceIdsPropagateThroughMutateWarmChains) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(solve_line("p", g), out);
  service.submit_line(
      mutate_inline_line("m", g, ",\"add_edges\":[0,35]"), out);
  service.drain(out);
  std::string child_fp;
  ASSERT_TRUE(json_parse_string(out[1], "fingerprint", child_fp));
  out.clear();
  service.submit_line(solve_ref_line("s", child_fp), out);
  service.drain(out);
  bool is_warm = false;
  ASSERT_TRUE(json_parse_bool(out[0], "warm", is_warm)) << out[0];
  ASSERT_TRUE(is_warm);

  // Each request in the chain keeps its own derived id (conn 0,
  // ordinals 0..2), and the warm solve's set records the projection
  // and the bounded refinement.
  const FlightRecorder& flight = service.flight();
  ASSERT_EQ(flight.completed().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(flight.completed()[i].trace_id, splitmix64_at(0, i));
  }
  const SpanSet& warm_set = flight.completed()[2];
  EXPECT_EQ(warm_set.op, "solve");
  std::vector<std::string> names;
  for (const SpanRec& span : warm_set.spans) names.push_back(span.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "warm.project"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "warm.refine"),
            names.end());
  // The mutate set records the mutate phase-1 span, not a solve.
  const SpanSet& mutate_set = flight.completed()[1];
  names.clear();
  for (const SpanRec& span : mutate_set.spans) names.push_back(span.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "mutate"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "solve"), names.end());
}

TEST(Service, WarmRestartKeepsIdsAndReemitsSpansOnlyForLiveWork) {
  const std::string path = temp_journal("svc_trace_restart.jsonl");
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  options.cache_file = path;

  std::uint64_t cold_trace = 0;
  {
    Service service(options);
    std::vector<std::string> out;
    service.submit_line(solve_line("a", g), out);
    service.drain(out);
    ASSERT_EQ(service.flight().completed().size(), 1u);
    cold_trace = service.flight().completed()[0].trace_id;
    const SpanSet& cold_set = service.flight().completed()[0];
    bool has_solve = false;
    for (const SpanRec& span : cold_set.spans) {
      has_solve = has_solve || span.name == "solve";
    }
    EXPECT_TRUE(has_solve);
  }

  // Restart: the journal replays the result, so the same request
  // answers as a warm hit. Its trace id derives identically (same
  // connection, same ordinal) — but the span set is the hit's own
  // live work: no solve span is re-emitted for work that never ran.
  Service warm(options);
  std::vector<std::string> out;
  warm.submit_line(solve_line("a", g), out);
  warm.drain(out);
  std::string cache;
  ASSERT_TRUE(json_parse_string(out[0], "cache", cache));
  EXPECT_EQ(cache, "hit");
  ASSERT_EQ(warm.flight().completed().size(), 1u);
  const SpanSet& hit_set = warm.flight().completed()[0];
  EXPECT_EQ(hit_set.trace_id, cold_trace);
  bool has_solve = false, has_lookup = false;
  for (const SpanRec& span : hit_set.spans) {
    has_solve = has_solve || span.name == "solve";
    has_lookup = has_lookup || span.name == "lookup";
  }
  EXPECT_FALSE(has_solve);
  EXPECT_TRUE(has_lookup);
}

TEST(Service, RejectedRequestsCarryTotalTimingAndATraceId) {
  const Graph g = make_grid(6, 6);
  const std::string path = testing::TempDir() + "svc_access_reject.jsonl";
  std::remove(path.c_str());
  SvcOptions options = test_options();
  options.batch_size = 100;  // hold the queue so the bound trips
  options.max_queue = 2;
  options.access_log_path = path;
  {
    Service service(options);
    std::vector<std::string> out;
    service.submit_line(solve_line("a", g), out);
    service.submit_line(solve_line("b", g, ",\"seed\":5"), out);
    service.submit_line(solve_line("c", g, ",\"seed\":6"), out);  // bounces
    ASSERT_EQ(out.size(), 1u);  // the reject answered immediately
    service.drain(out);
  }
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  // The reject is first in the log (it never waited) and carries the
  // same observability surface as a served request.
  std::string status, trace;
  ASSERT_TRUE(json_parse_string(lines[0], "status", status));
  EXPECT_EQ(status, "rejected");
  ASSERT_TRUE(json_parse_string(lines[0], "trace", trace));
  EXPECT_EQ(trace, to_hex16(splitmix64_at(0, 2)));
  std::uint64_t t_total = 0;
  EXPECT_TRUE(json_parse_u64(lines[0], "t_total_us", t_total));
  // The rejected set lands in the flight ring too, marked as such.
  for (const std::string& logged : lines) {
    EXPECT_NE(logged.find("\"t_total_us\":"), std::string::npos) << logged;
  }
}

TEST(AccessLog, RotatesAtTheConfiguredBound) {
  const std::string path = testing::TempDir() + "svc_access_rotate.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  AccessEntry entry;
  entry.id = "x";
  entry.op = "ping";
  entry.status = "ok";
  const std::size_t line_bytes = encode_access_entry(entry).size() + 1;
  {
    AccessLog log(path, 3 * line_bytes);
    for (int i = 0; i < 4; ++i) log.append(entry);
    log.flush();
    // 3 lines fit; the 4th rotated them out and started fresh.
    std::istringstream current(read_file(path));
    std::string line;
    int kept = 0;
    while (std::getline(current, line)) ++kept;
    EXPECT_EQ(kept, 1);
    std::istringstream rolled(read_file(path + ".1"));
    int archived = 0;
    while (std::getline(rolled, line)) ++archived;
    EXPECT_EQ(archived, 3);
  }
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(Service, StatsV5ReportsTheTracingSurface) {
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  Service service(options);
  std::vector<std::string> out;
  service.submit_line(solve_line("a", g), out);
  service.drain(out);
  out.clear();
  service.submit_line("{\"id\":\"s\",\"op\":\"stats\"}", out);
  service.drain(out);
  ASSERT_EQ(out.size(), 1u);
  std::uint64_t value = 0;
  ASSERT_TRUE(json_parse_u64(out[0], "stats_version", value));
  EXPECT_EQ(value, 5u);
  ASSERT_TRUE(json_parse_u64(out[0], "trace_spans", value));
  EXPECT_GT(value, 0u);
  EXPECT_TRUE(json_parse_u64(out[0], "trace_exports", value));
  ASSERT_TRUE(json_parse_u64(out[0], "flight_ring", value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(json_parse_u64(out[0], "flight_capacity", value));
  EXPECT_EQ(value, 64u);
  EXPECT_TRUE(json_parse_u64(out[0], "flight_inflight", value));
  // Exemplars: the solve is the max (and only) sample, so its derived
  // id is the exemplar on both request-latency and queue-wait.
  std::string exemplar;
  ASSERT_TRUE(
      json_parse_string(out[0], "request_latency_exemplar_us", exemplar));
  EXPECT_EQ(exemplar, to_hex16(splitmix64_at(0, 0)));
  ASSERT_TRUE(
      json_parse_string(out[0], "solve_latency_exemplar_us", exemplar));
  EXPECT_EQ(exemplar, to_hex16(splitmix64_at(0, 0)));
}

TEST(Service, FlightFileArmsTheSignalDump) {
  const std::string path = testing::TempDir() + "svc_flight_dump.jsonl";
  std::remove(path.c_str());
  const Graph g = make_grid(6, 6);
  SvcOptions options = test_options();
  options.batch_size = 1;
  options.flight_file = path;
  options.flight_ring = 8;
  {
    Service service(options);
    ASSERT_TRUE(service.flight_ok());
    std::vector<std::string> out;
    service.submit_line(solve_line("a", g), out);
    service.drain(out);
    // The hook path the SIGQUIT handler takes, invoked directly (a
    // raise() would take down the whole test runner under sanitizers'
    // signal interception).
    trigger_flight_dump();
  }
  const std::string dump = read_file(path);
  EXPECT_NE(dump.find("\"state\":\"done\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"trace\":\"" + to_hex16(splitmix64_at(0, 0)) + "\""),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gbis
