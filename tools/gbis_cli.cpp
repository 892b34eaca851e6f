// gbis — the command-line front end. Everything the library does,
// scriptable:
//
//   gbis gen <model> <args...> <out.graph>        generate an instance
//     models: gbreg <2n> <b> <d> | g2set <2n> <deg> <b> | gnp <n> <deg>
//             grid <rows> <cols> | ladder <rungs> | bintree <n>
//             geometric <n> <deg> | smallworld <n> <k> <beta>
//             prefattach <n> <m>
//   gbis solve <in.graph> <method> [out.part]     bisect (kl sa ckl csa
//                                                 fm cfm mlkl greedy path
//                                                 greedy_hc spectral
//                                                 random quench)
//   gbis campaign <methods-csv> <graph...>        fault-isolated trial
//     [--starts N] [--deadline S]                 matrix with optional
//     [--journal J] [--resume J]                  checkpointing/resume
//   gbis kway <in.graph> <k> [out.part]           recursive k-way (CKL)
//   gbis eval <in.graph> <in.part>                score a partition
//   gbis stats <in.graph>                         structural report
//   gbis convert <in.graph> <out.{graph|metis|dot}>
//   gbis serve [--replay FILE] [flags]            NDJSON partition
//                                                 service on stdin/
//                                                 stdout (docs/
//                                                 SERVICE.md)
//
// Graph files are gbis edge-list format unless the name ends in
// ".metis". Global flags, accepted anywhere: --seed <n> (default 42),
// --threads <n> (trial-runner workers; default 0 = hardware
// concurrency; cuts are identical for any value), plus the
// observability trio --metrics <file> / --trace-dir <dir> /
// --progress (env forms GBIS_METRICS / GBIS_TRACE_DIR /
// GBIS_PROGRESS; the flags win). `--help` prints the full reference.
//
// Exit codes: 0 success, 1 internal error, 2 usage error, 3 I/O error,
// 130 interrupted (SIGINT/SIGTERM; campaigns journal first). All
// diagnostics go to stderr; stdout carries only results.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gbis/baseline/hill_climb.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/models.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/analysis.hpp"
#include "gbis/graph/ops.hpp"
#include "gbis/harness/checkpoint.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/harness/shutdown.hpp"
#include "gbis/harness/table.hpp"
#include "gbis/harness/timer.hpp"
#include "gbis/io/dot.hpp"
#include "gbis/io/edge_list.hpp"
#include "gbis/io/io_error.hpp"
#include "gbis/io/metis.hpp"
#include "gbis/io/partition_io.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/kway/recursive.hpp"
#include "gbis/kway/refine.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/partition/metrics.hpp"
#include "gbis/obs/progress.hpp"
#include "gbis/obs/prom_export.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/svc/listener.hpp"
#include "gbis/svc/scheduler.hpp"
#include "gbis/util/json_lite.hpp"

#include <fstream>

namespace {

using namespace gbis;

// Exit codes (documented in --help and docs/ROBUSTNESS.md).
constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitInterrupted = 130;  // 128 + SIGINT, shell convention

void print_help(std::ostream& out) {
  out << "gbis — graph bisection toolkit (KL / SA / compaction)\n"
         "\n"
         "usage: gbis [--seed N] [--threads N] <command> <args...>\n"
         "\n"
         "commands:\n"
         "  gen <model> <args...> <out.graph>   generate an instance\n"
         "      gbreg <2n> <b> <d> | g2set <2n> <deg> <b> | gnp <n> <deg>\n"
         "      grid <rows> <cols> | ladder <rungs> | bintree <n>\n"
         "      geometric <n> <deg> | smallworld <n> <k> <beta>\n"
         "      prefattach <n> <m>\n"
         "  solve <in.graph> <method> [out.part]\n"
         "      methods: kl sa ckl csa fm cfm mlkl greedy path greedy_hc\n"
         "      spectral random quench\n"
         "  campaign <methods-csv> <graph...> [flags]\n"
         "      runs every (graph, method, start) as a fault-isolated\n"
         "      trial; failures degrade cells instead of aborting\n"
         "      --starts N     independent starts per cell (default 2)\n"
         "      --deadline S   per-trial budget in seconds (default: none)\n"
         "      --journal J    checkpoint completed trials to JSONL file J\n"
         "      --resume J     adopt completed trials from J and continue\n"
         "  kway <in.graph> <k> [out.part]      recursive k-way (CKL)\n"
         "  eval <in.graph> <in.part>           score a partition\n"
         "  stats <in.graph>                    structural report\n"
         "  convert <in.graph> <out.{graph|metis|dot}>\n"
         "  serve [flags]                       NDJSON partition service:\n"
         "      one request object per stdin line, one response per\n"
         "      stdout line, in request order (schema: docs/SERVICE.md).\n"
         "      Response streams are byte-identical for any --threads /\n"
         "      GBIS_THREADS value.\n"
         "      --replay FILE  read requests from FILE instead of stdin\n"
         "      --batch N      dispatch window / coalescing width (16)\n"
         "      --max-queue N  admission bound; overflow is rejected (256)\n"
         "      --cache-mb N   result-cache budget in MiB, 0 = off (64;\n"
         "                     env GBIS_SVC_CACHE_MB, flag wins)\n"
         "      --cache-file F durable result-cache journal; a restart\n"
         "                     replays it so pre-crash solves answer as\n"
         "                     byte-identical warm hits (env\n"
         "                     GBIS_SVC_CACHE_FILE, flag wins)\n"
         "      --graph-mb N   graph-store budget in MiB for graphs\n"
         "                     referenced by fingerprint (256; env\n"
         "                     GBIS_SVC_GRAPH_MB, flag wins)\n"
         "      --no-warm      disable lineage warm-start solves; every\n"
         "                     solve runs the cold portfolio (env\n"
         "                     GBIS_SVC_WARM=0)\n"
         "      --no-brownout  disable the overload brownout ladder\n"
         "                     (env GBIS_SVC_BROWNOUT=0)\n"
         "      --brownout-window N  cold solves in the deadline-miss\n"
         "                     window the brownout controller watches\n"
         "                     (32; env GBIS_SVC_BROWNOUT_WINDOW)\n"
         "      --budget N     default trials per solve request (2)\n"
         "      --quality Q    default ladder rung for auto solves:\n"
         "                     fast|balanced|best (best; env\n"
         "                     GBIS_SVC_QUALITY, flag wins)\n"
         "      --deadline S   default per-request deadline (none)\n"
         "      --access-log F append one JSON line per request to F\n"
         "                     (env GBIS_SVC_ACCESS_LOG, flag wins)\n"
         "      --access-log-max-mb N  rotate the access log to F.1 when\n"
         "                     appending would cross N MiB (0 = unbounded;\n"
         "                     env GBIS_SVC_ACCESS_LOG_MAX_MB)\n"
         "      --flight-file F arm the flight recorder: SIGQUIT and the\n"
         "                     crash path dump recent + in-flight request\n"
         "                     spans to F as JSONL (env GBIS_SVC_FLIGHT)\n"
         "      --flight-ring N completed span sets the recorder retains\n"
         "                     (64; env GBIS_SVC_FLIGHT_RING)\n"
         "      --slow-ms M    keep only requests of at least M ms in\n"
         "                     <trace-dir>/trace.json (default: all the\n"
         "                     flight ring holds; env GBIS_SVC_SLOW_MS,\n"
         "                     flag wins)\n"
         "      --stats-file F republish a Prometheus text exposition\n"
         "                     to F (atomic rename), plus once at exit\n"
         "      --stats-interval S  seconds between republishes (10)\n"
         "      --listen HOST:PORT  serve NDJSON over TCP instead of\n"
         "                     stdio (port 0 = ephemeral; env\n"
         "                     GBIS_SVC_LISTEN, flag wins)\n"
         "      --listen-unix PATH  ditto on a Unix-domain socket (env\n"
         "                     GBIS_SVC_LISTEN_UNIX); both listeners may\n"
         "                     run at once; neither combines with\n"
         "                     --replay\n"
         "      --max-conns N  connection bound; accepts beyond it get\n"
         "                     one structured reject line (1024)\n"
         "      --conn-quota N per-connection in-flight request bound\n"
         "                     (64)\n"
         "      --write-timeout S  disconnect a client making no read\n"
         "                     progress for S seconds (10)\n"
         "      --max-line-bytes N  reject request lines longer than N\n"
         "                     bytes and resync (4194304)\n"
         "      --ready-file F publish the bound endpoints to F once\n"
         "                     listening (how scripts find port 0)\n"
         "      Runs a single-threaded poll(2) loop; SIGINT/SIGTERM\n"
         "      stops accepting, answers everything admitted, and exits\n"
         "      130; a second signal skips the pending answers and just\n"
         "      flushes logs before exiting 130. Per-connection response\n"
         "      streams keep the stdio determinism contract for any\n"
         "      --threads value.\n"
         "      Request {\"op\":\"stats\"} reports counters, gauges, and\n"
         "      latency summaries; \"format\":\"prom\" returns the\n"
         "      Prometheus exposition instead. {\"op\":\"trace\"} exports\n"
         "      recent request spans (or one set by trace id). --progress\n"
         "      shows a live requests/s line on stderr.\n"
         "\n"
         "global flags:\n"
         "  --seed N        base seed (default 42)\n"
         "  --threads N     trial-runner workers (default 0 = hardware\n"
         "                  concurrency; cuts are bit-identical for any\n"
         "                  value)\n"
         "  --metrics FILE  write aggregated per-trial metrics JSON\n"
         "  --trace-dir D   write convergence.{jsonl,csv} and a Chrome/\n"
         "                  Perfetto trace.json under directory D\n"
         "  --progress      live stderr progress line for trial batches\n"
         "\n"
         "exit codes:\n"
         "  0    success\n"
         "  1    internal error (bug or unexpected failure)\n"
         "  2    usage error (bad command line)\n"
         "  3    I/O error (missing/malformed file)\n"
         "  130  interrupted by SIGINT/SIGTERM; an interrupted campaign\n"
         "       flushes its journal first and prints a --resume hint\n"
         "\n"
         "Diagnostics go to stderr; stdout carries only results.\n"
         "GBIS_FAULTS=kind@trial:ID[,...] injects deterministic faults\n"
         "into campaign trials (kinds: throw, hang, stop) — see\n"
         "docs/ROBUSTNESS.md. GBIS_METRICS, GBIS_TRACE_DIR, and\n"
         "GBIS_PROGRESS=1 are the environment forms of --metrics,\n"
         "--trace-dir, and --progress (flags win); GBIS_SVC_CACHE_MB,\n"
         "GBIS_SVC_CACHE_FILE, GBIS_SVC_ACCESS_LOG, GBIS_SVC_SLOW_MS,\n"
         "GBIS_SVC_BROWNOUT, GBIS_SVC_BROWNOUT_WINDOW, GBIS_SVC_GRAPH_MB,\n"
         "GBIS_SVC_WARM, GBIS_SVC_QUALITY, GBIS_SVC_FLIGHT,\n"
         "GBIS_SVC_FLIGHT_RING, and GBIS_SVC_ACCESS_LOG_MAX_MB do the same\n"
         "for the serve flags; GBIS_SVC_FAULTS=kind@site:N[,...] injects\n"
         "service-scoped faults (kinds: throw, hang, oom, crash; sites:\n"
         "req, solve, batch) — see docs/OBSERVABILITY.md,\n"
         "docs/SERVICE.md, docs/ROBUSTNESS.md, and the README env-var\n"
         "table.\n";
}

[[noreturn]] void usage() {
  std::cerr << "usage: gbis [--seed N] [--threads N] <command> <args...>\n"
               "commands: gen | solve | campaign | kway | eval | stats | "
               "convert | serve\n"
               "run 'gbis --help' for the full reference\n";
  std::exit(kExitUsage);
}

bool ends_with(const std::string& value, const std::string& suffix) {
  return value.size() >= suffix.size() &&
         value.compare(value.size() - suffix.size(), suffix.size(),
                       suffix) == 0;
}

Graph load_graph(const std::string& path) {
  return ends_with(path, ".metis") ? read_metis_file(path)
                                   : read_edge_list_file(path);
}

void save_graph(const std::string& path, const Graph& g) {
  if (ends_with(path, ".metis")) {
    write_metis_file(path, g);
  } else if (ends_with(path, ".dot")) {
    write_dot_file(path, g);
  } else {
    write_edge_list_file(path, g);
  }
}

// Numeric arguments must be whole: empty text, trailing text, a sign on
// an unsigned value, a value past the target type and a non-finite
// double are all usage errors.
[[noreturn]] void bad_number(const std::string& s) {
  std::cerr << "gbis: malformed number \"" << s << "\"\n";
  usage();
}

double to_double(const std::string& s) {
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(value)) bad_number(s);
  return value;
}
std::uint64_t to_u64(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (std::isdigit(static_cast<unsigned char>(s.c_str()[0])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    bad_number(s);
  }
  return value;
}
std::uint32_t to_u32(const std::string& s) {
  const std::uint64_t value = to_u64(s);
  if (value > std::numeric_limits<std::uint32_t>::max()) bad_number(s);
  return static_cast<std::uint32_t>(value);
}
/// A whole-mebibyte budget whose byte value fits in 64 bits.
std::uint64_t to_mebibytes(const std::string& s) {
  const std::uint64_t value = to_u64(s);
  if (value > kMaxMebibytes) bad_number(s);
  return value;
}

int cmd_gen(const std::vector<std::string>& args, Rng& rng) {
  if (args.size() < 2) usage();
  const std::string& model = args[0];
  const std::string& out_path = args.back();
  Graph g;
  if (model == "gbreg" && args.size() == 5) {
    g = make_regular_planted({to_u32(args[1]), to_u64(args[2]),
                              to_u32(args[3])},
                             rng);
  } else if (model == "g2set" && args.size() == 5) {
    g = make_planted(
        planted_params_for_degree(to_u32(args[1]), to_double(args[2]),
                                  to_u64(args[3])),
        rng);
  } else if (model == "gnp" && args.size() == 4) {
    g = make_gnp(to_u32(args[1]),
                 gnp_p_for_degree(to_u32(args[1]), to_double(args[2])), rng);
  } else if (model == "grid" && args.size() == 4) {
    g = make_grid(to_u32(args[1]), to_u32(args[2]));
  } else if (model == "ladder" && args.size() == 3) {
    g = make_ladder(to_u32(args[1]));
  } else if (model == "bintree" && args.size() == 3) {
    g = make_binary_tree(to_u32(args[1]));
  } else if (model == "geometric" && args.size() == 4) {
    g = make_geometric(
        to_u32(args[1]),
        geometric_radius_for_degree(to_u32(args[1]), to_double(args[2])),
        rng);
  } else if (model == "smallworld" && args.size() == 5) {
    g = make_small_world(to_u32(args[1]), to_u32(args[2]),
                         to_double(args[3]), rng);
  } else if (model == "prefattach" && args.size() == 4) {
    g = make_preferential_attachment(to_u32(args[1]), to_u32(args[2]), rng);
  } else {
    usage();
  }
  save_graph(out_path, g);
  std::cout << "wrote " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges to " << out_path << '\n';
  return kExitOk;
}

Method parse_method(const std::string& name) {
  Method method;
  if (method_from_name(name, method)) return method;
  throw std::invalid_argument("unknown method: " + name);
}

int cmd_solve(const std::vector<std::string>& args, Rng& rng,
              std::uint32_t threads, const ObsOptions& obs) {
  if (args.size() < 2 || args.size() > 3) usage();
  const Graph g = load_graph(args[0]);

  // "quench" is CLI-only (not a harness Method): run it directly.
  std::vector<std::uint8_t> sides;
  Weight cut = 0;
  const WallTimer timer;
  if (args[1] == "quench") {
    Bisection b = Bisection::random(g, rng);
    hill_climb(b, rng);
    cut = b.cut();
    sides.assign(b.sides().begin(), b.sides().end());
  } else {
    const Method method = parse_method(args[1]);
    RunConfig config;
    config.starts = 2;
    config.threads = threads;
    config.obs = obs;
    const RunResult result = run_method(g, method, rng, config, &sides);
    cut = result.best_cut;
    std::cout << "cut " << cut << " in " << result.cpu_seconds
              << " cpu-s (" << result.wall_seconds << " wall-s) over "
              << config.starts << " starts\n";
    if (result.degraded_starts > 0) {
      std::cerr << "warning: " << result.degraded_starts
                << " start(s) did not finish";
      if (!result.first_error.empty()) {
        std::cerr << " (" << result.first_error << ")";
      }
      std::cerr << "; best cut is over the remaining starts\n";
    }
    if (args.size() == 3) {
      std::vector<std::uint32_t> parts(sides.begin(), sides.end());
      write_partition_file(args[2], parts);
      std::cout << "wrote partition to " << args[2] << '\n';
    }
    return kExitOk;
  }
  const double seconds = timer.elapsed_seconds();
  std::cout << "cut " << cut << " in " << seconds << " s\n";
  if (args.size() == 3) {
    std::vector<std::uint32_t> parts(sides.begin(), sides.end());
    write_partition_file(args[2], parts);
    std::cout << "wrote partition to " << args[2] << '\n';
  }
  return kExitOk;
}

std::vector<Method> parse_method_csv(const std::string& csv) {
  std::vector<Method> methods;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::string name =
        csv.substr(begin, comma == std::string::npos ? std::string::npos
                                                     : comma - begin);
    if (!name.empty()) methods.push_back(parse_method(name));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (methods.empty()) {
    throw std::invalid_argument("campaign: no methods in \"" + csv + "\"");
  }
  return methods;
}

int cmd_campaign(const std::vector<std::string>& args, std::uint64_t seed,
                 std::uint32_t threads, const ObsOptions& obs) {
  RunConfig config;
  config.starts = 2;
  config.threads = threads;
  config.obs = obs;
  CampaignOptions options;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto flag_value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage();
      return args[++i];
    };
    if (arg == "--starts") {
      config.starts = to_u32(flag_value());
      if (config.starts == 0) usage();
    } else if (arg == "--deadline") {
      config.trial_deadline = to_double(flag_value());
    } else if (arg == "--journal") {
      options.journal_path = flag_value();
    } else if (arg == "--resume") {
      options.resume_path = flag_value();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "campaign: unknown flag " << arg << '\n';
      usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) usage();
  // Resuming without a fresh journal path continues the same journal.
  if (options.journal_path.empty() && !options.resume_path.empty()) {
    options.journal_path = options.resume_path;
  }

  const std::vector<Method> methods = parse_method_csv(positional[0]);
  std::vector<Graph> graphs;
  std::vector<std::string> graph_names;
  for (std::size_t i = 1; i < positional.size(); ++i) {
    graphs.push_back(load_graph(positional[i]));
    graph_names.push_back(positional[i]);
  }

  install_shutdown_handlers();
  options.stop = &shutdown_flag();

  const WallTimer timer;
  const CampaignResult result =
      run_campaign(graphs, methods, config, seed, options);

  // Per-cell table: best cut for ok cells, the status marker otherwise.
  std::vector<TablePrinter::Column> columns{{"graph", 20}};
  for (const Method m : methods) columns.push_back({method_name(m), 8});
  TablePrinter table(std::cout, std::move(columns));
  table.print_header();
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    table.cell(graph_names[g]);
    for (std::size_t m = 0; m < methods.size(); ++m) {
      const MethodOutcome& cell = result.cells[g * methods.size() + m];
      if (cell.status == TrialStatus::kOk) {
        table.cell(static_cast<std::int64_t>(cell.best_cut));
      } else {
        table.cell(trial_status_cell(cell.status));
      }
    }
    table.end_row();
  }
  std::cout << "trials: " << result.ok << " ok, " << result.failed
            << " failed, " << result.timed_out << " timed out, "
            << result.skipped << " skipped";
  if (result.resumed > 0) std::cout << " (" << result.resumed << " resumed)";
  std::cout << "; wall " << timer.elapsed_seconds() << " s\n";
  if (result.failed > 0 || result.timed_out > 0) {
    std::cerr << "warning: " << (result.failed + result.timed_out)
              << " trial(s) degraded (err = failed, t/o = deadline)\n";
  }

  if (result.interrupted) {
    std::cerr << "interrupted: " << result.skipped << " trial(s) not run";
    if (!options.journal_path.empty()) {
      std::cerr << "; resume with: gbis campaign ... --resume "
                << options.journal_path;
    }
    std::cerr << '\n';
    return kExitInterrupted;
  }
  return kExitOk;
}

int cmd_kway(const std::vector<std::string>& args, Rng& rng) {
  if (args.size() < 2 || args.size() > 3) usage();
  const Graph g = load_graph(args[0]);
  const std::uint32_t k = to_u32(args[1]);
  const WallTimer timer;
  KwayPartition p = recursive_kway(g, k, rng);
  p = kway_refine(p, rng);
  std::cout << "k=" << k << " edge cut " << p.edge_cut()
            << ", balance factor " << p.balance_factor() << ", in "
            << timer.elapsed_seconds() << " s\n";
  if (args.size() == 3) {
    write_partition_file(args[2],
                         std::vector<std::uint32_t>(p.parts().begin(),
                                                    p.parts().end()));
    std::cout << "wrote partition to " << args[2] << '\n';
  }
  return kExitOk;
}

int cmd_eval(const std::vector<std::string>& args) {
  if (args.size() != 2) usage();
  const Graph g = load_graph(args[0]);
  const auto parts = read_partition_file(args[1], g.num_vertices());
  std::uint32_t k = 1;
  for (std::uint32_t p : parts) k = std::max(k, p + 1);
  const KwayPartition partition(g, k, parts);
  std::cout << "k=" << k << " edge cut " << partition.edge_cut()
            << ", balance factor " << partition.balance_factor()
            << ", max count spread " << partition.max_count_spread() << '\n';
  if (k == 2) {
    std::vector<std::uint8_t> sides(parts.begin(), parts.end());
    const Bisection b(g, std::move(sides));
    const BisectionMetrics m = bisection_metrics(b);
    std::cout << "bisection: conductance " << m.conductance
              << ", expansion " << m.expansion << ", vs-random "
              << m.vs_random << '\n';
  }
  return kExitOk;
}

int cmd_stats(const std::vector<std::string>& args) {
  if (args.size() != 1) usage();
  const Graph g = load_graph(args[0]);
  const DegreeStats degrees = degree_stats(g);
  std::cout << "vertices " << g.num_vertices() << ", edges "
            << g.num_edges() << '\n';
  std::cout << "degree min/avg/max " << degrees.min << "/"
            << degrees.average << "/" << degrees.max << '\n';
  std::cout << "components " << connected_components(g).count
            << ", forest " << (is_forest(g) ? "yes" : "no") << '\n';
  if (g.num_vertices() > 0) {
    std::cout << "degeneracy " << degeneracy(g) << ", triangles "
              << triangle_count(g) << ", clustering "
              << global_clustering(g) << ", pseudo-diameter "
              << pseudo_diameter(g) << '\n';
  }
  return kExitOk;
}

int cmd_convert(const std::vector<std::string>& args) {
  if (args.size() != 2) usage();
  save_graph(args[1], load_graph(args[0]));
  std::cout << "converted " << args[0] << " -> " << args[1] << '\n';
  return kExitOk;
}

int cmd_serve(const std::vector<std::string>& args, std::uint64_t seed,
              std::uint32_t threads, const ObsOptions& obs) {
  // Env first (GBIS_SVC_CACHE_MB / GBIS_SVC_ACCESS_LOG /
  // GBIS_SVC_SLOW_MS), explicit flags override — the same precedence
  // as the observability knobs.
  SvcOptions options = svc_options_from_env(SvcOptions{});
  options.default_seed = seed;
  options.threads = threads;
  ListenerOptions listen = listener_options_from_env(ListenerOptions{});
  std::string replay_path;
  std::string stats_path;
  double stats_interval = 10.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto flag_value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage();
      return args[++i];
    };
    if (arg == "--replay") {
      replay_path = flag_value();
    } else if (arg == "--batch") {
      options.batch_size = to_u64(flag_value());
      if (options.batch_size == 0) usage();
    } else if (arg == "--max-queue") {
      options.max_queue = to_u64(flag_value());
      if (options.max_queue == 0) usage();
    } else if (arg == "--cache-mb") {
      options.cache_bytes = to_mebibytes(flag_value()) << 20;
    } else if (arg == "--cache-file") {
      options.cache_file = flag_value();
      if (options.cache_file.empty()) usage();
    } else if (arg == "--graph-mb") {
      options.graph_store_bytes = to_mebibytes(flag_value()) << 20;
    } else if (arg == "--no-warm") {
      options.warm = false;
    } else if (arg == "--no-brownout") {
      options.brownout = false;
    } else if (arg == "--brownout-window") {
      options.brownout_window = to_u32(flag_value());
      if (options.brownout_window == 0) usage();
    } else if (arg == "--budget") {
      options.default_budget = to_u32(flag_value());
      if (options.default_budget == 0) usage();
    } else if (arg == "--quality") {
      if (!quality_tier_from_name(flag_value(), options.default_quality)) {
        std::cerr << "serve: unknown quality tier\n";
        usage();
      }
    } else if (arg == "--deadline") {
      options.default_deadline_seconds = to_double(flag_value());
    } else if (arg == "--access-log") {
      options.access_log_path = flag_value();
      if (options.access_log_path.empty()) usage();
    } else if (arg == "--access-log-max-mb") {
      options.access_log_max_mb = to_mebibytes(flag_value());
    } else if (arg == "--flight-file") {
      options.flight_file = flag_value();
      if (options.flight_file.empty()) usage();
    } else if (arg == "--flight-ring") {
      options.flight_ring = to_u32(flag_value());
      if (options.flight_ring == 0) usage();
    } else if (arg == "--slow-ms") {
      options.slow_ms = to_double(flag_value());
      if (!(options.slow_ms >= 0)) usage();
    } else if (arg == "--stats-file") {
      stats_path = flag_value();
      if (stats_path.empty()) usage();
    } else if (arg == "--stats-interval") {
      stats_interval = to_double(flag_value());
      if (!(stats_interval > 0)) usage();
    } else if (arg == "--listen") {
      listen.tcp_endpoint = flag_value();
      if (listen.tcp_endpoint.empty()) usage();
    } else if (arg == "--listen-unix") {
      listen.unix_path = flag_value();
      if (listen.unix_path.empty()) usage();
    } else if (arg == "--max-conns") {
      listen.max_connections = to_u64(flag_value());
      if (listen.max_connections == 0) usage();
    } else if (arg == "--conn-quota") {
      listen.conn_request_quota = to_u64(flag_value());
      if (listen.conn_request_quota == 0) usage();
    } else if (arg == "--write-timeout") {
      listen.write_timeout_seconds = to_double(flag_value());
      if (!(listen.write_timeout_seconds > 0)) usage();
    } else if (arg == "--max-line-bytes") {
      listen.max_line_bytes = to_u64(flag_value());
      if (listen.max_line_bytes == 0) usage();
    } else if (arg == "--ready-file") {
      listen.ready_file = flag_value();
      if (listen.ready_file.empty()) usage();
    } else {
      std::cerr << "serve: unknown argument " << arg << '\n';
      usage();
    }
  }
  // The serve loop honors GBIS_THREADS like the experiment binaries
  // (an explicit --threads value wins; both produce identical bytes).
  if (options.threads == 0) {
    if (const char* v = std::getenv("GBIS_THREADS"); v != nullptr) {
      options.threads = to_u32(v);
    }
  }

  // Socket mode and the stdio determinism harness are distinct modes:
  // --replay exists to assert byte-identical response streams, which
  // only makes sense on the single stdin/stdout stream.
  const bool socket_mode =
      !listen.tcp_endpoint.empty() || !listen.unix_path.empty();
  if (socket_mode && !replay_path.empty()) {
    std::cerr << "serve: --replay cannot be combined with "
                 "--listen/--listen-unix\n";
    usage();
  }

  std::ifstream replay;
  if (!replay_path.empty()) {
    replay.open(replay_path);
    if (!replay.is_open()) {
      throw IoError("serve: cannot open replay file " + replay_path);
    }
  }
  std::istream& in = replay_path.empty() ? std::cin : replay;

  // Escalating handlers: the first SIGINT/SIGTERM drains gracefully;
  // a second one flips the escalation flag so the drain below answers
  // nothing new and just flushes what is already written.
  install_escalating_shutdown_handlers();
  // SIGQUIT dumps the flight recorder (when --flight-file armed it) and
  // keeps serving — the "what is it doing right now" probe.
  install_flight_dump_handler();
  const std::atomic<bool>& stop = shutdown_flag();

  Service service(options);
  if (!service.access_log_ok()) {
    throw IoError("serve: cannot open access log " + options.access_log_path);
  }
  if (!service.cache_store_ok()) {
    throw IoError("serve: cannot open cache journal " + options.cache_file);
  }
  if (!service.flight_ok()) {
    throw IoError("serve: cannot open flight file " + options.flight_file);
  }

  // --progress: the serve-style meter (open-ended total, requests/s).
  // Responses classify by their own bytes: ok, rejected:, or err.
  std::unique_ptr<ProgressMeter> meter;
  if (obs.progress) {
    meter = std::make_unique<ProgressMeter>(0, nullptr, 0.1,
                                            ProgressStyle::kRequests);
  }

  // --stats-file: a Prometheus text exposition of the service metrics,
  // republished atomically (tmp + rename) at most every
  // --stats-interval seconds, plus once at exit.
  const auto write_stats_snapshot = [&service, &stats_path]() {
    if (stats_path.empty()) return;
    const std::string tmp = stats_path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw IoError("serve: cannot open stats file " + tmp);
    service.write_prom(out);
    out.flush();
    if (!out) throw IoError("serve: stats write failed: " + tmp);
    out.close();
    std::error_code ec;
    std::filesystem::rename(tmp, stats_path, ec);
    if (ec) {
      throw IoError("serve: cannot publish stats file " + stats_path + ": " +
                    ec.message());
    }
  };
  const WallTimer stats_clock;
  double last_stats_write = 0;

  std::vector<std::string> responses;
  const auto emit = [&responses, &meter]() {
    for (const std::string& line : responses) {
      std::cout << line << '\n';
      if (meter != nullptr) {
        bool ok = false;
        json_parse_bool(line, "ok", ok);
        if (ok) {
          meter->record(ProgressOutcome::kOk);
        } else {
          std::string error;
          json_parse_string(line, "error", error);
          meter->record(error.rfind("rejected:", 0) == 0
                            ? ProgressOutcome::kSkipped
                            : ProgressOutcome::kFailed);
        }
      }
    }
    if (!responses.empty()) std::cout.flush();
    responses.clear();
  };

  if (socket_mode) {
    // Socket mode: the listener's event loop drives the service; the
    // --progress meter classifies via the per-response hook since
    // responses go to sockets, not stdout.
    if (meter != nullptr) {
      ProgressMeter* raw_meter = meter.get();
      listen.on_response = [raw_meter](const std::string& response) {
        bool ok = false;
        json_parse_bool(response, "ok", ok);
        if (ok) {
          raw_meter->record(ProgressOutcome::kOk);
        } else {
          std::string error;
          json_parse_string(response, "error", error);
          raw_meter->record(error.rfind("rejected:", 0) == 0
                                ? ProgressOutcome::kSkipped
                                : ProgressOutcome::kFailed);
        }
      };
    }
    Listener listener(service, listen);
    listener.start();
    if (!listener.tcp_endpoint().empty()) {
      std::cerr << "serve: listening tcp " << listener.tcp_endpoint() << '\n';
    }
    if (!listener.unix_endpoint().empty()) {
      std::cerr << "serve: listening unix " << listener.unix_endpoint()
                << '\n';
    }
    while (!stop.load(std::memory_order_acquire)) {
      listener.poll_once(/*timeout_ms=*/200, &stop);
      if (!stats_path.empty() &&
          stats_clock.elapsed_seconds() - last_stats_write >=
              stats_interval) {
        write_stats_snapshot();
        last_stats_write = stats_clock.elapsed_seconds();
      }
    }
    // SIGINT/SIGTERM: stop accepting, answer everything admitted,
    // flush, close — then the interrupted exit code below.
    listener.drain(&stop);
  } else {
    std::string line;
    while (!stop.load(std::memory_order_acquire) && std::getline(in, line)) {
      if (line.empty()) continue;
      service.submit_line(line, responses);
      if (service.pending() >= service.options().batch_size) {
        service.process_batch(responses, &stop);
      }
      emit();
      if (!stats_path.empty() &&
          stats_clock.elapsed_seconds() - last_stats_write >=
              stats_interval) {
        write_stats_snapshot();
        last_stats_write = stats_clock.elapsed_seconds();
      }
    }
    // EOF or shutdown: answer everything admitted (queued solves drain
    // as "shutdown" errors once the stop flag is up), then exit. A
    // second signal (escalation) skips even that — flush and go.
    if (!shutdown_escalated()) {
      service.drain(responses, &stop);
      emit();
    }
  }
  if (meter != nullptr) meter->finish();
  write_stats_snapshot();
  // The flight ring's completed span sets go to the same trace.json
  // slot the campaign exporter uses (the two modes never share a
  // --trace-dir run).
  if (!obs.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(obs.trace_dir, ec);
    if (ec) {
      throw IoError("serve: cannot create directory " + obs.trace_dir + ": " +
                    ec.message());
    }
    const std::string path =
        (std::filesystem::path(obs.trace_dir) / "trace.json").string();
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw IoError("serve: cannot open " + path);
    service.write_trace(out);
    out.flush();
    if (!out) throw IoError("serve: trace write failed: " + path);
  }
  return stop.load(std::memory_order_acquire) ? kExitInterrupted : kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::uint64_t seed = 42;
  std::uint32_t threads = 0;  // 0 = hardware concurrency
  // Env first (GBIS_METRICS / GBIS_TRACE_DIR / GBIS_PROGRESS), then the
  // explicit flags below override it.
  ObsOptions obs = obs_options_from_env();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0 ||
        std::strcmp(argv[i], "help") == 0) {
      print_help(std::cout);
      return kExitOk;
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) usage();  // dangling flag: don't eat it as a path
      seed = to_u64(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) usage();
      threads = to_u32(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) usage();
      obs.metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      if (i + 1 >= argc) usage();
      obs.trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      obs.progress = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.empty()) usage();
  const std::string command = args.front();
  args.erase(args.begin());
  Rng rng(seed);
  try {
    if (command == "gen") return cmd_gen(args, rng);
    if (command == "solve") return cmd_solve(args, rng, threads, obs);
    if (command == "campaign") return cmd_campaign(args, seed, threads, obs);
    if (command == "kway") return cmd_kway(args, rng);
    if (command == "eval") return cmd_eval(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "serve") return cmd_serve(args, seed, threads, obs);
  } catch (const IoError& error) {
    std::cerr << "error: " << error.what() << '\n';
    return kExitIo;
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << '\n';
    return kExitUsage;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return kExitInternal;
  }
  usage();
}
