"""The gbis benchmark workloads (see README.md for the rationale).

Each workload generates its inputs from the seed, drives the real
binaries from outside, checks every answer, and returns a Result. With
trace on, a shorter end-to-end pass records the request stream, which
the in-process replay (trace/gbis_trace.cpp) then times layer by layer.
"""

import bisect
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import time

import graphs as G
from serve import Server, dumps, tail_stat

SETUPS = 5            # set-ups per run; setup_s is their median
NPROC = os.cpu_count() or 1
LAYER_SUM_TOLERANCE_PCT = 15.0
RSS_ROUNDS = 6        # mutate-warm: rounds after which peak memory is read


class Context:
    def __init__(self, gbis, tracer, workdir, seed, seconds, trace, per_layer):
        self.gbis = gbis
        self.tracer = tracer
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.per_layer = per_layer  # metric names, from BENCHMARK.json


class Result:
    def __init__(self):
        self.metrics = {}
        self.notes = {}
        self.extra = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def problem(self, text):
        self.problems.append(text)


def run(name, ctx):
    if os.path.exists(ctx.workdir):
        shutil.rmtree(ctx.workdir)
    os.makedirs(ctx.workdir)
    os.chdir(ctx.workdir)  # short relative Unix-socket paths
    return {"cold-classes": cold_classes, "hot-repeat": hot_repeat,
            "mutate-warm": mutate_warm, "campaign": campaign}[name](ctx)


# ------------------------------------------------------------- helpers

def fill_tree_refs(ctx, graphs):
    """Exact widths for the trees, from the program's exact solver."""
    trees = [g for g in graphs if g.cls == "bintree"]
    if not trees:
        return
    paths = []
    for g in trees:
        paths.append(f"{g.name}.graph")
        g.write(paths[-1])
    out = subprocess.run([ctx.tracer, "refs", *paths], capture_output=True,
                         text=True, check=True).stdout.split()
    for g, width in zip(trees, out):
        g.ref = g.lower = int(width)


def check_solve(res, resp, graph, label):
    """Checks one solve response against the benchmark's copy of the
    graph. Returns the cut, or None after recording the problem."""
    if not resp.get("ok"):
        res.problem(f"{label}: not ok: {resp.get('error')}")
        return None
    cut, problem = G.recount(graph, resp.get("sides", ""))
    if problem:
        res.problem(f"{label}: {problem}")
        return None
    if cut != resp.get("cut"):
        res.problem(f"{label}: reported cut {resp.get('cut')} but sides cut {cut}")
        return None
    if graph.lower is not None and cut < graph.lower:
        res.problem(f"{label}: cut {cut} below the known width {graph.lower}")
        return None
    return cut


def same_answer(a, b):
    """Two responses to one solve identity agree on everything but the
    request id and the cache disposition."""
    strip = ("id", "cache")
    return ({k: v for k, v in a.items() if k not in strip} ==
            {k: v for k, v in b.items() if k not in strip})


def common_metrics(res, setups, cut_ratios, ok, attempted, rss_mib):
    res.metrics["setup_s"] = statistics.median(setups)
    res.notes["setup_s"] = f"median of {len(setups)} set-ups"
    res.metrics["cut_ratio"] = statistics.fmean(cut_ratios) if cut_ratios else 0.0
    res.notes["cut_ratio"] = f"mean of {len(cut_ratios)} cuts"
    res.metrics["ok_rate"] = ok / attempted if attempted else 0.0
    res.notes["ok_rate"] = f"{ok} of {attempted}"
    res.metrics["rss_peak_mb"] = rss_mib
    res.attempted += attempted
    res.failed += attempted - ok


def closed_loop_metrics(res, rounds, rates=None):
    """Metrics of a closed loop or batch, from its repeated rounds (each a
    list of per-op latencies in seconds). The median and the throughput
    are medians over rounds, so a burst of machine noise moves one round,
    not the result; the tail pools every op, as it needs the samples.
    `rates` overrides the per-round throughput (ops per wall second)."""
    pooled = [x * 1e3 for r in rounds for x in r]
    tail, q, beyond = tail_stat(pooled)
    res.metrics["latency_p50_ms"] = statistics.median(
        statistics.median(r) for r in rounds) * 1e3
    res.notes["latency_p50_ms"] = f"median over {len(rounds)} rounds"
    res.metrics["latency_tail_ms"] = tail
    res.notes["latency_tail_ms"] = f"p{q} of {len(pooled)} ({beyond} beyond)"
    rates = rates or [len(r) / sum(r) for r in rounds]
    res.metrics["ops_per_s"] = statistics.median(rates)
    res.notes["ops_per_s"] = f"median over {len(rates)} rounds, {len(pooled)} ops"


def cell_metrics(res, by_cell):
    """Metrics of a closed loop whose ops fall into cells of fixed work
    (`by_cell` maps a cell to its ops' latencies in seconds), each cell
    weighted equally however often it ran, so a run that stops mid-round
    does not tilt its mix toward the cells that ran last. The throughput
    is cells over the sum of the cells' mean latencies, one op of each
    cell in turn; the median is that of the equal-weight mixture; the
    tail pools every op."""
    pooled = [x * 1e3 for v in by_cell.values() for x in v]
    tail, q, beyond = tail_stat(pooled)
    res.metrics["latency_tail_ms"] = tail
    res.notes["latency_tail_ms"] = f"p{q} of {len(pooled)} ({beyond} beyond)"
    weighted = sorted((x, 1.0 / len(v)) for v in by_cell.values() for x in v)
    mass = 0.0
    for x, w in weighted:
        mass += w
        if mass >= len(by_cell) / 2:
            break
    res.metrics["latency_p50_ms"] = x * 1e3
    res.notes["latency_p50_ms"] = f"median over {len(by_cell)} equally weighted cells"
    means = [statistics.fmean(v) for v in by_cell.values()]
    res.metrics["ops_per_s"] = len(means) / sum(means)
    res.notes["ops_per_s"] = f"{len(pooled)} ops in {len(by_cell)} cells"


def per_layer_defaults(ctx, res):
    """Every per-layer metric is reported on every workload; a layer a
    workload does not use reads 0."""
    for name in ctx.per_layer:
        res.metrics.setdefault(name, 0.0)


def traced_replay(ctx, res, lines, e2e_lat_s, wire_bytes, extra_args=()):
    """Runs the in-process replay on the recorded request stream and
    folds its layer metrics, the layer-sum check and the tracing
    overhead into `res`. `e2e_lat_s` holds each line's end-to-end
    latency in the untraced pass (None where it was not timed)."""
    with open("trace-requests.ndjson", "w") as f:
        f.writelines(lines)
    out = subprocess.run(
        [ctx.tracer, "serve", "--requests", "trace-requests.ndjson",
         "--seconds", str(max(5.0, ctx.seconds)), "--out", "trace",
         *extra_args], capture_output=True, text=True)
    if out.returncode != 0:
        res.problem(f"traced replay failed: {out.stderr.strip()[-300:]}")
        return
    t = json.loads(out.stdout.strip().splitlines()[-1])
    t_req = t.pop("t_req_us")
    t_shadow = t.pop("t_shadow_us")
    for k, v in t.items():
        res.metrics[k] = v
    pairs = [(e, q + w) for e, q, w in zip(e2e_lat_s, t_req, t_shadow)
             if e is not None]
    e2e_s = sum(e for e, _ in pairs)
    res.metrics["trace.overhead_pct"] = (
        100.0 * (sum(x for _, x in pairs) / 1e6 - e2e_s) / e2e_s if e2e_s else 0.0)
    # The listener's share: what a request spends outside the Service
    # (socket, framing, poll loop), end-to-end minus in-process time.
    outside = [e * 1e6 - q for e, q in zip(e2e_lat_s, t_req) if e is not None]
    res.metrics["listener.busy_us_per_req"] = (
        statistics.median(outside) if outside else 0.0)
    res.metrics["listener.bytes_per_req"] = wire_bytes / len(lines)
    res.extra["traced_lines"] = len(t_req)
    layer_sum_check(res, t["trace.unattributed_pct"])


def coalesced_ratio(responses):
    """Share of solve responses answered as "cache":"coalesced" (one leader
    solved, followers in the same dispatch reused its answer)."""
    solves = [r for r in responses if b'"cache":' in r]
    return sum(b'"cache":"coalesced"' in r for r in solves) / max(1, len(solves))


def layer_sum_check(res, unattributed_pct):
    ok = abs(unattributed_pct) <= LAYER_SUM_TOLERANCE_PCT
    res.metrics["trace.layer_sum_ok"] = 1.0 if ok else 0.0
    if not ok:
        res.problem(f"layer-sum check: {unattributed_pct:.1f}% of in-process "
                    f"time unattributed (tolerance {LAYER_SUM_TOLERANCE_PCT}%)")


def stop_checked(res, srv):
    """Stops a server; a graceful SIGTERM drain exits 130."""
    rc = srv.stop()
    if rc != 130:
        res.problem(f"gbis serve exited {rc} on SIGTERM, expected 130")


# --------------------------------------------------------- cold-classes

def cold_classes(ctx):
    """Closed loop, one client, Unix socket: cold portfolio solves of the
    paper's classes at both parities, referenced by fingerprint."""
    res = Result()
    graphs = G.class_set(ctx.seed)
    fill_tree_refs(ctx, graphs)
    reg_lines = [dumps({"id": f"reg{i}", "inline": g.text(), "quality": "fast",
                        "budget": 1, "seed": 1, "want_sides": True})
                 for i, g in enumerate(graphs)]

    setups = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        srv = Server(ctx.gbis, ".", threads=1, tag=f"s{k}")
        conn = srv.connect()
        calls = [conn.call(line) for line in reg_lines]
        setups.append(time.perf_counter() - t0)
        reg = [json.loads(resp) for resp, _ in calls]
        if k + 1 < SETUPS:
            conn.close()
            stop_checked(res, srv)
    fps = []
    for g, r in zip(graphs, reg):
        check_solve(res, r, g, f"register {g.name}")
        fps.append(r.get("fingerprint"))

    seconds = ctx.seconds * (0.4 if ctx.trace else 1.0)
    rng = random.Random(f"cold-{ctx.seed}")
    # A round solves every graph once at each rung, `best` and `balanced`
    # alternating, each rung's graphs in a shuffled order. Every round thus
    # holds the same work; the odd-|V| `best` solves, whose SA may cool to
    # the temperature floor, cost several times the rest. The run stops at
    # the first request past the time limit once a round is complete.
    per_round = 2 * len(graphs)
    lat, sent, answers = [], [], []
    timed = 0.0
    k = 0
    while k < per_round or timed < seconds:
        if k % per_round == 0:
            best, balanced = list(range(len(graphs))), list(range(len(graphs)))
            rng.shuffle(best)
            rng.shuffle(balanced)
            order = [c for pair in zip(best, balanced)
                     for c in zip(pair, ("best", "balanced"))]
        gi, quality = order[k % per_round]
        line = dumps({"id": f"c{k}", "graph": fps[gi], "quality": quality,
                      "budget": 4, "seed": 1000 + k, "want_sides": True})
        resp, dt = conn.call(line)
        lat.append(dt)
        timed += dt
        sent.append(line)
        answers.append(((gi, quality), line, resp))
        k += 1
    rss = srv.vm_hwm_mib()
    wire = conn.sent_bytes + conn.recv_bytes

    ok, ratios = 0, []
    for (gi, _), line, resp in answers:
        r = json.loads(resp)
        cut = check_solve(res, r, graphs[gi], f"solve {json.loads(line)['id']}")
        if cut is not None:
            ok += 1
            ratios.append(cut / graphs[gi].ref)
    # Same identity, other dispositions: repeats answer from the cache
    # with the cold answer's bytes; a fresh server over TCP (another run,
    # another transport) recomputes the cheapest ones identically.
    for _, line, resp in answers[::3]:
        again = json.loads(conn.call(line)[0])
        if again.get("cache") != "hit" or not same_answer(again, json.loads(resp)):
            res.problem(f"repeat of {json.loads(line)['id']} differs from its cold answer")
    conn.close()
    stop_checked(res, srv)
    cheap = sorted(answers, key=lambda a: (graphs[a[0][0]].n, a[0][1] == "best"))[:2]
    fresh = Server(ctx.gbis, ".", threads=1, tcp=True, tag="v")
    vconn = fresh.connect("tcp")
    for (gi, _), line, resp in cheap:
        vconn.call(reg_lines[gi])
        again = json.loads(vconn.call(line)[0])
        if again.get("cache") != "miss" or not same_answer(again, json.loads(resp)):
            res.problem(f"fresh-server re-solve of {json.loads(line)['id']} differs")
    vconn.close()
    stop_checked(res, fresh)

    by_cell = {}
    for (cell, _, _), dt in zip(answers, lat):
        by_cell.setdefault(cell, []).append(dt)
    cell_metrics(res, by_cell)
    res.extra["cell_latency_ms"] = {f"{graphs[gi].name}/{q}": [dt * 1e3 for dt in v]
                                    for (gi, q), v in by_cell.items()}
    common_metrics(res, setups, ratios, ok, len(answers), rss)
    if ctx.trace:
        per_layer_defaults(ctx, res)
        res.metrics["scheduler.coalesced_ratio"] = coalesced_ratio(
            [resp for _, _, resp in answers])
        traced_replay(ctx, res, reg_lines + sent,
                      [dt for _, dt in calls] + lat, wire, ["--threads", "1"])
    return res


# ----------------------------------------------------------- hot-repeat

def hot_graphs(seed):
    """32 sparse Gnp graphs from 200 to 5000 vertices (inline payloads of
    about 2 to 75 KB). Sizes are fixed; the seed draws the instances."""
    rng = random.Random(f"hot-{seed}")
    return [G.gnp(rng, n, 3, name=f"h{i}-gnp{n}")
            for i, n in enumerate(round(200 * 25 ** (i / 31)) for i in range(32))]


def pipelined(conn, lines, window=32):
    """Set-up traffic: sends lines `window` at a time (under the server's
    per-connection in-flight quota) and reads their responses."""
    out = []
    for i in range(0, len(lines), window):
        chunk = lines[i:i + window]
        conn.send("".join(chunk))
        out += [conn.recv_line() for _ in chunk]
    return out


def hot_repeat(ctx):
    """Closed loop, one client, TCP: cache hits of a Zipf-popular graph
    set, most of them with the graph sent inline."""
    res = Result()
    graphs = hot_graphs(ctx.seed)
    rng = random.Random(f"hot-mix-{ctx.seed}")
    threads = max(1, min(3, NPROC - 1))  # server workers + this client <= nproc
    flags = ["--access-log", "access.log"]

    # Identities: graph x seed x quality, with Zipf popularity by size, the
    # largest graphs hottest: repeat traffic is then parse-bound, the
    # front-door cost this workload exists to measure, rather than bound
    # by per-request syscall overhead, which drifts with host load far
    # more than computation does. The order is the same for every seed;
    # the seed draws the graphs and the request order.
    idents = [(gi, s, q) for gi in reversed(range(len(graphs))) for s in (1, 2)
              for q in ("fast", "balanced")]
    cumulative = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(idents))))

    payload = [json.dumps(g.text()) for g in graphs]  # escaped once, reused

    def solve(ident, form, rid, fp):
        gi, s, q = ident
        graph = f'"inline":{payload[gi]}' if form == "inline" else f'"graph":"{fp[gi]}"'
        return (f'{{"id":"{rid}",{graph},"quality":"{q}","budget":1,"seed":{s},'
                f'"want_sides":true}}\n')

    reg_lines = [dumps({"id": f"reg{i}", "inline": g.text(), "quality": "fast",
                        "budget": 1, "seed": 1, "want_sides": True})
                 for i, g in enumerate(graphs)]
    setups = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        srv = Server(ctx.gbis, ".", threads=threads, extra=flags, tcp=True, tag=f"s{k}")
        conn = srv.connect("tcp")
        reg_resp = pipelined(conn, reg_lines)
        fp = [json.loads(r).get("fingerprint") for r in reg_resp]
        warm_lines = [solve(ident, "fingerprint", f"w{i}", fp)
                      for i, ident in enumerate(idents)]
        warm_resp = pipelined(conn, warm_lines)
        setups.append(time.perf_counter() - t0)
        if k + 1 < SETUPS:
            conn.close()
            stop_checked(res, srv)
    for g, r in zip(graphs, reg_resp):
        check_solve(res, json.loads(r), g, f"register {g.name}")
    # cut_ratio is taken once per identity, so popularity does not weight it.
    ratios = []
    for ident, r in zip(idents, warm_resp):
        cut = check_solve(res, json.loads(r), graphs[ident[0]], f"warm-up {ident}")
        if cut is not None:
            ratios.append(cut / graphs[ident[0]].ref)

    # A round is a block of 100 requests: 56 inline and 38 fingerprint
    # repeats (a systematic sample of the Zipf distribution), 3 cold
    # `fast` solves, 2 pings and 1 stats, shuffled. Every round has the
    # same mix, so per-round medians are comparable. An even inline /
    # fingerprint split would put the median on the boundary between the
    # two latency populations, where it jumps from run to run; with
    # inline a little ahead the median sits in the inline population,
    # which the front door's parse and materialize costs move.
    def new_round(base):
        u = rng.random()
        picks = [idents[bisect.bisect_left(cumulative, (j + u) / 94 * cumulative[-1])]
                 for j in range(94)]
        kinds = [("inline" if j % 5 in (1, 2, 4) else "fingerprint", ident)
                 for j, ident in enumerate(picks)]
        kinds += [("ping", None)] * 2 + [("stats", None)] + [("cold", None)] * 3
        rng.shuffle(kinds)
        out = []
        for j, (form, ident) in enumerate(kinds):
            k = base + j
            if form == "ping":
                out.append((dumps({"id": f"p{k}", "op": "ping"}), None))
            elif form == "stats":
                out.append((dumps({"id": f"t{k}", "op": "stats"}), None))
            elif form == "cold":
                ident = (rng.randrange(len(graphs)), 100000 + k, "fast")
                out.append((solve(ident, "fingerprint", f"f{k}", fp), ident))
            else:
                out.append((solve(ident, form, f"h{k}", fp), ident))
        return out

    seconds = ctx.seconds * (0.4 if ctx.trace else 1.0)
    sent, lat, answers, round_lat = [], [], [], []
    timed = 0.0
    while timed < seconds:
        round_lat.append([])
        for line, ident in new_round(len(sent)):
            resp, dt = conn.call(line)
            lat.append(dt)
            round_lat[-1].append(dt)
            timed += dt
            sent.append(line)
            answers.append((line, ident, resp))
    rss = srv.vm_hwm_mib()
    wire = conn.sent_bytes + conn.recv_bytes

    # Answer checks: every response ok; one answer per identity across
    # inline/fingerprint forms and hit/miss dispositions.
    answer_of, first_line = {}, {}
    ok = 0
    for line, ident, resp in answers:
        d = json.loads(resp)
        good = bool(d.get("ok"))
        if not good:
            res.problem(f"{d.get('id')}: {d.get('error')}")
        elif ident is not None:
            if ident not in answer_of:
                good = check_solve(res, d, graphs[ident[0]],
                                   f"solve {d.get('id')}") is not None
                answer_of[ident] = d
                first_line[ident] = line
            elif not same_answer(d, answer_of[ident]):
                res.problem(f"{d.get('id')}: answer differs from an earlier "
                            f"response to the same identity")
                good = False
        ok += good
    # Other transport, same server: every identity answers as a hit.
    uconn = srv.connect("unix")
    for key, line in list(first_line.items())[:64]:
        again = json.loads(uconn.call(line)[0])
        if again.get("cache") != "hit" or not same_answer(again, answer_of[key]):
            res.problem(f"unix-socket repeat of {again.get('id')} differs")
    uconn.close()
    conn.close()
    stop_checked(res, srv)
    # Another run: a fresh server recomputes the smallest graphs' identities.
    fresh = Server(ctx.gbis, ".", threads=1, tag="v")
    vconn = fresh.connect("unix")
    for key in sorted(first_line, key=lambda key: graphs[key[0]].n)[:4]:
        vconn.call(reg_lines[key[0]])
        again = json.loads(vconn.call(first_line[key])[0])
        if not same_answer(again, answer_of[key]):
            res.problem(f"fresh-server re-solve of {again.get('id')} differs")
    vconn.close()
    stop_checked(res, fresh)

    closed_loop_metrics(res, round_lat)
    common_metrics(res, setups, ratios, ok, len(answers), rss)
    res.notes["cut_ratio"] = f"mean over {len(ratios)} identities"
    by_form = {}
    for (line, ident, _), dt in zip(answers, lat):
        form = ("inline" if '"inline"' in line else "fingerprint") if ident else "other"
        by_form.setdefault(form, []).append(dt * 1e3)
    res.extra["p50_ms_by_form"] = {f: [len(v), statistics.median(v)]
                                   for f, v in by_form.items()}
    if ctx.trace:
        per_layer_defaults(ctx, res)
        res.metrics["scheduler.coalesced_ratio"] = coalesced_ratio(
            [resp for _, _, resp in answers])
        traced_replay(ctx, res, reg_lines + warm_lines + sent,
                      [None] * (len(reg_lines) + len(warm_lines)) + lat, wire,
                      ["--threads", str(threads), "--access-log", "trace-access.log"])
    return res


# ---------------------------------------------------------- mutate-warm

def edit_batch(rng, g, edits, step):
    """A mutate batch of about `edits` edits on g. Every batch adds or
    deletes one vertex, so |V| parity flips at each step; the rest are
    edge adds and deletes in equal numbers."""
    batch = {}
    if step % 2 == 0:
        batch["add_vertices"] = 1
        edits -= 1
    else:
        batch["del_vertices"] = [rng.randrange(g.n)]
        edits -= 1
    existing = set(g.edges)
    n_ext = g.n + batch.get("add_vertices", 0)
    dels = rng.sample(g.edges, min(len(g.edges), edits // 2))
    adds = []
    taken = set()
    while len(adds) < edits - len(dels):
        u, v = rng.randrange(n_ext), rng.randrange(n_ext)
        e = (min(u, v), max(u, v))
        if u != v and e not in existing and e not in taken:
            taken.add(e)
            adds.append(e)
    if adds:
        batch["add_edges"] = [x for e in adds for x in e]
    if dels:
        batch["del_edges"] = [x for e in dels for x in e]
    return batch


def mutate_round(rng, bases, r):
    """One round of mutate->solve chains per base graph, as a list of
    (kind, batch, parent tag, tag, graph) steps: a 'mutate' step derives
    graph `tag` from `parent tag`; a 'solve' step solves graph `tag`, and
    its graph is None for a repeat of an earlier solve."""
    steps = []
    for b, base in enumerate(bases):
        m = base.m
        # Warm chain: each child is solved, so each warm start projects
        # from its parent's fresh answer.
        parent, g = f"base{b}", base
        for i, edits in enumerate((1, 10, max(2, m // 100))):
            batch = edit_batch(rng, g, edits, i + r)
            tag = f"r{r}b{b}w{i}"
            g = G.apply_batch(g, batch, tag)
            steps.append(("mutate", batch, parent, tag, g))
            steps.append(("solve", None, tag, tag, g))
            parent = tag
        # Guardrail chain: three 10% batches before one solve put the
        # nearest cached ancestor 30% of |E| away, past the 25% bound.
        parent, g = f"base{b}", base
        for i in range(3):
            batch = edit_batch(rng, g, max(2, m // 10), i + r)
            tag = f"r{r}b{b}f{i}"
            g = G.apply_batch(g, batch, tag)
            steps.append(("mutate", batch, parent, tag, g))
            parent = tag
        steps.append(("solve", None, parent, parent, g))
        # A repeat of this round's first warm solve: a cache hit.
        steps.append(("solve", None, f"r{r}b{b}w0", f"r{r}b{b}w0", None))
    return steps


def mutate_warm(ctx):
    """Closed loop, one client, Unix socket: mutate->solve chains against
    a server with a durable cache journal."""
    res = Result()
    rng = random.Random(f"mutate-{ctx.seed}")
    bases = [G.gnp(rng, 3000, 5, name="base-gnp3000"),
             G.gbreg(rng, 4000, 16, 4, name="base-gbreg4000")]
    solve_fields = {"quality": "balanced", "budget": 4, "seed": 7, "want_sides": True}
    reg_lines = [dumps({"id": f"base{b}", "inline": g.text(), **solve_fields})
                 for b, g in enumerate(bases)]

    # A set-up pre-seeds the journal (a first server solves the bases
    # cold), then starts the measured server, which restores it, and
    # registers the bases again: hits, which also materialize the graphs.
    setups = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        seeder = Server(ctx.gbis, ".", threads=1,
                        extra=["--cache-file", f"journal{k}.seed"], tag=f"seed{k}")
        sconn = seeder.connect()
        for line in reg_lines:
            sconn.call(line)
        sconn.close()
        stop_checked(res, seeder)
        shutil.copy(f"journal{k}.seed", "journal.jsonl")
        srv = Server(ctx.gbis, ".", threads=1, extra=["--cache-file", "journal.jsonl"],
                     tag=f"s{k}")
        conn = srv.connect()
        calls = [conn.call(line) for line in reg_lines]
        setups.append(time.perf_counter() - t0)
        if k + 1 < SETUPS:
            conn.close()
            stop_checked(res, srv)
    shutil.copy(f"journal{SETUPS - 1}.seed", "journal.seed")
    fp = {}
    for b, (resp, _) in enumerate(calls):
        d = json.loads(resp)
        if d.get("cache") != "hit":
            res.problem(f"base{b} was not restored from the journal")
        check_solve(res, d, bases[b], f"base{b}")
        fp[f"base{b}"] = d.get("fingerprint")

    seconds = ctx.seconds * (0.4 if ctx.trace else 1.0)
    lat, sent, answers, round_lat = [], [], [], []
    timed = 0.0
    r = 0
    first_answer = {}
    round_lines = []
    rss = 0.0
    while timed < seconds:
        steps = mutate_round(rng, bases, r)  # generated outside the timed calls
        lines_r = []
        round_lat.append([])
        for kind, batch, parent, tag, g in steps:
            if kind == "mutate":
                req = {"id": f"m{tag}", "op": "mutate", "parent": fp[parent], **batch}
            else:
                req = {"id": f"s{tag}", "graph": fp[tag], **solve_fields}
            line = dumps(req)
            resp, dt = conn.call(line)
            lat.append(dt)
            round_lat[-1].append(dt)
            timed += dt
            sent.append(line)
            lines_r.append((line, resp))
            d = json.loads(resp)
            if kind == "mutate":
                if d.get("ok"):
                    fp[tag] = d["fingerprint"]
                    if (d.get("vertices"), d.get("edges")) != (g.n, g.m):
                        res.problem(f"mutate {tag}: child has {d.get('vertices')}/"
                                    f"{d.get('edges')} vertices/edges, expected {g.n}/{g.m}")
                answers.append((kind, tag, d, g))
            else:
                if g is None:  # the repeat
                    if d.get("cache") != "hit" or not same_answer(d, first_answer[tag]):
                        res.problem(f"repeat solve of {tag} differs from its first answer")
                    g = next(a[3] for a in answers if a[1] == tag and a[0] == "solve")
                else:
                    first_answer[tag] = d
                answers.append((kind, tag, d, g))
        round_lines.append(lines_r)
        r += 1
        if r == RSS_ROUNDS:
            # The graph store keeps every child, so memory grows with the
            # rounds run; reading it at a fixed round keeps it comparable.
            rss = srv.vm_hwm_mib()
    rss = rss or srv.vm_hwm_mib()
    wire = conn.sent_bytes + conn.recv_bytes
    conn.close()
    stop_checked(res, srv)

    ok, ratios, warm = 0, [], 0
    for kind, tag, d, g in answers:
        if kind == "mutate":
            good = bool(d.get("ok"))
            if not good:
                res.problem(f"mutate {tag}: {d.get('error')}")
        else:
            cut = check_solve(res, d, g, f"solve {tag}")
            good = cut is not None
            if good:
                ratios.append(cut / (g.m / 2))
                warm += bool(d.get("warm"))
        ok += good
    # Another run over another transport: a fresh server restored from the
    # same seed journal answers round 0 byte for byte.
    shutil.copy("journal.seed", "journal.verify")
    fresh = Server(ctx.gbis, ".", threads=1, tcp=True,
                   extra=["--cache-file", "journal.verify"], tag="v")
    vconn = fresh.connect("tcp")
    for line in reg_lines:
        vconn.call(line)
    for line, resp in round_lines[0]:
        if vconn.call(line)[0] != resp:
            res.problem(f"fresh-server replay of {json.loads(resp).get('id')} differs")
            break
    vconn.close()
    stop_checked(res, fresh)

    # The warm/cold ratio this workload documents: warm re-solves after
    # small edits against the cold solves past the guardrail, same run.
    warm_ms = [dt * 1e3 for (kind, _, d, _), dt in zip(answers, lat)
               if kind == "solve" and d.get("cache") == "miss" and d.get("warm")]
    cold_ms = [dt * 1e3 for (kind, _, d, _), dt in zip(answers, lat)
               if kind == "solve" and d.get("cache") == "miss" and not d.get("warm")]
    if warm_ms and cold_ms:
        res.extra["warm_solve_p50_ms"] = statistics.median(warm_ms)
        res.extra["cold_solve_p50_ms"] = statistics.median(cold_ms)
        res.extra["cold_over_warm"] = statistics.median(cold_ms) / statistics.median(warm_ms)
    closed_loop_metrics(res, round_lat)
    common_metrics(res, setups, ratios, ok, len(answers), rss)
    res.notes["cut_ratio"] = "cut / (|E|/2)"
    res.notes["rss_peak_mb"] = f"after round {RSS_ROUNDS}"
    res.extra["warm_answers"] = warm
    if ctx.trace:
        per_layer_defaults(ctx, res)
        res.metrics["scheduler.coalesced_ratio"] = coalesced_ratio(
            [resp for lines_r in round_lines for _, resp in lines_r])
        traced_replay(ctx, res, reg_lines + sent, [dt for _, dt in calls] + lat,
                      wire, ["--threads", "1", "--cache-file", "journal.seed"])
    return res


# ------------------------------------------------------------- campaign

def campaign(ctx):
    """`gbis campaign kl,sa,ckl,csa,fm` batches over the cold-classes graph
    set at both parities, alternating the ~1000- and ~2000-vertex halves."""
    res = Result()
    graphs = G.class_set(ctx.seed)
    fill_tree_refs(ctx, graphs)
    for g in graphs:
        g.write(f"{g.name}.graph")
    groups = [[g for g in graphs if g.n < 1500], [g for g in graphs if g.n >= 1500]]
    methods = "kl,sa,ckl,csa,fm"
    threads = max(1, min(NPROC, 4))

    def batch(k, group, journal, extra_threads=None):
        files = [f"{g.name}.graph" for g in group]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [ctx.gbis, "--seed", str(1000 + k), "--threads",
             str(extra_threads or threads), "campaign", methods, *files,
             "--starts", "1", "--journal", journal],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        while not os.path.exists(journal) and proc.poll() is None:
            time.sleep(0.0005)
        t1 = time.perf_counter()
        table = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1, table, usage.ru_maxrss / 1024, proc.returncode

    def trials_of(journal):
        with open(journal) as f:
            lines = [json.loads(x) for x in f if x.strip()]
        return [x for x in lines if x.get("type") == "trial"]

    # A round is one batch of each half: its per-trial CPU times, and its
    # throughput as trials over the two batches' trial-phase wall time.
    setups, ratios, round_cpu, round_wall = [], [], [], []
    phase, k, ok, attempted, rss = 0.0, 0, 0, 0, 0.0
    nmeth = len(methods.split(","))
    seconds = ctx.seconds * (0.4 if ctx.trace else 1.0)
    while phase < seconds or k % 2:
        group = groups[k % 2]
        journal = f"journal{k}.jsonl"
        setup, wall, table, maxrss, rc = batch(k, group, journal)
        setups.append(setup)
        phase += wall
        if k % 2 == 0:
            round_cpu.append([])
            round_wall.append(0.0)
        round_wall[-1] += wall
        rss = max(rss, maxrss)
        if rc != 0:
            res.problem(f"campaign batch {k} exited {rc}")
        trials = trials_of(journal)
        attempted += len(group) * nmeth
        best = {}
        for t in trials:
            gi, mi = divmod(int(t["id"]), nmeth)
            g = group[gi]
            if t.get("status") != "ok":
                res.problem(f"batch {k} trial {t['id']}: {t.get('status')}")
                continue
            round_cpu[-1].append(t["cpu_seconds"])
            if g.lower is not None and t["cut"] < g.lower:
                res.problem(f"batch {k} {g.name}: cut {t['cut']} below {g.lower}")
                continue
            ratios.append(t["cut"] / g.ref)
            best[(gi, mi)] = t["cut"]
            ok += 1
        # The printed table must agree with the journal, cell by cell.
        rows = [ln.split() for ln in table.splitlines()[2:2 + len(group)]]
        for gi, row in enumerate(rows):
            for mi, cell in enumerate(row[1:1 + nmeth]):
                if best.get((gi, mi)) != int(cell):
                    res.problem(f"batch {k} table cell {row[0]}/{mi} = {cell}, "
                                f"journal says {best.get((gi, mi))}")
        k += 1
    # Another run: the same small campaign at 1 and `threads` workers
    # must journal identical cuts.
    small = [f"{g.name}.graph" for g in groups[0] if g.cls in ("ladder", "bintree")][:2]
    cuts = []
    for t in (1, threads):
        j = f"det{t}.jsonl"
        subprocess.run([ctx.gbis, "--seed", "5", "--threads", str(t), "campaign",
                        "kl,fm", *small, "--starts", "2", "--journal", j],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        cuts.append(sorted((x["id"], x["cut"]) for x in trials_of(j)))
    if cuts[0] != cuts[1]:
        res.problem("campaign cuts differ between 1 and "
                    f"{threads} threads")

    closed_loop_metrics(res, round_cpu,
                        rates=[len(c) / w for c, w in zip(round_cpu, round_wall)])
    res.notes["latency_p50_ms"] += " of per-trial CPU time"
    common_metrics(res, setups, ratios, ok, attempted, rss)
    if ctx.trace:
        per_layer_defaults(ctx, res)
        files = [f"{g.name}.graph" for g in groups[0]]
        out = subprocess.run(
            [ctx.tracer, "campaign", "--methods", methods, "--starts", "1",
             "--seed", "1000", "--threads", str(threads), "--journal",
             "trace-journal.jsonl", "--out", "trace", *files],
            capture_output=True, text=True)
        if out.returncode != 0:
            res.problem(f"traced campaign failed: {out.stderr.strip()[-300:]}")
        else:
            t = json.loads(out.stdout.strip().splitlines()[-1])
            res.metrics.update(t)
            untraced = batch(0, groups[0], "untraced.jsonl")[1]
            res.metrics["trace.overhead_pct"] = 100.0 * (t["trace.wall_s"] - untraced) / untraced
            layer_sum_check(res, t["trace.unattributed_pct"])
    return res
