#include "gbis/methods/path_opt.hpp"

#include <cstddef>

#include "gbis/obs/metrics.hpp"
#include "gbis/partition/buckets.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/partition/refine_workspace.hpp"

namespace gbis {

namespace {

/// One pass on the refine's workspace; returns the cut improvement.
Weight workspace_pass(Bisection& bisection, RefineWorkspace& ws,
                      PathOptStats* stats, const PathOptOptions& options) {
  const Graph& g = bisection.graph();
  const std::size_t n = g.num_vertices();

  // Virtual flip state: `sides` and `gains` track the partition as if
  // the sequence's flips had been applied. An unpicked vertex never
  // flips before it is picked, so its virtual side is its real side and
  // it waits in that side's buckets; picking removes it, which is what
  // locks it for the rest of the pass.
  ws.begin_pass();
  ws.sides.assign(bisection.sides().begin(), bisection.sides().end());
  std::vector<std::uint8_t>& sides = ws.sides;
  std::vector<Weight>& gains = ws.gains;
  GainBuckets& buckets = ws.buckets;

  // Tie order is the buckets' LIFO order. Inserting in descending id
  // order leaves the lowest id at the head of each bucket. Every flip
  // then changes each unpicked neighbor's gain by +-2w (edge weights
  // are positive), so the neighbors move to the heads of their new
  // buckets in adjacency order, ahead of every vertex touched earlier
  // or never. Gain ties therefore go to the vertex the sequence touched
  // most recently, then to the lowest id. That recency bias is Berry &
  // Goldberg's near-greedy walk as a *bias* instead of a restriction:
  // the sequence follows edges while the walk stays gain-optimal and
  // teleports to the global best otherwise. (It is also exactly the
  // locality KL inherits from the same buckets; with first-scan ties
  // instead, the planted and ladder classes stall 2-3x above KL's local
  // optima.)
  for (Vertex v = static_cast<Vertex>(n); v-- > 0;) {
    buckets.insert(v, sides[v], gains[v]);
  }

  std::vector<Vertex>& path = ws.sequence;
  Weight cumulative = 0, best_cumulative = 0;
  std::size_t best_len = 0;
  std::uint64_t polls = 0;

  // Grow one flip sequence in balance pairs — side 0 first, side 1
  // second, like a KL pair — until either side runs out of unpicked
  // vertices. Flipping any even prefix moves equal counts each way,
  // so every even prefix is a balance-preserving candidate.
  for (;;) {
    if ((path.size() & 31u) == 0) {
      options.deadline.check();
      ++polls;
    }
    const int required = static_cast<int>(path.size() & 1u);
    const Weight top = buckets.max_gain_present(required);
    if (top == GainBuckets::kEmpty) break;  // the tail can't pair up
    const auto pick = static_cast<Vertex>(buckets.bucket_head(required, top));
    buckets.remove(pick);

    path.push_back(pick);
    cumulative += gains[pick];
    update_gains_after_move(g, sides, pick, gains);
    sides[pick] ^= 1;
    for (const Vertex u : g.neighbors(pick)) {
      if (buckets.contains(u)) buckets.update(u, gains[u]);
    }

    // Best even prefix; on ties keep the longest (a zero-gain plateau
    // still shifts the cut, which later passes exploit — but only once
    // a strictly improving prefix exists, so a no-gain pass stays a
    // no-op and refine's fixpoint test remains sound).
    if ((path.size() & 1u) == 0 &&
        (cumulative > best_cumulative ||
         (cumulative == best_cumulative && best_len > 0))) {
      best_cumulative = cumulative;
      best_len = path.size();
    }
  }

  // Commit the best prefix for real; the virtual tail is simply
  // abandoned (the next pass starts over from the kept gains).
  ws.apply_prefix(bisection, best_len, best_cumulative, "path_opt_refine");

  if (stats != nullptr) {
    stats->paths += path.empty() ? 0 : 1;
    stats->flips_proposed += path.size();
    stats->flips_applied += best_len;
  }
  if (MetricsSink* sink = options.metrics; sink != nullptr) {
    sink->add(Counter::kPoPaths, path.empty() ? 0 : 1);
    sink->add(Counter::kPoFlipsProposed, path.size());
    sink->add(Counter::kPoFlipsApplied, best_len);
    sink->add(Counter::kDeadlinePolls, polls);
  }
  return best_cumulative;
}

}  // namespace

Weight path_opt_pass(Bisection& bisection, PathOptStats* stats,
                     const PathOptOptions& options) {
  RefineWorkspace ws(bisection);
  return workspace_pass(bisection, ws, stats, options);
}

PathOptStats path_opt_refine(Bisection& bisection,
                             const PathOptOptions& options) {
  PathOptStats stats;
  stats.initial_cut = bisection.cut();
  RefineWorkspace ws(bisection);
  for (;;) {
    options.deadline.check();
    const Weight improvement = workspace_pass(bisection, ws, &stats, options);
    ++stats.passes;
    if (MetricsSink* sink = options.metrics; sink != nullptr) {
      sink->add(Counter::kPoPasses);
      sink->add(Counter::kDeadlinePolls);  // the per-pass check above
      sink->trace_point(TraceSource::kPo, bisection.cut());
    }
    if (improvement == 0) break;
  }
  stats.final_cut = bisection.cut();
  return stats;
}

}  // namespace gbis
