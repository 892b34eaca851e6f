#include "gbis/fm/fm.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "gbis/obs/metrics.hpp"
#include "gbis/partition/buckets.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/partition/refine_workspace.hpp"

namespace gbis {

namespace {

/// One FM pass on the refine's workspace. Returns the cut improvement
/// (>= 0).
Weight fm_pass(Bisection& bisection, RefineWorkspace& ws,
               const FmOptions& options, FmStats* stats) {
  const Graph& g = bisection.graph();
  const std::uint32_t n = g.num_vertices();
  if (n < 2) return 0;

  ws.begin_pass();
  ws.sides.assign(bisection.sides().begin(), bisection.sides().end());
  GainBuckets& buckets = ws.buckets;
  std::vector<Weight>& gains = ws.gains;
  std::vector<std::uint8_t>& sides = ws.sides;
  const bool by_weight = options.balance == FmBalance::kWeight;
  // "size" of a side: vertex count or vertex weight per the policy.
  std::int64_t size[2];
  if (by_weight) {
    size[0] = bisection.side_weight(0);
    size[1] = bisection.side_weight(1);
  } else {
    size[0] = bisection.side_count(0);
    size[1] = bisection.side_count(1);
  }
  Weight max_vertex_weight = 1;
  std::uint64_t bucket_ops = 0;  // inserts + removes + gain updates
  for (Vertex v = 0; v < n; ++v) {
    max_vertex_weight = std::max(max_vertex_weight, g.vertex_weight(v));
    buckets.insert(v, sides[v], gains[v]);
  }
  bucket_ops += n;
  auto size_of = [&](Vertex v) -> std::int64_t {
    return by_weight ? g.vertex_weight(v) : 1;
  };

  std::vector<Vertex>& sequence = ws.sequence;
  Weight cumulative = 0, best_prefix_gain = 0;
  std::size_t best_prefix_len = 0;

  // A single move changes the size difference by twice the moved
  // amount, so a strict tolerance would forbid every move from a
  // perfectly balanced state. Standard FM remedy: allow one move's
  // worth of slack transiently (one unit / the heaviest vertex), but
  // accept a prefix only where the configured tolerance holds again.
  const std::int64_t transient_tolerance =
      static_cast<std::int64_t>(options.balance_tolerance) +
      (by_weight ? max_vertex_weight : 1);

  std::uint64_t polls = 0;
  for (std::uint32_t step = 0; step < n; ++step) {
    // Cooperative deadline poll; throwing here is safe — moves apply
    // only after the loop.
    if ((step & 255u) == 0) {
      options.deadline.check();
      ++polls;
    }
    // Pick the source side: any side we can legally move from,
    // preferring the larger side, then the better top gain.
    const Weight top[2] = {buckets.max_gain_present(0),
                           buckets.max_gain_present(1)};
    int from = -1;
    for (int s = 0; s < 2; ++s) {
      if (top[s] == GainBuckets::kEmpty) continue;
      // Cheapest legality screen: moving the head vertex of the top
      // bucket must keep the transient window.
      const auto head = static_cast<Vertex>(buckets.bucket_head(s, top[s]));
      const std::int64_t amount = size_of(head);
      const std::int64_t diff = (size[1 - s] + amount) - (size[s] - amount);
      if ((diff < 0 ? -diff : diff) > transient_tolerance) continue;
      if (from == -1 || size[s] > size[from] ||
          (size[s] == size[from] && top[s] > top[from])) {
        from = s;
      }
    }
    if (from == -1) break;

    const auto v = static_cast<Vertex>(buckets.bucket_head(from, top[from]));
    buckets.remove(v);
    ++bucket_ops;
    sequence.push_back(v);
    cumulative += gains[v];
    const std::int64_t amount = size_of(v);
    size[from] -= amount;
    size[from ^ 1] += amount;
    const std::int64_t imbalance_after =
        size[0] >= size[1] ? size[0] - size[1] : size[1] - size[0];
    if (cumulative > best_prefix_gain &&
        imbalance_after <=
            static_cast<std::int64_t>(options.balance_tolerance)) {
      best_prefix_gain = cumulative;
      best_prefix_len = sequence.size();
    }

    update_gains_after_move(g, sides, v, gains);
    sides[v] ^= 1;
    for (Vertex x : g.neighbors(v)) {
      if (buckets.contains(x)) {
        buckets.update(x, gains[x]);
        ++bucket_ops;
      }
    }
  }

  if (stats != nullptr) {
    stats->moves_considered += sequence.size();
    stats->moves_applied += best_prefix_len;
  }
  if (MetricsSink* sink = options.metrics; sink != nullptr) {
    // One flush per pass: the step loop above only touches locals.
    sink->add(Counter::kFmMovesConsidered, sequence.size());
    sink->add(Counter::kFmMovesApplied, best_prefix_len);
    sink->add(Counter::kFmBucketOps, bucket_ops);
    sink->add(Counter::kDeadlinePolls, polls);
  }
  ws.apply_prefix(bisection, best_prefix_len, best_prefix_gain, "fm_refine");
  return best_prefix_gain;
}

}  // namespace

FmStats fm_refine(Bisection& bisection, const FmOptions& options) {
  const std::uint64_t imbalance =
      options.balance == FmBalance::kWeight
          ? static_cast<std::uint64_t>(bisection.weight_imbalance())
          : bisection.count_imbalance();
  if (imbalance > options.balance_tolerance) {
    throw std::invalid_argument(
        "fm_refine: input violates the balance tolerance");
  }
  FmStats stats;
  stats.initial_cut = bisection.cut();
  RefineWorkspace ws(bisection);
  for (;;) {
    options.deadline.check();
    const Weight improvement = fm_pass(bisection, ws, options, &stats);
    ++stats.passes;
    if (MetricsSink* sink = options.metrics; sink != nullptr) {
      sink->add(Counter::kFmPasses);
      sink->add(Counter::kDeadlinePolls);  // the per-pass check above
      sink->observe(Hist::kFmPassImprovement,
                    static_cast<std::uint64_t>(improvement));
      sink->trace_point(TraceSource::kFm, bisection.cut());
    }
    if (improvement <= 0) break;
    if (options.max_passes != 0 && stats.passes >= options.max_passes) break;
  }
  stats.final_cut = bisection.cut();
  return stats;
}

}  // namespace gbis
