#include "gbis/kl/kl.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "gbis/obs/metrics.hpp"
#include "gbis/partition/buckets.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/partition/refine_workspace.hpp"

namespace gbis {

namespace {

/// Finds the unlocked pair (a on side 0, b on side 1) with maximum
/// g_ab, scanning bucket combinations in descending g_a + g_b order.
/// Returns false if either side is exhausted.
bool select_best_pair(const Graph& g, const GainBuckets& buckets,
                      Vertex& best_a, Vertex& best_b, Weight& best_gab,
                      std::uint64_t& scanned) {
  const Weight top0 = buckets.max_gain_present(0);
  const Weight top1 = buckets.max_gain_present(1);
  if (top0 == GainBuckets::kEmpty || top1 == GainBuckets::kEmpty) {
    return false;
  }

  bool found = false;
  best_gab = 0;
  for (Weight ga = top0; ga != GainBuckets::kEmpty;
       ga = buckets.next_below(0, ga)) {
    // Upper bound for any pair using this or a lower side-0 bucket.
    if (found && ga + top1 <= best_gab) break;
    for (std::int64_t a_it = buckets.bucket_head(0, ga);
         a_it != GainBuckets::kNil;
         a_it = buckets.bucket_next(static_cast<Vertex>(a_it))) {
      const auto a = static_cast<Vertex>(a_it);
      for (Weight gb = top1; gb != GainBuckets::kEmpty;
           gb = buckets.next_below(1, gb)) {
        if (found && ga + gb <= best_gab) break;
        std::int64_t b_it = buckets.bucket_head(1, gb);
        for (; b_it != GainBuckets::kNil;
             b_it = buckets.bucket_next(static_cast<Vertex>(b_it))) {
          const auto b = static_cast<Vertex>(b_it);
          ++scanned;
          const Weight gab = ga + gb - 2 * g.edge_weight(a, b);
          if (!found || gab > best_gab) {
            found = true;
            best_gab = gab;
            best_a = a;
            best_b = b;
          }
          // A non-adjacent pair attains the bucket bound; nothing in
          // this or lower buckets can beat it.
          if (best_gab == ga + gb) break;
        }
        if (found && best_gab >= ga + gb) break;  // bucket bound attained
      }
      // Nothing with this ga (or below) can beat the bound ga + top1.
      if (found && best_gab >= ga + top1) break;
    }
    if (found && best_gab >= ga + top1) break;
  }
  return found;
}

/// Greedy-tops selection: a = best-gain vertex of side 0, b = best
/// partner for that fixed a (argmax g_b - 2 w(a, b), scanned in
/// descending-bucket order with the same early-exit bound).
bool select_greedy_tops(const Graph& g, const GainBuckets& buckets,
                        Vertex& best_a, Vertex& best_b, Weight& best_gab,
                        std::uint64_t& scanned) {
  const Weight top0 = buckets.max_gain_present(0);
  const Weight top1 = buckets.max_gain_present(1);
  if (top0 == GainBuckets::kEmpty || top1 == GainBuckets::kEmpty) {
    return false;
  }
  const auto a = static_cast<Vertex>(buckets.bucket_head(0, top0));
  bool found = false;
  Weight best_partner = 0;
  for (Weight gb = top1; gb != GainBuckets::kEmpty;
       gb = buckets.next_below(1, gb)) {
    if (found && gb <= best_partner) break;
    for (std::int64_t it = buckets.bucket_head(1, gb); it != GainBuckets::kNil;
         it = buckets.bucket_next(static_cast<Vertex>(it))) {
      const auto b = static_cast<Vertex>(it);
      ++scanned;
      const Weight value = gb - 2 * g.edge_weight(a, b);
      if (!found || value > best_partner) {
        found = true;
        best_partner = value;
        best_b = b;
      }
      if (best_partner == gb) break;  // bucket bound attained
    }
    if (found && best_partner >= gb) break;
  }
  best_a = a;
  best_gab = top0 + best_partner;
  return found;
}

/// One pass on the refine's workspace; returns the cut improvement.
Weight workspace_pass(Bisection& bisection, RefineWorkspace& ws,
                      KlStats* stats, const KlOptions& options) {
  const Graph& g = bisection.graph();
  const std::uint32_t n = g.num_vertices();
  if (n < 2) return 0;

  // The virtual swap never changes a side the pass reads: a and b are
  // locked as soon as they are picked, and every unlocked vertex stays
  // where it is until the prefix is applied below.
  const std::span<const std::uint8_t> sides = bisection.sides();
  ws.begin_pass();
  GainBuckets& buckets = ws.buckets;
  std::vector<Weight>& gains = ws.gains;
  for (Vertex v = 0; v < n; ++v) buckets.insert(v, sides[v], gains[v]);

  const std::uint32_t rounds =
      std::min(bisection.side_count(0), bisection.side_count(1));
  std::vector<Vertex>& sequence = ws.sequence;  // a, b of each round

  Weight cumulative = 0, best_prefix_gain = 0;
  std::size_t best_prefix_len = 0;
  std::uint64_t scanned = 0;
  std::uint64_t polls = 0;

  for (std::uint32_t i = 0; i < rounds; ++i) {
    // A round is at least one bucket scan, so a throttled poll is
    // cheap; throwing here is safe — swaps apply only after the loop.
    if ((i & 31u) == 0) {
      options.deadline.check();
      ++polls;
    }
    Vertex a = 0, b = 0;
    Weight gab = 0;
    const bool found =
        options.pair_selection == KlPairSelection::kBestPair
            ? select_best_pair(g, buckets, a, b, gab, scanned)
            : select_greedy_tops(g, buckets, a, b, gab, scanned);
    if (!found) break;
    buckets.remove(a);
    buckets.remove(b);
    sequence.push_back(a);
    sequence.push_back(b);
    cumulative += gab;
    if (cumulative > best_prefix_gain) {
      best_prefix_gain = cumulative;
      best_prefix_len = i + 1;
    }

    // Figure 2 lines 6-8: update unlocked gains as if (a, b) swapped.
    update_gains_after_swap(g, sides, a, b, gains);
    for (Vertex x : g.neighbors(a)) {
      if (buckets.contains(x)) buckets.update(x, gains[x]);
    }
    for (Vertex y : g.neighbors(b)) {
      if (buckets.contains(y)) buckets.update(y, gains[y]);
    }
  }

  const std::size_t pairs = sequence.size() / 2;
  if (stats != nullptr) {
    stats->pairs_selected += pairs;
    stats->pairs_swapped += best_prefix_len;
    stats->candidates_scanned += scanned;
  }
  if (MetricsSink* sink = options.metrics; sink != nullptr) {
    // One flush per pass: the hot loop above only touches locals.
    sink->add(Counter::kKlPairsSelected, pairs);
    sink->add(Counter::kKlPairsSwapped, best_prefix_len);
    sink->add(Counter::kKlCandidatesScanned, scanned);
    sink->add(Counter::kDeadlinePolls, polls);
  }

  // Each swap is its two moves (what Bisection::swap does).
  ws.apply_prefix(bisection, 2 * best_prefix_len, best_prefix_gain,
                  "kl_refine");
  return best_prefix_gain;
}

}  // namespace

Weight kl_pass(Bisection& bisection, KlStats* stats,
               const KlOptions& options) {
  RefineWorkspace ws(bisection);
  return workspace_pass(bisection, ws, stats, options);
}

KlStats kl_refine(Bisection& bisection, const KlOptions& options,
                  std::vector<Weight>* pass_cuts) {
  KlStats stats;
  stats.initial_cut = bisection.cut();
  RefineWorkspace ws(bisection);
  for (;;) {
    options.deadline.check();
    const Weight improvement = workspace_pass(bisection, ws, &stats, options);
    ++stats.passes;
    if (pass_cuts != nullptr) pass_cuts->push_back(bisection.cut());
    if (MetricsSink* sink = options.metrics; sink != nullptr) {
      sink->add(Counter::kKlPasses);
      sink->add(Counter::kDeadlinePolls);  // the per-pass check above
      sink->observe(Hist::kKlPassImprovement,
                    static_cast<std::uint64_t>(improvement));
      sink->trace_point(TraceSource::kKl, bisection.cut());
    }
    if (improvement <= 0) break;
    if (options.max_passes != 0 && stats.passes >= options.max_passes) break;
  }
  stats.final_cut = bisection.cut();
  return stats;
}

}  // namespace gbis
