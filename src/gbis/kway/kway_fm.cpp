#include "gbis/kway/kway_fm.hpp"

#include <algorithm>
#include <vector>

#include "gbis/partition/buckets.hpp"

namespace gbis {

namespace {

/// Pass-local state: labels, part counts, per-vertex best target, and
/// a gain-bucket queue over free vertices.
struct PassState {
  const Graph* g;
  std::uint32_t k;
  std::vector<std::uint32_t> labels;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> target;  // chosen destination per vertex
  std::vector<Weight> gain;           // gain to that destination
  std::vector<std::uint8_t> locked;
  GainBuckets* queue;
  std::uint32_t lo = 0, hi = 0;  // legal count window (transient)

  // Scratch for connectivity computation.
  std::vector<Weight> conn;
  std::vector<std::uint32_t> stamp;
  std::uint32_t now = 0;

  /// Computes v's best legal move (gain, target); returns false if v
  /// has no legal target (source at lower bound or all parts full).
  bool best_move(Vertex v, Weight& best_gain, std::uint32_t& best_target) {
    const std::uint32_t from = labels[v];
    if (counts[from] <= lo) return false;
    ++now;
    const auto nbrs = g->neighbors(v);
    const auto wts = g->edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint32_t p = labels[nbrs[i]];
      if (stamp[p] != now) {
        stamp[p] = now;
        conn[p] = 0;
      }
      conn[p] += wts[i];
    }
    const Weight conn_from = stamp[from] == now ? conn[from] : 0;
    bool found = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint32_t q = labels[nbrs[i]];
      if (q == from || counts[q] >= hi) continue;
      const Weight candidate = conn[q] - conn_from;
      if (!found || candidate > best_gain) {
        found = true;
        best_gain = candidate;
        best_target = q;
      }
    }
    // Isolated-from-boundary vertices can still move to any non-full
    // part at gain -conn_from; only useful for balance, so allow it
    // when the vertex has no internal ties either (conn_from == 0 and
    // no neighbor target found keeps them out of the queue).
    return found;
  }

  /// (Re)positions v in the queue according to its best move.
  void requeue(Vertex v) {
    if (locked[v]) return;
    Weight g_best = 0;
    std::uint32_t t_best = 0;
    if (best_move(v, g_best, t_best)) {
      gain[v] = g_best;
      target[v] = t_best;
      if (queue->contains(v)) {
        queue->update(v, g_best);
      } else {
        queue->insert(v, 0, g_best);
      }
    } else if (queue->contains(v)) {
      queue->remove(v);
    }
  }
};

}  // namespace

KwayPartition kway_fm_refine(const KwayPartition& input, Rng& rng,
                             const KwayFmOptions& options,
                             KwayFmStats* stats) {
  const Graph& g = input.graph();
  const std::uint32_t n = g.num_vertices();
  const std::uint32_t k = input.k();
  if (stats != nullptr) stats->initial_cut = input.edge_cut();

  std::vector<std::uint32_t> labels(input.parts().begin(),
                                    input.parts().end());
  if (n == 0 || k < 2) {
    KwayPartition result(g, k, std::move(labels));
    if (stats != nullptr) stats->final_cut = result.edge_cut();
    return result;
  }

  const std::uint32_t slack = options.size_tolerance;
  const std::uint32_t lo_accept = n / k > slack ? n / k - slack : 0;
  const std::uint32_t hi_accept = (n + k - 1) / k + slack;
  const auto move_cap = static_cast<std::uint64_t>(
      std::max(1.0, options.max_moves_fraction * n));

  std::uint32_t passes = 0;

  std::vector<Vertex> order(n);
  for (Vertex v = 0; v < n; ++v) order[v] = v;
  GainBuckets queue(g);  // one side: every free vertex, by its best gain

  for (;;) {
    ++passes;
    queue.clear();
    PassState state;
    state.g = &g;
    state.k = k;
    state.labels = labels;
    state.counts.assign(k, 0);
    for (std::uint32_t p : labels) ++state.counts[p];
    state.target.assign(n, 0);
    state.gain.assign(n, 0);
    state.locked.assign(n, 0);
    state.queue = &queue;
    // One transient unit beyond the acceptance window (FM slack).
    state.lo = lo_accept > 0 ? lo_accept - 1 : 0;
    state.hi = hi_accept + 1;
    state.conn.assign(k, 0);
    state.stamp.assign(k, 0);

    rng.shuffle(order);
    for (Vertex v : order) state.requeue(v);

    struct MoveRecord {
      Vertex v;
      std::uint32_t from;
      std::uint32_t to;
    };
    std::vector<MoveRecord> sequence;
    Weight cumulative = 0, best_prefix_gain = 0;
    std::size_t best_prefix_len = 0;

    while (sequence.size() < move_cap) {
      const Weight top = queue.max_gain_present(0);
      if (top == GainBuckets::kEmpty) break;
      const auto v = static_cast<Vertex>(queue.bucket_head(0, top));
      queue.remove(v);
      // Re-validate: counts may have drifted since v was queued.
      Weight g_best = 0;
      std::uint32_t t_best = 0;
      if (!state.best_move(v, g_best, t_best)) continue;
      if (g_best != state.gain[v] || t_best != state.target[v]) {
        state.gain[v] = g_best;
        state.target[v] = t_best;
        queue.insert(v, 0, g_best);
        continue;
      }

      // Execute and lock.
      const std::uint32_t from = state.labels[v];
      state.labels[v] = t_best;
      --state.counts[from];
      ++state.counts[t_best];
      state.locked[v] = 1;
      sequence.push_back({v, from, t_best});
      cumulative += g_best;

      bool within_window = true;
      for (std::uint32_t p = 0; p < k && within_window; ++p) {
        within_window =
            state.counts[p] >= lo_accept && state.counts[p] <= hi_accept;
      }
      if (cumulative > best_prefix_gain && within_window) {
        best_prefix_gain = cumulative;
        best_prefix_len = sequence.size();
      }
      for (Vertex x : g.neighbors(v)) state.requeue(x);
    }

    if (stats != nullptr) {
      stats->moves_considered += sequence.size();
      stats->moves_applied += best_prefix_len;
    }
    for (std::size_t i = 0; i < best_prefix_len; ++i) {
      labels[sequence[i].v] = sequence[i].to;
    }

    if (best_prefix_gain <= 0) break;
    if (options.max_passes != 0 && passes >= options.max_passes) break;
  }

  KwayPartition result(g, k, std::move(labels));
  if (stats != nullptr) {
    stats->passes = passes;
    stats->final_cut = result.edge_cut();
  }
  return result;
}

}  // namespace gbis
