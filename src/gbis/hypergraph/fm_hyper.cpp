#include "gbis/hypergraph/fm_hyper.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "gbis/partition/buckets.hpp"

namespace gbis {

namespace {

/// Pass-local working state: a shadow of the partition that is rolled
/// forward move by move (the real HyperBisection is only touched when
/// the winning prefix is applied).
struct PassState {
  const Hypergraph* h;
  std::vector<std::uint8_t> sides;
  std::vector<std::array<std::uint32_t, 2>> phi;
  std::vector<Weight> gains;
  std::vector<std::uint8_t> locked;
  GainBuckets* buckets;

  void update_gain(Cell c, Weight delta) {
    gains[c] += delta;
    if (!locked[c]) buckets->update(c, gains[c]);
  }

  /// The single free-gain-update rules of FM 1982, applied around
  /// moving `base` from `from` to `to`.
  void apply_move(Cell base) {
    const int from = sides[base];
    const int to = from ^ 1;
    for (Net n : h->nets_of(base)) {
      const Weight w = h->net_weight(n);
      auto& counts = phi[n];
      // Before the move:
      if (counts[to] == 0) {
        // Net was uncut; it will become cut: every other free pin now
        // gains from following the base cell.
        for (Cell u : h->pins(n)) {
          if (u != base) update_gain(u, w);
        }
      } else if (counts[to] == 1) {
        // Exactly one pin already on `to`: moving it back would have
        // un-cut the net, but after the base arrives it no longer
        // would.
        for (Cell u : h->pins(n)) {
          if (u != base && sides[u] == to) {
            update_gain(u, -w);
            break;
          }
        }
      }
      --counts[from];
      ++counts[to];
      // After the move:
      if (counts[from] == 0) {
        // Net is now entirely on `to`: pins no longer gain by moving
        // toward it.
        for (Cell u : h->pins(n)) {
          if (u != base) update_gain(u, -w);
        }
      } else if (counts[from] == 1) {
        // One straggler left on `from`: moving it would un-cut the net.
        for (Cell u : h->pins(n)) {
          if (u != base && sides[u] == from) {
            update_gain(u, w);
            break;
          }
        }
      }
    }
    sides[base] ^= 1;
  }
};

Weight hyper_fm_pass(HyperBisection& bisection, const HyperFmOptions& options,
                     HyperFmStats* stats) {
  const Hypergraph& h = bisection.hypergraph();
  const std::uint32_t n = h.num_cells();
  if (n < 2) return 0;

  // Gain bound: a cell's gain is within +-(sum of its nets' weights).
  Weight max_gain = 1;
  for (Cell c = 0; c < n; ++c) {
    Weight sum = 0;
    for (Net net : h.nets_of(c)) sum += h.net_weight(net);
    max_gain = std::max(max_gain, sum);
  }

  GainBuckets buckets(n, max_gain);
  PassState state;
  state.h = &h;
  state.sides.assign(bisection.sides().begin(), bisection.sides().end());
  state.phi.resize(h.num_nets());
  for (Net net = 0; net < h.num_nets(); ++net) {
    state.phi[net] = {bisection.pins_on_side(net, 0),
                      bisection.pins_on_side(net, 1)};
  }
  state.gains.resize(n);
  state.locked.assign(n, 0);
  state.buckets = &buckets;
  std::uint32_t counts[2] = {bisection.side_count(0),
                             bisection.side_count(1)};
  for (Cell c = 0; c < n; ++c) {
    state.gains[c] = bisection.gain(c);
    buckets.insert(c, state.sides[c], state.gains[c]);
  }

  const std::uint64_t transient_tolerance =
      static_cast<std::uint64_t>(options.balance_tolerance) + 1;

  std::vector<Cell> sequence;
  sequence.reserve(n);
  Weight cumulative = 0, best_prefix_gain = 0;
  std::size_t best_prefix_len = 0;

  for (std::uint32_t step = 0; step < n; ++step) {
    const Weight top[2] = {buckets.max_gain_present(0),
                           buckets.max_gain_present(1)};
    int from = -1;
    for (int s = 0; s < 2; ++s) {
      if (top[s] == GainBuckets::kEmpty) continue;
      const std::int64_t diff = static_cast<std::int64_t>(counts[1 - s]) + 1 -
                                (static_cast<std::int64_t>(counts[s]) - 1);
      if (static_cast<std::uint64_t>(diff < 0 ? -diff : diff) >
          transient_tolerance) {
        continue;
      }
      if (from == -1 || counts[s] > counts[from] ||
          (counts[s] == counts[from] && top[s] > top[from])) {
        from = s;
      }
    }
    if (from == -1) break;

    const auto c = static_cast<Cell>(buckets.bucket_head(from, top[from]));
    buckets.remove(c);
    state.locked[c] = 1;
    sequence.push_back(c);
    cumulative += state.gains[c];
    state.apply_move(c);
    --counts[from];
    ++counts[from ^ 1];

    const std::uint32_t imbalance =
        counts[0] >= counts[1] ? counts[0] - counts[1]
                               : counts[1] - counts[0];
    if (cumulative > best_prefix_gain &&
        imbalance <= options.balance_tolerance) {
      best_prefix_gain = cumulative;
      best_prefix_len = sequence.size();
    }
  }

  if (stats != nullptr) {
    stats->moves_considered += sequence.size();
    stats->moves_applied += best_prefix_len;
  }
  for (std::size_t i = 0; i < best_prefix_len; ++i) {
    bisection.move(sequence[i]);
  }
  return best_prefix_gain;
}

}  // namespace

HyperFmStats hyper_fm_refine(HyperBisection& bisection,
                             const HyperFmOptions& options) {
  if (bisection.count_imbalance() > options.balance_tolerance) {
    throw std::invalid_argument(
        "hyper_fm_refine: input violates the balance tolerance");
  }
  HyperFmStats stats;
  stats.initial_cut = bisection.cut();
  for (;;) {
    const Weight improvement = hyper_fm_pass(bisection, options, &stats);
    ++stats.passes;
    if (improvement <= 0) break;
    if (options.max_passes != 0 && stats.passes >= options.max_passes) break;
  }
  stats.final_cut = bisection.cut();
  return stats;
}

}  // namespace gbis
