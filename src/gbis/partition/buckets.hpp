// FM-style gain buckets: vertices grouped by gain in doubly-linked
// lists, with O(1) insert/remove/update in the common case and
// descending scans that visit only non-empty gains. Shared by the
// Kernighan-Lin pair-selection scan, the Fiduccia-Mattheyses and k-way
// FM refinement loops, hypergraph FM and path optimization.
//
// Order: gains descend, and within one gain the most recently inserted
// vertex comes first (LIFO). An update that changes a gain re-inserts
// the vertex, so it moves to the head of its new bucket.
//
// Memory is O(capacity) whatever the edge weights. The constructor
// picks one of two storages for the list heads, and both keep the
// order above, so the choice never changes a walk:
//  - dense: one head per gain in [-max_gain, +max_gain], used when those
//    2 * max_gain + 1 heads fit in max(kDenseFloor, kDenseFactor *
//    capacity). Every operation is O(1), except that max_gain_present()
//    and next_below() step down through empty gains (amortized O(1)
//    across a monotone sequence of extractions, O(range) worst case).
//  - sparse: an ordered map from each non-empty gain to its head, used
//    for heavier weights. Insert and remove are O(log k) for k
//    non-empty gains, max_gain_present() is O(1) and next_below() is
//    O(log k). At most one map node exists per inserted vertex.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <vector>

#include "gbis/graph/graph.hpp"

namespace gbis {

class GainBuckets {
 public:
  /// The dense storage serves any gain range of up to kDenseFloor
  /// heads, or of up to kDenseFactor heads per vertex.
  static constexpr Weight kDenseFloor = Weight{1} << 16;
  static constexpr Weight kDenseFactor = 16;

  /// Creates empty buckets for vertices in [0, capacity) and gains in
  /// [-max_gain, +max_gain].
  GainBuckets(std::uint32_t capacity, Weight max_gain)
      : max_gain_(max_gain),
        dense_(max_gain <=
               (std::max(kDenseFloor, kDenseFactor * Weight{capacity}) - 1) /
                   2),
        head_(dense_ ? static_cast<std::size_t>(2 * max_gain + 1) : 0, kNil),
        next_(capacity, kNil),
        prev_(capacity, kNil),
        gain_(capacity, 0),
        present_(capacity, 0) {}

  /// Empty buckets for the vertex gains of g: a gain is bounded by the
  /// largest weighted degree.
  explicit GainBuckets(const Graph& g)
      : GainBuckets(g.num_vertices(),
                    std::max(Weight{1}, g.max_weighted_degree())) {}

  /// Highest gain with a nonempty bucket; kEmpty if none.
  static constexpr Weight kEmpty = std::numeric_limits<Weight>::min();
  Weight max_gain_present() const {
    if (!dense_) return sparse_.empty() ? kEmpty : sparse_.rbegin()->first;
    for (Weight g = cursor_; g >= -max_gain_; --g) {
      if (head_[index(g)] != kNil) {
        cursor_ = g;
        return g;
      }
    }
    cursor_ = -max_gain_;
    return kEmpty;
  }

  /// Highest gain below `g` (itself within the bound) with a nonempty
  /// bucket; kEmpty if none.
  Weight next_below(Weight g) const {
    if (!dense_) {
      const auto it = sparse_.lower_bound(g);
      return it == sparse_.begin() ? kEmpty : std::prev(it)->first;
    }
    for (--g; g >= -max_gain_; --g) {
      if (head_[index(g)] != kNil) return g;
    }
    return kEmpty;
  }

  bool contains(Vertex v) const { return present_[v] != 0; }

  Weight gain(Vertex v) const {
    assert(present_[v]);
    return gain_[v];
  }

  /// First vertex in the bucket for `g`; kNil if empty.
  static constexpr std::int64_t kNil = -1;
  std::int64_t bucket_head(Weight g) const {
    if (dense_) return head_[index(g)];
    const auto it = sparse_.find(g);
    return it == sparse_.end() ? kNil : it->second;
  }

  /// Next vertex after v within its bucket; kNil at the end.
  std::int64_t bucket_next(Vertex v) const { return next_[v]; }

  void insert(Vertex v, Weight g) {
    assert(!present_[v]);
    assert(g >= -max_gain_ && g <= max_gain_);
    std::int64_t& head =
        dense_ ? head_[index(g)] : sparse_.try_emplace(g, kNil).first->second;
    next_[v] = head;
    prev_[v] = kNil;
    if (head != kNil) prev_[static_cast<Vertex>(head)] = v;
    head = v;
    gain_[v] = g;
    present_[v] = 1;
    if (g > cursor_) cursor_ = g;
  }

  void remove(Vertex v) {
    assert(present_[v]);
    if (prev_[v] != kNil) {
      next_[static_cast<Vertex>(prev_[v])] = next_[v];
    } else if (dense_) {
      head_[index(gain_[v])] = next_[v];
    } else if (next_[v] != kNil) {
      sparse_.find(gain_[v])->second = next_[v];
    } else {
      sparse_.erase(gain_[v]);
    }
    if (next_[v] != kNil) prev_[static_cast<Vertex>(next_[v])] = prev_[v];
    present_[v] = 0;
  }

  /// Moves v to the head of a new gain bucket (no-op if unchanged).
  void update(Vertex v, Weight g) {
    assert(present_[v]);
    if (gain_[v] == g) return;
    remove(v);
    insert(v, g);
  }

  bool empty() const { return max_gain_present() == kEmpty; }

  /// True if the heads live in the dense array (see the header comment).
  bool dense() const { return dense_; }

 private:
  std::size_t index(Weight g) const {
    assert(g >= -max_gain_ && g <= max_gain_);
    return static_cast<std::size_t>(g + max_gain_);
  }

  Weight max_gain_;
  bool dense_;
  mutable Weight cursor_ = 0;  // dense: descending search hint
  std::vector<std::int64_t> head_;             // dense: head per gain
  std::map<Weight, std::int64_t> sparse_;      // sparse: non-empty gains
  std::vector<std::int64_t> next_;
  std::vector<std::int64_t> prev_;
  std::vector<Weight> gain_;
  std::vector<std::uint8_t> present_;
};

}  // namespace gbis
