// FM-style gain buckets for both sides of a bisection: vertices grouped
// by side and gain in doubly-linked lists, with O(1) insert/remove/update
// and descending scans that visit only non-empty gains. Shared by the
// Kernighan-Lin pair-selection scan, the Fiduccia-Mattheyses and k-way
// FM refinement loops, hypergraph FM and path optimization.
//
// Order: on each side, gains descend, and within one gain the most
// recently inserted vertex comes first (LIFO). An update that changes a
// gain re-inserts the vertex on its side, so it moves to the head of its
// new bucket; an update that keeps the gain keeps its place.
//
// Layout: one node array. Node v < capacity is vertex v: its gain, its
// side and 32-bit next/prev links. The nodes after the vertices are the
// bucket heads. Each bucket is a circular list through its head (a
// sentinel), empty when the head links to itself, so linking and
// unlinking a vertex never tests for an end. An absent vertex links to
// itself.
//
// Memory is O(capacity) whatever the edge weights. The constructor
// picks one of two storages for the heads, and both keep the order
// above, so the choice never changes a walk:
//  - dense: one head per side and gain in [-max_gain, +max_gain], used
//    when those 2 * max_gain + 1 heads per side fit in max(kDenseFloor,
//    kDenseFactor * capacity). Insert, remove and update are O(1) and
//    take no data-dependent branch; max_gain_present() and next_below()
//    step down through empty gains (amortized O(1) across a monotone
//    sequence of extractions, O(range) worst case).
//  - sparse: per side, an ordered map from each non-empty gain to its
//    head, taken from a pool of `capacity` spare nodes (every non-empty
//    bucket holds a vertex, so the pool never runs out). Insert and
//    remove are O(log k) for k non-empty gains, max_gain_present() is
//    O(1) and next_below() is O(log k).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "gbis/graph/graph.hpp"

namespace gbis {

class GainBuckets {
 public:
  /// The dense storage serves any gain range of up to kDenseFloor
  /// heads per side, or of up to kDenseFactor heads per side and vertex.
  static constexpr Weight kDenseFloor = Weight{1} << 16;
  static constexpr Weight kDenseFactor = 16;

  /// Creates empty buckets for vertices in [0, capacity) on sides 0
  /// and 1, and gains in [-max_gain, +max_gain].
  GainBuckets(std::uint32_t capacity, Weight max_gain)
      : capacity_(capacity),
        max_gain_(max_gain),
        dense_(max_gain <=
               (std::max(kDenseFloor, kDenseFactor * Weight{capacity}) - 1) /
                   2),
        span_(dense_ ? 2 * max_gain + 1 : 0),
        base_{dense_ ? Weight{capacity} + max_gain : 0,
              dense_ ? Weight{capacity} + span_ + max_gain : 0} {
    const Weight heads = dense_ ? 2 * span_ : Weight{capacity};
    if (heads > Weight{kNone} - capacity) {
      throw std::length_error("GainBuckets: node ids exceed 32 bits");
    }
    nodes_.resize(static_cast<std::size_t>(capacity + heads));
    if (!dense_) pool_.reserve(capacity);
    clear();
  }

  /// Empty buckets for the vertex gains of g: a gain is bounded by the
  /// largest weighted degree.
  explicit GainBuckets(const Graph& g)
      : GainBuckets(g.num_vertices(),
                    std::max(Weight{1}, g.max_weighted_degree())) {}

  /// Empties both sides and keeps the storage.
  void clear() {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].next = i;
      nodes_[i].prev = i;
    }
    cursor_[0] = cursor_[1] = -max_gain_;
    if (!dense_) {
      sparse_[0].clear();
      sparse_[1].clear();
      pool_.clear();
      for (std::uint32_t i = 0; i < capacity_; ++i) {
        pool_.push_back(capacity_ + i);
      }
    }
  }

  /// Highest gain with a nonempty bucket on `side`; kEmpty if none.
  static constexpr Weight kEmpty = std::numeric_limits<Weight>::min();
  Weight max_gain_present(int side) const {
    if (!dense_) {
      return sparse_[side].empty() ? kEmpty : sparse_[side].rbegin()->first;
    }
    Weight& cursor = cursor_[side];
    for (Weight g = cursor; g >= -max_gain_; --g) {
      if (occupied(dense_head(side, g))) {
        cursor = g;
        return g;
      }
    }
    cursor = -max_gain_;
    return kEmpty;
  }

  /// Highest gain below `g` (itself within the bound) with a nonempty
  /// bucket on `side`; kEmpty if none.
  Weight next_below(int side, Weight g) const {
    if (!dense_) {
      const auto it = sparse_[side].lower_bound(g);
      return it == sparse_[side].begin() ? kEmpty : std::prev(it)->first;
    }
    for (--g; g >= -max_gain_; --g) {
      if (occupied(dense_head(side, g))) return g;
    }
    return kEmpty;
  }

  bool empty(int side) const { return max_gain_present(side) == kEmpty; }

  bool contains(Vertex v) const { return nodes_[v].next != v; }

  Weight gain(Vertex v) const {
    assert(contains(v));
    return nodes_[v].gain;
  }

  /// First vertex in the bucket for (side, g); kNil if empty.
  static constexpr std::int64_t kNil = -1;
  std::int64_t bucket_head(int side, Weight g) const {
    if (dense_) return vertex_or_nil(nodes_[dense_head(side, g)].next);
    const auto it = sparse_[side].find(g);
    return it == sparse_[side].end() ? kNil
                                     : vertex_or_nil(nodes_[it->second].next);
  }

  /// Next vertex after v within its bucket; kNil at the end.
  std::int64_t bucket_next(Vertex v) const {
    return vertex_or_nil(nodes_[v].next);
  }

  void insert(Vertex v, int side, Weight g) {
    assert(!contains(v));
    assert(side == 0 || side == 1);
    nodes_[v].side = static_cast<std::uint8_t>(side);
    link(v, dense_ ? dense_head(side, g) : sparse_head(side, g), g);
  }

  void remove(Vertex v) {
    assert(contains(v));
    const std::uint32_t prev = unlink(v);
    // Unlinking the last vertex leaves the head linked to itself.
    if (!dense_ && nodes_[prev].next == prev) release(nodes_[v], prev);
    nodes_[v].next = v;
    nodes_[v].prev = v;
  }

  /// Moves v, on its side, to the head of the bucket for `g`; keeps
  /// its place if the gain is unchanged.
  void update(Vertex v, Weight g) {
    assert(contains(v));
    Node& node = nodes_[v];
    if (!dense_) {
      if (node.gain == g) return;
      remove(v);
      insert(v, node.side, g);
      return;
    }
    // Unlink, then link after the old predecessor (the same place) or
    // the new head: a select instead of a branch.
    const std::uint32_t prev = unlink(v);
    const std::uint32_t head = dense_head(node.side, g);
    link(v, node.gain == g ? prev : head, g);
  }

  /// True if the heads live in the dense array (see the header comment).
  bool dense() const { return dense_; }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    Weight gain = 0;
    std::uint32_t next = 0;
    std::uint32_t prev = 0;
    std::uint8_t side = 0;
  };

  std::uint32_t dense_head(int side, Weight g) const {
    assert(g >= -max_gain_ && g <= max_gain_);
    return static_cast<std::uint32_t>(base_[side] + g);
  }

  bool occupied(std::uint32_t head) const { return nodes_[head].next != head; }

  std::int64_t vertex_or_nil(std::uint32_t node) const {
    return node < capacity_ ? std::int64_t{node} : kNil;
  }

  /// Links v right after node `at` with gain g.
  void link(Vertex v, std::uint32_t at, Weight g) {
    assert(g >= -max_gain_ && g <= max_gain_);
    Node& node = nodes_[v];
    const std::uint32_t next = nodes_[at].next;
    node.gain = g;
    node.prev = at;
    node.next = next;
    nodes_[next].prev = v;
    nodes_[at].next = v;
    cursor_[node.side] = std::max(cursor_[node.side], g);
  }

  /// Unlinks v from its bucket and returns its predecessor; v's own
  /// links are left stale.
  std::uint32_t unlink(Vertex v) {
    const Node& node = nodes_[v];
    nodes_[node.prev].next = node.next;
    nodes_[node.next].prev = node.prev;
    return node.prev;
  }

  /// Sparse: the head for (side, g), taken from the pool if new.
  std::uint32_t sparse_head(int side, Weight g) {
    const auto [it, added] = sparse_[side].try_emplace(g, kNone);
    if (added) {
      assert(!pool_.empty());
      it->second = pool_.back();
      pool_.pop_back();
    }
    return it->second;
  }

  /// Sparse: returns the emptied head of `node`'s bucket to the pool.
  void release(const Node& node, std::uint32_t head) {
    sparse_[node.side].erase(node.gain);
    pool_.push_back(head);
  }

  std::uint32_t capacity_;
  Weight max_gain_;
  bool dense_;
  Weight span_;      // dense: heads per side
  Weight base_[2];   // dense: node id of side s's gain-0 head
  mutable Weight cursor_[2] = {0, 0};  // dense: descending search hints
  std::vector<Node> nodes_;
  std::map<Weight, std::uint32_t> sparse_[2];  // sparse: non-empty gains
  std::vector<std::uint32_t> pool_;            // sparse: spare heads
};

}  // namespace gbis
