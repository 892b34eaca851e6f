// Unit and property tests for the partition substrate: Bisection
// bookkeeping, gain arithmetic, and balance repair.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/gen/gnp.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/partition/balance.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/partition/buckets.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/partition/refine_workspace.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {
namespace {

Graph square() {  // 4-cycle 0-1-2-3
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  return b.build();
}

TEST(Bisection, CutComputation) {
  const Graph g = square();
  // {0,1} vs {2,3}: edges (1,2) and (3,0) cross.
  Bisection b(g, {0, 0, 1, 1});
  EXPECT_EQ(b.cut(), 2);
  // {0,2} vs {1,3}: all four edges cross.
  Bisection b2(g, {0, 1, 0, 1});
  EXPECT_EQ(b2.cut(), 4);
}

TEST(Bisection, RejectsBadSides) {
  const Graph g = square();
  EXPECT_THROW(Bisection(g, {0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Bisection(g, {0, 0, 1, 2}), std::invalid_argument);
}

TEST(Bisection, CountsAndWeights) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.set_vertex_weight(0, 3);
  const Graph g = builder.build();
  Bisection b(g, {0, 0, 1, 1});
  EXPECT_EQ(b.side_count(0), 2u);
  EXPECT_EQ(b.side_count(1), 2u);
  EXPECT_EQ(b.side_weight(0), 4);
  EXPECT_EQ(b.side_weight(1), 2);
  EXPECT_EQ(b.weight_imbalance(), 2);
  EXPECT_EQ(b.count_imbalance(), 0u);
  EXPECT_TRUE(b.is_balanced());
}

TEST(Bisection, RandomIsBalanced) {
  Rng rng(1);
  for (std::uint32_t n : {2u, 3u, 10u, 11u, 100u}) {
    const Graph g = make_path(n);
    const Bisection b = Bisection::random(g, rng);
    EXPECT_LE(b.count_imbalance(), 1u);
    EXPECT_TRUE(b.validate());
  }
}

TEST(Bisection, PlantedSplitsHalves) {
  const Graph g = make_path(6);
  const Bisection b = Bisection::planted(g);
  EXPECT_EQ(b.side(0), 0);
  EXPECT_EQ(b.side(2), 0);
  EXPECT_EQ(b.side(3), 1);
  EXPECT_EQ(b.cut(), 1);  // only edge (2,3) crosses
}

TEST(Bisection, MoveUpdatesCutIncrementally) {
  const Graph g = square();
  Bisection b(g, {0, 0, 1, 1});
  b.move(1);  // now {0} vs {1,2,3}
  EXPECT_EQ(b.cut(), 2);
  EXPECT_EQ(b.side(1), 1);
  EXPECT_EQ(b.side_count(0), 1u);
  EXPECT_EQ(b.cut(), b.recompute_cut());
  EXPECT_TRUE(b.validate());
}

TEST(Bisection, SwapKeepsBalance) {
  const Graph g = square();
  Bisection b(g, {0, 0, 1, 1});
  b.swap(1, 2);
  EXPECT_EQ(b.side_count(0), 2u);
  EXPECT_EQ(b.cut(), b.recompute_cut());
  EXPECT_THROW(b.swap(0, 2), std::invalid_argument);  // both side 0 now
}

TEST(Bisection, GainMatchesDefinition) {
  const Graph g = square();
  const Bisection b(g, {0, 0, 1, 1});
  // Vertex 0: one external edge (to 3), one internal (to 1): gain 0.
  EXPECT_EQ(b.gain(0), 0);
  Bisection lopsided(g, {0, 1, 1, 1});
  // Vertex 0: both edges external: gain 2.
  EXPECT_EQ(lopsided.gain(0), 2);
  // Moving v changes cut by -gain.
  const Weight before = lopsided.cut();
  const Weight gain = lopsided.gain(0);
  lopsided.move(0);
  EXPECT_EQ(lopsided.cut(), before - gain);
}

TEST(Bisection, WeightToSide) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 4);
  builder.add_edge(0, 2, 9);
  const Graph g = builder.build();
  const Bisection b(g, {0, 0, 1});
  EXPECT_EQ(b.weight_to_side(0, 0), 4);
  EXPECT_EQ(b.weight_to_side(0, 1), 9);
}

// Property: under arbitrary random move sequences, the incremental cut
// always equals the from-scratch cut (swept over sizes).
class BisectionMoveProperty : public testing::TestWithParam<std::uint32_t> {};

TEST_P(BisectionMoveProperty, IncrementalCutAlwaysConsistent) {
  const std::uint32_t n = GetParam();
  Rng rng(n * 7919 + 1);
  const Graph g = make_gnp(n, 6.0 / n, rng);
  Bisection b = Bisection::random(g, rng);
  for (int step = 0; step < 200; ++step) {
    b.move(static_cast<Vertex>(rng.below(n)));
    ASSERT_EQ(b.cut(), b.recompute_cut()) << "n=" << n << " step=" << step;
  }
  EXPECT_TRUE(b.validate());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BisectionMoveProperty,
                         testing::Values(8u, 17u, 32u, 64u, 129u, 256u));

// Property: gain-update formulas agree with recomputed gains.
class GainUpdateProperty : public testing::TestWithParam<std::uint32_t> {};

TEST_P(GainUpdateProperty, MoveUpdateMatchesRecompute) {
  const std::uint32_t n = GetParam();
  Rng rng(n * 104729 + 7);
  const Graph g = make_gnp(n, 8.0 / n, rng);
  Bisection b = Bisection::random(g, rng);
  std::vector<Weight> gains = all_gains(b);
  std::vector<std::uint8_t> sides(b.sides().begin(), b.sides().end());
  for (int step = 0; step < 100; ++step) {
    const auto v = static_cast<Vertex>(rng.below(n));
    update_gains_after_move(g, sides, v, gains);
    sides[v] ^= 1;
    b.move(v);
    const std::vector<Weight> fresh = all_gains(b);
    ASSERT_EQ(gains, fresh) << "step " << step;
  }
}

TEST_P(GainUpdateProperty, SwapUpdateMatchesRecompute) {
  const std::uint32_t n = GetParam();
  Rng rng(n * 31337 + 3);
  const Graph g = make_gnp(n, 8.0 / n, rng);
  Bisection b = Bisection::random(g, rng);
  std::vector<Weight> gains = all_gains(b);
  std::vector<std::uint8_t> sides(b.sides().begin(), b.sides().end());
  for (int step = 0; step < 60; ++step) {
    // Pick a random opposite-side pair.
    Vertex a = 0, c = 0;
    do {
      a = static_cast<Vertex>(rng.below(n));
    } while (sides[a] != 0);
    do {
      c = static_cast<Vertex>(rng.below(n));
    } while (sides[c] != 1);
    update_gains_after_swap(g, sides, a, c, gains);
    b.swap(a, c);
    sides[a] = 1;
    sides[c] = 0;
    const std::vector<Weight> fresh = all_gains(b);
    // The formula leaves the swapped pair's own entries stale (callers
    // lock them); fix them up before comparing.
    gains[a] = fresh[a];
    gains[c] = fresh[c];
    ASSERT_EQ(gains, fresh) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GainUpdateProperty,
                         testing::Values(16u, 33u, 64u, 128u));

TEST(PairGain, AccountsForSharedEdge) {
  const Graph g = square();
  const Bisection b(g, {0, 0, 1, 1});
  const auto gains = all_gains(b);
  // Pair (1, 2) shares an edge: g_12 = g_1 + g_2 - 2.
  EXPECT_EQ(pair_gain(g, 1, 2, gains[1], gains[2]),
            gains[1] + gains[2] - 2);
  // Pair (1, 3) does not: g_13 = g_1 + g_3.
  EXPECT_EQ(pair_gain(g, 1, 3, gains[1], gains[3]), gains[1] + gains[3]);
}

TEST(Rebalance, RestoresBalance) {
  Rng rng(5);
  const Graph g = make_gnp(64, 0.1, rng);
  std::vector<std::uint8_t> sides(64, 0);
  for (int i = 0; i < 10; ++i) sides[i] = 1;  // 54 vs 10
  Bisection b(g, std::move(sides));
  const std::uint32_t moved = rebalance(b);
  EXPECT_EQ(moved, 22u);  // 54 -> 32
  EXPECT_TRUE(b.is_balanced());
  EXPECT_EQ(b.cut(), b.recompute_cut());
}

TEST(Rebalance, NoOpWhenBalanced) {
  Rng rng(6);
  const Graph g = make_gnp(30, 0.2, rng);
  Bisection b = Bisection::random(g, rng);
  const Weight cut = b.cut();
  EXPECT_EQ(rebalance(b), 0u);
  EXPECT_EQ(b.cut(), cut);
}

TEST(Rebalance, AllOnOneSide) {
  const Graph g = make_cycle(10);
  Bisection b(g, std::vector<std::uint8_t>(10, 0));
  rebalance(b);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_TRUE(b.validate());
}

// Every bucket test runs on both storages (the same gains under a bound
// whose heads fit the dense array, and under one past it, which selects
// the ordered maps) and on both sides of one object. The other side
// holds a twin of every vertex the test inserts, at the same gain, and
// keeps it: nothing the test sees of its own side may depend on it.
class GainBucketStorage : public testing::TestWithParam<bool> {
 protected:
  GainBuckets make(std::uint32_t capacity, Weight max_gain) {
    twin_ = capacity;
    GainBuckets buckets(2 * capacity, GetParam() ? max_gain : kMaxTotalWeight);
    EXPECT_EQ(buckets.dense(), GetParam());
    return buckets;
  }

  /// Inserts v on `side` and its twin, at the same gain, on the other.
  void insert(GainBuckets& buckets, int side, Vertex v, Weight g) {
    buckets.insert(v, side, g);
    buckets.insert(v + twin_, 1 - side, g);
    twins_.push_back(v + twin_);
  }

  /// The other side still iterates its twins in insertion (LIFO) order
  /// within each gain, as a fresh object holding only them would.
  void expect_twins_intact(const GainBuckets& buckets, int side) const {
    GainBuckets fresh(2 * twin_, GetParam() ? 5 : kMaxTotalWeight);
    for (const Vertex t : twins_) fresh.insert(t, 1 - side, buckets.gain(t));
    EXPECT_EQ(order(buckets, 1 - side), order(fresh, 1 - side));
  }

  /// Every vertex on `side`: descending gains, each bucket in order.
  static std::vector<std::int64_t> order(const GainBuckets& buckets,
                                         int side) {
    std::vector<std::int64_t> out;
    for (Weight g = buckets.max_gain_present(side); g != GainBuckets::kEmpty;
         g = buckets.next_below(side, g)) {
      for (auto it = buckets.bucket_head(side, g); it != GainBuckets::kNil;
           it = buckets.bucket_next(static_cast<Vertex>(it))) {
        out.push_back(it);
      }
    }
    return out;
  }

  std::uint32_t twin_ = 0;
  std::vector<Vertex> twins_;
};

TEST_P(GainBucketStorage, InsertRemoveUpdate) {
  for (const int side : {0, 1}) {
    SCOPED_TRACE(testing::Message() << "side " << side);
    twins_.clear();
    GainBuckets buckets = make(10, 5);
    EXPECT_TRUE(buckets.empty(side));
    insert(buckets, side, 3, 2);
    insert(buckets, side, 4, -5);
    insert(buckets, side, 5, 2);
    EXPECT_EQ(buckets.max_gain_present(side), 2);
    EXPECT_EQ(buckets.next_below(side, 2), -5);
    EXPECT_EQ(buckets.next_below(side, -5), GainBuckets::kEmpty);
    EXPECT_TRUE(buckets.contains(3));
    EXPECT_FALSE(buckets.contains(0));
    EXPECT_EQ(buckets.gain(4), -5);

    buckets.remove(5);
    EXPECT_EQ(buckets.max_gain_present(side), 2);
    buckets.remove(3);
    EXPECT_EQ(buckets.max_gain_present(side), -5);
    EXPECT_EQ(buckets.bucket_head(side, 2), GainBuckets::kNil);
    buckets.update(4, 5);  // on its side
    EXPECT_EQ(buckets.max_gain_present(side), 5);
    EXPECT_EQ(buckets.next_below(side, 5), GainBuckets::kEmpty);
    buckets.remove(4);
    EXPECT_TRUE(buckets.empty(side));
    EXPECT_FALSE(buckets.contains(4));
    expect_twins_intact(buckets, side);
  }
}

TEST_P(GainBucketStorage, BucketIterationCoversAll) {
  for (const int side : {0, 1}) {
    SCOPED_TRACE(testing::Message() << "side " << side);
    twins_.clear();
    GainBuckets buckets = make(6, 3);
    insert(buckets, side, 0, 1);
    insert(buckets, side, 1, 1);
    insert(buckets, side, 2, 1);
    insert(buckets, side, 3, -3);
    insert(buckets, side, 4, 3);
    // Descending gains, each bucket in LIFO order.
    EXPECT_EQ(order(buckets, side), (std::vector<std::int64_t>{4, 2, 1, 0, 3}));
    // An update that changes a gain moves the vertex to its new head.
    buckets.update(0, 3);
    EXPECT_EQ(buckets.bucket_head(side, 3), 0);
    EXPECT_EQ(buckets.bucket_next(0), 4);
    // One that keeps the gain keeps the place, mid-bucket or at a head.
    buckets.update(1, 1);
    buckets.update(0, 3);
    EXPECT_EQ(order(buckets, side), (std::vector<std::int64_t>{0, 4, 2, 1, 3}));
    expect_twins_intact(buckets, side);
  }
}

TEST_P(GainBucketStorage, RemoveMiddleOfBucket) {
  for (const int side : {0, 1}) {
    SCOPED_TRACE(testing::Message() << "side " << side);
    twins_.clear();
    GainBuckets buckets = make(6, 3);
    insert(buckets, side, 0, 1);
    insert(buckets, side, 1, 1);
    insert(buckets, side, 2, 1);
    buckets.remove(1);  // middle of the linked list (insertion order 2,1,0)
    int count = 0;
    for (auto it = buckets.bucket_head(side, 1); it != GainBuckets::kNil;
         it = buckets.bucket_next(static_cast<Vertex>(it))) {
      EXPECT_NE(it, 1);
      ++count;
    }
    EXPECT_EQ(count, 2);
    // Emptying the bucket takes its gain out of the scan.
    insert(buckets, side, 3, -2);
    buckets.remove(2);
    buckets.remove(0);
    EXPECT_EQ(buckets.max_gain_present(side), -2);
    EXPECT_EQ(buckets.bucket_head(side, 1), GainBuckets::kNil);
    expect_twins_intact(buckets, side);
  }
}

// A refine clears one object between passes instead of building a new
// one, so a cleared object must hold nothing and then fill exactly as a
// fresh one does.
TEST_P(GainBucketStorage, ClearedRefillIteratesLikeAFreshObject) {
  GainBuckets used = make(12, 5);
  for (Vertex v = 0; v < 12; ++v) used.insert(v, v % 2, v % 3 == 0 ? -1 : 4);
  for (Vertex v = 0; v < 12; v += 3) used.update(v, 5);
  used.remove(7);
  used.remove(4);
  used.clear();
  for (const int side : {0, 1}) EXPECT_TRUE(used.empty(side));
  for (Vertex v = 0; v < 24; ++v) EXPECT_FALSE(used.contains(v));

  GainBuckets fresh = make(12, 5);
  for (GainBuckets* buckets : {&used, &fresh}) {
    for (Vertex v = 24; v-- > 0;) {
      buckets->insert(v, (v / 3) % 2, static_cast<Weight>(v % 5) - 2);
    }
    buckets->update(3, 5);
    buckets->update(20, -5);
    buckets->remove(9);
  }
  for (const int side : {0, 1}) {
    EXPECT_EQ(order(used, side), order(fresh, side)) << "side " << side;
  }
}

INSTANTIATE_TEST_SUITE_P(Storages, GainBucketStorage, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "dense" : "sparse";
                         });

// The sparse storage takes a head from its pool of |V| spare nodes for
// every non-empty gain and returns it when the bucket empties. All |V|
// vertices at distinct gains need every spare head at once, so a head
// that an emptied bucket, an update or clear() failed to return would
// leave a fill without one.
TEST(GainBuckets, SparseHeadPoolSurvivesRefills) {
  constexpr std::uint32_t n = 64;
  GainBuckets buckets(n, kMaxTotalWeight);
  ASSERT_FALSE(buckets.dense());
  const Weight step = Weight{1} << 40;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    // All |V| at distinct gains, then every one moved to another
    // distinct gain (each update returns a head and takes one).
    for (Vertex v = 0; v < n; ++v) {
      buckets.insert(v, v % 2, (Weight{v} - n / 2) * step + round);
    }
    for (Vertex v = 0; v < n; ++v) {
      buckets.update(v, (Weight{n / 2} - v) * step - round);
    }
    for (const int side : {0, 1}) {
      std::vector<std::int64_t> got, want;
      for (Weight g = buckets.max_gain_present(side);
           g != GainBuckets::kEmpty; g = buckets.next_below(side, g)) {
        EXPECT_EQ(buckets.bucket_next(
                      static_cast<Vertex>(buckets.bucket_head(side, g))),
                  GainBuckets::kNil);
        got.push_back(buckets.bucket_head(side, g));
      }
      for (Vertex v = side; v < n; v += 2) want.push_back(v);
      EXPECT_EQ(got, want);
    }
    // Empty them one by one, then clear.
    for (Vertex v = 0; v < n; ++v) buckets.remove(v);
    for (const int side : {0, 1}) EXPECT_TRUE(buckets.empty(side));
    buckets.clear();
  }
}

TEST(GainBuckets, DenseUpToSixteenHeadsPerVertexOrTheFloor) {
  EXPECT_TRUE(GainBuckets(10, (GainBuckets::kDenseFloor - 1) / 2).dense());
  EXPECT_FALSE(GainBuckets(10, GainBuckets::kDenseFloor / 2).dense());
  const std::uint32_t n = 100000;
  const Weight heads = GainBuckets::kDenseFactor * Weight{n};
  EXPECT_TRUE(GainBuckets(n, (heads - 1) / 2).dense());
  EXPECT_FALSE(GainBuckets(n, heads / 2).dense());
  // The Graph constructor bounds gains by the largest weighted degree,
  // which is 2 on a cycle.
  GainBuckets from_graph(make_cycle(10));
  EXPECT_TRUE(from_graph.dense());
  from_graph.insert(0, 0, -2);
  from_graph.insert(9, 0, 2);
  from_graph.insert(5, 1, -1);
  EXPECT_EQ(from_graph.max_gain_present(0), 2);
  EXPECT_EQ(from_graph.next_below(0, 2), -2);
  EXPECT_EQ(from_graph.max_gain_present(1), -1);
}

// --- RefineWorkspace: a prefix's predicted gain is the cut's fall ---------

/// The path 0-1-2-3 cut between 1 and 2.
Graph path4() {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  return b.build();
}

TEST(RefineWorkspace, PrefixFallsByItsPredictedGain) {
  const Graph g = path4();
  Bisection bisection(g, {0, 0, 1, 1});
  RefineWorkspace ws(bisection);
  ws.begin_pass();
  // Swap 1 and 2, a KL pair across the cut: g1 + g2 - 2w(1, 2) = -2.
  ws.sequence = {1, 2};
  ws.apply_prefix(bisection, 2, ws.gains[1] + ws.gains[2] - 2, "kl_refine");
  EXPECT_EQ(bisection.cut(), 3);
  // Then move 2 back, with the gain the kept gains now give it.
  ws.begin_pass();
  ws.sequence = {2};
  ASSERT_EQ(ws.gains[2], 2);
  ws.apply_prefix(bisection, 1, ws.gains[2], "fm_refine");
  EXPECT_EQ(bisection.cut(), 1);
}

TEST(RefineWorkspace, StaleGainsThrowInsteadOfLooping) {
  const Graph g = path4();
  for (const char* refiner : {"kl_refine", "fm_refine"}) {
    Bisection bisection(g, {0, 0, 1, 1});
    RefineWorkspace ws(bisection);
    bisection.move(1);  // behind the workspace's back: 0's gain is now +1
    ws.begin_pass();
    ASSERT_EQ(ws.gains[0], -1);  // the stale gain
    ws.sequence = {0};
    try {
      ws.apply_prefix(bisection, 1, ws.gains[0], refiner);
      FAIL() << "a stale gain was applied silently";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(refiner) +
                    ": a pass predicted a gain of -1 but the cut fell by 1");
    }
  }
}

}  // namespace
}  // namespace gbis
