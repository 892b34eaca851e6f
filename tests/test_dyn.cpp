// Dynamic-graph subsystem suite: deterministic edit batches
// (dyn/mutation), the byte-bounded graph store (dyn/graph_store), the
// fingerprint lineage DAG (dyn/lineage), and the warm-start pipeline
// (dyn/warm). The service-level behavior of the `mutate` op lives in
// test_svc.cpp; this file pins the layer underneath it.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/core/contract.hpp"
#include "gbis/core/matching.hpp"
#include "gbis/dyn/graph_store.hpp"
#include "gbis/dyn/lineage.hpp"
#include "gbis/dyn/mutation.hpp"
#include "gbis/dyn/warm.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/kl/kl.hpp"
#include "gbis/partition/balance.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {
namespace {

Graph make_path(Vertex n) {
  GraphBuilder builder(n);
  for (Vertex v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

MutationBatch add_edge_batch(std::uint64_t u, std::uint64_t v) {
  MutationBatch batch;
  batch.add_edges = {u, v};
  return batch;
}

// --- apply_mutation --------------------------------------------------------

TEST(Mutation, AddEdgeProducesExpectedChild) {
  const Graph parent = make_path(3);  // 0-1-2
  const MutationResult result = apply_mutation(parent, add_edge_batch(0, 2));
  EXPECT_EQ(result.child.num_vertices(), 3u);
  EXPECT_EQ(result.child.num_edges(), 3u);
  EXPECT_TRUE(result.child.has_edge(0, 2));
  // No vertex changes: the map is the identity.
  ASSERT_EQ(result.map.size(), 3u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(result.map[v], v);
}

TEST(Mutation, AddVerticesAppendsIsolatedWeightOne) {
  const Graph parent = make_path(2);
  MutationBatch batch;
  batch.add_vertices = 2;
  const MutationResult result = apply_mutation(parent, batch);
  ASSERT_EQ(result.child.num_vertices(), 4u);
  EXPECT_EQ(result.child.num_edges(), 1u);
  EXPECT_EQ(result.child.degree(2), 0u);
  EXPECT_EQ(result.child.vertex_weight(3), 1);
  // New ids are addressable by the same batch's edge edits.
  MutationBatch wired;
  wired.add_vertices = 1;
  wired.add_edges = {2, 0};
  const MutationResult wired_result = apply_mutation(parent, wired);
  EXPECT_TRUE(wired_result.child.has_edge(0, 2));
}

TEST(Mutation, DuplicateEdgeAddThrows) {
  const Graph parent = make_path(3);
  // Duplicate of a parent edge.
  EXPECT_THROW(apply_mutation(parent, add_edge_batch(0, 1)),
               std::invalid_argument);
  // Duplicate within the batch (either orientation).
  MutationBatch twice;
  twice.add_edges = {0, 2, 2, 0};
  EXPECT_THROW(apply_mutation(parent, twice), std::invalid_argument);
}

TEST(Mutation, SelfLoopAndOutOfRangeEndpointsThrow) {
  const Graph parent = make_path(3);
  EXPECT_THROW(apply_mutation(parent, add_edge_batch(1, 1)),
               std::invalid_argument);
  EXPECT_THROW(apply_mutation(parent, add_edge_batch(0, 3)),
               std::invalid_argument);
  MutationBatch del_oob;
  del_oob.del_edges = {0, 9};
  EXPECT_THROW(apply_mutation(parent, del_oob), std::invalid_argument);
}

TEST(Mutation, OddEdgeListThrows) {
  const Graph parent = make_path(3);
  MutationBatch odd;
  odd.add_edges = {0};
  EXPECT_THROW(apply_mutation(parent, odd), std::invalid_argument);
  MutationBatch odd_del;
  odd_del.del_edges = {0, 1, 2};
  EXPECT_THROW(apply_mutation(parent, odd_del), std::invalid_argument);
}

TEST(Mutation, DeletingNonexistentEdgeThrows) {
  const Graph parent = make_path(3);
  MutationBatch missing;
  missing.del_edges = {0, 2};  // never existed
  EXPECT_THROW(apply_mutation(parent, missing), std::invalid_argument);
  MutationBatch twice;
  twice.del_edges = {0, 1, 1, 0};  // second delete sees it gone
  EXPECT_THROW(apply_mutation(parent, twice), std::invalid_argument);
}

TEST(Mutation, DeletingBatchAddedEdgeIsANetNoop) {
  const Graph parent = make_path(3);
  MutationBatch batch;
  batch.add_edges = {0, 2};
  batch.del_edges = {2, 0};  // the batch's own edge, other orientation
  const MutationResult result = apply_mutation(parent, batch);
  EXPECT_EQ(graph_fingerprint(result.child), graph_fingerprint(parent));
  EXPECT_GT(batch.edit_distance(), 0u);  // edits happened, net zero
}

TEST(Mutation, VertexDeletionRenumbersCompactly) {
  const Graph parent = make_path(4);  // 0-1-2-3
  MutationBatch batch;
  batch.del_vertices = {1};
  const MutationResult result = apply_mutation(parent, batch);
  ASSERT_EQ(result.child.num_vertices(), 3u);
  // Survivors renumber in ascending old-id order: 0->0, 2->1, 3->2.
  ASSERT_EQ(result.map.size(), 4u);
  EXPECT_EQ(result.map[0], 0u);
  EXPECT_EQ(result.map[1], kDeletedVertex);
  EXPECT_EQ(result.map[2], 1u);
  EXPECT_EQ(result.map[3], 2u);
  // Incident edges (0,1) and (1,2) vanish; (2,3) survives as (1,2).
  EXPECT_EQ(result.child.num_edges(), 1u);
  EXPECT_TRUE(result.child.has_edge(1, 2));
}

TEST(Mutation, VertexDeletionPreservesSurvivorWeights) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.set_vertex_weight(2, 7);
  const Graph parent = builder.build();
  MutationBatch batch;
  batch.del_vertices = {0};
  const MutationResult result = apply_mutation(parent, batch);
  EXPECT_EQ(result.child.vertex_weight(result.map[2]), 7);
}

TEST(Mutation, DuplicateOrOutOfRangeVertexDeleteThrows) {
  const Graph parent = make_path(4);
  MutationBatch twice;
  twice.del_vertices = {1, 1};
  EXPECT_THROW(apply_mutation(parent, twice), std::invalid_argument);
  MutationBatch oob;
  oob.del_vertices = {4};
  EXPECT_THROW(apply_mutation(parent, oob), std::invalid_argument);
}

TEST(Mutation, ApplyIsDeterministic) {
  const Graph parent = make_grid(4, 4);
  MutationBatch batch;
  batch.add_vertices = 2;
  batch.add_edges = {16, 0, 17, 5};
  batch.del_edges = {0, 1};
  batch.del_vertices = {3};
  const MutationResult a = apply_mutation(parent, batch);
  const MutationResult b = apply_mutation(parent, batch);
  EXPECT_EQ(graph_fingerprint(a.child), graph_fingerprint(b.child));
  EXPECT_EQ(a.map, b.map);
}

TEST(Mutation, BatchHashIsOrderAndFieldSensitive) {
  MutationBatch a;
  a.add_edges = {0, 1, 2, 3};
  MutationBatch b;
  b.add_edges = {2, 3, 0, 1};
  EXPECT_NE(a.hash(), b.hash());
  // The same numbers in a different field are a different batch.
  MutationBatch c;
  c.del_edges = {0, 1, 2, 3};
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash(), MutationBatch{a}.hash());
}

// --- Model check: edit chains against a rebuild from scratch --------------

using EdgeKey = std::pair<Vertex, Vertex>;  // u < v

EdgeKey key_of(Vertex u, Vertex v) { return {std::min(u, v), std::max(u, v)}; }

/// A graph as the model sees it: an edge set with weights and the
/// vertex weights, kept apart from the CSR and apply_mutation.
struct GraphModel {
  std::map<EdgeKey, Weight> edges;
  std::vector<Weight> vertex_weights;
};

GraphModel model_of(const Graph& g) {
  GraphModel model;
  for (const Edge& e : g.edges()) model.edges[{e.u, e.v}] = e.weight;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    model.vertex_weights.push_back(g.vertex_weight(v));
  }
  return model;
}

/// The model's graph built from scratch: its edges shuffled and each
/// added in a random orientation.
Graph rebuild(const GraphModel& model, Rng& rng) {
  std::vector<Edge> edges;
  for (const auto& [key, weight] : model.edges) {
    edges.push_back({key.first, key.second, weight});
  }
  rng.shuffle(edges);
  GraphBuilder builder(static_cast<Vertex>(model.vertex_weights.size()));
  for (const Edge& e : edges) {
    if (rng.below(2) == 0) {
      builder.add_edge(e.u, e.v, e.weight);
    } else {
      builder.add_edge(e.v, e.u, e.weight);
    }
  }
  for (Vertex v = 0; v < model.vertex_weights.size(); ++v) {
    builder.set_vertex_weight(v, model.vertex_weights[v]);
  }
  return builder.build();
}

/// A random valid batch over `model`: up to 3 new vertices; edge adds,
/// some of them to the new vertices; deletes of existing edges and
/// sometimes of one the batch itself added; and up to 2 deletes of
/// vertices that have edges. Edges appear in either orientation.
MutationBatch random_batch(const GraphModel& model, Rng& rng) {
  const auto n = static_cast<Vertex>(model.vertex_weights.size());
  MutationBatch batch;
  batch.add_vertices = rng.below(4);
  const Vertex extended = n + static_cast<Vertex>(batch.add_vertices);
  const auto push = [&rng](std::vector<std::uint64_t>& list, EdgeKey key) {
    if (rng.below(2) == 0) std::swap(key.first, key.second);
    list.push_back(key.first);
    list.push_back(key.second);
  };

  std::vector<EdgeKey> added;
  const std::uint64_t want_adds = 1 + rng.below(8);
  for (int tries = 0; added.size() < want_adds && tries < 200; ++tries) {
    const Vertex u = static_cast<Vertex>(rng.below(extended));
    const Vertex v =
        batch.add_vertices > 0 && tries % 3 == 0
            ? n + static_cast<Vertex>(rng.below(batch.add_vertices))
            : static_cast<Vertex>(rng.below(extended));
    const EdgeKey key = key_of(u, v);
    if (u == v || model.edges.count(key) != 0 ||
        std::find(added.begin(), added.end(), key) != added.end()) {
      continue;
    }
    added.push_back(key);
    push(batch.add_edges, key);
  }

  std::vector<EdgeKey> deletes;
  for (const auto& [key, weight] : model.edges) deletes.push_back(key);
  rng.shuffle(deletes);
  deletes.resize(std::min<std::size_t>(deletes.size(), rng.below(6)));
  if (!added.empty() && rng.below(2) == 0) {
    deletes.push_back(added[rng.below(added.size())]);
  }
  rng.shuffle(deletes);
  for (const EdgeKey& key : deletes) push(batch.del_edges, key);

  // Endpoints of edges that survive the edge edits, so every deleted
  // vertex takes edges with it.
  std::vector<EdgeKey> edited = added;
  for (const auto& [key, weight] : model.edges) edited.push_back(key);
  std::set<Vertex> with_edges;
  for (const EdgeKey& key : edited) {
    if (std::find(deletes.begin(), deletes.end(), key) == deletes.end()) {
      with_edges.insert(key.first);
      with_edges.insert(key.second);
    }
  }
  std::vector<Vertex> candidates(with_edges.begin(), with_edges.end());
  rng.shuffle(candidates);
  candidates.resize(std::min<std::size_t>(candidates.size(), rng.below(3)));
  batch.del_vertices.assign(candidates.begin(), candidates.end());
  return batch;
}

/// Applies `batch` to the model by the documented rules (vertex adds,
/// edge adds, edge deletes, vertex deletes with compact ascending
/// renumbering) and returns the extended-id -> new-id map.
std::vector<Vertex> apply_to_model(GraphModel& model,
                                   const MutationBatch& batch) {
  model.vertex_weights.resize(
      model.vertex_weights.size() + batch.add_vertices, 1);
  for (std::size_t i = 0; i < batch.add_edges.size(); i += 2) {
    model.edges[key_of(static_cast<Vertex>(batch.add_edges[i]),
                       static_cast<Vertex>(batch.add_edges[i + 1]))] = 1;
  }
  for (std::size_t i = 0; i < batch.del_edges.size(); i += 2) {
    model.edges.erase(key_of(static_cast<Vertex>(batch.del_edges[i]),
                             static_cast<Vertex>(batch.del_edges[i + 1])));
  }
  const std::set<std::uint64_t> dead(batch.del_vertices.begin(),
                                     batch.del_vertices.end());
  std::vector<Vertex> map(model.vertex_weights.size(), kDeletedVertex);
  GraphModel next;
  for (Vertex v = 0; v < map.size(); ++v) {
    if (dead.count(v) != 0) continue;
    map[v] = static_cast<Vertex>(next.vertex_weights.size());
    next.vertex_weights.push_back(model.vertex_weights[v]);
  }
  for (const auto& [key, weight] : model.edges) {
    if (map[key.first] != kDeletedVertex && map[key.second] != kDeletedVertex) {
      next.edges[key_of(map[key.first], map[key.second])] = weight;
    }
  }
  model = std::move(next);
  return map;
}

TEST(Mutation, ChainsMatchARebuildFromScratch) {
  Rng rng(9);
  const Graph gnp = make_gnp(120, gnp_p_for_degree(120, 4.0), rng);
  const Graph gbreg = make_regular_planted({120, 8, 3}, rng);
  const Graph ladder = make_ladder(40);
  // A coarse level, so vertex and edge weights are not all 1.
  const Graph coarse =
      contract_matching(gnp, maximal_matching(gnp, rng), rng).coarse;
  ASSERT_GT(coarse.total_vertex_weight(), coarse.num_vertices());

  const Graph* starts[] = {&gnp, &gbreg, &ladder, &coarse};
  int vertex_deletes = 0, self_cancels = 0;
  for (std::size_t s = 0; s < std::size(starts); ++s) {
    Graph graph = *starts[s];
    GraphModel model = model_of(graph);
    for (int step = 0; step < 8; ++step) {
      SCOPED_TRACE("start " + std::to_string(s) + " step " +
                   std::to_string(step));
      const MutationBatch batch = random_batch(model, rng);
      vertex_deletes += static_cast<int>(batch.del_vertices.size());
      for (std::size_t i = 0; i < batch.del_edges.size(); i += 2) {
        const EdgeKey key =
            key_of(static_cast<Vertex>(batch.del_edges[i]),
                   static_cast<Vertex>(batch.del_edges[i + 1]));
        self_cancels += model.edges.count(key) == 0 ? 1 : 0;
      }
      const MutationResult result = apply_mutation(graph, batch);
      const std::vector<Vertex> map = apply_to_model(model, batch);
      ASSERT_EQ(result.map, map);
      ASSERT_EQ(result.child.num_edges(), model.edges.size());
      ASSERT_EQ(graph_fingerprint(result.child),
                graph_fingerprint(rebuild(model, rng)));
      graph = result.child;
    }
  }
  // The chains reached both edits the model renumbers or cancels.
  EXPECT_GT(vertex_deletes, 0);
  EXPECT_GT(self_cancels, 0);
}

// --- GraphStore ------------------------------------------------------------

std::shared_ptr<const Graph> shared_path(Vertex n) {
  return std::make_shared<const Graph>(make_path(n));
}

TEST(GraphStore, EvictsLeastRecentlyUsedFirst) {
  const auto g = shared_path(8);
  const std::uint64_t unit = graph_bytes(*g);
  GraphStore store(2 * unit);  // room for two path-8 graphs
  store.insert(1, shared_path(8));
  store.insert(2, shared_path(8));
  ASSERT_NE(store.lookup(1), nullptr);  // promote 1; 2 is now LRU
  store.insert(3, shared_path(8));
  EXPECT_TRUE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_TRUE(store.contains(3));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST(GraphStore, OversizedGraphIsStillAdmittedAlone) {
  const auto small = shared_path(4);
  GraphStore store(graph_bytes(*small));
  store.insert(1, small);
  store.insert(2, shared_path(64));  // far over budget
  EXPECT_FALSE(store.contains(1));
  EXPECT_TRUE(store.contains(2));
  EXPECT_EQ(store.stats().entries, 1u);
}

TEST(GraphStore, LookupCountsHitsAndMisses) {
  GraphStore store(1 << 20);
  store.insert(1, shared_path(4));
  EXPECT_NE(store.lookup(1), nullptr);
  EXPECT_EQ(store.lookup(2), nullptr);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 1u);
  // contains() never counts.
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(GraphStore, SharedPtrKeepsEvictedGraphAlive) {
  const auto g = shared_path(8);
  GraphStore store(graph_bytes(*g));
  store.insert(1, g);
  const std::shared_ptr<const Graph> held = store.lookup(1);
  store.insert(2, shared_path(8));  // evicts 1
  ASSERT_FALSE(store.contains(1));
  EXPECT_EQ(held->num_vertices(), 8u);  // the handed-out copy survives
}

// --- SvcLineage ------------------------------------------------------------

LineageRecord make_record(std::uint64_t parent, std::uint64_t child,
                          std::uint64_t batch_hash, std::uint32_t depth,
                          std::vector<Vertex> map = {0, 1, 2, 3}) {
  LineageRecord record;
  record.parent = parent;
  record.child = child;
  record.batch_hash = batch_hash;
  record.edit_distance = 1;
  record.depth = depth;
  record.parent_vertices = 4;
  record.vadds = map.empty() ? 0 : map.size() - 4;
  record.child_vertices = 4;
  record.map = std::move(map);
  return record;
}

TEST(SvcLineage, IndexesByChildAndByBatch) {
  SvcLineage lineage(8, 16);
  const auto [stored, inserted] =
      lineage.insert(make_record(100, 200, 7, 1));
  ASSERT_TRUE(inserted);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(lineage.by_child(200), stored);
  EXPECT_EQ(lineage.by_batch(100, 7), stored);
  EXPECT_EQ(lineage.by_child(100), nullptr);
  EXPECT_EQ(lineage.by_batch(100, 8), nullptr);
  EXPECT_EQ(lineage.depth_of(200), 1u);
  EXPECT_EQ(lineage.depth_of(100), 0u);  // roots have no record
}

TEST(SvcLineage, FirstRecordWins) {
  SvcLineage lineage(8, 16);
  lineage.insert(make_record(100, 200, 7, 1));
  // A second edge claiming the same child is a duplicate re-derivation.
  const auto [stored, inserted] = lineage.insert(make_record(101, 200, 9, 2));
  EXPECT_FALSE(inserted);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->parent, 100u);
  EXPECT_EQ(lineage.size(), 1u);
}

TEST(SvcLineage, EmptyMapHealsFromMatchingShape) {
  SvcLineage lineage(8, 16);
  // A journal-restored record: identity only, no map.
  lineage.insert(make_record(100, 200, 7, 1, {}));
  EXPECT_TRUE(lineage.by_child(200)->map.empty());
  // Re-materializing the chain heals it in place (parent_vertices +
  // vadds = 4 + 0 entries).
  const auto [stored, inserted] =
      lineage.insert(make_record(100, 200, 7, 1, {0, 1, 2, 3}));
  EXPECT_FALSE(inserted);  // not a new record
  EXPECT_EQ(stored->map.size(), 4u);
  EXPECT_FALSE(lineage.by_child(200)->map.empty());
}

TEST(SvcLineage, FullStoreRefusesNewRecords) {
  SvcLineage lineage(8, 1);
  ASSERT_TRUE(lineage.insert(make_record(100, 200, 7, 1)).second);
  EXPECT_TRUE(lineage.full());
  const auto [stored, inserted] = lineage.insert(make_record(200, 300, 7, 2));
  EXPECT_EQ(stored, nullptr);
  EXPECT_FALSE(inserted);
  // A repeat of the resident record still answers.
  EXPECT_NE(lineage.insert(make_record(100, 200, 7, 1)).first, nullptr);
}

TEST(SvcLineage, PointersSurviveLaterInserts) {
  SvcLineage lineage(64, 4096);
  const LineageRecord* first = lineage.insert(make_record(0, 1, 1, 1)).first;
  for (std::uint64_t i = 1; i < 1000; ++i) {
    lineage.insert(make_record(i, i + 1, 1, static_cast<std::uint32_t>(i)));
  }
  EXPECT_EQ(first->child, 1u);  // deque storage: no reallocation
  EXPECT_EQ(lineage.by_child(1), first);
}

// --- Warm start ------------------------------------------------------------

TEST(WarmStart, PlanWalksToTheNearestCachedAncestor) {
  SvcLineage lineage(8, 16);
  lineage.insert(make_record(100, 200, 1, 1));
  lineage.insert(make_record(200, 300, 2, 2));
  WarmPlan plan;
  // Only the root has a result: the chain covers both edges.
  ASSERT_TRUE(plan_warm_start(
      lineage, 300, 100, [](std::uint64_t fp) { return fp == 100; }, plan));
  EXPECT_EQ(plan.ancestor, 100u);
  EXPECT_EQ(plan.cumulative_edits, 2u);
  ASSERT_EQ(plan.chain.size(), 2u);
  EXPECT_EQ(plan.chain[0]->child, 200u);  // ancestor-down order
  EXPECT_EQ(plan.chain[1]->child, 300u);
  // The middle graph has a result too: the shorter chain wins.
  ASSERT_TRUE(plan_warm_start(
      lineage, 300, 100, [](std::uint64_t fp) { return fp == 200; }, plan));
  EXPECT_EQ(plan.ancestor, 200u);
  EXPECT_EQ(plan.chain.size(), 1u);
}

TEST(WarmStart, PlanGivesUpPastEditBudgetOrMaplessEdge) {
  SvcLineage lineage(8, 16);
  lineage.insert(make_record(100, 200, 1, 1));
  lineage.insert(make_record(200, 300, 2, 2));
  WarmPlan plan;
  // Cumulative edits (2) exceed the budget (1).
  EXPECT_FALSE(plan_warm_start(
      lineage, 300, 1, [](std::uint64_t fp) { return fp == 100; }, plan));
  // A journal-restored (map-less) edge is non-projectable.
  SvcLineage restored(8, 16);
  restored.insert(make_record(100, 200, 1, 1, {}));
  EXPECT_FALSE(plan_warm_start(
      restored, 200, 100, [](std::uint64_t fp) { return fp == 100; }, plan));
  // No cached ancestor anywhere: the walk reaches the root and fails.
  EXPECT_FALSE(plan_warm_start(
      lineage, 300, 100, [](std::uint64_t) { return false; }, plan));
}

TEST(WarmStart, ProjectSidesFollowsMapsAndMarksNewVertices) {
  SvcLineage lineage(8, 16);
  // Edge 1: delete vertex 1 of a 4-vertex parent (map 0,-,1,2), then
  // add one vertex -> child has 4 vertices, the last one chain-born.
  LineageRecord edge;
  edge.parent = 100;
  edge.child = 200;
  edge.batch_hash = 1;
  edge.depth = 1;
  edge.parent_vertices = 4;
  edge.vadds = 1;
  edge.child_vertices = 4;
  edge.map = {0, kDeletedVertex, 1, 2, 3};
  const LineageRecord* stored = lineage.insert(std::move(edge)).first;
  WarmPlan plan;
  plan.ancestor = 100;
  plan.chain = {stored};
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(project_sides(plan, {0, 0, 1, 1}, out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0);             // parent 0
  EXPECT_EQ(out[1], 1);             // parent 2
  EXPECT_EQ(out[2], 1);             // parent 3
  EXPECT_EQ(out[3], kUnplacedSide);  // chain-born
  // Shape mismatch (stale plan) is detected, not mis-projected.
  EXPECT_FALSE(project_sides(plan, {0, 0, 1}, out));
}

TEST(WarmStart, WarmSolveFinishesAProjectedPartition) {
  const Graph g = make_grid(4, 4);
  // Seed: the left half placed, the right half unplaced.
  std::vector<std::uint8_t> seeded(16, kUnplacedSide);
  for (Vertex v = 0; v < 16; ++v) {
    if (v % 4 < 2) seeded[v] = 0;
  }
  const WarmSolveResult result =
      warm_solve(g, seeded, /*max_passes=*/4, Deadline());
  ASSERT_EQ(result.sides.size(), 16u);
  Weight left = 0;
  for (const std::uint8_t side : result.sides) {
    ASSERT_LE(side, 1);  // every sentinel was placed
    if (side == 0) ++left;
  }
  EXPECT_EQ(left, 8);  // balanced
  // The 4x4 grid's optimal bisection cuts 4 edges; a warm refinement
  // of a half-good seed must find it.
  EXPECT_EQ(result.cut, 4);
  // Pure function of its inputs.
  const WarmSolveResult again =
      warm_solve(g, seeded, /*max_passes=*/4, Deadline());
  EXPECT_EQ(again.cut, result.cut);
  EXPECT_EQ(again.sides, result.sides);
}

/// A seeded batch of about `fraction` of g's edges: half new edges
/// (every fourth to one of the batch's 1-3 new vertices), half deletes
/// of existing edges, and 1-2 deletes of original vertices.
MutationBatch sized_batch(const Graph& g, double fraction, Rng& rng) {
  const Vertex n = g.num_vertices();
  const auto edits = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(fraction * static_cast<double>(
                                                   g.num_edges())));
  MutationBatch batch;
  batch.add_vertices = 1 + rng.below(3);
  const Vertex extended = n + static_cast<Vertex>(batch.add_vertices);
  std::set<EdgeKey> added;
  while (added.size() < edits / 2) {
    const auto u = static_cast<Vertex>(rng.below(extended));
    const auto v =
        added.size() % 4 == 0
            ? n + static_cast<Vertex>(rng.below(batch.add_vertices))
            : static_cast<Vertex>(rng.below(extended));
    const EdgeKey key = key_of(u, v);
    if (u == v || added.count(key) != 0 ||
        (key.second < n && g.has_edge(u, v))) {
      continue;
    }
    added.insert(key);
    batch.add_edges.push_back(u);
    batch.add_edges.push_back(v);
  }
  std::vector<Edge> edges = g.edges();
  rng.shuffle(edges);
  for (std::size_t i = 0; i < edits - edits / 2 && i < edges.size(); ++i) {
    batch.del_edges.push_back(edges[i].v);
    batch.del_edges.push_back(edges[i].u);
  }
  const auto first = rng.below(n);
  batch.del_vertices.push_back(first);
  if (rng.below(2) == 0) batch.del_vertices.push_back((first + 1) % n);
  return batch;
}

/// The start warm_solve refines, rebuilt from its documented rule:
/// each chain-born vertex, in ascending id, joins the side holding more
/// of its placed neighbors' weight (ties: the lighter side, then 0);
/// then the balance is repaired.
Bisection placed_and_rebalanced(const Graph& g,
                                std::vector<std::uint8_t> seeded) {
  Weight side_weight[2] = {0, 0};
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (seeded[v] <= 1) side_weight[seeded[v]] += g.vertex_weight(v);
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (seeded[v] != kUnplacedSide) continue;
    Weight attached[2] = {0, 0};
    for (std::size_t i = 0; i < g.neighbors(v).size(); ++i) {
      const std::uint8_t side = seeded[g.neighbors(v)[i]];
      if (side <= 1) attached[side] += g.edge_weights(v)[i];
    }
    const int side = attached[0] != attached[1]
                         ? (attached[0] > attached[1] ? 0 : 1)
                         : (side_weight[0] <= side_weight[1] ? 0 : 1);
    seeded[v] = static_cast<std::uint8_t>(side);
    side_weight[side] += g.vertex_weight(v);
  }
  Bisection start(g, std::move(seeded));
  rebalance(start);
  return start;
}

// warm_solve against an oracle over generated mutate chains: the
// parent's cold KL answer, projected through plan_warm_start and
// project_sides onto a child 1, 10 or 20 % of |E| edits away, must
// come back legal, with an honest cut no worse than the start the
// refine was given, and the same on a second call.
TEST(WarmStart, WarmSolveOracleOverGeneratedBatches) {
  Rng gen(24);
  const Graph parents[] = {make_gnp(300, gnp_p_for_degree(300, 5.0), gen),
                           make_regular_planted({300, 8, 3}, gen),
                           make_ladder(150)};
  int improved = 0;
  for (std::size_t p = 0; p < std::size(parents); ++p) {
    const Graph& parent = parents[p];
    Bisection cold = Bisection::random(parent, gen);
    kl_refine(cold);
    const std::vector<std::uint8_t> cold_sides(cold.sides().begin(),
                                               cold.sides().end());
    const std::uint64_t parent_fp = graph_fingerprint(parent);
    for (const double fraction : {0.01, 0.10, 0.20}) {
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(testing::Message() << "parent " << p << " fraction "
                                        << fraction << " round " << round);
        const MutationBatch batch = sized_batch(parent, fraction, gen);
        MutationResult mutated = apply_mutation(parent, batch);
        LineageRecord record;
        record.parent = parent_fp;
        record.child = graph_fingerprint(mutated.child);
        record.batch_hash = batch.hash();
        record.vadds = batch.add_vertices;
        record.edit_distance = batch.edit_distance();
        record.parent_vertices = parent.num_vertices();
        record.child_vertices = mutated.child.num_vertices();
        record.map = std::move(mutated.map);
        SvcLineage lineage(8, 16);
        lineage.insert(std::move(record));
        WarmPlan plan;
        ASSERT_TRUE(plan_warm_start(
            lineage, graph_fingerprint(mutated.child), batch.edit_distance(),
            [&](std::uint64_t fp) { return fp == parent_fp; }, plan));
        std::vector<std::uint8_t> projected;
        ASSERT_TRUE(project_sides(plan, cold_sides, projected));

        const Graph& child = mutated.child;
        const WarmSolveResult result =
            warm_solve(child, projected, /*max_passes=*/8, Deadline());
        ASSERT_EQ(result.sides.size(), child.num_vertices());
        for (const std::uint8_t side : result.sides) ASSERT_LE(side, 1);
        const Bisection answer(child, result.sides);
        EXPECT_TRUE(answer.is_balanced());
        EXPECT_EQ(result.cut, answer.recompute_cut());
        const Bisection start = placed_and_rebalanced(child, projected);
        EXPECT_LE(result.cut, start.cut());
        improved += result.cut < start.cut() ? 1 : 0;
        const WarmSolveResult again =
            warm_solve(child, projected, /*max_passes=*/8, Deadline());
        EXPECT_EQ(again.sides, result.sides);
        EXPECT_EQ(again.cut, result.cut);
      }
    }
  }
  // The refine has work to do on these chains, so the bound is not
  // met only by returning the start.
  EXPECT_GT(improved, 0);
}

TEST(WarmStart, WarmSolveRejectsWrongSeedShape) {
  const Graph g = make_path(4);
  EXPECT_THROW(warm_solve(g, std::vector<std::uint8_t>(3, 0), 4, Deadline()),
               std::invalid_argument);
}

}  // namespace
}  // namespace gbis
