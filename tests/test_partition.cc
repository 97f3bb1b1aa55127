// Tests for graph::Partitioner (graph/partition.h): golden deterministic
// edge-cut owners, every shard owning a column, locality routing, and the
// exchange byte accounting the shard cost model relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "tests/testing.h"

namespace gs::graph {
namespace {

// Star graph: node 0 is a hub with `spokes` in- and out-edges, a power-law
// caricature.
Graph StarGraph(int32_t spokes = 20) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t i = 1; i <= spokes; ++i) {
    edges.push_back({i, 0});
  }
  for (int32_t i = 1; i <= spokes; ++i) {
    edges.push_back({0, i});
  }
  return Graph::FromEdges("star", spokes + 1, edges, nullptr);
}

// ------------------------------------------------------------ goldens

// The partition is a pure function of (graph, shards): these exact splits
// are part of the contract — a change here silently re-homes every plan
// keyed by shard and must be deliberate.
TEST(Partition, GoldenEdgeCutToyGraph) {
  const Graph toy = testing::ToyGraph();
  const Partition two = Partitioner::EdgeCut(toy, 2);
  const std::vector<int32_t> expected_two = {0, 0, 0, 1, 1, 1, 1};
  for (int32_t v = 0; v < toy.num_nodes(); ++v) {
    EXPECT_EQ(two.OwnerOf(v), expected_two[static_cast<size_t>(v)]) << "node " << v;
  }

  const Partition three = Partitioner::EdgeCut(toy, 3);
  const std::vector<int32_t> expected_three = {0, 0, 1, 1, 2, 2, 2};
  for (int32_t v = 0; v < toy.num_nodes(); ++v) {
    EXPECT_EQ(three.OwnerOf(v), expected_three[static_cast<size_t>(v)]) << "node " << v;
  }
}

TEST(Partition, DeterministicAcrossRebuilds) {
  const Graph g = testing::SmallRmat(300, 3000, 9);
  const Partition a = Partitioner::Build(g, PartitionKind::kEdgeCut, 4);
  const Partition b = Partitioner::Build(g, PartitionKind::kEdgeCut, 4);
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(a.OwnerOf(v), b.OwnerOf(v)) << "node " << v;
  }
}

// --------------------------------------------------- structural invariants

TEST(Partition, EveryShardGetsAtLeastOneColumn) {
  // Pathological balance: two high-degree nodes, many isolated ones. The
  // contiguous split must still hand every shard a non-empty column range.
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t i = 2; i < 10; ++i) {
    edges.push_back({i, 0});
    edges.push_back({i, 1});
  }
  const Graph g = Graph::FromEdges("skew", 12, edges, nullptr);
  const Partition p = Partitioner::EdgeCut(g, 4);
  std::vector<int32_t> owners;
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    owners.push_back(p.OwnerOf(v));
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(std::count(owners.begin(), owners.end(), s), 0) << "shard " << s;
  }
  EXPECT_THROW(Partitioner::EdgeCut(g, 13), Error);  // more shards than nodes
}

// ------------------------------------------------------------- routing

TEST(Partition, HomeShardPluralityAndFolding) {
  const Graph toy = testing::ToyGraph();
  const Partition p = Partitioner::EdgeCut(toy, 2);  // owners: 0 0 0 1 1 1 1
  const std::vector<int32_t> shard0_heavy = {0, 1, 2, 5};
  EXPECT_EQ(p.HomeShard(shard0_heavy.data(), 4), 0);
  const std::vector<int32_t> shard1_heavy = {0, 3, 4, 6};
  EXPECT_EQ(p.HomeShard(shard1_heavy.data(), 4), 1);
  // Labeled super-batch ids fold modulo num_nodes: 7 + 1 ≡ 1, 14 + 2 ≡ 2.
  const std::vector<int32_t> labeled = {8, 16, 3};
  EXPECT_EQ(p.HomeShard(labeled.data(), 3), 0);
  // Negative ids (walk dead-ends) are skipped; empty frontiers go to 0.
  const std::vector<int32_t> negatives = {-1, -1, 4};
  EXPECT_EQ(p.HomeShard(negatives.data(), 3), 1);
  EXPECT_EQ(p.HomeShard(nullptr, 0), 0);
  // Ties break toward the lower shard id.
  const std::vector<int32_t> tie = {0, 4};
  EXPECT_EQ(p.HomeShard(tie.data(), 2), 0);
}

// ------------------------------------------------------ byte accounting

// An owner ships a neighbor id per adjacency slot, plus its weight on a
// weighted graph.
TEST(Partition, BytesPerEdge) {
  EXPECT_EQ(Partitioner::EdgeCut(StarGraph(20), 4).bytes_per_edge(), 4);  // unweighted
  EXPECT_EQ(Partitioner::EdgeCut(testing::ToyGraph(), 2).bytes_per_edge(), 8);
}

}  // namespace
}  // namespace gs::graph
