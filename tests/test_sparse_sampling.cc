// Tests for the randomized sparse kernels: individual/collective/fused
// sampling, walks, restart walks, top-k visit counting — structural
// invariants plus statistical checks on the sampling distributions.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "device/device.h"
#include "fault/status.h"
#include "sparse/kernels.h"
#include "tests/testing.h"

namespace gs::sparse {
namespace {

using gs::testing::EdgeSet;
using tensor::IdArray;

class FanoutParam : public ::testing::TestWithParam<int64_t> {};

TEST_P(FanoutParam, IndividualSampleRespectsFanout) {
  const int64_t k = GetParam();
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({1, 2, 3, 4, 5, 6, 7, 8});
  Matrix sub = SliceColumns(g.adj(), cols);
  Rng rng(101);
  Matrix sample = IndividualSample(sub, k, ValueArray{}, {&rng, 1});
  EXPECT_EQ(sample.num_cols(), sub.num_cols());
  const Compressed& sub_csc = sub.Csc();
  const Compressed& s_csc = sample.Csc();
  const auto full = EdgeSet(sub);
  for (int64_t c = 0; c < sample.num_cols(); ++c) {
    const int64_t deg = sub_csc.indptr[c + 1] - sub_csc.indptr[c];
    const int64_t got = s_csc.indptr[c + 1] - s_csc.indptr[c];
    EXPECT_EQ(got, std::min(deg, k)) << "column " << c;
    // Without replacement: distinct rows per column.
    std::set<int32_t> rows;
    for (int64_t e = s_csc.indptr[c]; e < s_csc.indptr[c + 1]; ++e) {
      rows.insert(s_csc.indices[e]);
    }
    EXPECT_EQ(static_cast<int64_t>(rows.size()), got);
  }
  // Every sampled edge exists in the parent with the same weight.
  for (const auto& [edge, w] : EdgeSet(sample)) {
    auto it = full.find(edge);
    ASSERT_NE(it, full.end());
    EXPECT_FLOAT_EQ(it->second, w);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, FanoutParam, ::testing::Values(1, 2, 5, 25, 1000));

TEST(IndividualSample, ZeroProbEdgesNeverChosen) {
  graph::Graph g = gs::testing::ToyGraph();
  IdArray cols = IdArray::FromVector({0});  // in-neighbors {1, 2, 4}
  Matrix sub = SliceColumns(g.adj(), cols);
  ASSERT_EQ(sub.nnz(), 3);
  // Zero out the probability of the first edge.
  ValueArray probs = ValueArray::FromVector({0.0f, 1.0f, 1.0f});
  Rng rng(103);
  for (int t = 0; t < 100; ++t) {
    Matrix sample = IndividualSample(sub, 2, probs, {&rng, 1});
    const Compressed& csc = sample.Csc();
    for (int64_t e = 0; e < sample.nnz(); ++e) {
      EXPECT_NE(csc.indices[e], sub.Csc().indices[0]);
    }
  }
}

TEST(IndividualSample, BiasedDistribution) {
  // Single frontier, k=1: edge picked proportional to probs.
  graph::Graph g = gs::testing::ToyGraph();
  IdArray cols = IdArray::FromVector({0});
  Matrix sub = SliceColumns(g.adj(), cols);
  ValueArray probs = ValueArray::FromVector({1.0f, 2.0f, 7.0f});
  Rng rng(107);
  const int64_t trials = 30000;
  std::vector<int64_t> counts(3, 0);
  for (int64_t t = 0; t < trials; ++t) {
    Matrix sample = IndividualSample(sub, 1, probs, {&rng, 1});
    ASSERT_EQ(sample.nnz(), 1);
    for (int64_t e = 0; e < 3; ++e) {
      if (sample.Csc().indices[0] == sub.Csc().indices[e]) {
        ++counts[e];
      }
    }
  }
  const double stat = gs::testing::ChiSquare(counts, {0.1, 0.2, 0.7}, trials);
  EXPECT_LT(stat, 13.8);  // chi2(2 dof) at p=0.001
}

TEST(IndividualSample, InvalidArgsThrow) {
  graph::Graph g = gs::testing::ToyGraph();
  Rng rng(1);
  EXPECT_THROW(IndividualSample(g.adj(), 0, ValueArray{}, {&rng, 1}), Error);
  ValueArray short_probs = ValueArray::Full(2, 1.0f);
  EXPECT_THROW(IndividualSample(g.adj(), 1, short_probs, {&rng, 1}), Error);
}

TEST(CollectiveSample, SamplesAtMostKDistinctRows) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({0, 1, 2, 3});
  Matrix sub = SliceColumns(g.adj(), cols);
  ValueArray probs = SumAxis(sub, 0);
  Rng rng(109);
  Matrix sample = CollectiveSample(sub, 5, probs, {&rng, 1});
  EXPECT_LE(sample.num_rows(), 5);
  EXPECT_TRUE(sample.rows_compact());
  std::set<int32_t> ids;
  for (int64_t i = 0; i < sample.row_ids().size(); ++i) {
    ids.insert(sample.row_ids()[i]);
    // Selected rows must have positive bias (an edge to some frontier).
    EXPECT_GT(probs[sample.row_ids()[i]], 0.0f);
  }
  EXPECT_EQ(static_cast<int64_t>(ids.size()), sample.num_rows());
}

TEST(CollectiveSample, LayerWiseSharedNeighbors) {
  // The paper's Figure 1(c) point: layer-wise sampling never duplicates a
  // node even when several frontiers share it.
  graph::Graph g = gs::testing::ToyGraph();
  IdArray cols = IdArray::FromVector({1, 4});  // share in-neighbor f=5
  Matrix sub = SliceColumns(g.adj(), cols);
  ValueArray probs = SumAxis(sub, 0);
  Rng rng(113);
  Matrix sample = CollectiveSample(sub, 4, probs, {&rng, 1});
  std::set<int32_t> ids;
  for (int64_t i = 0; i < sample.row_ids().size(); ++i) {
    EXPECT_TRUE(ids.insert(sample.row_ids()[i]).second) << "duplicate sampled node";
  }
}

TEST(CollectiveSample, InclusionProportionalForK1) {
  // k = 1 collective sampling selects each candidate with probability
  // proportional to its bias.
  graph::Graph g = gs::testing::ToyGraph();
  IdArray cols = IdArray::FromVector({0});
  Matrix sub = SliceColumns(g.adj(), cols);  // candidates {1, 2, 4}
  ValueArray probs = ValueArray::Full(g.num_nodes(), 0.0f);
  probs[1] = 1.0f;
  probs[2] = 3.0f;
  probs[4] = 6.0f;
  Rng rng(211);
  const int64_t trials = 30000;
  std::map<int32_t, int64_t> counts;
  for (int64_t t = 0; t < trials; ++t) {
    Matrix sample = CollectiveSample(sub, 1, probs, {&rng, 1});
    ASSERT_EQ(sample.row_ids().size(), 1);
    ++counts[sample.row_ids()[0]];
  }
  const double stat = gs::testing::ChiSquare({counts[1], counts[2], counts[4]},
                                             {0.1, 0.3, 0.6}, trials);
  EXPECT_LT(stat, 13.8);  // chi2(2 dof) at p=0.001
}

TEST(CollectiveSample, DeterministicForSeed) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({3, 4, 5});
  Matrix sub = SliceColumns(g.adj(), cols);
  ValueArray probs = SumAxis(sub, 0);
  Rng a(77);
  Rng b(77);
  Matrix s1 = CollectiveSample(sub, 10, probs, {&a, 1});
  Matrix s2 = CollectiveSample(sub, 10, probs, {&b, 1});
  EXPECT_EQ(gs::testing::EdgeSet(s1), gs::testing::EdgeSet(s2));
}

TEST(FusedSliceSample, EquivalentToSliceThenSample) {
  // The fused kernel consumes randomness identically to the unfused pair,
  // so the sampled subgraphs are bit-identical for the same seed.
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({2, 4, 8, 16, 32});
  Rng rng_fused(127);
  Rng rng_unfused(127);
  Matrix fused = FusedSliceSample(g.adj(), cols, 3, {&rng_fused, 1});
  Matrix sub = SliceColumns(g.adj(), cols);
  Matrix unfused = IndividualSample(sub, 3, ValueArray{}, {&rng_unfused, 1});
  EXPECT_EQ(EdgeSet(fused), EdgeSet(unfused));
}

TEST(UniformWalkStep, StepsToInNeighbors) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cur = IdArray::FromVector({0, 1, 2, 3, 4, 5, 6, 7});
  Rng rng(131);
  IdArray next = UniformWalkStep(g.adj(), cur, {&rng, 1});
  const auto edges = EdgeSet(g.adj());
  for (int64_t i = 0; i < cur.size(); ++i) {
    if (next[i] >= 0) {
      EXPECT_NE(edges.find({next[i], cur[i]}), edges.end())
          << next[i] << " is not an in-neighbor of " << cur[i];
    }
  }
}

TEST(UniformWalkStep, DeadEndsAndTombstones) {
  // Node with no in-neighbors -> -1; -1 propagates.
  std::vector<std::pair<int32_t, int32_t>> edges = {{0, 1}};
  graph::Graph g = graph::Graph::FromEdges("line", 3, edges);
  IdArray cur = IdArray::FromVector({0, -1});
  Rng rng(137);
  IdArray next = UniformWalkStep(g.adj(), cur, {&rng, 1});
  EXPECT_EQ(next[0], -1);  // node 0 has no in-neighbors
  EXPECT_EQ(next[1], -1);
}

// --- Fused walks: one launch for the whole chain, the unfused chain's
// path and costs.

enum class WalkKind { kUniform, kRestart, kNode2Vec };

// 64 nodes; every fifth node has no in-edges, so walkers hit dead ends.
// The other edges mostly come in both directions, so node2vec's three bias
// classes (return, common neighbor, outward) all occur.
graph::Graph WalkGraph(bool uva) {
  constexpr int32_t kNodes = 64;
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t v = 0; v < kNodes; ++v) {
    if (v % 5 == 0) {
      continue;
    }
    for (const int32_t src : {(v * 7 + 1) % kNodes, (v * 13 + 3) % kNodes, (v * 3 + 2) % kNodes}) {
      edges.emplace_back(src, v);
      if (src % 5 != 0) {
        edges.emplace_back(v, src);
      }
    }
  }
  return graph::Graph::FromEdges("walk", kNodes, edges, nullptr, uva);
}

IdArray WalkStep(WalkKind kind, const Matrix& m, const IdArray& cur, const IdArray& aux,
                 std::span<Rng> rngs, int64_t num_nodes) {
  switch (kind) {
    case WalkKind::kUniform:
      return UniformWalkStep(m, cur, rngs, num_nodes);
    case WalkKind::kRestart:
      return UniformWalkStepRestart(m, cur, aux, 0.3f, rngs, num_nodes);
    case WalkKind::kNode2Vec:
      return Node2VecStep(m, cur, aux, 2.0f, 0.5f, rngs, num_nodes);
  }
  return {};
}

IdArray FusedWalk(WalkKind kind, const Matrix& m, const IdArray& start, const IdArray& aux,
                  int64_t steps, std::span<Rng> rngs, int64_t num_nodes) {
  switch (kind) {
    case WalkKind::kUniform:
      return UniformWalk(m, start, steps, rngs, num_nodes);
    case WalkKind::kRestart:
      return UniformWalkRestart(m, start, aux, 0.3f, steps, rngs, num_nodes);
    case WalkKind::kNode2Vec:
      return Node2VecWalk(m, start, aux, 2.0f, 0.5f, steps, rngs, num_nodes);
  }
  return {};
}

// The fused kernel writes the step-major path of the unfused chain bit for
// bit (solo, and 3 labeled segments drawing from their own streams), and
// charges the chain's work items, HBM and PCIe bytes in one launch: the
// model clock differs by exactly the saved launches. The test profile
// charges whole nanoseconds per item and byte, so the per-kernel integer
// model clock adds up exactly.
TEST(FusedWalk, MatchesUnfusedChainBitForBitAndCostForCost) {
  device::DeviceProfile profile = device::V100Sim();
  profile.model_compute_ns_per_item = 1.0;
  profile.hbm_penalty_ns_per_byte = 1.0;
  profile.pcie_ns_per_byte = 1.0;
  device::Device dev(profile);
  device::DeviceGuard guard(dev);
  constexpr int64_t kSteps = 7;
  constexpr int32_t kNodes = 64;
  int64_t dead = 0;
  for (const bool uva : {false, true}) {
    for (const int64_t segments : {1, 3}) {
      for (const WalkKind kind : {WalkKind::kUniform, WalkKind::kRestart, WalkKind::kNode2Vec}) {
        const std::string context = "kind " + std::to_string(static_cast<int>(kind)) +
                                    " uva " + std::to_string(uva) + " segments " +
                                    std::to_string(segments);
        // Labeled walkers b * N + v; node2vec's first step sees previous
        // positions, some -1 (a uniform first step).
        std::vector<int32_t> start;
        std::vector<int32_t> aux;
        for (int32_t b = 0; b < segments; ++b) {
          for (const int32_t v : {1, 3, 7, 10, 22, 41, 63, 5, 3}) {
            start.push_back(b * kNodes + v);
            aux.push_back(kind == WalkKind::kRestart ? b * kNodes + v
                          : v % 3 == 0               ? -1
                                                     : b * kNodes + (v * 7 + 1) % kNodes);
          }
        }
        const IdArray start_ids = IdArray::FromVector(start);
        const IdArray aux_ids = IdArray::FromVector(aux);
        const int64_t num_nodes = segments == 1 ? 0 : kNodes;

        struct Run {
          std::vector<core::Value> rows;
          device::StreamCounters cost;
        };
        auto run = [&](bool fused) {
          const graph::Graph g = WalkGraph(uva);  // a cold UVA cache per run
          std::vector<Rng> rngs;
          for (int64_t b = 0; b < segments; ++b) {
            rngs.emplace_back(4000 + static_cast<uint64_t>(b));
          }
          const device::StreamCounters before = dev.stream().counters();
          Run r;
          if (fused) {
            const IdArray path =
                FusedWalk(kind, g.adj(), start_ids, aux_ids, kSteps, rngs, num_nodes);
            EXPECT_EQ(path.size(), kSteps * start_ids.size()) << context;
            for (int64_t t = 0; t < kSteps; ++t) {
              const int32_t* row = path.data() + t * start_ids.size();
              r.rows.push_back(core::Value::OfIds(IdArray::FromVector(
                  std::vector<int32_t>(row, row + start_ids.size()))));
            }
          } else {
            IdArray cur = start_ids;
            IdArray aux_t = aux_ids;
            for (int64_t t = 0; t < kSteps; ++t) {
              IdArray next = WalkStep(kind, g.adj(), cur, aux_t, rngs, num_nodes);
              r.rows.push_back(core::Value::OfIds(next));
              if (kind == WalkKind::kNode2Vec) {
                aux_t = cur;
              }
              cur = next;
            }
          }
          const device::StreamCounters after = dev.stream().counters();
          r.cost.kernels_launched = after.kernels_launched - before.kernels_launched;
          r.cost.hbm_bytes = after.hbm_bytes - before.hbm_bytes;
          r.cost.pcie_bytes = after.pcie_bytes - before.pcie_bytes;
          r.cost.model_ns = after.model_ns - before.model_ns;
          return r;
        };
        const Run fused = run(true);
        const Run unfused = run(false);
        gs::testing::ExpectBitIdentical(fused.rows, unfused.rows, context);
        EXPECT_EQ(fused.cost.kernels_launched, 1) << context;
        EXPECT_EQ(unfused.cost.kernels_launched, kSteps) << context;
        EXPECT_EQ(fused.cost.hbm_bytes, unfused.cost.hbm_bytes) << context;
        EXPECT_EQ(fused.cost.pcie_bytes, unfused.cost.pcie_bytes) << context;
        EXPECT_EQ(fused.cost.pcie_bytes > 0, uva) << context;
        EXPECT_EQ(unfused.cost.model_ns - fused.cost.model_ns,
                  (kSteps - 1) * profile.launch_overhead_ns)
            << context;
        for (const core::Value& row : fused.rows) {
          dead += std::count(row.ids.data(), row.ids.data() + row.ids.size(), -1);
        }
      }
    }
  }
  EXPECT_GT(dead, 0) << "the walks should hit dead ends";
}

TEST(FusedWalk, RejectsOversizedPathsWithTypedErrors) {
  const graph::Graph g = WalkGraph(false);
  const IdArray start = IdArray::FromVector({1, 2, 3, 4});
  Rng rng(7);
  EXPECT_THROW(UniformWalk(g.adj(), start, 0, {&rng, 1}), Error);
  // steps x walkers overflows int64 ids; then only the byte count does.
  EXPECT_THROW(UniformWalk(g.adj(), start, int64_t{1} << 62, {&rng, 1}), Error);
  EXPECT_THROW(UniformWalkRestart(g.adj(), start, start, 0.5f, int64_t{1} << 60, {&rng, 1}),
               Error);
  EXPECT_THROW(Node2VecWalk(g.adj(), start, start, 1.0f, 1.0f,
                            std::numeric_limits<int64_t>::max(), {&rng, 1}),
               Error);
  // No overflow, but far beyond the device: the typed out-of-memory error.
  EXPECT_THROW(UniformWalk(g.adj(), start, (int64_t{1} << 58) + 1, {&rng, 1}),
               fault::ResourceExhaustedError);
}

TEST(Node2VecStep, ExtremeParamsSteerWalk) {
  // Triangle 0-1-2 plus pendant 3 attached to 1: from node 1 with prev=0,
  // neighbor 0 has bias 1/p, neighbor 2 (a neighbor of 0) bias 1, pendant 3
  // (not a neighbor of 0) bias 1/q.
  std::vector<std::pair<int32_t, int32_t>> edges = {{0, 1}, {1, 0}, {1, 2}, {2, 1},
                                                    {0, 2}, {2, 0}, {3, 1}, {1, 3}};
  graph::Graph g = graph::Graph::FromEdges("tri", 4, edges);
  Rng rng(139);
  IdArray cur = IdArray::FromVector({1});
  IdArray prev = IdArray::FromVector({0});
  // Huge p, huge q: must go to the common neighbor 2.
  for (int t = 0; t < 50; ++t) {
    IdArray next = Node2VecStep(g.adj(), cur, prev, 1e6f, 1e6f, {&rng, 1});
    EXPECT_EQ(next[0], 2);
  }
  // Tiny p: must return to prev = 0.
  for (int t = 0; t < 50; ++t) {
    IdArray next = Node2VecStep(g.adj(), cur, prev, 1e-6f, 1.0f, {&rng, 1});
    EXPECT_EQ(next[0], 0);
  }
  // prev = -1 behaves uniformly (just check validity).
  IdArray no_prev = IdArray::FromVector({-1});
  IdArray next = Node2VecStep(g.adj(), cur, no_prev, 2.0f, 0.5f, {&rng, 1});
  EXPECT_GE(next[0], 0);
}

TEST(WalkRestart, AlwaysRestartsAtProbabilityOne) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cur = IdArray::FromVector({10, 20, 30});
  IdArray root = IdArray::FromVector({1, 2, 3});
  Rng rng(149);
  IdArray next = UniformWalkStepRestart(g.adj(), cur, root, 1.0f, {&rng, 1});
  EXPECT_EQ(next[0], 1);
  EXPECT_EQ(next[1], 2);
  EXPECT_EQ(next[2], 3);
}

TEST(WalkRestart, NeverRestartsAtZeroFollowsEdges) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cur = IdArray::FromVector({5, 6});
  IdArray root = IdArray::FromVector({0, 0});
  Rng rng(151);
  IdArray next = UniformWalkStepRestart(g.adj(), cur, root, 0.0f, {&rng, 1});
  const auto edges = EdgeSet(g.adj());
  for (int64_t i = 0; i < 2; ++i) {
    const bool is_edge = edges.find({next[i], cur[i]}) != edges.end();
    const bool is_dead_end_restart = next[i] == root[i];
    EXPECT_TRUE(is_edge || is_dead_end_restart);
  }
}

TEST(TopKVisited, CountsAndRanks) {
  IdArray roots = IdArray::FromVector({0});
  IdArray s1 = IdArray::FromVector({5});
  IdArray s2 = IdArray::FromVector({5});
  IdArray s3 = IdArray::FromVector({7});
  IdArray s4 = IdArray::FromVector({0});   // the root itself: excluded
  IdArray s5 = IdArray::FromVector({-1});  // dead: skipped
  std::vector<IdArray> steps = {s1, s2, s3, s4, s5};
  Matrix top = TopKVisited(steps, roots, 1, 10);
  ASSERT_EQ(top.nnz(), 1);
  EXPECT_EQ(top.Csc().indices[0], 5);
  EXPECT_FLOAT_EQ(top.Csc().values[0], 2.0f);  // visited twice

  Matrix top2 = TopKVisited(steps, roots, 5, 10);
  EXPECT_EQ(top2.nnz(), 2);  // only two distinct non-root nodes visited
}

TEST(TopKVisited, MisalignedTracesThrow) {
  IdArray roots = IdArray::FromVector({0, 1});
  IdArray bad = IdArray::FromVector({5});
  std::vector<IdArray> steps = {bad};
  EXPECT_THROW(TopKVisited(steps, roots, 2, 10), Error);
}

}  // namespace
}  // namespace gs::sparse
