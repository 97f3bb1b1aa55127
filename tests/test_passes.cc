// Tests for the optimization passes: each rewrite produces the expected IR
// shape, and optimized programs sample identically to unoptimized ones.

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/passes.h"
#include "core/trace.h"
#include "tests/testing.h"

namespace gs::core {
namespace {

int CountKind(const Program& p, OpKind kind) {
  int count = 0;
  for (const Node& n : p.nodes()) {
    count += n.kind == kind ? 1 : 0;
  }
  return count;
}

Program TraceLadiesLayer() {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub = a.Cols(f);
  TVal row_probs = sub.Pow(2.0f).Sum(0);
  MVal sample = sub.CollectiveSample(8, row_probs);
  TVal selected = sample.Pow(2.0f).Sum(0);
  MVal w1 = sample.Div(selected, 0);
  MVal w2 = w1.Div(w1.Sum(1), 1);
  b.Output(w2);
  b.Output(sample.Row());
  return std::move(b).Build();
}

TEST(HoistOverExtract, MovesInvariantOpsAboveSlice) {
  Program p = TraceLadiesLayer();
  ASSERT_GT(HoistOverExtract(p), 0);
  p.Verify();
  // The squared weights are now computed on the full graph (invariant) and
  // sliced afterwards.
  bool found = false;
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kEltwiseScalar && n.invariant) {
      EXPECT_EQ(p.node(n.inputs[0]).kind, OpKind::kGraphInput);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(HoistOverExtract, ChainsHoistCompletely) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal scaled = (a.Cols(f).Pow(2.0f)) * 3.0f;  // two hoistable stages
  b.Output(scaled.Sum(0));
  Program p = std::move(b).Build();
  EXPECT_EQ(HoistOverExtract(p), 2);
  p.Verify();
}

TEST(HoistOverExtract, SkipsBatchDependentOperands) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub = a.Cols(f);
  // The broadcast operand depends on the batch -> not hoistable.
  TVal batch_dep = sub.Sum(0);
  MVal scaled = sub.Mul(batch_dep, 0);
  b.Output(scaled);
  Program p = std::move(b).Build();
  EXPECT_EQ(HoistOverExtract(p), 0);
}

TEST(MarkInvariant, SamplingNeverInvariant) {
  Program p = TraceLadiesLayer();
  MarkInvariant(p);
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kCollectiveSample || n.kind == OpKind::kFrontierInput) {
      EXPECT_FALSE(n.invariant);
    }
    if (n.kind == OpKind::kGraphInput) {
      EXPECT_TRUE(n.invariant);
    }
  }
}

TEST(FuseExtractSelect, FusesSingleConsumerOnly) {
  // GraphSAGE: slice feeds only the sample -> fused.
  Builder b1;
  MVal a1 = b1.Graph();
  IVal f1 = b1.Frontier();
  MVal s1 = a1.Cols(f1).IndividualSample(4);
  b1.Output(s1);
  Program p1 = std::move(b1).Build();
  EXPECT_EQ(FuseExtractSelect(p1), 1);
  EXPECT_EQ(CountKind(p1, OpKind::kFusedSliceSample), 1);
  EXPECT_EQ(CountKind(p1, OpKind::kSliceCols), 0);

  // Slice with a second consumer -> not fused.
  Builder b2;
  MVal a2 = b2.Graph();
  IVal f2 = b2.Frontier();
  MVal sub = a2.Cols(f2);
  b2.Output(sub.IndividualSample(4));
  b2.Output(sub.Sum(0));
  Program p2 = std::move(b2).Build();
  EXPECT_EQ(FuseExtractSelect(p2), 0);
}

// The compile-time pass pipeline (layout selection runs at calibration).
Program Optimize(Program p, const SamplerOptions& options) {
  StandardPassPipeline(options).Run(p, {}, nullptr);
  p.Verify();
  return p;
}

Program OneLayer(const std::string& algorithm) {
  const graph::Graph g = gs::testing::SmallRmat();
  const algorithms::LayerWiseParams params{.num_layers = 1, .layer_width = 8};
  return algorithm == "LADIES" ? algorithms::Ladies(g, params).program
                               : algorithms::FastGcn(g, params).program;
}

TEST(FuseExtractSelect, LadiesLayerReadsBothSlicesInPlace) {
  // (A**2)[:, f].sum(0) and A[:, f].collective_sample(k, p) each become
  // one fused node; no slice is left.
  const Program p = Optimize(OneLayer("LADIES"), SamplerOptions{});
  EXPECT_EQ(CountKind(p, OpKind::kSliceCols), 0);
  EXPECT_EQ(CountKind(p, OpKind::kFusedSliceReduce), 1);
  EXPECT_EQ(CountKind(p, OpKind::kFusedSliceCollectiveSample), 1);
  EXPECT_EQ(CountKind(p, OpKind::kCollectiveSample), 0);
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kFusedSliceCollectiveSample) {
      EXPECT_EQ(p.node(n.inputs[0]).kind, OpKind::kGraphInput);
      EXPECT_EQ(p.node(n.inputs[2]).kind, OpKind::kFusedSliceReduce);
      EXPECT_FALSE(n.invariant);
    }
  }
}

TEST(FuseExtractSelect, FastGcnGetsOnlyTheCollectiveFusion) {
  // q = A.sum(0) reduces the whole graph, not a slice.
  const Program p = Optimize(OneLayer("FastGCN"), SamplerOptions{});
  EXPECT_EQ(CountKind(p, OpKind::kSliceCols), 0);
  EXPECT_EQ(CountKind(p, OpKind::kFusedSliceCollectiveSample), 1);
  EXPECT_EQ(CountKind(p, OpKind::kFusedSliceReduce), 0);
  EXPECT_EQ(CountKind(p, OpKind::kSumAxis), 1);
}

TEST(FuseExtractSelect, SharedSliceStaysUnfused) {
  // sub feeds both the row sum and the sample (no hoisting splits it).
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub = a.Cols(f);
  b.Output(sub.CollectiveSample(4, sub.Sum(0)));
  Program p = std::move(b).Build();
  EXPECT_EQ(FuseExtractSelect(p), 0);
  EXPECT_EQ(CountKind(p, OpKind::kSliceCols), 1);
  EXPECT_EQ(CountKind(p, OpKind::kCollectiveSample), 1);
  EXPECT_EQ(CountKind(p, OpKind::kSumAxis), 1);
}

TEST(FuseExtractSelect, DisabledLeavesLayerWisePlansUnfused) {
  SamplerOptions off;
  off.fuse_extract_select = false;
  for (const std::string algorithm : {"LADIES", "FastGCN"}) {
    const Program unfused = Optimize(OneLayer(algorithm), off);
    const Program fused = Optimize(OneLayer(algorithm), SamplerOptions{});
    EXPECT_EQ(CountKind(unfused, OpKind::kFusedSliceCollectiveSample), 0) << algorithm;
    EXPECT_EQ(CountKind(unfused, OpKind::kFusedSliceReduce), 0) << algorithm;
    EXPECT_EQ(CountKind(unfused, OpKind::kCollectiveSample), 1) << algorithm;
    // Every fusion removes exactly one slice node.
    const int fusions = CountKind(fused, OpKind::kFusedSliceCollectiveSample) +
                        CountKind(fused, OpKind::kFusedSliceReduce);
    EXPECT_EQ(CountKind(unfused, OpKind::kSliceCols), fusions) << algorithm;
    EXPECT_EQ(unfused.size(), fused.size() + fusions) << algorithm;
  }
}

TEST(FuseExtractSelect, LayerWiseFusionSamplesIdentically) {
  // Fused and unfused plans sample the same subgraphs, solo and
  // super-batched (the oracle's fusion-off reference, bit for bit).
  const graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, true);
  const tensor::IdArray frontiers =
      tensor::IdArray::FromVector({3, 17, 42, 101, 250, 9, 5, 6, 250, 3, 77, 128, 64, 1});
  for (const std::string algorithm : {"LADIES", "FastGCN", "AS-GCN"}) {
    for (const int super_batch : {1, 3}) {
      std::vector<std::vector<Value>> runs;
      for (const bool fuse : {true, false}) {
        SamplerOptions options;
        options.fuse_extract_select = fuse;
        options.super_batch = super_batch;
        algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algorithm, g);
        CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), options);
        std::vector<Value> outputs;
        sampler.SampleEpoch(frontiers, 3, [&](int64_t, std::vector<Value>& batch) {
          outputs.insert(outputs.end(), batch.begin(), batch.end());
        });
        runs.push_back(std::move(outputs));
      }
      gs::testing::ExpectBitIdentical(runs[0], runs[1],
                                      algorithm + " super_batch=" + std::to_string(super_batch));
    }
  }
}

// --- Walk fusion ---

int WalkKernels(const Program& p) {
  return CountKind(p, OpKind::kWalkStep) + CountKind(p, OpKind::kWalkRestartStep) +
         CountKind(p, OpKind::kNode2VecStep) + CountKind(p, OpKind::kFusedWalk);
}

Program CompileAlgorithm(const std::string& algorithm, const SamplerOptions& options = {}) {
  const graph::Graph g = gs::testing::SmallRmat();
  return Optimize(algorithms::MakeAlgorithm(algorithm, g).program, options);
}

TEST(FuseWalks, DeepWalkBecomesOneFusedWalkAndItsRows) {
  const Program p = CompileAlgorithm("DeepWalk");
  EXPECT_EQ(CountKind(p, OpKind::kWalkStep), 0);
  ASSERT_EQ(CountKind(p, OpKind::kFusedWalk), 1);
  EXPECT_EQ(CountKind(p, OpKind::kWalkPathStep), 80);
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kFusedWalk) {
      EXPECT_EQ(n.attrs.k, 80);
      EXPECT_EQ(n.attrs.step_kind, OpKind::kWalkStep);
      EXPECT_EQ(p.node(n.inputs[1]).kind, OpKind::kFrontierInput);
      EXPECT_FALSE(n.invariant);
    }
  }
  // The outputs are still the 80 steps, in step order.
  ASSERT_EQ(p.outputs().size(), 80u);
  for (size_t i = 0; i < p.outputs().size(); ++i) {
    const Node& out = p.node(p.outputs()[i]);
    EXPECT_EQ(out.kind, OpKind::kWalkPathStep);
    EXPECT_EQ(out.attrs.k, static_cast<int64_t>(i));
  }
}

TEST(FuseWalks, Node2VecRunsAtMostTwoWalkKernels) {
  // The uniform first step stays a walk_step; the 79 node2vec steps fuse.
  const Program p = CompileAlgorithm("Node2Vec");
  EXPECT_LE(WalkKernels(p), 2);
  ASSERT_EQ(CountKind(p, OpKind::kFusedWalk), 1);
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kFusedWalk) {
      EXPECT_EQ(n.attrs.step_kind, OpKind::kNode2VecStep);
      EXPECT_EQ(n.attrs.k, 79);
      EXPECT_EQ(p.node(n.inputs[1]).kind, OpKind::kWalkStep);
      EXPECT_EQ(p.node(n.inputs[2]).kind, OpKind::kFrontierInput);
      EXPECT_EQ(n.attrs.p, 2.0f);
      EXPECT_EQ(n.attrs.q, 0.5f);
    }
  }
}

TEST(FuseWalks, UniqueAndTopKReadProjections) {
  const Program saint = CompileAlgorithm("GraphSAINT");
  ASSERT_EQ(CountKind(saint, OpKind::kFusedWalk), 1);
  for (const Node& n : saint.nodes()) {
    if (n.kind == OpKind::kUnique) {
      ASSERT_EQ(n.inputs.size(), 5u);  // the roots and four steps
      EXPECT_EQ(saint.node(n.inputs[0]).kind, OpKind::kFrontierInput);
      for (size_t i = 1; i < n.inputs.size(); ++i) {
        EXPECT_EQ(saint.node(n.inputs[i]).kind, OpKind::kWalkPathStep);
      }
    }
  }

  // PinSAGE: one fused restart walk per walk (10 walks of 3 steps).
  const Program pinsage = CompileAlgorithm("PinSAGE");
  EXPECT_EQ(CountKind(pinsage, OpKind::kWalkRestartStep), 0);
  EXPECT_EQ(CountKind(pinsage, OpKind::kFusedWalk), 10);
  for (const Node& n : pinsage.nodes()) {
    if (n.kind == OpKind::kFusedWalk) {
      EXPECT_EQ(n.attrs.k, 3);
      EXPECT_EQ(n.attrs.step_kind, OpKind::kWalkRestartStep);
      EXPECT_EQ(n.attrs.p, 0.5f);
    }
    if (n.kind == OpKind::kTopKVisited) {
      ASSERT_EQ(n.inputs.size(), 31u);
      for (size_t i = 1; i < n.inputs.size(); ++i) {
        EXPECT_EQ(pinsage.node(n.inputs[i]).kind, OpKind::kWalkPathStep);
      }
    }
  }
}

TEST(FuseWalks, HetGnnMetapathStaysUnfused) {
  // Consecutive steps alternate relation graphs, so no two form a chain.
  const graph::Graph g = gs::testing::SmallRmat();
  Program p = algorithms::MakeAlgorithm("HetGNN", g).program;
  const std::string before = p.ToString();
  EXPECT_EQ(FuseWalks(p), 0);
  EXPECT_EQ(p.ToString(), before);
  EXPECT_EQ(CountKind(CompileAlgorithm("HetGNN"), OpKind::kWalkRestartStep), 40);
}

TEST(FuseWalks, FusionOffLeavesEveryWalkStep) {
  SamplerOptions off;
  off.enable_fusion = false;
  const graph::Graph g = gs::testing::SmallRmat();
  for (const std::string& algorithm : algorithms::AllAlgorithmNames()) {
    const Program traced = algorithms::MakeAlgorithm(algorithm, g).program;
    const Program p = CompileAlgorithm(algorithm, off);
    EXPECT_EQ(CountKind(p, OpKind::kFusedWalk), 0) << algorithm;
    EXPECT_EQ(CountKind(p, OpKind::kWalkPathStep), 0) << algorithm;
    for (const OpKind kind :
         {OpKind::kWalkStep, OpKind::kWalkRestartStep, OpKind::kNode2VecStep}) {
      EXPECT_EQ(CountKind(p, kind), CountKind(traced, kind)) << algorithm;
    }
  }
}

TEST(FuseWalks, IdenticalChainsStayTwoFusedWalks) {
  // Random ops are never merged: two identical chains are two walks.
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  for (int chain = 0; chain < 2; ++chain) {
    IVal cur = f;
    for (int step = 0; step < 5; ++step) {
      cur = b.WalkStep(a, cur);
      b.Output(cur);
    }
  }
  const Program p = Optimize(std::move(b).Build(), SamplerOptions{});
  EXPECT_EQ(CountKind(p, OpKind::kFusedWalk), 2);
  EXPECT_EQ(CountKind(p, OpKind::kWalkPathStep), 10);
  EXPECT_EQ(CountKind(p, OpKind::kWalkStep), 0);
}

TEST(FuseWalks, ChainsPastTheStepCapSplit) {
  // A chain two steps longer than kMaxFusedWalkSteps becomes a capped
  // fused walk and a two-step one that starts from the first's last row.
  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  for (int64_t step = 0; step < kMaxFusedWalkSteps + 2; ++step) {
    cur = b.WalkStep(a, cur);
  }
  b.Output(cur);
  Program p = std::move(b).Build();
  EXPECT_EQ(FuseWalks(p), 2);
  p.Verify();
  std::vector<const Node*> walks;
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kFusedWalk) {
      walks.push_back(&n);
    }
  }
  ASSERT_EQ(walks.size(), 2u);
  EXPECT_EQ(walks[0]->attrs.k, kMaxFusedWalkSteps);
  EXPECT_EQ(walks[1]->attrs.k, 2);
  const Node& start = p.node(walks[1]->inputs[1]);
  EXPECT_EQ(start.kind, OpKind::kWalkPathStep);
  EXPECT_EQ(start.inputs[0], walks[0]->id);
  EXPECT_EQ(start.attrs.k, kMaxFusedWalkSteps - 1);
  EXPECT_EQ(CountKind(p, OpKind::kWalkStep), 0);
}

TEST(FuseWalks, InterleavedChainsStayUnfused) {
  // Fusing either chain would move its draws past the other chain's.
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  IVal x = f;
  IVal y = f;
  for (int step = 0; step < 4; ++step) {
    x = b.WalkStep(a, x);
    y = b.WalkStep(a, y);
    b.Output(x);
    b.Output(y);
  }
  Program p = std::move(b).Build();
  EXPECT_EQ(FuseWalks(p), 0);
  EXPECT_EQ(CountKind(p, OpKind::kWalkStep), 8);
}

TEST(FuseWalks, WalkFusionSamplesIdentically) {
  // Fused and unfused walk plans sample the same ids, solo and
  // super-batched, -1 dead ends in place.
  const graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, true);
  const tensor::IdArray frontiers =
      tensor::IdArray::FromVector({3, 17, 42, 101, 250, 9, 5, 6, 250, 3, 77, 128, 64, 1});
  for (const std::string algorithm : {"DeepWalk", "Node2Vec", "GraphSAINT", "PinSAGE"}) {
    for (const int super_batch : {1, 3}) {
      std::vector<std::vector<Value>> runs;
      for (const bool fuse : {true, false}) {
        SamplerOptions options;
        options.enable_fusion = fuse;
        options.super_batch = super_batch;
        algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algorithm, g);
        CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), options);
        std::vector<Value> outputs;
        sampler.SampleEpoch(frontiers, 3, [&](int64_t, std::vector<Value>& batch) {
          outputs.insert(outputs.end(), batch.begin(), batch.end());
        });
        runs.push_back(std::move(outputs));
      }
      gs::testing::ExpectBitIdentical(runs[0], runs[1],
                                      algorithm + " super_batch=" + std::to_string(super_batch));
    }
  }
}

TEST(FuseEdgeMapReduce, AbsorbsMapIntoReduce) {
  Program p = TraceLadiesLayer();
  const int fused = FuseEdgeMapReduce(p);
  EXPECT_GE(fused, 2);  // both Pow+Sum pairs at least
  p.Verify();
  EXPECT_GT(CountKind(p, OpKind::kFusedEdgeMapReduce), 0);
}

TEST(FuseEdgeMaps, CollapsesChains) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub = a.Cols(f);
  MVal chained = (sub.Pow(2.0f) * 3.0f).Div(sub.Sum(1), 1);
  b.Output(chained);
  Program p = std::move(b).Build();
  EXPECT_GE(FuseEdgeMaps(p), 2);
  p.Verify();
  // One fused node with 3 stages replaces the chain.
  bool found = false;
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kFusedEdgeMap) {
      EXPECT_EQ(n.attrs.stages.size(), 3u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RewriteSddmm, MatchesMulOfTransposedMatmul) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub = a.Cols(f);
  TVal u = b.Input("u");
  TVal v = b.Input("v");
  MVal att = sub.MulDense(u.MM(v.T()));
  b.Output(att);
  Program p = std::move(b).Build();
  EXPECT_EQ(RewriteSddmm(p), 1);
  p.Verify();
  EXPECT_EQ(CountKind(p, OpKind::kSddmm), 1);
  EXPECT_EQ(CountKind(p, OpKind::kDenseEltwise), 0);
  EXPECT_EQ(CountKind(p, OpKind::kMatMul), 0);  // dead after rewrite
}

TEST(Cse, MergesIdenticalPureOps) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub1 = a.Cols(f);
  MVal sub2 = a.Cols(f);  // duplicate
  b.Output(sub1.Sum(0));
  b.Output(sub2.Sum(1));
  Program p = std::move(b).Build();
  EXPECT_EQ(EliminateCommonSubexpressions(p), 1);
  EXPECT_EQ(CountKind(p, OpKind::kSliceCols), 1);
  p.Verify();
}

TEST(Cse, NeverMergesSamplingOps) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub = a.Cols(f);
  MVal s1 = sub.IndividualSample(3);
  MVal s2 = sub.IndividualSample(3);  // same shape, different randomness
  b.Output(s1);
  b.Output(s2);
  Program p = std::move(b).Build();
  EliminateCommonSubexpressions(p);
  EXPECT_EQ(CountKind(p, OpKind::kIndividualSample), 2);
}

TEST(Dce, CountsRemoved) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sub = a.Cols(f);
  (void)sub.Pow(2.0f);
  (void)sub.Sum(0);
  b.Output(sub);
  Program p = std::move(b).Build();
  EXPECT_EQ(DeadCodeElimination(p), 2);
}

// --- End-to-end equivalence: for the same seed, every optimization
// configuration must produce the identical sampled subgraphs (the passes
// preserve both semantics and randomness consumption order). ---

struct OptConfig {
  bool fusion;
  bool preprocess;
  bool layout;
};

class OptEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(OptEquivalence, AllConfigurationsSampleIdentically) {
  const std::string algo = GetParam();
  graph::Graph g = gs::testing::SmallRmat(200, 2000, 21, true);
  std::vector<int32_t> fr = {1, 2, 3, 4, 5, 6, 7, 8};
  const tensor::IdArray frontier = tensor::IdArray::FromVector(fr);

  const std::vector<OptConfig> configs = {
      {false, false, false}, {true, false, false}, {false, true, false},
      {true, true, false},   {true, true, true},
  };

  std::vector<std::vector<std::map<std::pair<int32_t, int32_t>, float>>> results;
  for (const OptConfig& c : configs) {
    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algo, g);
    SamplerOptions opts;
    opts.enable_fusion = c.fusion;
    opts.enable_preprocessing = c.preprocess;
    opts.enable_layout_selection = c.layout;
    opts.seed = 0xABCD;
    CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
    std::vector<Value> out = sampler.Sample(frontier);
    std::vector<std::map<std::pair<int32_t, int32_t>, float>> edge_sets;
    for (const Value& v : out) {
      if (v.kind == ValueKind::kMatrix) {
        edge_sets.push_back(gs::testing::EdgeSet(v.matrix));
      }
    }
    results.push_back(std::move(edge_sets));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size());
    for (size_t m = 0; m < results[0].size(); ++m) {
      // Compare structure exactly; values within float tolerance.
      ASSERT_EQ(results[i][m].size(), results[0][m].size()) << "config " << i;
      auto it0 = results[0][m].begin();
      auto iti = results[i][m].begin();
      for (; it0 != results[0][m].end(); ++it0, ++iti) {
        EXPECT_EQ(it0->first, iti->first) << "config " << i;
        EXPECT_NEAR(it0->second, iti->second, 1e-3f) << "config " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, OptEquivalence,
                         ::testing::Values("GraphSAGE", "LADIES", "FastGCN", "ShaDow",
                                           "SEAL", "AS-GCN", "PASS", "GCN-BS", "Thanos",
                                           "VR-GCN", "GraphSAINT", "PinSAGE", "DeepWalk",
                                           "Node2Vec"));

TEST(OptEquivalenceIds, WalkTracesIdenticalAcrossConfigs) {
  // Walk programs return only id arrays; verify those too (the matrix-based
  // parameterized test above only compares matrix outputs).
  graph::Graph g = gs::testing::SmallRmat(200, 2000, 29, false);
  std::vector<int32_t> fr = {3, 4, 5, 6};
  const tensor::IdArray frontier = tensor::IdArray::FromVector(fr);
  std::vector<std::vector<std::vector<int32_t>>> results;
  for (bool optimized : {false, true}) {
    algorithms::AlgorithmProgram ap = algorithms::DeepWalk(g, {.walk_length = 12});
    SamplerOptions opts;
    opts.enable_fusion = optimized;
    opts.enable_preprocessing = optimized;
    opts.enable_layout_selection = optimized;
    opts.seed = 0x77;
    CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
    std::vector<Value> out = sampler.Sample(frontier);
    std::vector<std::vector<int32_t>> traces;
    for (const Value& v : out) {
      traces.push_back(v.ids.ToVector());
    }
    results.push_back(std::move(traces));
  }
  EXPECT_EQ(results[0], results[1]);
}

}  // namespace
}  // namespace gs::core
