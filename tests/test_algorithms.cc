// Algorithm-level semantic tests: each of the 15 Table-2 programs produces
// samples with the statistical / structural properties its paper defines.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "sparse/kernels.h"
#include "tests/testing.h"

namespace gs::algorithms {
namespace {

using core::SamplerSession;
using core::SamplerOptions;
using core::Value;
using core::ValueKind;
using tensor::IdArray;

IdArray Iota(int n) {
  std::vector<int32_t> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(i);
  }
  return IdArray::FromVector(v);
}

TEST(GraphSageAlgo, FanoutsPerLayer) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = GraphSage(g, {.fanouts = {4, 2}});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(16));
  ASSERT_EQ(out.size(), 3u);
  const sparse::Compressed& l1 = out[0].matrix.Csc();
  for (int64_t c = 0; c < out[0].matrix.num_cols(); ++c) {
    EXPECT_LE(l1.indptr[c + 1] - l1.indptr[c], 4);
  }
  const sparse::Compressed& l2 = out[1].matrix.Csc();
  for (int64_t c = 0; c < out[1].matrix.num_cols(); ++c) {
    EXPECT_LE(l2.indptr[c + 1] - l2.indptr[c], 2);
  }
  // Layer-2 columns are exactly layer-1's sampled rows.
  IdArray rows = sparse::RowIds(out[0].matrix);
  IdArray cols2 = sparse::ColIds(out[1].matrix);
  ASSERT_EQ(rows.size(), cols2.size());
  for (int64_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], cols2[i]);
  }
}

TEST(GraphSageAlgo, IncludeSeedsKeepsSeedsInFrontier) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = GraphSage(g, {.fanouts = {3}, .include_seeds = true});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(8));
  const IdArray& next = out.back().ids;
  std::set<int32_t> next_set(next.data(), next.data() + next.size());
  for (int32_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(next_set.count(s)) << "seed " << s << " missing";
  }
}

TEST(VrGcnAlgo, TinyFanouts) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = VrGcn(g);
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(8));
  const sparse::Compressed& l1 = out[0].matrix.Csc();
  for (int64_t c = 0; c < out[0].matrix.num_cols(); ++c) {
    EXPECT_LE(l1.indptr[c + 1] - l1.indptr[c], 2);
  }
}

TEST(DeepWalkAlgo, TracesFollowEdges) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = DeepWalk(g, {.walk_length = 6});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(10));
  ASSERT_EQ(out.size(), 6u);
  const auto edges = gs::testing::EdgeSet(g.adj());
  for (int64_t i = 0; i < 10; ++i) {
    int32_t prev = static_cast<int32_t>(i);
    for (const Value& step : out) {
      const int32_t cur = step.ids[i];
      if (prev >= 0 && cur >= 0) {
        EXPECT_NE(edges.find({cur, prev}), edges.end());
      }
      prev = cur;
    }
  }
}

TEST(Node2VecAlgo, LowPReturnsOften) {
  // p << 1 makes walks bounce back: consecutive steps revisit the
  // step-before-last far more often than with p >> 1.
  graph::Graph g = gs::testing::SmallRmat(200, 4000, 91, false);
  auto count_returns = [&](float p) {
    AlgorithmProgram ap = Node2Vec(g, {.walk_length = 20, .p = p, .q = 1.0f});
    SamplerOptions opts;
    opts.seed = 5;
    SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
    std::vector<Value> out = sampler.Sample(Iota(64));
    int64_t returns = 0;
    for (int64_t i = 0; i < 64; ++i) {
      int32_t prev2 = static_cast<int32_t>(i);
      int32_t prev1 = out[0].ids[i];
      for (size_t s = 1; s < out.size(); ++s) {
        const int32_t cur = out[s].ids[i];
        returns += (cur >= 0 && cur == prev2) ? 1 : 0;
        prev2 = prev1;
        prev1 = cur;
      }
    }
    return returns;
  };
  EXPECT_GT(count_returns(0.05f), 2 * count_returns(20.0f));
}

TEST(LadiesAlgo, WeightsNormalizedPerFrontier) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = Ladies(g, {.num_layers = 1, .layer_width = 32});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(16));
  const sparse::Matrix& w2 = out[0].matrix;
  sparse::ValueArray col_sums = sparse::SumAxis(w2, 1);
  for (int64_t c = 0; c < w2.num_cols(); ++c) {
    if (col_sums[c] > 0.0f) {
      EXPECT_NEAR(col_sums[c], 1.0f, 1e-3) << "column " << c;
    }
  }
  EXPECT_LE(w2.num_rows(), 32);
}

TEST(FastGcnAlgo, PrefersHighDegreeNodes) {
  graph::Graph g = gs::testing::SmallRmat(400, 8000, 17, true);
  sparse::ValueArray degree = sparse::SumAxis(g.adj(), 0);
  AlgorithmProgram ap = FastGcn(g, {.num_layers = 1, .layer_width = 40});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  // Average weighted degree of selected nodes must exceed the global mean.
  double selected_sum = 0;
  int64_t selected_n = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Value> out = sampler.Sample(Iota(16));
    IdArray rows = sparse::RowIds(out[0].matrix);
    for (int64_t i = 0; i < rows.size(); ++i) {
      selected_sum += degree[rows[i]];
      ++selected_n;
    }
  }
  double global_sum = 0;
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    global_sum += degree[v];
  }
  EXPECT_GT(selected_sum / selected_n, 1.5 * global_sum / g.num_nodes());
}

TEST(SealAlgo, InducedSubgraphOverSampledNodes) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = Seal(g, {.depth = 2, .fanout = 4});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(6));
  const sparse::Matrix& induced = out[0].matrix;
  const IdArray& nodes = out[1].ids;
  std::set<int32_t> node_set(nodes.data(), nodes.data() + nodes.size());
  const auto full = gs::testing::EdgeSet(g.adj());
  // Every induced edge connects sampled nodes and exists in the graph.
  for (const auto& [edge, w] : gs::testing::EdgeSet(induced)) {
    EXPECT_TRUE(node_set.count(edge.first));
    EXPECT_TRUE(node_set.count(edge.second));
    EXPECT_NE(full.find(edge), full.end());
    (void)w;
  }
}

TEST(ShadowAlgo, InducedSubgraphComplete) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = Shadow(g, {.depth = 2, .fanout = 3});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(4));
  const IdArray& nodes = out[1].ids;
  std::set<int32_t> node_set(nodes.data(), nodes.data() + nodes.size());
  // Completeness: EVERY graph edge between sampled nodes is present.
  const auto induced = gs::testing::EdgeSet(out[0].matrix);
  for (const auto& [edge, w] : gs::testing::EdgeSet(g.adj())) {
    if (node_set.count(edge.first) != 0 && node_set.count(edge.second) != 0) {
      EXPECT_NE(induced.find(edge), induced.end());
    }
    (void)w;
  }
}

TEST(SaintAlgo, VisitedNodesIncludeRoots) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = GraphSaint(g, {.walk_length = 3});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(5));
  const IdArray& nodes = out[1].ids;
  std::set<int32_t> node_set(nodes.data(), nodes.data() + nodes.size());
  for (int32_t r = 0; r < 5; ++r) {
    EXPECT_TRUE(node_set.count(r));
  }
}

TEST(PinSageAlgo, TopKBoundsAndCounts) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = PinSage(g, {.num_walks = 6, .walk_length = 2, .k = 5});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(8));
  const sparse::Matrix& neighbors = out[0].matrix;
  const sparse::Compressed& csc = neighbors.Csc();
  for (int64_t c = 0; c < neighbors.num_cols(); ++c) {
    EXPECT_LE(csc.indptr[c + 1] - csc.indptr[c], 5);
    for (int64_t e = csc.indptr[c]; e < csc.indptr[c + 1]; ++e) {
      EXPECT_GE(csc.values[e], 1.0f);  // visit counts
      EXPECT_NE(csc.indices[e], static_cast<int32_t>(c));  // root excluded
    }
  }
}

TEST(HetGnnAlgo, RequiresBothRelations) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = HetGnn(g, {});
  SamplerOptions opts;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  sampler.BindGraph("rel0", &g.adj());
  EXPECT_THROW(sampler.Sample(Iota(4)), Error);  // rel1 missing
  sampler.BindGraph("rel1", &g.adj());
  std::vector<Value> out = sampler.Sample(Iota(4));
  EXPECT_EQ(out[0].matrix.num_cols(), 4);
}

TEST(PassAlgo, AttentionBiasesAreValidProbs) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = Pass(g, {.fanouts = {3}, .hidden = 8});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(8));
  const sparse::Compressed& csc = out[0].matrix.Csc();
  for (int64_t c = 0; c < out[0].matrix.num_cols(); ++c) {
    EXPECT_LE(csc.indptr[c + 1] - csc.indptr[c], 3);
  }
}

TEST(BanditAlgos, UpdateShiftsSamplingMass) {
  graph::Graph g = gs::testing::SmallRmat(150, 3000, 23, false);
  AlgorithmProgram ap = GcnBs(g, {.fanouts = {2}});
  tensor::Tensor weights = ap.tensors.at("bandit_w");
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});

  // Reward every sampled edge repeatedly; re-sampling must then concentrate
  // on previously rewarded edges.
  std::vector<Value> first = sampler.Sample(Iota(32));
  for (int round = 0; round < 6; ++round) {
    const int64_t updated =
        UpdateBanditWeights(g, first[0].matrix, weights, /*multiplicative=*/false, 50.0f);
    EXPECT_GT(updated, 0);
  }
  sampler.BindTensor("bandit_w", weights);
  const auto rewarded = gs::testing::EdgeSet(first[0].matrix);
  int64_t hits = 0;
  int64_t total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Value> again = sampler.Sample(Iota(32));
    for (const auto& [edge, w] : gs::testing::EdgeSet(again[0].matrix)) {
      hits += rewarded.count(edge) != 0 ? 1 : 0;
      ++total;
      (void)w;
    }
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.8);
}

TEST(AsgcnAlgo, LayerWidthBound) {
  graph::Graph g = gs::testing::SmallRmat();
  AlgorithmProgram ap = Asgcn(g, {.num_layers = 2, .layer_width = 24});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), {});
  std::vector<Value> out = sampler.Sample(Iota(16));
  EXPECT_LE(out[0].matrix.num_rows(), 24);
  EXPECT_LE(out[1].matrix.num_rows(), 24);
}

TEST(Registry, AllFifteenBuild) {
  graph::Graph g = gs::testing::SmallRmat();
  EXPECT_EQ(AllAlgorithmNames().size(), 15u);
  for (const std::string& name : AllAlgorithmNames()) {
    AlgorithmProgram ap = MakeAlgorithm(name, g);
    EXPECT_EQ(ap.name, name);
    ap.program.Verify();
  }
  EXPECT_THROW(MakeAlgorithm("NotAnAlgorithm", g), Error);
}

// The registry's fanout mapping (MakeAlgorithm's comment), spelled out with
// the direct factories for f = {} and for a non-default f.
TEST(Algorithms, RegistryAppliesFanouts) {
  graph::Graph g = gs::testing::SmallRmat();
  auto trace = [](const AlgorithmProgram& ap) { return ap.program.ToString(); };
  const std::vector<int64_t> f = {4, 3};
  const std::vector<int64_t> layers = {64, 64};
  const LayerWiseParams layer_params{.num_layers = 2, .layer_width = 64};
  const LayerWiseParams layer_defaults;
  const std::vector<int64_t> layer_wise(static_cast<size_t>(layer_defaults.num_layers),
                                        layer_defaults.layer_width);
  struct Row {
    std::vector<int64_t> defaults;  // DefaultFanouts(name)
    std::vector<int64_t> fanouts;   // the non-default f
    std::string at_defaults;        // the direct factory's trace at its defaults
    std::string at_fanouts;         // ... and under `fanouts`
  };
  const std::map<std::string, Row> rows = {
      {"DeepWalk", {{}, f, trace(DeepWalk(g)), trace(DeepWalk(g))}},
      {"GraphSAINT", {{}, f, trace(GraphSaint(g)), trace(GraphSaint(g))}},
      {"PinSAGE", {{}, f, trace(PinSage(g)), trace(PinSage(g))}},
      {"HetGNN", {{}, f, trace(HetGnn(g)), trace(HetGnn(g))}},
      {"GraphSAGE",
       {SageParams{}.fanouts, f, trace(GraphSage(g)), trace(GraphSage(g, {.fanouts = f}))}},
      {"VR-GCN", {{}, f, trace(VrGcn(g)), trace(VrGcn(g))}},
      {"SEAL", {{}, f, trace(Seal(g)), trace(Seal(g))}},
      {"ShaDow", {{}, f, trace(Shadow(g)), trace(Shadow(g))}},
      {"Node2Vec", {{}, f, trace(Node2Vec(g)), trace(Node2Vec(g))}},
      {"GCN-BS", {BanditParams{}.fanouts, f, trace(GcnBs(g)), trace(GcnBs(g, {.fanouts = f}))}},
      {"Thanos",
       {BanditParams{}.fanouts, f, trace(Thanos(g)), trace(Thanos(g, {.fanouts = f}))}},
      {"PASS", {PassParams{}.fanouts, f, trace(Pass(g)), trace(Pass(g, {.fanouts = f}))}},
      {"FastGCN", {layer_wise, layers, trace(FastGcn(g)), trace(FastGcn(g, layer_params))}},
      {"AS-GCN", {layer_wise, layers, trace(Asgcn(g)), trace(Asgcn(g, layer_params))}},
      {"LADIES", {layer_wise, layers, trace(Ladies(g)), trace(Ladies(g, layer_params))}},
  };
  ASSERT_EQ(AllAlgorithmNames().size(), rows.size());
  for (const std::string& name : AllAlgorithmNames()) {
    SCOPED_TRACE(name);
    ASSERT_EQ(rows.count(name), 1u);
    const Row& row = rows.at(name);
    EXPECT_EQ(DefaultFanouts(name), row.defaults);
    EXPECT_EQ(trace(MakeAlgorithm(name, g)), row.at_defaults);
    EXPECT_EQ(trace(MakeAlgorithm(name, g, {})), row.at_defaults);
    EXPECT_EQ(trace(MakeAlgorithm(name, g, row.fanouts)), row.at_fanouts);
    // Exactly the algorithms without default fanouts ignore f.
    EXPECT_EQ(row.at_fanouts == row.at_defaults, row.defaults.empty());
  }
  EXPECT_THROW(DefaultFanouts("NotAnAlgorithm"), Error);
}

TEST(Registry, ModelDrivenFlags) {
  graph::Graph g = gs::testing::SmallRmat();
  EXPECT_TRUE(MakeAlgorithm("PASS", g).updates_model);
  EXPECT_TRUE(MakeAlgorithm("AS-GCN", g).updates_model);
  EXPECT_TRUE(MakeAlgorithm("GCN-BS", g).updates_model);
  EXPECT_TRUE(MakeAlgorithm("Thanos", g).updates_model);
  EXPECT_FALSE(MakeAlgorithm("GraphSAGE", g).updates_model);
  EXPECT_FALSE(MakeAlgorithm("LADIES", g).updates_model);
}

}  // namespace
}  // namespace gs::algorithms
