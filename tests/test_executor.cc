// Tests for the IR executor: layout modes, memory lifetime, precomputed
// values, format-conversion nodes, and super-batch id decoding.

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/passes.h"
#include "core/trace.h"
#include "device/device.h"
#include "tests/testing.h"

namespace gs::core {
namespace {

using tensor::IdArray;

Program SageProgram(int64_t k) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sample = a.Cols(f).IndividualSample(k);
  b.Output(sample);
  b.Output(sample.Row());
  return std::move(b).Build();
}

TEST(Executor, LayoutModesProduceIdenticalSamples) {
  graph::Graph g = gs::testing::SmallRmat();
  Program p = SageProgram(3);
  Bindings bind;
  bind.graph = &g.adj();
  bind.frontier = IdArray::FromVector({1, 2, 3, 4});

  std::vector<std::map<std::pair<int32_t, int32_t>, float>> results;
  for (LayoutMode mode : {LayoutMode::kAsIs, LayoutMode::kGreedy, LayoutMode::kPlanned}) {
    Executor exec(p, ExecOptions{.layout = mode});
    Rng rng(42);
    std::vector<Value> out = exec.Run(bind, rng);
    results.push_back(gs::testing::EdgeSet(out[0].matrix));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Executor, PlannedAnnotationsChangeOutputFormat) {
  graph::Graph g = gs::testing::SmallRmat();
  Program p = SageProgram(3);
  for (Node& n : p.nodes()) {
    if (n.kind == OpKind::kIndividualSample) {
      n.has_format_choice = true;
      n.chosen_format = sparse::Format::kCoo;
    }
  }
  Executor exec(p, ExecOptions{.layout = LayoutMode::kPlanned});
  Bindings bind;
  bind.graph = &g.adj();
  bind.frontier = IdArray::FromVector({1, 2});
  Rng rng(1);
  std::vector<Value> out = exec.Run(bind, rng);
  EXPECT_TRUE(out[0].matrix.HasFormat(sparse::Format::kCoo));
  EXPECT_FALSE(out[0].matrix.HasFormat(sparse::Format::kCsc));
}

TEST(Executor, ConvertFormatNode) {
  graph::Graph g = gs::testing::SmallRmat();
  Program p;
  const int graph_in = p.Add(OpKind::kGraphInput, {});
  const int frontier = p.Add(OpKind::kFrontierInput, {});
  const int slice = p.Add(OpKind::kSliceCols, {graph_in, frontier});
  Attrs attrs;
  attrs.format = sparse::Format::kCsr;
  const int converted = p.Add(OpKind::kConvertFormat, {slice}, attrs);
  p.SetOutputs({converted});
  p.Verify();

  Executor exec(p, ExecOptions{});
  Bindings bind;
  bind.graph = &g.adj();
  bind.frontier = IdArray::FromVector({5, 6});
  Rng rng(1);
  std::vector<Value> out = exec.Run(bind, rng);
  EXPECT_TRUE(out[0].matrix.HasFormat(sparse::Format::kCsr));
  EXPECT_FALSE(out[0].matrix.HasFormat(sparse::Format::kCsc));
}

TEST(Executor, IntermediateMemoryFreedAfterLastUse) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  graph::Graph g = gs::testing::SmallRmat();
  // Two layers: layer-1 intermediates must be freed once layer-2 consumed
  // them (only program outputs survive).
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal s1 = a.Cols(f).IndividualSample(4);
  MVal s2 = a.Cols(s1.Row()).IndividualSample(4);
  b.Output(s2.Row());  // ids only: every matrix is an intermediate
  Program p = std::move(b).Build();

  Executor exec(p, ExecOptions{});
  Bindings bind;
  bind.graph = &g.adj();
  bind.frontier = IdArray::FromVector({1, 2, 3, 4});
  const int64_t before = dev.allocator().stats().bytes_in_use;
  Rng rng(3);
  std::vector<Value> out = exec.Run(bind, rng);
  const int64_t after = dev.allocator().stats().bytes_in_use;
  // Only the surviving ids output should remain beyond transient slack.
  EXPECT_LT(after - before, 16 * 1024);
  (void)out;
}

TEST(Executor, PrecomputedValuesSkipEvaluation) {
  graph::Graph g = gs::testing::SmallRmat();
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  TVal degree = a.Sum(0);
  MVal sample = a.Cols(f).CollectiveSample(8, degree);
  b.Output(sample);
  Program p = std::move(b).Build();
  MarkInvariant(p);

  Executor exec(p, ExecOptions{});
  Bindings bind;
  bind.graph = &g.adj();
  // Inject a fake pre-computed degree that masks node 0..k as zero prob.
  tensor::Tensor fake = tensor::Tensor::Full({g.num_nodes()}, 0.0f);
  fake.at(7) = 1.0f;
  fake.at(9) = 1.0f;
  exec.SetPrecomputed(degree.id(), Value::OfTensor(fake));
  bind.frontier = IdArray::FromVector({1, 2, 3});
  Rng rng(9);
  std::vector<Value> out = exec.Run(bind, rng);
  // Only nodes 7 and 9 can be selected under the injected bias.
  for (int64_t i = 0; i < out[0].matrix.row_ids().size(); ++i) {
    const int32_t id = out[0].matrix.row_ids()[i];
    EXPECT_TRUE(id == 7 || id == 9);
  }
  exec.ClearPrecomputed();
}

TEST(Executor, RunInvariantEvaluatesOnlyInvariantNodes) {
  graph::Graph g = gs::testing::SmallRmat();
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  TVal degree = a.Sum(0);             // invariant
  TVal batch_dep = a.Cols(f).Sum(0);  // needs the frontier
  b.Output(degree);
  b.Output(batch_dep);
  Program p = std::move(b).Build();
  MarkInvariant(p);

  Executor exec(p, ExecOptions{});
  Bindings bind;
  bind.graph = &g.adj();  // no frontier bound: invariant-only run must work
  std::map<int, Value> values = exec.RunInvariant(bind);
  EXPECT_TRUE(values.count(degree.id()));
  EXPECT_FALSE(values.count(batch_dep.id()));
}

TEST(Executor, SuperBatchGatherDecodesLabeledIds) {
  graph::Graph g = gs::testing::SmallRmat();
  // features gathered by next-layer frontiers inside a segmented run must
  // decode labeled ids back to node ids.
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  TVal feat = b.Input("feat");
  MVal sample = a.Cols(f).IndividualSample(2).Compact();
  TVal gathered = feat.Gather(sample.Row());  // labeled ids -> mod-N gather
  MVal scaled = sample.Mul(gathered, 0);      // locally aligned after Compact
  b.Output(scaled);
  Program p = std::move(b).Build();

  Executor exec(p, ExecOptions{.graph_num_nodes = g.num_nodes()});
  Bindings bind;
  bind.graph = &g.adj();
  bind.tensors["feat"] = tensor::Tensor::Full({g.num_nodes()}, 2.0f);
  const int32_t n = static_cast<int32_t>(g.num_nodes());
  bind.frontier = IdArray::FromVector({1, 2, n + 3, n + 4});
  std::vector<Rng> segment_rngs = {Rng(11), Rng(12)};
  std::vector<Value> out = exec.Run(bind, segment_rngs);
  // Every edge weight got multiplied by the gathered feature value 2.
  for (const auto& [edge, w] : gs::testing::EdgeSet(out[0].matrix)) {
    (void)edge;
    EXPECT_GT(w, 0.0f);
  }

  // Super-batch mode has no shared stream: a run without one stream per
  // segment is an error, not a silent fallback. Several streams need the
  // labeled id space (graph_num_nodes), even over plain node ids.
  Rng shared(11);
  EXPECT_THROW(exec.Run(bind, shared), Error);
  EXPECT_THROW(exec.Run(bind, std::span<Rng>(segment_rngs).first(1)), Error);
  Bindings plain = bind;
  plain.frontier = IdArray::FromVector({1, 2});
  EXPECT_THROW(Executor(p, ExecOptions{}).Run(plain, segment_rngs), Error);
}

TEST(Executor, MissingFrontierThrows) {
  graph::Graph g = gs::testing::SmallRmat();
  Program p = SageProgram(2);
  Executor exec(p, ExecOptions{});
  Bindings bind;
  bind.graph = &g.adj();
  Rng rng(1);
  EXPECT_THROW(exec.Run(bind, rng), Error);
  Bindings no_graph;
  no_graph.frontier = IdArray::FromVector({1});
  EXPECT_THROW(exec.Run(no_graph, rng), Error);
}

}  // namespace
}  // namespace gs::core
