// Tests for the fused edge-map / edge-map-reduce kernels: every stage kind
// matches its unfused reference, chains compose, and reductions never
// materialize intermediates yet agree with the two-kernel result. The
// golden section at the bottom pins exact outputs for all three fused ops
// on the toy graph and re-asserts them against both backends (interpreter
// and JIT), so a regression in either one trips a hard-coded expectation
// rather than only the self-consistency oracle.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "common/error.h"
#include "core/executor.h"
#include "core/ir.h"
#include "core/plan.h"
#include "jit/jit.h"
#include "sparse/fused.h"
#include "sparse/kernels.h"
#include "tensor/ops.h"
#include "tests/testing.h"

namespace gs::sparse {
namespace {

using gs::testing::EdgeSet;
using tensor::Tensor;

EdgeMapStage ScalarStage(BinaryOp op, float s) {
  EdgeMapStage stage;
  stage.op = op;
  stage.kind = EdgeMapStage::OperandKind::kScalar;
  stage.scalar = s;
  return stage;
}

TEST(FusedEdgeMap, ScalarStageMatchesEltwise) {
  graph::Graph g = gs::testing::ToyGraph();
  std::vector<EdgeMapStage> stages = {ScalarStage(BinaryOp::kPow, 2.0f)};
  Matrix fused = FusedEdgeMap(g.adj(), stages, {});
  Matrix reference = EltwiseScalar(g.adj(), BinaryOp::kPow, 2.0f);
  EXPECT_EQ(EdgeSet(fused), EdgeSet(reference));
}

TEST(FusedEdgeMap, RowAndColVectorStages) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Rng rng(3);
  Tensor row_vec = Tensor::Randn({m.num_rows()}, rng);
  Tensor col_vec = Tensor::Randn({m.num_cols()}, rng);
  for (auto& v : row_vec.span()) {
    v = std::abs(v) + 0.1f;
  }
  for (auto& v : col_vec.span()) {
    v = std::abs(v) + 0.1f;
  }

  EdgeMapStage by_row;
  by_row.op = BinaryOp::kMul;
  by_row.kind = EdgeMapStage::OperandKind::kRowVector;
  by_row.operand = 0;
  EdgeMapStage by_col;
  by_col.op = BinaryOp::kDiv;
  by_col.kind = EdgeMapStage::OperandKind::kColVector;
  by_col.operand = 1;
  std::vector<EdgeMapStage> stages = {by_row, by_col};
  std::vector<Tensor> operands = {row_vec, col_vec};
  Matrix fused = FusedEdgeMap(m, stages, operands);

  Matrix reference =
      Broadcast(Broadcast(m, BinaryOp::kMul, row_vec.array(), 0), BinaryOp::kDiv,
                col_vec.array(), 1);
  const auto ref = EdgeSet(reference);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, ref.at(edge), 1e-5);
  }
}

TEST(FusedEdgeMap, DotStageMatchesSddmm) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Rng rng(5);
  Tensor u = Tensor::Randn({m.num_rows(), 4}, rng);
  Tensor v = Tensor::Randn({m.num_cols(), 4}, rng);

  EdgeMapStage dot;
  dot.op = BinaryOp::kMul;
  dot.kind = EdgeMapStage::OperandKind::kDot;
  dot.operand = 0;
  dot.operand2 = 1;
  std::vector<EdgeMapStage> stages = {dot};
  std::vector<Tensor> operands = {u, v};
  Matrix fused = FusedEdgeMap(m, stages, operands);
  Matrix reference = Sddmm(m, u, v, /*mul_existing=*/true);
  const auto ref = EdgeSet(reference);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, ref.at(edge), 1e-4);
  }
}

TEST(FusedEdgeMap, EdgeTensorStage) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Tensor edge_vals = Tensor::Full({m.nnz()}, 3.0f);
  EdgeMapStage stage;
  stage.op = BinaryOp::kAdd;
  stage.kind = EdgeMapStage::OperandKind::kEdgeTensor;
  stage.operand = 0;
  std::vector<EdgeMapStage> stages = {stage};
  std::vector<Tensor> operands = {edge_vals};
  Matrix fused = FusedEdgeMap(m, stages, operands);
  const auto base = EdgeSet(m);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, base.at(edge) + 3.0f, 1e-5);
  }
}

class ReduceAxis : public ::testing::TestWithParam<int> {};

TEST_P(ReduceAxis, FusedReduceMatchesMapThenSum) {
  const int axis = GetParam();
  graph::Graph g = gs::testing::SmallRmat();
  tensor::IdArray cols = tensor::IdArray::FromVector({1, 5, 9, 13});
  Matrix sub = SliceColumns(g.adj(), cols);

  std::vector<EdgeMapStage> stages = {ScalarStage(BinaryOp::kPow, 2.0f),
                                      ScalarStage(BinaryOp::kMul, 0.5f)};
  ValueArray fused = FusedEdgeMapReduce(sub, stages, {}, axis);

  Matrix mapped = EltwiseScalar(EltwiseScalar(sub, BinaryOp::kPow, 2.0f), BinaryOp::kMul, 0.5f);
  ValueArray reference = SumAxis(mapped, axis);
  ASSERT_EQ(fused.size(), reference.size());
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], reference[i], 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, ReduceAxis, ::testing::Values(0, 1));

TEST(FusedEdgeMap, GlobalRowOperandThroughRowIds) {
  graph::Graph g = gs::testing::SmallRmat();
  tensor::IdArray cols = tensor::IdArray::FromVector({2, 3});
  Matrix sub = CompactRows(SliceColumns(g.adj(), cols));
  Tensor global = Tensor::Empty({g.num_nodes()});
  for (int64_t i = 0; i < global.numel(); ++i) {
    global.at(i) = static_cast<float>(i);
  }
  EdgeMapStage stage;
  stage.op = BinaryOp::kMul;
  stage.kind = EdgeMapStage::OperandKind::kRowVector;
  stage.operand = 0;
  std::vector<EdgeMapStage> stages = {stage};
  std::vector<Tensor> operands = {global};
  Matrix fused = FusedEdgeMap(sub, stages, operands);
  const auto base = EdgeSet(sub);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, base.at(edge) * static_cast<float>(edge.first), 1e-4);
  }
}

TEST(FusedEdgeMap, BadOperandIndexThrows) {
  graph::Graph g = gs::testing::ToyGraph();
  EdgeMapStage stage;
  stage.op = BinaryOp::kMul;
  stage.kind = EdgeMapStage::OperandKind::kRowVector;
  stage.operand = 2;  // no such operand
  std::vector<EdgeMapStage> stages = {stage};
  EXPECT_THROW(FusedEdgeMap(g.adj(), stages, {}), Error);
}

TEST(FusedEdgeMapReduce, WrongOperandLengthThrows) {
  graph::Graph g = gs::testing::ToyGraph();
  EdgeMapStage stage;
  stage.op = BinaryOp::kMul;
  stage.kind = EdgeMapStage::OperandKind::kColVector;
  stage.operand = 0;
  std::vector<EdgeMapStage> stages = {stage};
  std::vector<Tensor> operands = {Tensor::Full({3}, 1.0f)};  // num_cols is 7
  EXPECT_THROW(FusedEdgeMapReduce(g.adj(), stages, operands, 0), Error);
}

// ----------------------------------------------------------------- goldens
//
// Fixed inputs, hard-coded outputs: the toy graph, the scalar pipeline
// [pow 2, mul 0.5], fanout 2, Rng(123). Each golden is asserted twice —
// once against the interpreter kernel and once against a JIT table built
// from a minimal one-node program — so the two backends are pinned to the
// same recorded behaviour, not merely to each other.

// Compiles a single-fused-node program and returns the JIT table plus the
// surviving node's id (passes may renumber but never remove the sole
// output).
std::shared_ptr<const gs::core::FusedKernelTable> GoldenTable(
    gs::core::Program program, gs::jit::JitEngine& engine, const std::string& label,
    gs::core::OpKind kind, int* node_id) {
  auto plan = std::make_shared<gs::core::CompiledPlan>(std::move(program),
                                                       gs::core::SamplerOptions{}, label);
  *node_id = -1;
  for (int i = 0; i < plan->program().size(); ++i) {
    if (plan->program().node(i).kind == kind) {
      *node_id = i;
    }
  }
  EXPECT_NE(*node_id, -1) << label << ": fused node survived compilation";
  return engine.TableFor(*plan);
}

gs::jit::JitEngine& GoldenEngine() {
  static gs::jit::JitEngine* engine = [] {
    const std::string dir = ::testing::TempDir() + "gs_fused_goldens";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    gs::jit::JitEngineOptions options;
    options.artifact_dir = dir;
    return new gs::jit::JitEngine(options);
  }();
  return *engine;
}

std::vector<EdgeMapStage> GoldenStages() {
  return {ScalarStage(BinaryOp::kPow, 2.0f), ScalarStage(BinaryOp::kMul, 0.5f)};
}

TEST(FusedGoldens, EdgeMapScalarPipeline) {
  graph::Graph g = gs::testing::ToyGraph();
  // 0.5 * w^2 per edge, CSC order (columns 0..6, in-edge weights as listed
  // in ToyGraph).
  const std::vector<float> golden = {0.125f,        0.320000023f, 0.0450000018f,
                                     0.0200000014f, 0.180000007f, 0.24499999f,
                                     0.0800000057f, 0.125f,       0.0450000018f,
                                     0.404999971f,  0.180000007f, 0.24499999f};
  Matrix interp = FusedEdgeMap(g.adj(), GoldenStages(), {});
  ASSERT_EQ(interp.nnz(), static_cast<int64_t>(golden.size()));
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(interp.Csc().values[static_cast<int64_t>(i)], golden[i]) << "edge " << i;
  }

  gs::core::Program program;
  const int gin = program.Add(gs::core::OpKind::kGraphInput, {});
  gs::core::Attrs attrs;
  attrs.stages = GoldenStages();
  const int out = program.Add(gs::core::OpKind::kFusedEdgeMap, {gin}, attrs);
  program.SetOutputs({out});
  int node_id = -1;
  auto table = GoldenTable(std::move(program), GoldenEngine(), "golden-map",
                           gs::core::OpKind::kFusedEdgeMap, &node_id);
  ASSERT_NE(table, nullptr);
  Matrix jitted;
  ASSERT_TRUE(table->EdgeMap(node_id, g.adj(), {}, &jitted));
  ASSERT_EQ(jitted.nnz(), static_cast<int64_t>(golden.size()));
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(jitted.Csc().values[static_cast<int64_t>(i)], golden[i]) << "edge " << i;
  }
}

TEST(FusedGoldens, EdgeMapReduceRowSums) {
  graph::Graph g = gs::testing::ToyGraph();
  // Row sums of 0.5 * w^2 (axis 0).
  const std::vector<float> golden = {0.324999988f, 0.25f,         0.340000033f,
                                     0.180000007f, 0.225000009f, 0.289999992f,
                                     0.404999971f};
  ValueArray interp = FusedEdgeMapReduce(g.adj(), GoldenStages(), {}, /*axis=*/0);
  ASSERT_EQ(interp.size(), static_cast<int64_t>(golden.size()));
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(interp[static_cast<int64_t>(i)], golden[i]) << "row " << i;
  }

  gs::core::Program program;
  const int gin = program.Add(gs::core::OpKind::kGraphInput, {});
  gs::core::Attrs attrs;
  attrs.stages = GoldenStages();
  attrs.axis = 0;
  const int out = program.Add(gs::core::OpKind::kFusedEdgeMapReduce, {gin}, attrs);
  program.SetOutputs({out});
  int node_id = -1;
  auto table = GoldenTable(std::move(program), GoldenEngine(), "golden-reduce",
                           gs::core::OpKind::kFusedEdgeMapReduce, &node_id);
  ASSERT_NE(table, nullptr);
  ValueArray jitted;
  ASSERT_TRUE(table->EdgeMapReduce(node_id, g.adj(), {}, &jitted));
  ASSERT_EQ(jitted.size(), static_cast<int64_t>(golden.size()));
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(jitted[static_cast<int64_t>(i)], golden[i]) << "row " << i;
  }
}

TEST(FusedGoldens, SliceSampleFixedDraws) {
  graph::Graph g = gs::testing::ToyGraph();
  const tensor::IdArray cols = tensor::IdArray::FromVector({0, 1, 4});
  const int64_t k = 2;
  // (row, col, weight) triples of the sampled subgraph with Rng(123), in
  // CSC order.
  const std::vector<std::tuple<int32_t, int32_t, float>> golden = {
      {1, 0, 0.5f},          {2, 1, 0.200000003f}, {4, 0, 0.300000012f},
      {5, 1, 0.699999988f},  {5, 4, 0.300000012f}, {6, 4, 0.899999976f}};

  Rng interp_rng(123);
  Matrix interp = FusedSliceSample(g.adj(), cols, k, {&interp_rng, 1});

  gs::core::Program program;
  const int gin = program.Add(gs::core::OpKind::kGraphInput, {});
  const int fin = program.Add(gs::core::OpKind::kFrontierInput, {});
  gs::core::Attrs attrs;
  attrs.k = k;
  const int out = program.Add(gs::core::OpKind::kFusedSliceSample, {gin, fin}, attrs);
  program.SetOutputs({out});
  int node_id = -1;
  auto table = GoldenTable(std::move(program), GoldenEngine(), "golden-sample",
                           gs::core::OpKind::kFusedSliceSample, &node_id);
  ASSERT_NE(table, nullptr);
  Rng jit_rng(123);
  Matrix jitted;
  ASSERT_TRUE(table->SliceSample(node_id, g.adj(), cols, jit_rng, &jitted, nullptr));

  for (const Matrix* m : {&interp, &jitted}) {
    const auto edges = gs::testing::EdgeSet(*m);
    ASSERT_EQ(edges.size(), golden.size());
    for (const auto& [row, col, w] : golden) {
      auto it = edges.find({row, col});
      ASSERT_NE(it, edges.end()) << "edge (" << row << "," << col << ") missing";
      EXPECT_EQ(it->second, w);
    }
  }
}

}  // namespace
}  // namespace gs::sparse
