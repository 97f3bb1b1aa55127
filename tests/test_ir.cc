// Tests for the data-flow IR: tracing, verification, printing, DCE,
// normalization.

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/ir.h"
#include "core/trace.h"

namespace gs::core {
namespace {

Program TraceSageOneLayer(int64_t k = 4) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal sample = a.Cols(f).IndividualSample(k);
  b.Output(sample);
  b.Output(sample.Row());
  return std::move(b).Build();
}

TEST(Trace, RecordsExpectedOps) {
  Program p = TraceSageOneLayer();
  ASSERT_EQ(p.size(), 5);
  EXPECT_EQ(p.node(0).kind, OpKind::kGraphInput);
  EXPECT_EQ(p.node(1).kind, OpKind::kFrontierInput);
  EXPECT_EQ(p.node(2).kind, OpKind::kSliceCols);
  EXPECT_EQ(p.node(3).kind, OpKind::kIndividualSample);
  EXPECT_EQ(p.node(3).attrs.k, 4);
  EXPECT_EQ(p.node(4).kind, OpKind::kRowIds);
  ASSERT_EQ(p.outputs().size(), 2u);
}

TEST(Trace, GraphDeclaredOnce) {
  Builder b;
  b.Graph();
  EXPECT_THROW(b.Graph(), Error);
}

TEST(Trace, NamedInputsCarryNames) {
  Builder b;
  MVal rel = b.GraphNamed("rel0");
  TVal t = b.Input("weights");
  b.Output(rel.Sum(0));
  b.Output(t);
  Program p = std::move(b).Build();
  EXPECT_EQ(p.node(rel.id()).attrs.name, "rel0");
  EXPECT_EQ(p.node(t.id()).attrs.name, "weights");
  EXPECT_THROW(Builder().Input(""), Error);
}

TEST(Verify, RejectsWrongInputKind) {
  Program p;
  const int g = p.Add(OpKind::kGraphInput, {});
  const int f = p.Add(OpKind::kFrontierInput, {});
  (void)g;
  // sum_axis expects a matrix, not ids.
  const int bad = p.Add(OpKind::kSumAxis, {f});
  p.SetOutputs({bad});
  EXPECT_THROW(p.Verify(), Error);
}

TEST(Verify, RejectsWrongArity) {
  Program p;
  const int g = p.Add(OpKind::kGraphInput, {});
  const int bad = p.Add(OpKind::kSliceCols, {g});  // missing the ids input
  p.SetOutputs({bad});
  EXPECT_THROW(p.Verify(), Error);
}

TEST(Program, AddRejectsForwardReferences) {
  Program p;
  EXPECT_THROW(p.Add(OpKind::kSumAxis, {3}), Error);
}

TEST(Program, UseCountsIncludeOutputs) {
  Program p = TraceSageOneLayer();
  std::vector<int> uses = p.UseCounts();
  EXPECT_EQ(uses[2], 1);  // slice feeds the sample
  EXPECT_EQ(uses[3], 2);  // sample feeds row_ids and is an output
}

TEST(Program, RemoveDeadKeepsInputsAndOutputs) {
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  MVal used = a.Cols(f);
  MVal dead = used.Pow(2.0f);
  (void)dead;
  b.Output(used);
  Program p = std::move(b).Build();
  const int removed = p.RemoveDead();
  EXPECT_EQ(removed, 1);
  p.Verify();
  for (const Node& n : p.nodes()) {
    EXPECT_NE(n.kind, OpKind::kEltwiseScalar);
  }
}

TEST(Program, NormalizeRestoresTopologicalOrder) {
  // Simulate a rewrite: append a node and rewire an earlier consumer to it.
  Program p = TraceSageOneLayer();
  const int new_slice = p.Add(OpKind::kSliceCols, {0, 1});
  p.node(3).inputs[0] = new_slice;  // sample now consumes the late node
  p.Normalize();
  p.Verify();
  for (const Node& n : p.nodes()) {
    for (int in : n.inputs) {
      EXPECT_LT(in, n.id);
    }
  }
}

TEST(Program, ToStringListsOpsAndOutputs) {
  Program p = TraceSageOneLayer(7);
  const std::string s = p.ToString();
  EXPECT_NE(s.find("slice_cols"), std::string::npos);
  EXPECT_NE(s.find("individual_sample"), std::string::npos);
  EXPECT_NE(s.find("k=7"), std::string::npos);
  EXPECT_NE(s.find("outputs:"), std::string::npos);
}

TEST(OpKindMeta, NamesAndKindsConsistent) {
  // Every op has a printable name that plan artifacts parse back, and a
  // stable output kind.
  for (int k = 0; k <= static_cast<int>(OpKind::kWalkPathStep); ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    EXPECT_STRNE(OpKindName(kind), "?");
    OpKind parsed = OpKind::kGraphInput;
    EXPECT_TRUE(OpKindFromName(OpKindName(kind), &parsed)) << OpKindName(kind);
    EXPECT_EQ(parsed, kind) << OpKindName(kind);
  }
  EXPECT_EQ(OutputKindOf(OpKind::kFusedSliceReduce), ValueKind::kTensor);
  EXPECT_EQ(OutputKindOf(OpKind::kFusedSliceCollectiveSample), ValueKind::kMatrix);
  EXPECT_TRUE(IsStructureOp(OpKind::kFusedSliceCollectiveSample));
  EXPECT_FALSE(IsStructureOp(OpKind::kFusedSliceReduce));
  EXPECT_EQ(OutputKindOf(OpKind::kFusedSliceReduceSample), ValueKind::kMatrix);
  EXPECT_TRUE(IsStructureOp(OpKind::kFusedSliceReduceSample));
  EXPECT_EQ(OutputKindOf(OpKind::kRowIds), ValueKind::kIds);
  EXPECT_EQ(OutputKindOf(OpKind::kSumAxis), ValueKind::kTensor);
  EXPECT_EQ(OutputKindOf(OpKind::kTopKVisited), ValueKind::kMatrix);
  EXPECT_TRUE(IsStructureOp(OpKind::kSliceCols));
  EXPECT_FALSE(IsStructureOp(OpKind::kSumAxis));
  EXPECT_EQ(OutputKindOf(OpKind::kFusedWalk), ValueKind::kIds);
  EXPECT_EQ(OutputKindOf(OpKind::kWalkPathStep), ValueKind::kIds);
  EXPECT_TRUE(IsWalkStepOp(OpKind::kNode2VecStep));
  EXPECT_FALSE(IsWalkStepOp(OpKind::kFusedWalk));
}

TEST(Trace, CrossBuilderValuesRejected) {
  Builder b1;
  Builder b2;
  MVal a1 = b1.Graph();
  IVal f2 = b2.Frontier();
  EXPECT_THROW(a1.Cols(f2), Error);
}

TEST(Trace, TensorOperatorSugar) {
  Builder b;
  MVal a = b.Graph();
  TVal x = b.Input("x");
  TVal y = ((x + 1.0f) * x - x) / 2.0f;
  TVal z = x.Pow(2.0f).Relu().Softmax();
  b.Output(y);
  b.Output(z);
  b.Output(a.Sum(0));
  Program p = std::move(b).Build();
  p.Verify();
  int tensor_ops = 0;
  for (const Node& n : p.nodes()) {
    if (n.kind == OpKind::kTensorBinary || n.kind == OpKind::kTensorBinaryScalar) {
      ++tensor_ops;
    }
  }
  EXPECT_EQ(tensor_ops, 5);
}

}  // namespace
}  // namespace gs::core
