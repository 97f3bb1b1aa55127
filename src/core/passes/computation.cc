// Computation-optimization passes: SDDMM rewriting, pre-processing hoist,
// invariant marking, the three fusion rules, CSE, and DCE (Section 4.2).

#include <map>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "core/passes.h"

namespace gs::core {
namespace {

// Replaces every use of `from` (inputs and program outputs) with `to`.
void ReplaceAllUses(Program& p, int from, int to) {
  for (Node& n : p.nodes()) {
    if (n.id == to) {
      continue;  // never create a self-loop
    }
    for (int& in : n.inputs) {
      if (in == from) {
        in = to;
      }
    }
  }
  std::vector<int> outputs = p.outputs();
  for (int& out : outputs) {
    if (out == from) {
      out = to;
    }
  }
  p.SetOutputs(std::move(outputs));
}

bool IsRandomOp(OpKind kind) {
  switch (kind) {
    case OpKind::kIndividualSample:
    case OpKind::kIndividualSampleP:
    case OpKind::kCollectiveSample:
    case OpKind::kFusedSliceSample:
    case OpKind::kFusedSliceCollectiveSample:
    case OpKind::kWalkStep:
    case OpKind::kWalkRestartStep:
    case OpKind::kNode2VecStep:
      return true;
    default:
      return false;
  }
}

// Edge-map operators: per-edge value updates on an unchanged structure.
bool IsEdgeMapOp(const Node& n) {
  switch (n.kind) {
    case OpKind::kEltwiseScalar:
    case OpKind::kBroadcast:
    case OpKind::kEltwiseBinary:
    case OpKind::kDenseEltwise:
    case OpKind::kFusedEdgeMap:
      return true;
    case OpKind::kSddmm:
      return n.attrs.flag;  // only the mul-existing form composes as a stage
    default:
      return false;
  }
}

// Decomposes an edge-map node into (stages, extra operand node ids). For
// kEltwiseBinary the second matrix's edge values are read through a
// kEdgeValues node created by the caller.
struct StageDecomposition {
  std::vector<sparse::EdgeMapStage> stages;
  std::vector<int> operands;  // node ids feeding stage.operand slots, in order
};

StageDecomposition DecomposeEdgeMap(Program& p, const Node& n) {
  StageDecomposition d;
  sparse::EdgeMapStage stage;
  stage.op = n.attrs.bop;
  switch (n.kind) {
    case OpKind::kEltwiseScalar:
      stage.kind = sparse::EdgeMapStage::OperandKind::kScalar;
      stage.scalar = n.attrs.scalar;
      d.stages.push_back(stage);
      break;
    case OpKind::kBroadcast:
      stage.kind = n.attrs.axis == 0 ? sparse::EdgeMapStage::OperandKind::kRowVector
                                     : sparse::EdgeMapStage::OperandKind::kColVector;
      stage.operand = 0;
      d.stages.push_back(stage);
      d.operands.push_back(n.inputs[1]);
      break;
    case OpKind::kDenseEltwise:
      stage.kind = sparse::EdgeMapStage::OperandKind::kDense;
      stage.operand = 0;
      d.stages.push_back(stage);
      d.operands.push_back(n.inputs[1]);
      break;
    case OpKind::kEltwiseBinary: {
      stage.kind = sparse::EdgeMapStage::OperandKind::kEdgeTensor;
      stage.operand = 0;
      d.stages.push_back(stage);
      d.operands.push_back(p.Add(OpKind::kEdgeValues, {n.inputs[1]}));
      break;
    }
    case OpKind::kSddmm: {
      GS_INTERNAL(n.attrs.flag);
      sparse::EdgeMapStage dot;
      dot.op = BinaryOp::kMul;
      dot.kind = sparse::EdgeMapStage::OperandKind::kDot;
      dot.operand = 0;
      dot.operand2 = 1;
      d.stages.push_back(dot);
      d.operands.push_back(n.inputs[1]);
      d.operands.push_back(n.inputs[2]);
      break;
    }
    case OpKind::kFusedEdgeMap: {
      d.stages = n.attrs.stages;
      d.operands.assign(n.inputs.begin() + 1, n.inputs.end());
      break;
    }
    default:
      GS_INTERNAL(false) << "not an edge-map op";
  }
  return d;
}

// Concatenates b's stages after a's, renumbering operand slots.
StageDecomposition ConcatStages(StageDecomposition a, StageDecomposition b) {
  const int offset = static_cast<int>(a.operands.size());
  for (sparse::EdgeMapStage& stage : b.stages) {
    if (stage.operand >= 0) {
      stage.operand += offset;
    }
    if (stage.operand2 >= 0) {
      stage.operand2 += offset;
    }
    a.stages.push_back(stage);
  }
  a.operands.insert(a.operands.end(), b.operands.begin(), b.operands.end());
  return a;
}

}  // namespace

int RewriteSddmm(Program& p) {
  int rewrites = 0;
  for (Node& n : p.nodes()) {
    if (n.kind != OpKind::kDenseEltwise || n.attrs.bop != BinaryOp::kMul) {
      continue;
    }
    const Node& dense = p.node(n.inputs[1]);
    if (dense.kind != OpKind::kMatMul) {
      continue;
    }
    const Node& rhs = p.node(dense.inputs[1]);
    if (rhs.kind != OpKind::kTranspose) {
      continue;
    }
    // m * (U @ V^T)  ->  sddmm(m, U, V, mul_existing)
    n.kind = OpKind::kSddmm;
    n.inputs = {n.inputs[0], dense.inputs[0], rhs.inputs[0]};
    n.attrs.flag = true;
    ++rewrites;
  }
  if (rewrites > 0) {
    p.Normalize();
    p.RemoveDead();
  }
  return rewrites;
}

void MarkInvariant(Program& p) {
  for (Node& n : p.nodes()) {
    if (n.kind == OpKind::kFrontierInput || IsRandomOp(n.kind)) {
      n.invariant = false;
      continue;
    }
    bool invariant = true;
    for (int in : n.inputs) {
      invariant = invariant && p.node(in).invariant;
    }
    n.invariant = invariant;
  }
}

int HoistOverExtract(Program& p) {
  int total = 0;
  for (bool changed = true; changed;) {
    changed = false;
    MarkInvariant(p);
    const int size = p.size();
    for (int id = 0; id < size; ++id) {
      // Re-read the node each iteration: Add() may reallocate the vector.
      const OpKind kind = p.node(id).kind;
      const bool scalar_op = kind == OpKind::kEltwiseScalar;
      const bool row_broadcast = kind == OpKind::kBroadcast && p.node(id).attrs.axis == 0;
      if (!scalar_op && !row_broadcast) {
        continue;
      }
      const int m_id = p.node(id).inputs[0];
      if (p.node(m_id).kind != OpKind::kSliceCols) {
        continue;
      }
      const int a_id = p.node(m_id).inputs[0];
      const int f_id = p.node(m_id).inputs[1];
      if (!p.node(a_id).invariant) {
        continue;
      }
      if (row_broadcast && !p.node(p.node(id).inputs[1]).invariant) {
        continue;
      }
      // op(A[:, f]) -> op(A)[:, f]; op(A) is batch-invariant and will be
      // pre-computed once (the LADIES `M = A ** 2` optimization).
      Attrs op_attrs = p.node(id).attrs;
      std::vector<int> op_inputs = {a_id};
      if (row_broadcast) {
        op_inputs.push_back(p.node(id).inputs[1]);
      }
      const int hoisted = p.Add(kind, std::move(op_inputs), std::move(op_attrs));
      const int new_slice = p.Add(OpKind::kSliceCols, {hoisted, f_id});
      ReplaceAllUses(p, id, new_slice);
      p.Normalize();
      p.RemoveDead();
      ++total;
      changed = true;
      break;  // restart: ids were remapped
    }
  }
  MarkInvariant(p);
  return total;
}

int FuseExtractSelect(Program& p) {
  int fusions = 0;
  const std::vector<int> uses = p.UseCounts();
  for (Node& n : p.nodes()) {
    const bool node_wise = n.kind == OpKind::kIndividualSample;
    const bool layer_wise = n.kind == OpKind::kCollectiveSample;
    const bool row_sum = n.kind == OpKind::kSumAxis && n.attrs.axis == 0;
    if (!node_wise && !layer_wise && !row_sum) {
      continue;
    }
    const Node& extract = p.node(n.inputs[0]);
    if (extract.kind != OpKind::kSliceCols || uses[static_cast<size_t>(extract.id)] != 1) {
      continue;
    }
    // The extracted subgraph is never materialized (Figure 5a):
    //   A[:, f].individual_sample(k)     ->  fused_slice_sample(A, f, k)
    //   A[:, f].collective_sample(k, p)  ->  fused_slice_collective_sample(A, f, p, k)
    //   A[:, f].sum(0)                   ->  fused_slice_reduce(A, f)
    std::vector<int> inputs = {extract.inputs[0], extract.inputs[1]};
    if (layer_wise) {
      inputs.push_back(n.inputs[1]);
    }
    n.kind = node_wise    ? OpKind::kFusedSliceSample
             : layer_wise ? OpKind::kFusedSliceCollectiveSample
                          : OpKind::kFusedSliceReduce;
    n.inputs = std::move(inputs);
    ++fusions;
  }
  if (fusions > 0) {
    p.RemoveDead();
  }
  return fusions;
}

int FuseEdgeMaps(Program& p) {
  int fusions = 0;
  // Process in topological order so chains collapse transitively: by the
  // time node n is visited, its producer has already been canonicalized.
  for (int id = 0; id < p.size(); ++id) {
    if (!IsEdgeMapOp(p.node(id))) {
      continue;
    }
    const int m_id = p.node(id).inputs[0];
    if (!IsEdgeMapOp(p.node(m_id))) {
      continue;
    }
    StageDecomposition producer = DecomposeEdgeMap(p, p.node(m_id));
    StageDecomposition consumer = DecomposeEdgeMap(p, p.node(id));
    StageDecomposition merged = ConcatStages(std::move(producer), std::move(consumer));
    Node& n = p.node(id);
    n.kind = OpKind::kFusedEdgeMap;
    n.inputs = {p.node(m_id).inputs[0]};
    n.inputs.insert(n.inputs.end(), merged.operands.begin(), merged.operands.end());
    n.attrs.stages = std::move(merged.stages);
    ++fusions;
  }
  if (fusions > 0) {
    p.Normalize();
    p.RemoveDead();
  }
  return fusions;
}

int FuseEdgeMapReduce(Program& p) {
  int fusions = 0;
  const std::vector<int> uses = p.UseCounts();
  for (int id = 0; id < p.size(); ++id) {
    if (p.node(id).kind != OpKind::kSumAxis) {
      continue;
    }
    const int m_id = p.node(id).inputs[0];
    if (!IsEdgeMapOp(p.node(m_id))) {
      continue;
    }
    (void)uses;  // fuse regardless of other consumers: recomputing stages is
                 // cheaper than materializing the mapped edge values
    StageDecomposition d = DecomposeEdgeMap(p, p.node(m_id));
    Node& n = p.node(id);
    n.kind = OpKind::kFusedEdgeMapReduce;
    n.inputs = {p.node(m_id).inputs[0]};
    n.inputs.insert(n.inputs.end(), d.operands.begin(), d.operands.end());
    n.attrs.stages = std::move(d.stages);
    ++fusions;
  }
  if (fusions > 0) {
    p.Normalize();
    p.RemoveDead();
  }
  return fusions;
}

int EliminateCommonSubexpressions(Program& p) {
  auto key_of = [](const Node& n) {
    std::ostringstream key;
    key << static_cast<int>(n.kind);
    for (int in : n.inputs) {
      key << "," << in;
    }
    key << ";" << n.attrs.k << ";" << n.attrs.axis << ";" << static_cast<int>(n.attrs.bop)
        << ";" << n.attrs.scalar << ";" << n.attrs.p << ";" << n.attrs.q << ";" << n.attrs.flag
        << ";" << static_cast<int>(n.attrs.format) << ";" << n.attrs.name;
    for (const sparse::EdgeMapStage& s : n.attrs.stages) {
      key << "|" << static_cast<int>(s.op) << "," << static_cast<int>(s.kind) << ","
          << s.scalar << "," << s.operand << "," << s.operand2;
    }
    return key.str();
  };

  int eliminated = 0;
  std::map<std::string, int> seen;
  for (Node& n : p.nodes()) {
    if (IsRandomOp(n.kind) || n.kind == OpKind::kFrontierInput) {
      continue;  // random draws and inputs are never merged
    }
    const std::string key = key_of(n);
    auto [it, inserted] = seen.emplace(key, n.id);
    if (!inserted) {
      ReplaceAllUses(p, n.id, it->second);
      ++eliminated;
    }
  }
  if (eliminated > 0) {
    p.RemoveDead();
  }
  return eliminated;
}

int DeadCodeElimination(Program& p) { return p.RemoveDead(); }

}  // namespace gs::core
