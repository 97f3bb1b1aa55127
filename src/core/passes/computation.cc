// Computation-optimization passes: SDDMM rewriting, pre-processing hoist,
// invariant marking, the fusion rules, CSE, and DCE (Section 4.2).

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
    case OpKind::kFusedWalk:
      return true;
    default:
      return false;
  }
}

// Operators whose relative order is observable: random ops draw from the
// shared per-segment streams, and frontier hops report to the executor's
// hop observer in program order.
bool IsOrderedOp(OpKind kind) {
  return IsRandomOp(kind) || kind == OpKind::kSliceCols ||
         kind == OpKind::kFusedSliceReduce;
}

// True when walk step `next` takes the step after `prev`: same operator,
// graph operand and parameters, it moves prev's walkers, and its third
// operand follows the walk (restart: the same roots; node2vec: prev's
// walkers become the previous positions).
bool ContinuesWalk(const Node& prev, const Node& next) {
  if (next.kind != prev.kind || next.inputs[0] != prev.inputs[0] ||
      next.inputs[1] != prev.id || next.attrs.p != prev.attrs.p ||
      next.attrs.q != prev.attrs.q) {
    return false;
  }
  switch (next.kind) {
    case OpKind::kWalkRestartStep:
      return next.inputs[2] == prev.inputs[2];
    case OpKind::kNode2VecStep:
      return next.inputs[2] == prev.inputs[1];
    default:
      return true;
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

int FuseWalks(Program& p) {
  // next[s]: the step that continues step s's walk, linked only when no
  // other ordered op runs between them, so the fused kernel's draws and
  // hops keep the unfused order. That also keeps chains linear: a step
  // that two steps continue links to the first one only. depth[s] is s's
  // position in its chain; a chain at kMaxFusedWalkSteps ends there and
  // the next step heads a new one.
  const size_t size = static_cast<size_t>(p.size());
  std::vector<int> next(size, -1);
  std::vector<int64_t> depth(size, 1);
  int last_ordered = -1;
  for (const Node& n : p.nodes()) {
    if (IsWalkStepOp(n.kind) && n.inputs[1] == last_ordered &&
        ContinuesWalk(p.node(n.inputs[1]), n) &&
        depth[static_cast<size_t>(n.inputs[1])] < kMaxFusedWalkSteps) {
      next[static_cast<size_t>(n.inputs[1])] = n.id;
      depth[static_cast<size_t>(n.id)] = depth[static_cast<size_t>(n.inputs[1])] + 1;
    }
    if (IsOrderedOp(n.kind)) {
      last_ordered = n.id;
    }
  }

  // Rebuild the program with each chain of two or more steps replaced, at
  // its first step's position, by one fused walk and a projection per step.
  Program out;
  std::vector<int> remap(size, -1);
  int fused = 0;
  for (const Node& n : p.nodes()) {
    if (remap[static_cast<size_t>(n.id)] >= 0) {
      continue;  // a later step of a chain already fused
    }
    std::vector<int> inputs;
    for (int in : n.inputs) {
      inputs.push_back(remap[static_cast<size_t>(in)]);
    }
    const bool head = IsWalkStepOp(n.kind) && depth[static_cast<size_t>(n.id)] == 1 &&
                      next[static_cast<size_t>(n.id)] >= 0;
    if (!head) {
      const int id = out.Add(n.kind, std::move(inputs), n.attrs);
      Node& copy = out.node(id);
      copy.invariant = n.invariant;
      copy.has_format_choice = n.has_format_choice;
      copy.chosen_format = n.chosen_format;
      copy.compact_rows = n.compact_rows;
      remap[static_cast<size_t>(n.id)] = id;
      continue;
    }
    std::vector<int> chain;
    for (int s = n.id; s >= 0; s = next[static_cast<size_t>(s)]) {
      chain.push_back(s);
    }
    Attrs attrs = n.attrs;
    attrs.step_kind = n.kind;
    attrs.k = static_cast<int64_t>(chain.size());
    const int walk = out.Add(OpKind::kFusedWalk, std::move(inputs), std::move(attrs));
    for (size_t row = 0; row < chain.size(); ++row) {
      Attrs projection;
      projection.k = static_cast<int64_t>(row);
      remap[static_cast<size_t>(chain[row])] =
          out.Add(OpKind::kWalkPathStep, {walk}, std::move(projection));
    }
    ++fused;
  }
  if (fused == 0) {
    return 0;
  }
  std::vector<int> outputs;
  for (int o : p.outputs()) {
    outputs.push_back(remap[static_cast<size_t>(o)]);
  }
  out.SetOutputs(std::move(outputs));
  p = std::move(out);
  return fused;
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
