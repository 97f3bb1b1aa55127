#include "core/ir.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace gs::core {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kGraphInput: return "graph_input";
    case OpKind::kFrontierInput: return "frontier_input";
    case OpKind::kTensorInput: return "tensor_input";
    case OpKind::kSliceCols: return "slice_cols";
    case OpKind::kSliceRows: return "slice_rows";
    case OpKind::kSumAxis: return "sum_axis";
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kEltwiseScalar: return "eltwise_scalar";
    case OpKind::kEltwiseBinary: return "eltwise_binary";
    case OpKind::kDenseEltwise: return "dense_eltwise";
    case OpKind::kSpMM: return "spmm";
    case OpKind::kSddmm: return "sddmm";
    case OpKind::kEdgeValues: return "edge_values";
    case OpKind::kWithValues: return "with_values";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kTranspose: return "transpose";
    case OpKind::kRelu: return "relu";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kTensorBinary: return "tensor_binary";
    case OpKind::kTensorBinaryScalar: return "tensor_binary_scalar";
    case OpKind::kGatherRows: return "gather_rows";
    case OpKind::kStackColumns: return "stack_columns";
    case OpKind::kTensorSum: return "tensor_sum";
    case OpKind::kIndividualSample: return "individual_sample";
    case OpKind::kIndividualSampleP: return "individual_sample_p";
    case OpKind::kCollectiveSample: return "collective_sample";
    case OpKind::kRowIds: return "row_ids";
    case OpKind::kColIds: return "col_ids";
    case OpKind::kCompactRows: return "compact_rows";
    case OpKind::kUnique: return "unique";
    case OpKind::kWalkStep: return "walk_step";
    case OpKind::kWalkRestartStep: return "walk_restart_step";
    case OpKind::kNode2VecStep: return "node2vec_step";
    case OpKind::kTopKVisited: return "topk_visited";
    case OpKind::kFusedSliceSample: return "fused_slice_sample";
    case OpKind::kFusedSliceCollectiveSample: return "fused_slice_collective_sample";
    case OpKind::kFusedSliceReduce: return "fused_slice_reduce";
    case OpKind::kFusedSliceReduceSample: return "fused_slice_reduce_sample";
    case OpKind::kFusedEdgeMap: return "fused_edge_map";
    case OpKind::kFusedEdgeMapReduce: return "fused_edge_map_reduce";
    case OpKind::kConvertFormat: return "convert_format";
    case OpKind::kFusedWalk: return "fused_walk";
    case OpKind::kWalkPathStep: return "walk_path_step";
  }
  return "?";
}

bool OpKindFromName(const std::string& name, OpKind* kind) {
  static const OpKind kAll[] = {
      OpKind::kGraphInput,        OpKind::kFrontierInput,
      OpKind::kTensorInput,       OpKind::kSliceCols,
      OpKind::kSliceRows,         OpKind::kSumAxis,
      OpKind::kBroadcast,         OpKind::kEltwiseScalar,
      OpKind::kEltwiseBinary,     OpKind::kDenseEltwise,
      OpKind::kSpMM,              OpKind::kSddmm,
      OpKind::kEdgeValues,        OpKind::kWithValues,
      OpKind::kMatMul,            OpKind::kTranspose,
      OpKind::kRelu,              OpKind::kSoftmax,
      OpKind::kTensorBinary,      OpKind::kTensorBinaryScalar,
      OpKind::kGatherRows,        OpKind::kStackColumns,
      OpKind::kTensorSum,         OpKind::kIndividualSample,
      OpKind::kIndividualSampleP, OpKind::kCollectiveSample,
      OpKind::kRowIds,            OpKind::kColIds,
      OpKind::kCompactRows,       OpKind::kUnique,
      OpKind::kWalkStep,          OpKind::kWalkRestartStep,
      OpKind::kNode2VecStep,      OpKind::kTopKVisited,
      OpKind::kFusedSliceSample,  OpKind::kFusedSliceCollectiveSample,
      OpKind::kFusedSliceReduce,  OpKind::kFusedEdgeMap,
      OpKind::kFusedEdgeMapReduce, OpKind::kConvertFormat,
      OpKind::kFusedWalk,         OpKind::kWalkPathStep,
      OpKind::kFusedSliceReduceSample,
  };
  for (const OpKind candidate : kAll) {
    if (name == OpKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

ValueKind OutputKindOf(OpKind kind) {
  switch (kind) {
    case OpKind::kGraphInput:
    case OpKind::kSliceCols:
    case OpKind::kSliceRows:
    case OpKind::kBroadcast:
    case OpKind::kEltwiseScalar:
    case OpKind::kEltwiseBinary:
    case OpKind::kDenseEltwise:
    case OpKind::kSddmm:
    case OpKind::kWithValues:
    case OpKind::kIndividualSample:
    case OpKind::kIndividualSampleP:
    case OpKind::kCollectiveSample:
    case OpKind::kCompactRows:
    case OpKind::kFusedSliceSample:
    case OpKind::kFusedSliceCollectiveSample:
    case OpKind::kFusedSliceReduceSample:
    case OpKind::kFusedEdgeMap:
    case OpKind::kConvertFormat:
    case OpKind::kTopKVisited:
      return ValueKind::kMatrix;
    case OpKind::kFrontierInput:
    case OpKind::kRowIds:
    case OpKind::kColIds:
    case OpKind::kUnique:
    case OpKind::kWalkStep:
    case OpKind::kWalkRestartStep:
    case OpKind::kNode2VecStep:
    case OpKind::kFusedWalk:
    case OpKind::kWalkPathStep:
      return ValueKind::kIds;
    case OpKind::kTensorInput:
    case OpKind::kSumAxis:
    case OpKind::kSpMM:
    case OpKind::kEdgeValues:
    case OpKind::kMatMul:
    case OpKind::kTranspose:
    case OpKind::kRelu:
    case OpKind::kSoftmax:
    case OpKind::kTensorBinary:
    case OpKind::kTensorBinaryScalar:
    case OpKind::kGatherRows:
    case OpKind::kStackColumns:
    case OpKind::kTensorSum:
    case OpKind::kFusedSliceReduce:
    case OpKind::kFusedEdgeMapReduce:
      return ValueKind::kTensor;
  }
  return ValueKind::kTensor;
}

bool IsStructureOp(OpKind kind) {
  switch (kind) {
    case OpKind::kSliceCols:
    case OpKind::kSliceRows:
    case OpKind::kIndividualSample:
    case OpKind::kIndividualSampleP:
    case OpKind::kCollectiveSample:
    case OpKind::kFusedSliceSample:
    case OpKind::kFusedSliceCollectiveSample:
    case OpKind::kFusedSliceReduceSample:
    case OpKind::kCompactRows:
      return true;
    default:
      return false;
  }
}

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

namespace {

// Expected input kinds per op; kVariadic entries accept >= 1 inputs of the
// listed kind.
struct Signature {
  std::vector<ValueKind> inputs;
  bool variadic = false;  // trailing inputs repeat the last listed kind
};

Signature SignatureOf(OpKind kind) {
  using VK = ValueKind;
  switch (kind) {
    case OpKind::kGraphInput:
    case OpKind::kFrontierInput:
    case OpKind::kTensorInput:
      return {{}};
    case OpKind::kSliceCols:
    case OpKind::kSliceRows:
    case OpKind::kFusedSliceSample:
    case OpKind::kFusedSliceReduce:
      return {{VK::kMatrix, VK::kIds}};
    case OpKind::kFusedSliceCollectiveSample:
      return {{VK::kMatrix, VK::kIds, VK::kTensor}};
    case OpKind::kFusedSliceReduceSample:
      return {{VK::kMatrix, VK::kIds, VK::kMatrix}};
    case OpKind::kSumAxis:
    case OpKind::kEltwiseScalar:
    case OpKind::kEdgeValues:
    case OpKind::kRowIds:
    case OpKind::kColIds:
    case OpKind::kCompactRows:
    case OpKind::kIndividualSample:
    case OpKind::kConvertFormat:
      return {{VK::kMatrix}};
    case OpKind::kBroadcast:
    case OpKind::kDenseEltwise:
    case OpKind::kSpMM:
    case OpKind::kWithValues:
    case OpKind::kCollectiveSample:
      return {{VK::kMatrix, VK::kTensor}};
    case OpKind::kEltwiseBinary:
    case OpKind::kIndividualSampleP:
      return {{VK::kMatrix, VK::kMatrix}};
    case OpKind::kSddmm:
      return {{VK::kMatrix, VK::kTensor, VK::kTensor}};
    case OpKind::kMatMul:
    case OpKind::kTensorBinary:
      return {{VK::kTensor, VK::kTensor}};
    case OpKind::kTranspose:
    case OpKind::kRelu:
    case OpKind::kSoftmax:
    case OpKind::kTensorBinaryScalar:
    case OpKind::kTensorSum:
      return {{VK::kTensor}};
    case OpKind::kGatherRows:
      return {{VK::kTensor, VK::kIds}};
    case OpKind::kStackColumns:
      return {{VK::kTensor}, true};
    case OpKind::kUnique:
      return {{VK::kIds}, true};
    case OpKind::kWalkStep:
      return {{VK::kMatrix, VK::kIds}};
    case OpKind::kWalkRestartStep:
    case OpKind::kNode2VecStep:
      return {{VK::kMatrix, VK::kIds, VK::kIds}};
    case OpKind::kTopKVisited:
      return {{VK::kIds, VK::kIds}, true};
    case OpKind::kFusedEdgeMap:
    case OpKind::kFusedEdgeMapReduce:
      return {{VK::kMatrix, VK::kTensor}, true};
    case OpKind::kWalkPathStep:
      return {{VK::kIds}};
    case OpKind::kFusedWalk:  // takes its first step's inputs
      return {{VK::kMatrix, VK::kIds}};
  }
  return {{}};
}

}  // namespace

bool IsWalkStepOp(OpKind kind) {
  return kind == OpKind::kWalkStep || kind == OpKind::kWalkRestartStep ||
         kind == OpKind::kNode2VecStep;
}

int Program::Add(OpKind kind, std::vector<int> inputs, Attrs attrs) {
  Node n;
  n.id = static_cast<int>(nodes_.size());
  n.kind = kind;
  n.inputs = std::move(inputs);
  n.attrs = std::move(attrs);
  for (int in : n.inputs) {
    GS_CHECK(in >= 0 && in < n.id) << "node inputs must reference earlier nodes";
  }
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

std::vector<int> Program::UseCounts() const {
  std::vector<int> uses(nodes_.size(), 0);
  for (const Node& n : nodes_) {
    for (int in : n.inputs) {
      ++uses[static_cast<size_t>(in)];
    }
  }
  for (int out : outputs_) {
    ++uses[static_cast<size_t>(out)];
  }
  return uses;
}

std::vector<bool> Program::PerWalkerNodes() const {
  std::vector<bool> per_walker(nodes_.size(), false);
  for (const Node& n : nodes_) {
    switch (n.kind) {
      case OpKind::kFrontierInput:
        per_walker[static_cast<size_t>(n.id)] = true;
        break;
      case OpKind::kWalkStep:
      case OpKind::kWalkRestartStep:
      case OpKind::kNode2VecStep:
        // inputs[1] holds the walkers' previous positions.
        per_walker[static_cast<size_t>(n.id)] = per_walker[static_cast<size_t>(n.inputs[1])];
        break;
      case OpKind::kWalkPathStep:
        // The fused walk's inputs[1] holds its walkers' start positions.
        per_walker[static_cast<size_t>(n.id)] =
            per_walker[static_cast<size_t>(node(n.inputs[0]).inputs[1])];
        break;
      default:
        break;
    }
  }
  return per_walker;
}

void Program::Verify() const {
  for (const Node& n : nodes_) {
    // A fused walk takes its first step's inputs; a path projection reads a
    // row of a fused walk. Both attributes arrive in untrusted plan text.
    if (n.kind == OpKind::kFusedWalk) {
      GS_CHECK(IsWalkStepOp(n.attrs.step_kind))
          << "node " << n.id << " (fused_walk) has step kind "
          << OpKindName(n.attrs.step_kind) << ", not a walk step";
      GS_CHECK(n.attrs.k >= 1 && n.attrs.k <= kMaxFusedWalkSteps)
          << "node " << n.id << " (fused_walk) step count " << n.attrs.k << " outside [1, "
          << kMaxFusedWalkSteps << "]";
    }
    if (n.kind == OpKind::kWalkPathStep) {
      GS_CHECK_EQ(n.inputs.size(), 1u) << "node " << n.id << " (walk_path_step) arity";
      GS_CHECK(node(n.inputs[0]).kind == OpKind::kFusedWalk)
          << "node " << n.id << " (walk_path_step) must read a fused_walk";
      GS_CHECK(n.attrs.k >= 0 && n.attrs.k < node(n.inputs[0]).attrs.k)
          << "node " << n.id << " (walk_path_step) row " << n.attrs.k
          << " outside the walk's " << node(n.inputs[0]).attrs.k << " steps";
    }
    const Signature sig =
        SignatureOf(n.kind == OpKind::kFusedWalk ? n.attrs.step_kind : n.kind);
    if (sig.variadic) {
      // kFusedEdgeMap* take a matrix plus zero or more tensors; the other
      // variadic ops take one-or-more of the listed kind.
      const bool leading_matrix =
          n.kind == OpKind::kFusedEdgeMap || n.kind == OpKind::kFusedEdgeMapReduce;
      const size_t min_inputs = leading_matrix ? 1 : 1;
      GS_CHECK_GE(n.inputs.size(), min_inputs)
          << "node " << n.id << " (" << OpKindName(n.kind) << ") needs inputs";
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        const ValueKind expected =
            i < sig.inputs.size() ? sig.inputs[i] : sig.inputs.back();
        GS_CHECK(node(n.inputs[i]).output_kind() == expected)
            << "node " << n.id << " (" << OpKindName(n.kind) << ") input " << i
            << " has wrong kind";
      }
    } else {
      GS_CHECK_EQ(n.inputs.size(), sig.inputs.size())
          << "node " << n.id << " (" << OpKindName(n.kind) << ") arity";
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        GS_CHECK(node(n.inputs[i]).output_kind() == sig.inputs[i])
            << "node " << n.id << " (" << OpKindName(n.kind) << ") input " << i
            << " has wrong kind";
      }
    }
    for (int in : n.inputs) {
      GS_CHECK_LT(in, n.id) << "topological order violated at node " << n.id;
    }
    // The kernel reads the probability matrix's lists as the matrix's own,
    // which only an edge map of that matrix guarantees.
    if (n.kind == OpKind::kFusedSliceReduceSample) {
      const Node& probs = node(n.inputs[2]);
      GS_CHECK(IsEdgeMapOp(probs) && probs.inputs[0] == n.inputs[0])
          << "node " << n.id << " (fused_slice_reduce_sample) reads node " << probs.id << " ("
          << OpKindName(probs.kind) << "), not an edge map of its matrix input %"
          << n.inputs[0];
    }
  }
  for (int out : outputs_) {
    GS_CHECK(out >= 0 && out < size()) << "output references unknown node " << out;
  }
}

std::string Program::ToString() const {
  std::ostringstream out;
  for (const Node& n : nodes_) {
    out << "%" << n.id << " = " << OpKindName(n.kind) << "(";
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      out << (i > 0 ? ", " : "") << "%" << n.inputs[i];
    }
    out << ")";
    if (n.kind == OpKind::kTensorInput || !n.attrs.name.empty()) {
      out << " name=" << n.attrs.name;
    }
    if (n.kind == OpKind::kWalkPathStep) {
      out << " row=" << n.attrs.k;
    } else if (n.attrs.k != 0) {
      out << " k=" << n.attrs.k;
    }
    switch (n.kind) {
      case OpKind::kSumAxis:
      case OpKind::kBroadcast:
      case OpKind::kTensorSum:
      case OpKind::kFusedEdgeMapReduce:
        out << " axis=" << n.attrs.axis;
        break;
      default:
        break;
    }
    switch (n.kind) {
      case OpKind::kBroadcast:
      case OpKind::kEltwiseScalar:
      case OpKind::kEltwiseBinary:
      case OpKind::kDenseEltwise:
      case OpKind::kTensorBinary:
      case OpKind::kTensorBinaryScalar:
        out << " op=" << BinaryOpName(n.attrs.bop);
        break;
      default:
        break;
    }
    if (!n.attrs.stages.empty()) {
      out << " stages=" << n.attrs.stages.size();
    }
    if (n.kind == OpKind::kFusedWalk) {
      out << " step=" << OpKindName(n.attrs.step_kind);
    }
    if (n.invariant) {
      out << " [invariant]";
    }
    if (n.has_format_choice) {
      out << " [fmt=" << sparse::FormatName(n.chosen_format)
          << (n.compact_rows ? ",compact" : "") << "]";
    }
    out << "\n";
  }
  out << "outputs:";
  for (int o : outputs_) {
    out << " %" << o;
  }
  out << "\n";
  return out.str();
}

int Program::RemoveDead() {
  std::vector<bool> live(nodes_.size(), false);
  std::vector<int> stack(outputs_.begin(), outputs_.end());
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (live[static_cast<size_t>(id)]) {
      continue;
    }
    live[static_cast<size_t>(id)] = true;
    for (int in : nodes_[static_cast<size_t>(id)].inputs) {
      stack.push_back(in);
    }
  }
  // Inputs stay alive even when unused so bindings remain stable.
  for (Node& n : nodes_) {
    if (n.kind == OpKind::kGraphInput || n.kind == OpKind::kFrontierInput ||
        n.kind == OpKind::kTensorInput) {
      live[static_cast<size_t>(n.id)] = true;
    }
  }

  std::vector<int> remap(nodes_.size(), -1);
  std::vector<Node> kept;
  kept.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!live[i]) {
      continue;
    }
    remap[i] = static_cast<int>(kept.size());
    Node n = std::move(nodes_[i]);
    n.id = remap[i];
    for (int& in : n.inputs) {
      in = remap[static_cast<size_t>(in)];
      GS_INTERNAL(in >= 0);
    }
    kept.push_back(std::move(n));
  }
  const int removed = static_cast<int>(nodes_.size() - kept.size());
  nodes_ = std::move(kept);
  for (int& out : outputs_) {
    out = remap[static_cast<size_t>(out)];
    GS_INTERNAL(out >= 0);
  }
  return removed;
}

void Program::Normalize() {
  const size_t n = nodes_.size();
  std::vector<std::vector<int>> consumers(n);
  std::vector<int> pending(n, 0);
  for (const Node& node : nodes_) {
    pending[static_cast<size_t>(node.id)] = static_cast<int>(node.inputs.size());
    for (int in : node.inputs) {
      consumers[static_cast<size_t>(in)].push_back(node.id);
    }
  }
  // Kahn's algorithm with a min-heap on original id for stability.
  std::vector<int> ready;
  for (size_t i = 0; i < n; ++i) {
    if (pending[i] == 0) {
      ready.push_back(static_cast<int>(i));
    }
  }
  auto heap_cmp = [](int a, int b) { return a > b; };
  std::make_heap(ready.begin(), ready.end(), heap_cmp);
  std::vector<int> order;
  order.reserve(n);
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), heap_cmp);
    const int id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (int c : consumers[static_cast<size_t>(id)]) {
      if (--pending[static_cast<size_t>(c)] == 0) {
        ready.push_back(c);
        std::push_heap(ready.begin(), ready.end(), heap_cmp);
      }
    }
  }
  GS_CHECK_EQ(order.size(), n) << "cycle introduced by a rewrite";

  std::vector<int> remap(n, -1);
  for (size_t pos = 0; pos < n; ++pos) {
    remap[static_cast<size_t>(order[pos])] = static_cast<int>(pos);
  }
  std::vector<Node> sorted(n);
  for (size_t i = 0; i < n; ++i) {
    Node node = std::move(nodes_[i]);
    node.id = remap[i];
    for (int& in : node.inputs) {
      in = remap[static_cast<size_t>(in)];
    }
    sorted[static_cast<size_t>(node.id)] = std::move(node);
  }
  nodes_ = std::move(sorted);
  for (int& out : outputs_) {
    out = remap[static_cast<size_t>(out)];
  }
}

}  // namespace gs::core
