// Data-flow intermediate representation for graph sampling programs
// (Section 4.1 of the paper).
//
// A Program is an SSA data-flow graph: nodes are operators, edges are value
// dependencies. Programs are built by tracing the matrix-centric API
// (core/trace.h) — the role torch.fx plays in the paper — then rewritten by
// the optimization passes (core/passes.h) and interpreted per mini-batch by
// the Executor (core/executor.h).

#ifndef GSAMPLER_CORE_IR_H_
#define GSAMPLER_CORE_IR_H_

#include <string>
#include <vector>

#include "common/binary_op.h"
#include "sparse/fused.h"
#include "sparse/matrix.h"

namespace gs::core {

enum class ValueKind {
  kMatrix,
  kTensor,
  kIds,
};

enum class OpKind {
  // --- Inputs (bound per batch or per program) ---
  kGraphInput,     // the base graph's adjacency matrix (batch-invariant)
  kFrontierInput,  // per-batch frontier ids
  kTensorInput,    // named dense tensor (features, model weights, ...)

  // --- Extract ---
  kSliceCols,  // (matrix, ids) -> matrix           A[:, frontiers]
  kSliceRows,  // (matrix, ids) -> matrix           A[rows, :]

  // --- Compute: sparse ---
  kSumAxis,        // (matrix) -> tensor             attrs.axis
  kBroadcast,      // (matrix, tensor) -> matrix     attrs.bop, attrs.axis
  kEltwiseScalar,  // (matrix) -> matrix             attrs.bop, attrs.scalar
  kEltwiseBinary,  // (matrix, matrix) -> matrix     attrs.bop (shared pattern)
  kDenseEltwise,   // (matrix, tensor) -> matrix     attrs.bop
  kSpMM,           // (matrix, tensor) -> tensor
  kSddmm,          // (matrix, u, v) -> matrix       attrs.flag = mul_existing
  kEdgeValues,     // (matrix) -> tensor             CSC-order edge values
  kWithValues,     // (matrix, tensor) -> matrix     CSC-order edge values

  // --- Compute: dense ---
  kMatMul,             // (tensor, tensor) -> tensor
  kTranspose,          // (tensor) -> tensor
  kRelu,               // (tensor) -> tensor
  kSoftmax,            // (tensor) -> tensor
  kTensorBinary,       // (tensor, tensor) -> tensor  attrs.bop
  kTensorBinaryScalar, // (tensor) -> tensor          attrs.bop, attrs.scalar
  kGatherRows,         // (tensor, ids) -> tensor
  kStackColumns,       // (tensor...) -> tensor
  kTensorSum,          // (tensor) -> tensor          attrs.axis

  // --- Select ---
  kIndividualSample,   // (matrix) -> matrix          attrs.k (uniform)
  kIndividualSampleP,  // (matrix, probs_matrix) -> matrix  attrs.k
  kCollectiveSample,   // (matrix, probs_tensor) -> matrix  attrs.k

  // --- Finalize ---
  kRowIds,       // (matrix) -> ids
  kColIds,       // (matrix) -> ids
  kCompactRows,  // (matrix) -> matrix
  kUnique,       // (ids...) -> ids

  // --- Walks ---
  kWalkStep,         // (matrix, ids) -> ids
  kWalkRestartStep,  // (matrix, cur_ids, root_ids) -> ids  attrs.p = restart prob
  kNode2VecStep,     // (matrix, cur_ids, prev_ids) -> ids  attrs.p, attrs.q
  kTopKVisited,      // (roots_ids, step_ids...) -> matrix  attrs.k

  // --- Introduced by optimization passes ---
  kFusedSliceSample,    // (matrix, ids) -> matrix    attrs.k  (Extract-Select)
  kFusedSliceCollectiveSample,  // (matrix, ids, probs_tensor) -> matrix  attrs.k
  kFusedSliceReduce,            // (matrix, ids) -> tensor   row sums of matrix[:, ids]
  kFusedEdgeMap,        // (matrix, operands...) -> matrix   attrs.stages
  kFusedEdgeMapReduce,  // (matrix, operands...) -> tensor   attrs.stages, axis
  kConvertFormat,       // (matrix) -> matrix          attrs.format (layout pass)
  // A chain of attrs.k walk steps of kind attrs.step_kind in one kernel; its
  // inputs are the first step's. Output: the step-major path, attrs.k rows
  // of one id per walker (walk fusion).
  kFusedWalk,     // (matrix, ids[, ids]) -> ids   attrs.step_kind, attrs.k, p, q
  kWalkPathStep,  // (fused_walk) -> ids           attrs.k = row (host copy)
};

const char* OpKindName(OpKind kind);
// Inverse of OpKindName (plan deserialization). Returns false when `name`
// matches no operator.
bool OpKindFromName(const std::string& name, OpKind* kind);
ValueKind OutputKindOf(OpKind kind);
// True for operators that produce a new sparsity structure (extract/select/
// compaction); only these get layout annotations (Section 4.3).
bool IsStructureOp(OpKind kind);
// True for the three walk step operators a fused walk may chain.
bool IsWalkStepOp(OpKind kind);

// Most steps one fused walk takes. Bounds the work and hop reports a plan
// artifact's step count can ask for; walk fusion splits longer chains.
inline constexpr int64_t kMaxFusedWalkSteps = int64_t{1} << 16;

// Operator attributes; which fields are meaningful depends on OpKind.
struct Attrs {
  int64_t k = 0;                        // fanout / layer width
  int axis = 0;                         // reduction / broadcast axis
  BinaryOp bop = BinaryOp::kMul;        // elementwise operator
  float scalar = 0.0f;                  // scalar operand
  float p = 1.0f, q = 1.0f;             // node2vec parameters
  bool flag = false;                    // op-specific boolean (e.g. SDDMM mul)
  sparse::Format format = sparse::Format::kCsc;  // layout annotation target
  std::string name;                     // input binding name
  std::vector<sparse::EdgeMapStage> stages;      // fused edge-map pipeline
  OpKind step_kind = OpKind::kWalkStep;          // fused walk's step operator
};

struct Node {
  int id = -1;
  OpKind kind = OpKind::kGraphInput;
  std::vector<int> inputs;
  Attrs attrs;

  // --- Annotations maintained by the passes ---
  // Batch-invariant: value depends only on graph/tensor inputs, so the
  // pre-processing pass may evaluate it once at compile time (Section 4.2).
  bool invariant = false;
  // Layout annotation (structure-producing ops): materialize exactly this
  // output format; unset means "whatever the kernel produced".
  bool has_format_choice = false;
  sparse::Format chosen_format = sparse::Format::kCsc;
  // Layout annotation: compact rows of the output (Section 4.3).
  bool compact_rows = false;

  ValueKind output_kind() const { return OutputKindOf(kind); }
};

class Program {
 public:
  // Appends a node; inputs must reference earlier nodes (the node list is
  // always topologically ordered).
  int Add(OpKind kind, std::vector<int> inputs, Attrs attrs = {});

  Node& node(int id) { return nodes_[static_cast<size_t>(id)]; }
  const Node& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  int size() const { return static_cast<int>(nodes_.size()); }

  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  const std::vector<int>& outputs() const { return outputs_; }
  void SetOutputs(std::vector<int> outputs) { outputs_ = std::move(outputs); }

  // Consumer counts (recomputed on demand after rewrites).
  std::vector<int> UseCounts() const;

  // Marks the nodes holding one id per frontier entry, in frontier order:
  // the frontier itself, and walk steps and fused-walk path rows whose
  // walkers started there.
  std::vector<bool> PerWalkerNodes() const;

  // Structural checks: topological input order, arity, and value-kind
  // agreement for every operator, plus the fused-walk attributes (a walk
  // step kind, 1..kMaxFusedWalkSteps steps, projections of an existing row
  // of a fused walk). Throws gs::Error on violations.
  void Verify() const;

  // Human-readable listing (one node per line).
  std::string ToString() const;

  // Removes nodes unreachable from the outputs, remapping ids. Returns the
  // number of nodes removed. (Used by the DCE pass and after rewrites.)
  int RemoveDead();

  // Re-sorts nodes topologically (stable on original ids) and remaps all
  // references. Passes that append nodes and rewire earlier consumers call
  // this to restore the inputs-before-users invariant.
  void Normalize();

 private:
  std::vector<Node> nodes_;
  std::vector<int> outputs_;
};

}  // namespace gs::core

#endif  // GSAMPLER_CORE_IR_H_
