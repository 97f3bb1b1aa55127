#include "core/executor.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "device/device.h"
#include "fault/status.h"
#include "sparse/batch.h"
#include "sparse/fused.h"
#include "tensor/ops.h"

namespace gs::core {
namespace {

// Rebuilds a matrix carrying only `format` (structure arrays are shared, so
// this is cheap); used to enforce layout annotations.
sparse::Matrix KeepOnlyFormat(const sparse::Matrix& m, sparse::Format format) {
  sparse::Matrix out;
  switch (format) {
    case sparse::Format::kCsc: {
      sparse::Compressed csc = m.Csc();
      out = sparse::Matrix::FromCsc(m.num_rows(), m.num_cols(), std::move(csc));
      break;
    }
    case sparse::Format::kCsr: {
      sparse::Compressed csr = m.Csr();
      out = sparse::Matrix::FromCsr(m.num_rows(), m.num_cols(), std::move(csr));
      break;
    }
    case sparse::Format::kCoo: {
      sparse::Coo coo = m.GetCoo();
      out = sparse::Matrix::FromCoo(m.num_rows(), m.num_cols(), std::move(coo));
      break;
    }
  }
  out.SetRowIds(m.row_ids());
  out.SetColIds(m.col_ids());
  out.SetRowsCompact(m.rows_compact());
  out.SetUvaCache(m.uva_cache());
  return out;
}

// The single best input format per operator, used by the greedy (DGL-like)
// layout mode.
sparse::Format GreedyPreferredFormat(const Node& node) {
  switch (node.kind) {
    case OpKind::kSliceCols:
    case OpKind::kIndividualSample:
    case OpKind::kIndividualSampleP:
    case OpKind::kFusedSliceSample:
    case OpKind::kFusedSliceCollectiveSample:
    case OpKind::kFusedSliceReduce:
    case OpKind::kFusedSliceReduceSample:
    case OpKind::kWalkStep:
    case OpKind::kNode2VecStep:
      return sparse::Format::kCsc;
    case OpKind::kSliceRows:
    case OpKind::kCollectiveSample:
    case OpKind::kSpMM:
      return sparse::Format::kCsr;
    case OpKind::kSumAxis:
      return node.attrs.axis == 0 ? sparse::Format::kCsr : sparse::Format::kCsc;
    case OpKind::kRowIds:
      return sparse::Format::kCoo;
    default:
      return sparse::Format::kCsc;
  }
}

// The node set a `row_ids` returns without a launch: a marked sample's
// (`fused`), or a rows-compact matrix's row id map, which already is its
// node set. Undefined when RowIds' kernel has to run.
tensor::IdArray LaunchFreeRowIds(const tensor::IdArray& fused, const sparse::Matrix& m) {
  if (fused.defined()) {
    return fused;
  }
  if (m.rows_compact() && m.has_row_ids()) {
    return m.row_ids();
  }
  return {};
}

void EnsureFormat(const sparse::Matrix& m, sparse::Format format) {
  switch (format) {
    case sparse::Format::kCsc:
      m.Csc();
      break;
    case sparse::Format::kCsr:
      m.Csr();
      break;
    case sparse::Format::kCoo:
      m.GetCoo();
      break;
  }
}

thread_local HopObserver* t_hop_observer = nullptr;

// The walkers `cur` followed by the previous position of each one that
// searches it: a Node2Vec step from a node with in-neighbors reads both
// nodes' lists. Ids may carry super-batch labels; m's CSC is the one the
// step's kernel read.
tensor::IdArray WithPrevious(const sparse::Matrix& m, const tensor::IdArray& cur,
                             const tensor::IdArray& prev) {
  const sparse::OffsetArray& indptr = m.Csc().indptr;
  const int64_t n = m.num_cols();
  std::vector<int32_t> ids(cur.data(), cur.data() + cur.size());
  for (int64_t i = 0; i < cur.size(); ++i) {
    if (cur[i] >= 0 && prev[i] >= 0 && indptr[cur[i] % n + 1] > indptr[cur[i] % n]) {
      ids.push_back(prev[i]);
    }
  }
  return tensor::IdArray::FromVector(ids);
}

// Notifies the observer when `n` is a frontier hop against the base graph:
// a slice (fused or not)/walk whose matrix operand has no column id map
// (only the full adjacency — and matrices sharing its column space —
// qualifies; already-sliced subgraphs are local by construction). A fused
// walk is one hop per step, in step order, like the chain it replaced, and
// a layer's fused_slice_reduce_sample is one hop over its matrix: its
// probability matrix shares that matrix's lists. Each hop carries the slots
// its kernel draws per frontier entry (0: the whole list). A restart
// walker's coin is drawn inside the kernel, so its one slot is an upper
// bound. A Node2Vec hop's frontier also holds the previous position of
// each walker whose step searches its list.
void NotifyHop(HopObserver* observer, const Node& n, const std::vector<Value>& values) {
  int64_t slots = 0;
  bool node2vec = false;
  switch (n.kind) {
    case OpKind::kFusedSliceSample:
      slots = n.attrs.k;
      break;
    case OpKind::kWalkStep:
    case OpKind::kWalkRestartStep:
      slots = 1;
      break;
    case OpKind::kFusedWalk:
      node2vec = n.attrs.step_kind == OpKind::kNode2VecStep;
      slots = node2vec ? 0 : 1;
      break;
    case OpKind::kNode2VecStep:
      node2vec = true;
      break;
    case OpKind::kSliceCols:
    case OpKind::kFusedSliceCollectiveSample:
    case OpKind::kFusedSliceReduce:
    case OpKind::kFusedSliceReduceSample:
      break;
    default:
      return;
  }
  const Value& m = values[static_cast<size_t>(n.inputs[0])];
  const Value& ids = values[static_cast<size_t>(n.inputs[1])];
  if (m.kind != ValueKind::kMatrix || !m.matrix.defined() || m.matrix.has_col_ids() ||
      ids.kind != ValueKind::kIds || !ids.ids.defined()) {
    return;
  }
  // Step t + 1 of a fused walk starts from path row t, and its previous
  // positions are step t's walkers. Empty rows are reported too, as the
  // unfused chain reports its empty frontiers; Verify caps the count.
  const int64_t steps = n.kind == OpKind::kFusedWalk ? n.attrs.k : 1;
  tensor::IdArray cur = ids.ids;
  tensor::IdArray prev = node2vec ? values[static_cast<size_t>(n.inputs[2])].ids : cur;
  for (int64_t t = 0; t < steps; ++t) {
    if (t > 0) {
      prev = cur;
      cur = sparse::WalkPathRow(values[static_cast<size_t>(n.id)].ids, steps, t - 1);
    }
    observer->OnHop(m.matrix, node2vec ? WithPrevious(m.matrix, cur, prev) : cur, slots);
  }
}

}  // namespace

HopObserver* SetThreadHopObserver(HopObserver* observer) {
  HopObserver* previous = t_hop_observer;
  t_hop_observer = observer;
  return previous;
}

Value Value::OfMatrix(sparse::Matrix m) {
  Value v;
  v.kind = ValueKind::kMatrix;
  v.matrix = std::move(m);
  return v;
}

Value Value::OfTensor(tensor::Tensor t) {
  Value v;
  v.kind = ValueKind::kTensor;
  v.tensor = std::move(t);
  return v;
}

Value Value::OfIds(tensor::IdArray i) {
  Value v;
  v.kind = ValueKind::kIds;
  v.ids = std::move(i);
  return v;
}

namespace {

template <typename T>
bool SameArray(const device::Array<T>& a, const device::Array<T>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  if (a.size() == 0) {
    return true;
  }
  return std::memcmp(a.data(), b.data(), static_cast<size_t>(a.bytes())) == 0;
}

bool SameCompressed(const sparse::Compressed& a, const sparse::Compressed& b) {
  return SameArray(a.indptr, b.indptr) && SameArray(a.indices, b.indices) &&
         a.values.defined() == b.values.defined() &&
         (!a.values.defined() || SameArray(a.values, b.values));
}

}  // namespace

bool BitIdentical(const Value& a, const Value& b) {
  if (a.kind != b.kind) {
    return false;
  }
  switch (a.kind) {
    case ValueKind::kIds:
      return SameArray(a.ids, b.ids);
    case ValueKind::kTensor: {
      if (a.tensor.defined() != b.tensor.defined()) {
        return false;
      }
      if (!a.tensor.defined()) {
        return true;
      }
      return a.tensor.shape() == b.tensor.shape() && SameArray(a.tensor.array(), b.tensor.array());
    }
    case ValueKind::kMatrix: {
      const sparse::Matrix& m = a.matrix;
      const sparse::Matrix& n = b.matrix;
      if (m.defined() != n.defined()) {
        return false;
      }
      if (!m.defined()) {
        return true;
      }
      if (m.num_rows() != n.num_rows() || m.num_cols() != n.num_cols()) {
        return false;
      }
      // Compare through one canonical format so the answer does not depend
      // on which representations happen to be materialized.
      if (!SameCompressed(m.Csc(), n.Csc())) {
        return false;
      }
      if (m.has_row_ids() != n.has_row_ids() || m.has_col_ids() != n.has_col_ids()) {
        return false;
      }
      if (m.has_row_ids() && !SameArray(m.row_ids(), n.row_ids())) {
        return false;
      }
      if (m.has_col_ids() && !SameArray(m.col_ids(), n.col_ids())) {
        return false;
      }
      return true;
    }
  }
  return false;
}

Executor::Executor(const Program& program, ExecOptions options)
    : program_(&program), options_(options) {
  last_use_.assign(static_cast<size_t>(program.size()), -1);
  for (const Node& n : program.nodes()) {
    for (int in : n.inputs) {
      last_use_[static_cast<size_t>(in)] = std::max(last_use_[static_cast<size_t>(in)], n.id);
    }
  }
  for (int out : program.outputs()) {
    last_use_[static_cast<size_t>(out)] = program.size();  // never freed
  }
  // A compact_rows annotation on a node feeding a collective sample is not a
  // layout choice but a semantic change: compaction drops rows that carry no
  // edges, and a dropped row with positive probability can no longer be
  // drawn. The layout pass never proposes it; reject it here so a
  // hand-edited or corrupted plan cannot silently sample a different
  // distribution.
  if (options_.layout == LayoutMode::kPlanned) {
    for (const Node& n : program.nodes()) {
      if ((n.kind == OpKind::kCollectiveSample ||
           n.kind == OpKind::kFusedSliceCollectiveSample ||
           n.kind == OpKind::kFusedSliceReduceSample) &&
          !n.inputs.empty()) {
        const Node& in = program.node(n.inputs[0]);
        GS_CHECK(!in.compact_rows)
            << "node " << in.id << " feeds collective sample " << n.id
            << " and must not be row-compacted (compaction changes which rows can be drawn)";
      }
    }
  }
}

void Executor::SetPrecomputed(int node_id, Value value) {
  precomputed_[node_id] = std::move(value);
}

std::vector<Value> Executor::Run(const Bindings& bindings, Rng& rng) const {
  return Run(bindings, std::span<Rng>(&rng, 1));
}

std::vector<Value> Executor::Run(const Bindings& bindings, std::span<Rng> rngs) const {
  GS_CHECK(bindings.graph != nullptr) << "bindings must provide the base graph";
  GS_CHECK(rngs.size() == 1 || (!rngs.empty() && options_.graph_num_nodes > 0))
      << "a run of " << rngs.size() << " rng streams needs labeled ids (graph_num_nodes)";
  // Watchdog: drain flags left by kernels that ran outside any executor
  // (model math, feature gathers), then cancel this batch if any program
  // node's kernels blow past the profile's time estimate (see
  // device/stream.h). The caller (serving retry ladder, trainer
  // checkpoint) decides whether to retry.
  device::Stream& stream = device::Current().stream();
  stream.TakeStuckKernels();
  std::vector<Value> values(static_cast<size_t>(program_->size()));
  // Node sets that marked samples computed in their own kernel, by sample
  // id (Select-Finalize fusion). Kept apart from the sample's value so that
  // layout rebuilds cannot drop them; freed with it.
  std::vector<tensor::IdArray> node_sets(values.size());
  for (const Node& n : program_->nodes()) {
    auto pre = precomputed_.find(n.id);
    if (pre != precomputed_.end()) {
      values[static_cast<size_t>(n.id)] = pre->second;
    } else {
      values[static_cast<size_t>(n.id)] = Evaluate(n, values, node_sets, bindings, rngs);
      if (t_hop_observer != nullptr) {
        // Fires before the free loop below so hop inputs are still alive.
        NotifyHop(t_hop_observer, n, values);
      }
    }
    if (stream.TakeStuckKernels() > 0) {
      throw fault::TransientError(
          "watchdog: kernel in node " + std::to_string(n.id) + " (" + OpKindName(n.kind) +
          ") exceeded " + std::to_string(stream.profile().watchdog_multiple) +
          "x its device-profile time estimate; batch cancelled");
    }
    // Free inputs whose last consumer just ran (keeps simulated device
    // memory accounting tight, like stream-ordered frees on GPU).
    for (int in : n.inputs) {
      if (last_use_[static_cast<size_t>(in)] == n.id) {
        values[static_cast<size_t>(in)] = Value{};
        node_sets[static_cast<size_t>(in)] = tensor::IdArray{};
      }
    }
  }
  std::vector<Value> outputs;
  outputs.reserve(program_->outputs().size());
  for (int out : program_->outputs()) {
    outputs.push_back(values[static_cast<size_t>(out)]);
  }
  return outputs;
}

std::map<int, Value> Executor::RunInvariant(const Bindings& bindings) const {
  GS_CHECK(bindings.graph != nullptr);
  Rng rng(uint64_t{0});  // invariant nodes are deterministic; rng is never consumed
  std::vector<Value> values(static_cast<size_t>(program_->size()));
  std::vector<tensor::IdArray> node_sets(values.size());  // samples are never invariant
  std::map<int, Value> result;
  for (const Node& n : program_->nodes()) {
    if (!n.invariant) {
      continue;
    }
    values[static_cast<size_t>(n.id)] = Evaluate(n, values, node_sets, bindings, {&rng, 1});
    result[n.id] = values[static_cast<size_t>(n.id)];
  }
  return result;
}

Value Executor::Evaluate(const Node& node, std::vector<Value>& values,
                         std::vector<tensor::IdArray>& node_sets, const Bindings& bindings,
                         std::span<Rng> rngs) const {
  auto matrix_in = [&](int slot) -> const sparse::Matrix& {
    const Value& v = values[static_cast<size_t>(node.inputs[static_cast<size_t>(slot)])];
    GS_CHECK(v.kind == ValueKind::kMatrix && v.matrix.defined())
        << "node " << node.id << " expects a matrix input";
    return v.matrix;
  };
  auto tensor_in = [&](int slot) -> const tensor::Tensor& {
    const Value& v = values[static_cast<size_t>(node.inputs[static_cast<size_t>(slot)])];
    GS_CHECK(v.kind == ValueKind::kTensor && v.tensor.defined())
        << "node " << node.id << " expects a tensor input";
    return v.tensor;
  };
  auto ids_in = [&](int slot) -> const tensor::IdArray& {
    const Value& v = values[static_cast<size_t>(node.inputs[static_cast<size_t>(slot)])];
    GS_CHECK(v.kind == ValueKind::kIds && v.ids.defined())
        << "node " << node.id << " expects an ids input";
    return v.ids;
  };

  // Greedy layout: convert the primary matrix input to the op's favorite
  // format up front, conversion cost be damned (the DGL-like policy). A
  // `row_ids` that launches nothing reads no format, so it converts nothing.
  if (options_.layout == LayoutMode::kGreedy && !node.inputs.empty()) {
    const Value& first = values[static_cast<size_t>(node.inputs[0])];
    if (first.kind == ValueKind::kMatrix && first.matrix.defined() &&
        !(node.kind == OpKind::kRowIds &&
          LaunchFreeRowIds(node_sets[static_cast<size_t>(node.inputs[0])], first.matrix)
              .defined())) {
      EnsureFormat(first.matrix, GreedyPreferredFormat(node));
    }
  }

  // Finalizes a structure-op result according to layout annotations.
  auto finish_structure = [&](sparse::Matrix m) -> Value {
    if (options_.layout == LayoutMode::kPlanned) {
      if (node.compact_rows && !m.rows_compact()) {
        m = sparse::CompactRows(m);
      }
      if (node.has_format_choice) {
        EnsureFormat(m, node.chosen_format);
        m = KeepOnlyFormat(m, node.chosen_format);
      }
    }
    return Value::OfMatrix(std::move(m));
  };

  // Every sampling kernel picks each segment's stream itself; label_nodes = 0
  // means plain node ids (one segment).
  const auto segments = static_cast<int64_t>(rngs.size());
  const int64_t label_nodes = options_.graph_num_nodes;

  // Where a node-wise sample marked by Select-Finalize fusion writes its
  // node set; null for an unmarked one.
  tensor::IdArray* const node_set =
      node.attrs.flag ? &node_sets[static_cast<size_t>(node.id)] : nullptr;

  switch (node.kind) {
    case OpKind::kGraphInput: {
      if (node.attrs.name.empty()) {
        return Value::OfMatrix(*bindings.graph);
      }
      auto it = bindings.named_graphs.find(node.attrs.name);
      GS_CHECK(it != bindings.named_graphs.end() && it->second != nullptr)
          << "missing graph binding '" << node.attrs.name << "'";
      return Value::OfMatrix(*it->second);
    }
    case OpKind::kFrontierInput:
      GS_CHECK(bindings.frontier.defined()) << "bindings must provide frontiers";
      return Value::OfIds(bindings.frontier);
    case OpKind::kTensorInput: {
      auto it = bindings.tensors.find(node.attrs.name);
      GS_CHECK(it != bindings.tensors.end())
          << "missing tensor binding '" << node.attrs.name << "'";
      return Value::OfTensor(it->second);
    }

    case OpKind::kSliceCols:
      return finish_structure(sparse::SliceColumns(matrix_in(0), ids_in(1), segments));
    case OpKind::kSliceRows:
      return finish_structure(sparse::SliceRows(matrix_in(0), ids_in(1)));

    case OpKind::kSumAxis:
      return Value::OfTensor(tensor::Tensor::FromArray(
          {node.attrs.axis == 0 ? matrix_in(0).num_rows() : matrix_in(0).num_cols()},
          sparse::SumAxis(matrix_in(0), node.attrs.axis)));
    case OpKind::kFusedSliceReduce: {
      sparse::ValueArray sums = sparse::FusedSliceReduce(matrix_in(0), ids_in(1), segments);
      const int64_t rows = sums.size();
      return Value::OfTensor(tensor::Tensor::FromArray({rows}, std::move(sums)));
    }
    case OpKind::kBroadcast:
      return Value::OfMatrix(sparse::Broadcast(matrix_in(0), node.attrs.bop,
                                               tensor_in(1).array(), node.attrs.axis));
    case OpKind::kEltwiseScalar:
      return Value::OfMatrix(
          sparse::EltwiseScalar(matrix_in(0), node.attrs.bop, node.attrs.scalar));
    case OpKind::kEltwiseBinary:
      return Value::OfMatrix(sparse::EltwiseBinary(matrix_in(0), node.attrs.bop, matrix_in(1)));
    case OpKind::kDenseEltwise:
      return Value::OfMatrix(sparse::DenseEltwise(matrix_in(0), node.attrs.bop, tensor_in(1)));
    case OpKind::kSpMM:
      return Value::OfTensor(sparse::SpMM(matrix_in(0), tensor_in(1)));
    case OpKind::kSddmm:
      return Value::OfMatrix(
          sparse::Sddmm(matrix_in(0), tensor_in(1), tensor_in(2), node.attrs.flag));
    case OpKind::kEdgeValues:
      return Value::OfTensor(tensor::Tensor::FromArray(
          {matrix_in(0).nnz()}, matrix_in(0).ValuesFor(sparse::Format::kCsc)));
    case OpKind::kWithValues: {
      const tensor::Tensor& t = tensor_in(1);
      GS_CHECK_EQ(t.numel(), matrix_in(0).nnz()) << "WithValues size mismatch";
      return Value::OfMatrix(matrix_in(0).WithValues(sparse::Format::kCsc, t.array()));
    }

    case OpKind::kMatMul:
      return Value::OfTensor(tensor::MatMul(tensor_in(0), tensor_in(1)));
    case OpKind::kTranspose:
      return Value::OfTensor(tensor::Transpose(tensor_in(0)));
    case OpKind::kRelu:
      return Value::OfTensor(tensor::Relu(tensor_in(0)));
    case OpKind::kSoftmax:
      return Value::OfTensor(tensor::Softmax(tensor_in(0)));
    case OpKind::kTensorBinary:
      return Value::OfTensor(tensor::Binary(node.attrs.bop, tensor_in(0), tensor_in(1)));
    case OpKind::kTensorBinaryScalar:
      return Value::OfTensor(
          tensor::BinaryScalar(node.attrs.bop, tensor_in(0), node.attrs.scalar));
    case OpKind::kGatherRows: {
      const tensor::Tensor& t = tensor_in(0);
      tensor::IdArray index = ids_in(1);
      if (label_nodes > 0 && t.rows() == label_nodes) {
        // Labeled id space -> original node ids for graph-sized tensors.
        index = sparse::MapIdsModulo(index, label_nodes);
      }
      return Value::OfTensor(tensor::GatherRows(t, index));
    }
    case OpKind::kStackColumns: {
      std::vector<tensor::Tensor> columns;
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        columns.push_back(tensor_in(static_cast<int>(i)));
      }
      return Value::OfTensor(tensor::StackColumns(columns));
    }
    case OpKind::kTensorSum:
      return Value::OfTensor(tensor::SumAxis(tensor_in(0), node.attrs.axis));

    case OpKind::kIndividualSample:
      return finish_structure(sparse::IndividualSample(
          matrix_in(0), node.attrs.k, sparse::ValueArray{}, rngs, label_nodes, node_set));
    case OpKind::kIndividualSampleP: {
      const sparse::Matrix& m = matrix_in(0);
      const sparse::Matrix& probs = matrix_in(1);
      GS_CHECK(m.SharesPatternWith(probs))
          << "individual_sample probs must share the matrix's sparsity pattern";
      return finish_structure(sparse::IndividualSample(
          m, node.attrs.k, probs.ValuesFor(sparse::Format::kCsc), rngs, label_nodes, node_set));
    }
    case OpKind::kCollectiveSample:
      return finish_structure(sparse::CollectiveSample(matrix_in(0), node.attrs.k,
                                                       tensor_in(1).array(), rngs, label_nodes));
    case OpKind::kFusedSliceCollectiveSample:
      return finish_structure(sparse::FusedSliceCollectiveSample(
          matrix_in(0), ids_in(1), node.attrs.k, tensor_in(2).array(), rngs));
    case OpKind::kFusedSliceReduceSample:
      return finish_structure(sparse::FusedSliceReduceSample(matrix_in(0), ids_in(1),
                                                             node.attrs.k, matrix_in(2), rngs));

    case OpKind::kRowIds: {
      const sparse::Matrix& m = matrix_in(0);
      tensor::IdArray ids = LaunchFreeRowIds(node_sets[static_cast<size_t>(node.inputs[0])], m);
      return Value::OfIds(ids.defined() ? std::move(ids) : sparse::RowIds(m));
    }
    case OpKind::kColIds:
      return Value::OfIds(sparse::ColIds(matrix_in(0)));
    case OpKind::kCompactRows:
      return finish_structure(sparse::CompactRows(matrix_in(0)));
    case OpKind::kUnique: {
      std::vector<tensor::IdArray> arrays;
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        arrays.push_back(ids_in(static_cast<int>(i)));
      }
      return Value::OfIds(sparse::Unique(arrays));
    }

    case OpKind::kWalkStep:
      return Value::OfIds(sparse::UniformWalkStep(matrix_in(0), ids_in(1), rngs, label_nodes));
    case OpKind::kWalkRestartStep:
      return Value::OfIds(sparse::UniformWalkStepRestart(matrix_in(0), ids_in(1), ids_in(2),
                                                         node.attrs.p, rngs, label_nodes));
    case OpKind::kNode2VecStep:
      return Value::OfIds(sparse::Node2VecStep(matrix_in(0), ids_in(1), ids_in(2),
                                               node.attrs.p, node.attrs.q, rngs, label_nodes));
    case OpKind::kFusedWalk: {
      const int64_t steps = node.attrs.k;
      switch (node.attrs.step_kind) {
        case OpKind::kWalkStep:
          return Value::OfIds(
              sparse::UniformWalk(matrix_in(0), ids_in(1), steps, rngs, label_nodes));
        case OpKind::kWalkRestartStep:
          return Value::OfIds(sparse::UniformWalkRestart(matrix_in(0), ids_in(1), ids_in(2),
                                                         node.attrs.p, steps, rngs, label_nodes));
        case OpKind::kNode2VecStep:
          return Value::OfIds(sparse::Node2VecWalk(matrix_in(0), ids_in(1), ids_in(2),
                                                   node.attrs.p, node.attrs.q, steps, rngs,
                                                   label_nodes));
        default:
          break;
      }
      GS_CHECK(false) << "node " << node.id << " fuses a non-walk step kind";
      return {};
    }
    case OpKind::kWalkPathStep:
      return Value::OfIds(
          sparse::WalkPathRow(ids_in(0), program_->node(node.inputs[0]).attrs.k, node.attrs.k));
    case OpKind::kTopKVisited: {
      std::vector<tensor::IdArray> steps;
      for (size_t i = 1; i < node.inputs.size(); ++i) {
        steps.push_back(ids_in(static_cast<int>(i)));
      }
      return Value::OfMatrix(sparse::TopKVisited(
          steps, ids_in(0), node.attrs.k,
          label_nodes > 0 ? segments * label_nodes : bindings.graph->num_rows()));
    }

    case OpKind::kFusedSliceSample:
      // The compiled kernel draws from one stream, so only one-segment runs
      // (solo, or a one-member group) consult the jump table.
      if (fused_kernels_ != nullptr && rngs.size() == 1) {
        sparse::Matrix jit_out;
        if (fused_kernels_->SliceSample(node.id, matrix_in(0), ids_in(1), rngs.front(),
                                        &jit_out, node_set)) {
          return finish_structure(std::move(jit_out));
        }
      }
      return finish_structure(
          sparse::FusedSliceSample(matrix_in(0), ids_in(1), node.attrs.k, rngs, node_set));
    case OpKind::kFusedEdgeMap: {
      std::vector<tensor::Tensor> operands;
      for (size_t i = 1; i < node.inputs.size(); ++i) {
        operands.push_back(tensor_in(static_cast<int>(i)));
      }
      if (fused_kernels_ != nullptr) {
        sparse::Matrix jit_out;
        if (fused_kernels_->EdgeMap(node.id, matrix_in(0), operands, &jit_out)) {
          return Value::OfMatrix(std::move(jit_out));
        }
      }
      return Value::OfMatrix(sparse::FusedEdgeMap(matrix_in(0), node.attrs.stages, operands));
    }
    case OpKind::kFusedEdgeMapReduce: {
      std::vector<tensor::Tensor> operands;
      for (size_t i = 1; i < node.inputs.size(); ++i) {
        operands.push_back(tensor_in(static_cast<int>(i)));
      }
      const sparse::Matrix& m = matrix_in(0);
      if (fused_kernels_ != nullptr) {
        sparse::ValueArray jit_reduced;
        if (fused_kernels_->EdgeMapReduce(node.id, m, operands, &jit_reduced)) {
          return Value::OfTensor(tensor::Tensor::FromArray(
              {node.attrs.axis == 0 ? m.num_rows() : m.num_cols()}, std::move(jit_reduced)));
        }
      }
      sparse::ValueArray reduced =
          sparse::FusedEdgeMapReduce(m, node.attrs.stages, operands, node.attrs.axis);
      return Value::OfTensor(tensor::Tensor::FromArray(
          {node.attrs.axis == 0 ? m.num_rows() : m.num_cols()}, std::move(reduced)));
    }
    case OpKind::kConvertFormat: {
      const sparse::Matrix& m = matrix_in(0);
      EnsureFormat(m, node.attrs.format);
      return Value::OfMatrix(KeepOnlyFormat(m, node.attrs.format));
    }
  }
  GS_CHECK(false) << "unhandled op " << OpKindName(node.kind);
  return {};
}

}  // namespace gs::core
