#include "baselines/eager.h"

#include <algorithm>

#include "common/error.h"
#include "device/device.h"
#include "device/stream.h"
#include "sparse/kernels.h"
#include "tensor/ops.h"

namespace gs::baselines::eager {
namespace {

using sparse::Format;
using sparse::Matrix;
using sparse::ValueArray;
using tensor::IdArray;
using tensor::Tensor;

// Greedy layout policy: materialize the operator's favorite input format
// before running it (the conversion kernels charge their own cost).
void Ensure(const Matrix& m, Format format, const Style& style) {
  if (!style.greedy_formats) {
    return;
  }
  switch (format) {
    case Format::kCsc:
      m.Csc();
      break;
    case Format::kCsr:
      m.Csr();
      break;
    case Format::kCoo:
      m.GetCoo();
      break;
  }
}

// update_all's copy_e stage: writes every edge value to a fresh message
// buffer before the reduction reads it back.
Tensor MaterializeMessages(const Matrix& m, const Style& style) {
  ValueArray values = m.ValuesFor(Format::kCsc);
  if (!style.message_materialization) {
    return Tensor::FromArray({m.nnz()}, std::move(values));
  }
  device::KernelScope kernel(device::Current().stream());
  ValueArray copy = values.Clone();
  kernel.Finish({.parallel_items = m.nnz(), .hbm_bytes = 2 * values.bytes()});
  return Tensor::FromArray({m.nnz()}, std::move(copy));
}

// Walk-trace write-back: DGL/PyG walkers store every step into the trace
// tensor (an extra pass gSampler's pipeline avoids).
IdArray MaterializeTrace(const IdArray& step, const Style& style) {
  if (!style.message_materialization) {
    return step;
  }
  device::KernelScope kernel(device::Current().stream());
  IdArray copy = step.Clone();
  kernel.Finish({.parallel_items = step.size(), .hbm_bytes = 2 * step.bytes()});
  return copy;
}

// Per-edge dot of endpoint projections. With message materialization this
// gathers both endpoints' vectors into (E, h) buffers first (DGL's unfused
// u_dot_v); otherwise it computes the dots in one pass.
Tensor EdgeDot(const Matrix& m, const Tensor& u, const Tensor& v, const Style& style) {
  const sparse::Compressed& csc = m.Csc();
  const int64_t h = u.cols();
  device::Stream& stream = device::Current().stream();

  Tensor eu;
  Tensor ev;
  if (style.message_materialization) {
    device::KernelScope gather(stream);
    eu = Tensor::Empty({m.nnz(), h});
    ev = Tensor::Empty({m.nnz(), h});
    for (int64_t c = 0; c < m.num_cols(); ++c) {
      for (int64_t e = csc.indptr[c]; e < csc.indptr[c + 1]; ++e) {
        std::copy_n(u.data() + static_cast<int64_t>(csc.indices[e]) * h, h,
                    eu.data() + e * h);
        std::copy_n(v.data() + c * h, h, ev.data() + e * h);
      }
    }
    gather.Finish({.parallel_items = m.nnz() * h,
                   .hbm_bytes = 4 * m.nnz() * h * static_cast<int64_t>(sizeof(float))});
  }

  device::KernelScope kernel(stream);
  Tensor out = Tensor::Empty({m.nnz()});
  for (int64_t c = 0; c < m.num_cols(); ++c) {
    for (int64_t e = csc.indptr[c]; e < csc.indptr[c + 1]; ++e) {
      const float* pu = style.message_materialization
                            ? eu.data() + e * h
                            : u.data() + static_cast<int64_t>(csc.indices[e]) * h;
      const float* pv = style.message_materialization ? ev.data() + e * h : v.data() + c * h;
      float dot = 0.0f;
      for (int64_t j = 0; j < h; ++j) {
        dot += pu[j] * pv[j];
      }
      out.at(e) = dot;
    }
  }
  kernel.Finish({.parallel_items = m.nnz() * h,
                 .hbm_bytes = (2 * h + 1) * m.nnz() * static_cast<int64_t>(sizeof(float))});
  return out;
}

// LADIES/AS-GCN/FastGCN-style post-sampling weight normalization, executed
// eagerly (three separate operator launches).
Matrix NormalizeSample(const Matrix& sample, const ValueArray& selected_bias,
                       const Style& style) {
  Matrix w1 = sparse::Broadcast(sample, BinaryOp::kDiv, selected_bias, 0);
  Ensure(w1, Format::kCsc, style);
  ValueArray col_sums = sparse::SumAxis(w1, 1);
  return sparse::Broadcast(w1, BinaryOp::kDiv, col_sums, 1);
}

tensor::Tensor InitWeight(int64_t rows, int64_t cols, uint64_t seed, float std = 0.1f) {
  Rng rng(seed);
  return Tensor::Randn({rows, cols}, rng, std);
}

}  // namespace

BaselineResult DeepWalk(const graph::Graph& g, const tensor::IdArray& frontier,
                        int walk_length, Rng& rng, const Style& style) {
  BaselineResult result;
  IdArray cur = frontier;
  for (int step = 0; step < walk_length; ++step) {
    cur = sparse::UniformWalkStep(g.adj(), cur, {&rng, 1});
    result.traces.push_back(MaterializeTrace(cur, style));
  }
  return result;
}

BaselineResult Node2Vec(const graph::Graph& g, const tensor::IdArray& frontier,
                        int walk_length, float p, float q, Rng& rng, const Style& style) {
  BaselineResult result;
  IdArray prev = frontier;
  IdArray cur = sparse::UniformWalkStep(g.adj(), frontier, {&rng, 1});
  result.traces.push_back(MaterializeTrace(cur, style));
  for (int step = 1; step < walk_length; ++step) {
    IdArray next = sparse::Node2VecStep(g.adj(), cur, prev, p, q, {&rng, 1});
    result.traces.push_back(MaterializeTrace(next, style));
    prev = cur;
    cur = next;
  }
  return result;
}

BaselineResult GraphSage(const graph::Graph& g, const tensor::IdArray& frontier,
                         const std::vector<int64_t>& fanouts, Rng& rng, const Style& style,
                         bool include_seeds) {
  BaselineResult result;
  IdArray cur = frontier;
  for (int64_t fanout : fanouts) {
    // Unfused extract + select: the sliced subgraph is materialized.
    Matrix sub = sparse::SliceColumns(g.adj(), cur);
    Ensure(sub, Format::kCsc, style);
    Matrix sample = sparse::IndividualSample(sub, fanout, ValueArray{}, {&rng, 1});
    if (include_seeds) {
      std::vector<IdArray> merged = {cur, sparse::RowIds(sample)};
      cur = sparse::Unique(merged);
    } else {
      cur = sparse::RowIds(sample);
    }
    result.layers.push_back(std::move(sample));
  }
  result.traces.push_back(cur);
  return result;
}

BaselineResult Ladies(const graph::Graph& g, const tensor::IdArray& frontier, int num_layers,
                      int64_t width, Rng& rng, const Style& style) {
  BaselineResult result;
  IdArray cur = frontier;
  for (int layer = 0; layer < num_layers; ++layer) {
    Matrix sub = sparse::SliceColumns(g.adj(), cur);
    // Eager bias computation: square the edge weights (materialized), send
    // them as messages, reduce onto the candidate rows.
    Matrix sq = sparse::EltwiseScalar(sub, BinaryOp::kPow, 2.0f);
    MaterializeMessages(sq, style);
    Ensure(sq, Format::kCsr, style);
    ValueArray row_probs = sparse::SumAxis(sq, 0);
    Ensure(sub, Format::kCsr, style);
    Matrix sample = sparse::CollectiveSample(sub, width, row_probs, {&rng, 1});
    Matrix sample_sq = sparse::EltwiseScalar(sample, BinaryOp::kPow, 2.0f);
    Ensure(sample_sq, Format::kCsr, style);
    ValueArray selected = sparse::SumAxis(sample_sq, 0);
    Matrix weighted = NormalizeSample(sample, selected, style);
    cur = sparse::RowIds(sample);
    result.layers.push_back(std::move(weighted));
  }
  result.traces.push_back(cur);
  return result;
}

BaselineResult FastGcn(const graph::Graph& g, const tensor::IdArray& frontier, int num_layers,
                       int64_t width, Rng& rng, const Style& style) {
  BaselineResult result;
  // Static degree-based importance, recomputed per batch in eager mode.
  Ensure(g.adj(), Format::kCsr, style);
  ValueArray q = sparse::SumAxis(g.adj(), 0);
  IdArray cur = frontier;
  for (int layer = 0; layer < num_layers; ++layer) {
    Matrix sub = sparse::SliceColumns(g.adj(), cur);
    Ensure(sub, Format::kCsr, style);
    Matrix sample = sparse::CollectiveSample(sub, width, q, {&rng, 1});
    ValueArray selected = sparse::GatherValues(q, sparse::RowIds(sample));
    Matrix weighted = NormalizeSample(sample, selected, style);
    cur = sparse::RowIds(sample);
    result.layers.push_back(std::move(weighted));
  }
  result.traces.push_back(cur);
  return result;
}

BaselineResult Asgcn(const graph::Graph& g, const tensor::IdArray& frontier, int num_layers,
                     int64_t width, EagerModel& model, Rng& rng, const Style& style) {
  GS_CHECK(g.features().defined());
  if (!model.as_w.defined()) {
    model.as_w = InitWeight(g.features().cols(), 1, 0xA5C0);
  }
  // Recomputed per batch: eager mode has no batch-invariant caching.
  Tensor h = tensor::BinaryScalar(BinaryOp::kAdd,
                                  tensor::Relu(tensor::MatMul(g.features(), model.as_w)),
                                  1e-6f);
  BaselineResult result;
  IdArray cur = frontier;
  for (int layer = 0; layer < num_layers; ++layer) {
    Matrix sub = sparse::SliceColumns(g.adj(), cur);
    Matrix scored = sparse::Broadcast(sub, BinaryOp::kMul, h.array(), 0);
    MaterializeMessages(scored, style);
    Ensure(scored, Format::kCsr, style);
    ValueArray row_probs = sparse::SumAxis(scored, 0);
    Ensure(sub, Format::kCsr, style);
    Matrix sample = sparse::CollectiveSample(sub, width, row_probs, {&rng, 1});
    Matrix sample_scored = sparse::Broadcast(sample, BinaryOp::kMul, h.array(), 0);
    Ensure(sample_scored, Format::kCsr, style);
    ValueArray selected = sparse::SumAxis(sample_scored, 0);
    Matrix weighted = NormalizeSample(sample, selected, style);
    cur = sparse::RowIds(sample);
    result.layers.push_back(std::move(weighted));
  }
  result.traces.push_back(cur);
  return result;
}

BaselineResult Pass(const graph::Graph& g, const tensor::IdArray& frontier,
                    const std::vector<int64_t>& fanouts, int hidden, EagerModel& model,
                    Rng& rng, const Style& style) {
  GS_CHECK(g.features().defined());
  const int64_t d = g.features().cols();
  if (!model.pass_w1.defined()) {
    model.pass_w1 = InitWeight(d, hidden, 0xF001);
    model.pass_w2 = InitWeight(d, hidden, 0xF002);
    model.pass_w3 = InitWeight(1, 3, 0xF003, 0.5f);
  }

  BaselineResult result;
  IdArray cur = frontier;
  // PASS updates its model per batch, so the projections are recomputed
  // every time in all systems.
  Tensor u1 = tensor::MatMul(g.features(), model.pass_w1);
  Tensor u2 = tensor::MatMul(g.features(), model.pass_w2);
  Tensor w3 = tensor::Softmax(model.pass_w3);

  for (int64_t fanout : fanouts) {
    Matrix sub = sparse::SliceColumns(g.adj(), cur);
    Tensor c = tensor::GatherRows(g.features(), cur);
    Tensor c1 = tensor::MatMul(c, model.pass_w1);
    Tensor c2 = tensor::MatMul(c, model.pass_w2);
    Tensor a1 = EdgeDot(sub, u1, c1, style);
    Tensor a2 = EdgeDot(sub, u2, c2, style);
    Ensure(sub, Format::kCsc, style);
    ValueArray degree = sparse::SumAxis(sub, 1);
    Matrix a3m = sparse::Broadcast(sub, BinaryOp::kDiv, degree, 1);
    Tensor a3 = MaterializeMessages(a3m, style);
    std::vector<Tensor> heads = {a1, a2, a3};
    Tensor att = tensor::StackColumns(heads);
    Tensor mixed = tensor::Relu(tensor::MatMul(att, tensor::Transpose(w3)));
    Matrix sample = sparse::IndividualSample(sub, fanout, mixed.array(), {&rng, 1});
    cur = sparse::RowIds(sample);
    result.layers.push_back(std::move(sample));
  }
  result.traces.push_back(cur);
  return result;
}

BaselineResult Shadow(const graph::Graph& g, const tensor::IdArray& frontier, int depth,
                      int64_t fanout, Rng& rng, const Style& style) {
  BaselineResult result;
  IdArray cur = frontier;
  std::vector<IdArray> collected = {frontier};
  for (int layer = 0; layer < depth; ++layer) {
    Matrix sub = sparse::SliceColumns(g.adj(), cur);
    Ensure(sub, Format::kCsc, style);
    Matrix sample = sparse::IndividualSample(sub, fanout, ValueArray{}, {&rng, 1});
    cur = sparse::RowIds(sample);
    collected.push_back(cur);
  }
  IdArray nodes = sparse::Unique(collected);
  Matrix cols = sparse::SliceColumns(g.adj(), nodes);
  Ensure(cols, Format::kCsr, style);  // row slicing wants CSR: pay conversion
  Matrix induced = sparse::SliceRows(cols, nodes);
  result.layers.push_back(std::move(induced));
  result.traces.push_back(nodes);
  return result;
}

}  // namespace gs::baselines::eager
