#include "jit/jit.h"

#include <atomic>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "device/device.h"
#include "device/stream.h"
#include "jit/abi.h"
#include "jit/emitter.h"
#include "sparse/fused.h"
#include "sparse/kernels.h"
#include "tensor/tensor.h"

namespace gs::jit {

namespace {

using sparse::Compressed;
using sparse::EdgeMapStage;
using sparse::Format;
using sparse::IdArray;
using sparse::Matrix;
using sparse::OffsetArray;
using sparse::ValueArray;
using tensor::Tensor;

struct Counters {
  std::atomic<int64_t> regions{0};
  std::atomic<int64_t> compiled{0};
  std::atomic<int64_t> artifact_hits{0};
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> demotions{0};
};

Counters& GlobalCounters() {
  static Counters counters;
  return counters;
}

device::Stream& CurrentStream() { return device::Current().stream(); }

// Rng thunk the emitted samplers draw through: every random decision still
// comes from the session's stream, in the interpreter's order.
uint64_t UniformIntThunk(void* rng, uint64_t bound) {
  return static_cast<Rng*>(rng)->UniformInt(bound);
}

// Resolves the stage pipeline's operands into the flat ABI view the emitted
// code indexes, mirroring sparse/fused.cc's CheckStages — except that any
// irregularity makes the call decline (return false) instead of throwing,
// so the interpreter handles (and reports) it exactly as without a JIT.
struct ResolvedStages {
  std::vector<abi::Stage> stages;
  int64_t operand_bytes = 0;
};

bool ResolveRowOperand(const Matrix& m, int64_t operand_rows, abi::Stage* out) {
  if (operand_rows == m.num_rows()) {
    out->operand_rows = 0;  // local row space: index by local row directly
    out->row_ids = nullptr;
    return true;
  }
  if (operand_rows <= 0) {
    return false;
  }
  if (!m.has_row_ids() && m.num_rows() % operand_rows != 0) {
    return false;
  }
  out->operand_rows = operand_rows;
  out->row_ids = m.has_row_ids() ? m.row_ids().data() : nullptr;
  return true;
}

bool ResolveStages(const Matrix& m, const std::vector<EdgeMapStage>& stages,
                   std::span<const Tensor> operands, ResolvedStages* out) {
  out->stages.clear();
  out->stages.reserve(stages.size());
  auto operand_at = [&](int index) -> const Tensor* {
    if (index < 0 || index >= static_cast<int>(operands.size())) {
      return nullptr;
    }
    return &operands[static_cast<size_t>(index)];
  };
  for (const EdgeMapStage& stage : stages) {
    abi::Stage resolved;
    switch (stage.kind) {
      case EdgeMapStage::OperandKind::kScalar:
        break;
      case EdgeMapStage::OperandKind::kRowVector: {
        const Tensor* t = operand_at(stage.operand);
        if (t == nullptr || !ResolveRowOperand(m, t->numel(), &resolved)) {
          return false;
        }
        resolved.a = t->data();
        break;
      }
      case EdgeMapStage::OperandKind::kColVector: {
        const Tensor* t = operand_at(stage.operand);
        if (t == nullptr || t->numel() != m.num_cols()) {
          return false;
        }
        resolved.a = t->data();
        break;
      }
      case EdgeMapStage::OperandKind::kDense: {
        const Tensor* t = operand_at(stage.operand);
        if (t == nullptr || t->cols() != m.num_cols() ||
            !ResolveRowOperand(m, t->rows(), &resolved)) {
          return false;
        }
        resolved.a = t->data();
        resolved.h = t->cols();
        break;
      }
      case EdgeMapStage::OperandKind::kEdgeTensor: {
        const Tensor* t = operand_at(stage.operand);
        if (t == nullptr || t->numel() != m.nnz()) {
          return false;
        }
        resolved.a = t->data();
        break;
      }
      case EdgeMapStage::OperandKind::kDot: {
        const Tensor* u = operand_at(stage.operand);
        const Tensor* v = operand_at(stage.operand2);
        if (u == nullptr || v == nullptr || v->rows() != m.num_cols() ||
            u->cols() != v->cols() || !ResolveRowOperand(m, u->rows(), &resolved)) {
          return false;
        }
        resolved.a = u->data();
        resolved.b = v->data();
        resolved.h = u->cols();
        break;
      }
    }
    out->stages.push_back(resolved);
  }
  out->operand_bytes = 0;
  for (const Tensor& t : operands) {
    out->operand_bytes += t.numel() * static_cast<int64_t>(sizeof(float));
  }
  return true;
}

// Pre-kernel column localization for the fused sampler (the interpreter's
// ColLocalizer, minus the throwing): false when any id is absent, in which
// case the interpreter runs and raises the identical error.
bool LocalizeCols(const Matrix& m, const IdArray& cols, std::vector<int32_t>* out) {
  out->resize(static_cast<size_t>(cols.size()));
  if (!m.has_col_ids()) {
    for (int64_t i = 0; i < cols.size(); ++i) {
      const int32_t c = cols[i];
      if (c < 0 || c >= m.num_cols()) {
        return false;
      }
      (*out)[static_cast<size_t>(i)] = c;
    }
    return true;
  }
  const IdArray& ids = m.col_ids();
  std::unordered_map<int32_t, int32_t> map;
  map.reserve(static_cast<size_t>(ids.size()));
  for (int64_t i = 0; i < ids.size(); ++i) {
    map.emplace(ids[i], static_cast<int32_t>(i));
  }
  for (int64_t i = 0; i < cols.size(); ++i) {
    auto it = map.find(cols[i]);
    if (it == map.end()) {
      return false;
    }
    (*out)[static_cast<size_t>(i)] = it->second;
  }
  return true;
}

struct CompiledRegion {
  Region region;
  void* entry = nullptr;
};

// The per-plan jump table the executor consults before interpreting a fused
// node. Calls it declines (missing region, irregular operands) fall through
// to the interpreter, as do multi-segment slice-samples; calls
// it accepts charge the same simulated-device costs as the interpreter's
// kernels and produce bit-identical results.
class JitKernelTable : public core::FusedKernelTable {
 public:
  explicit JitKernelTable(std::unordered_map<int, CompiledRegion> regions)
      : regions_(std::move(regions)) {}

  size_t num_regions() const { return regions_.size(); }

  bool EdgeMap(int node_id, const Matrix& m, std::span<const Tensor> operands,
               Matrix* out) const override {
    const CompiledRegion* compiled = Find(node_id, core::OpKind::kFusedEdgeMap);
    if (compiled == nullptr) {
      return false;
    }
    const Compressed& csc = m.Csc();
    ResolvedStages resolved;
    if (!ResolveStages(m, compiled->region.stages, operands, &resolved)) {
      return false;
    }
    device::KernelScope kernel(CurrentStream());
    ValueArray mapped = ValueArray::Empty(m.nnz());
    abi::EdgeMapArgs args;
    args.indptr = csc.indptr.data();
    args.indices = csc.indices.data();
    args.values = csc.values.defined() ? csc.values.data() : nullptr;
    args.num_cols = m.num_cols();
    args.stages = resolved.stages.data();
    args.out = mapped.data();
    reinterpret_cast<abi::EdgeMapFn>(compiled->entry)(&args);
    kernel.Finish({.parallel_items = m.nnz(),
                   .hbm_bytes = m.nnz() * int64_t{12} + resolved.operand_bytes});
    *out = m.WithValues(Format::kCsc, std::move(mapped));
    GlobalCounters().hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool EdgeMapReduce(int node_id, const Matrix& m, std::span<const Tensor> operands,
                     ValueArray* out) const override {
    const CompiledRegion* compiled = Find(node_id, core::OpKind::kFusedEdgeMapReduce);
    if (compiled == nullptr) {
      return false;
    }
    const Compressed& csc = m.Csc();
    ResolvedStages resolved;
    if (!ResolveStages(m, compiled->region.stages, operands, &resolved)) {
      return false;
    }
    const int axis = compiled->region.axis;
    device::KernelScope kernel(CurrentStream());
    ValueArray reduced = ValueArray::Full(axis == 0 ? m.num_rows() : m.num_cols(), 0.0f);
    abi::EdgeMapArgs args;
    args.indptr = csc.indptr.data();
    args.indices = csc.indices.data();
    args.values = csc.values.defined() ? csc.values.data() : nullptr;
    args.num_cols = m.num_cols();
    args.stages = resolved.stages.data();
    args.out = reduced.data();
    reinterpret_cast<abi::EdgeMapFn>(compiled->entry)(&args);
    kernel.Finish({.parallel_items = m.nnz(),
                   .hbm_bytes = m.nnz() * int64_t{8} + reduced.bytes() + resolved.operand_bytes});
    *out = std::move(reduced);
    GlobalCounters().hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool SliceSample(int node_id, const Matrix& m, const tensor::IdArray& cols, Rng& rng,
                   Matrix* out, IdArray* node_set) const override {
    const CompiledRegion* compiled = Find(node_id, core::OpKind::kFusedSliceSample);
    if (compiled == nullptr) {
      return false;
    }
    const int64_t k = compiled->region.k;
    const Compressed& csc = m.Csc();
    const bool weighted = csc.values.defined();
    const int64_t t = cols.size();
    std::vector<int32_t> local_cols;
    if (!LocalizeCols(m, cols, &local_cols)) {
      return false;
    }
    std::vector<int64_t> out_indptr(static_cast<size_t>(t) + 1);
    std::vector<int32_t> out_indices(static_cast<size_t>(k * t));
    std::vector<float> out_values(weighted ? static_cast<size_t>(k * t) : 0);

    device::KernelScope kernel(CurrentStream());
    abi::SliceSampleArgs args;
    args.indptr = csc.indptr.data();
    args.indices = csc.indices.data();
    args.values = weighted ? csc.values.data() : nullptr;
    args.cols = local_cols.data();
    args.num_cols = t;
    args.out_indptr = out_indptr.data();
    args.out_indices = out_indices.data();
    args.out_values = weighted ? out_values.data() : nullptr;
    args.rng = &rng;
    args.uniform_int = &UniformIntThunk;
    const int64_t nnz = reinterpret_cast<abi::SliceSampleFn>(compiled->entry)(&args);

    // Same per-column UVA charge sequence as the interpreter: only the
    // chosen slots are touched (Extract-Select fusion's UVA win).
    int64_t pcie = 0;
    if (m.IsUva()) {
      for (int64_t i = 0; i < t; ++i) {
        pcie += m.uva_cache()->Access(static_cast<uint64_t>(cols[i]),
                                      (out_indptr[static_cast<size_t>(i) + 1] -
                                       out_indptr[static_cast<size_t>(i)]) *
                                          4);
      }
    }

    out_indices.resize(static_cast<size_t>(nnz));
    Compressed sampled;
    sampled.indices = IdArray::FromVector(out_indices);
    if (weighted) {
      out_values.resize(static_cast<size_t>(nnz));
      sampled.values = ValueArray::FromVector(out_values);
    }
    sampled.indptr = OffsetArray::FromVector(out_indptr);
    Matrix result = Matrix::FromCsc(m.num_rows(), t, std::move(sampled));
    // InheritRowSpace: sampling drops edges, so the compact flag must not
    // propagate (see kernels_internal.h).
    result.SetRowIds(m.row_ids());
    result.SetRowsCompact(false);
    result.SetColIds(cols.Clone());
    device::KernelStats charge{.parallel_items = std::max<int64_t>(nnz, 1),
                               .hbm_bytes = nnz * int64_t{8},
                               .pcie_bytes = pcie};
    if (node_set != nullptr) {
      *node_set = sparse::RowIdsInKernel(result, &charge);
    }
    kernel.Finish(charge);
    *out = std::move(result);
    GlobalCounters().hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  const CompiledRegion* Find(int node_id, core::OpKind kind) const {
    auto it = regions_.find(node_id);
    if (it == regions_.end() || it->second.region.kind != kind) {
      return nullptr;
    }
    return &it->second;
  }

  std::unordered_map<int, CompiledRegion> regions_;
};

// --- Self-check probes -------------------------------------------------------
//
// Before a freshly loaded kernel is trusted it runs once on a tiny
// deterministic input and its output is compared bit-for-bit against the
// interpreter's. The probe graph is square (4x4) so row-, column- and
// dense-operand shapes coincide whatever the stage pipeline references.

Matrix ProbeMatrix() {
  Compressed csc;
  csc.indptr = OffsetArray::FromVector({0, 2, 3, 5, 6});
  csc.indices = IdArray::FromVector({0, 2, 1, 0, 3, 2});
  csc.values = ValueArray::FromVector({0.5f, 1.25f, 2.0f, 0.75f, 1.5f, 3.0f});
  return Matrix::FromCsc(4, 4, std::move(csc));
}

// Deterministic non-zero filler so div/pow stages stay well-behaved.
Tensor ProbeTensor(std::vector<int64_t> shape) {
  Tensor t = Tensor::Empty(shape);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = 0.25f + 0.5f * static_cast<float>(i % 7);
  }
  return t;
}

// Builds operands satisfying every stage's shape requirement against the
// probe matrix; false when two stages need the same slot in incompatible
// shapes (then the probe is skipped rather than failed).
bool ProbeOperands(const Matrix& m, const std::vector<EdgeMapStage>& stages,
                   std::vector<Tensor>* out) {
  auto place = [&](int index, std::vector<int64_t> shape) {
    if (index < 0) {
      return false;
    }
    if (static_cast<int>(out->size()) <= index) {
      out->resize(static_cast<size_t>(index) + 1);
    }
    Tensor& slot = (*out)[static_cast<size_t>(index)];
    if (slot.defined()) {
      return slot.shape() == shape;
    }
    slot = ProbeTensor(std::move(shape));
    return true;
  };
  for (const EdgeMapStage& stage : stages) {
    switch (stage.kind) {
      case EdgeMapStage::OperandKind::kScalar:
        break;
      case EdgeMapStage::OperandKind::kRowVector:
        if (!place(stage.operand, {m.num_rows()})) {
          return false;
        }
        break;
      case EdgeMapStage::OperandKind::kColVector:
        if (!place(stage.operand, {m.num_cols()})) {
          return false;
        }
        break;
      case EdgeMapStage::OperandKind::kDense:
        if (!place(stage.operand, {m.num_rows(), m.num_cols()})) {
          return false;
        }
        break;
      case EdgeMapStage::OperandKind::kEdgeTensor:
        if (!place(stage.operand, {m.nnz()})) {
          return false;
        }
        break;
      case EdgeMapStage::OperandKind::kDot:
        if (!place(stage.operand, {m.num_rows(), 2}) ||
            !place(stage.operand2, {m.num_cols(), 2})) {
          return false;
        }
        break;
    }
  }
  // Undefined slots (pipeline skips an index) still need valid tensors for
  // the interpreter's operand span; give them edge-length fillers.
  for (Tensor& slot : *out) {
    if (!slot.defined()) {
      slot = ProbeTensor({1});
    }
  }
  return true;
}

bool BitEqual(const ValueArray& a, const ValueArray& b) {
  if (a.size() != b.size()) {
    return false;
  }
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.bytes())) == 0;
}

bool SelfCheckEdgeMap(const Region& region, void* entry) {
  const Matrix m = ProbeMatrix();
  std::vector<Tensor> operands;
  if (!ProbeOperands(m, region.stages, &operands)) {
    return true;  // un-probeable operand layout; trust construction
  }
  ResolvedStages resolved;
  if (!ResolveStages(m, region.stages, operands, &resolved)) {
    return false;
  }
  const Compressed& csc = m.Csc();
  const bool reduce = region.kind == core::OpKind::kFusedEdgeMapReduce;
  ValueArray got = reduce ? ValueArray::Full(region.axis == 0 ? m.num_rows() : m.num_cols(), 0.0f)
                          : ValueArray::Empty(m.nnz());
  abi::EdgeMapArgs args;
  args.indptr = csc.indptr.data();
  args.indices = csc.indices.data();
  args.values = csc.values.data();
  args.num_cols = m.num_cols();
  args.stages = resolved.stages.data();
  args.out = got.data();
  reinterpret_cast<abi::EdgeMapFn>(entry)(&args);

  if (reduce) {
    const ValueArray want = sparse::FusedEdgeMapReduce(m, region.stages, operands, region.axis);
    return BitEqual(got, want);
  }
  const Matrix want = sparse::FusedEdgeMap(m, region.stages, operands);
  return BitEqual(got, want.Csc().values);
}

bool SelfCheckSliceSample(const Region& region, void* entry) {
  // Degrees straddle the fanout so both Floyd's loop and the take-all path
  // run; identical seeds must yield identical draws, slots, and values.
  const int64_t k = region.k;
  std::vector<int64_t> indptr{0};
  std::vector<int32_t> indices;
  std::vector<float> values;
  const int64_t degrees[] = {0, 1, k, k + 3, 2};
  int32_t next_row = 0;
  int64_t num_rows = 0;
  for (int64_t deg : degrees) {
    for (int64_t j = 0; j < deg; ++j) {
      indices.push_back(next_row);
      values.push_back(0.5f + 0.25f * static_cast<float>(next_row % 11));
      next_row = (next_row * 7 + 3) % 997;
      num_rows = std::max<int64_t>(num_rows, next_row + 1);
    }
    indptr.push_back(static_cast<int64_t>(indices.size()));
  }
  Compressed csc;
  csc.indptr = OffsetArray::FromVector(indptr);
  csc.indices = IdArray::FromVector(indices);
  csc.values = ValueArray::FromVector(values);
  const int64_t t = static_cast<int64_t>(indptr.size()) - 1;
  const Matrix m = Matrix::FromCsc(std::max<int64_t>(num_rows, 997), t, std::move(csc));
  IdArray cols = IdArray::FromVector({0, 1, 2, 3, 4});

  Rng want_rng(0xC0FFEE);
  const Matrix want = sparse::FusedSliceSample(m, cols, k, {&want_rng, 1});

  Rng got_rng(0xC0FFEE);
  std::vector<int32_t> local_cols;
  if (!LocalizeCols(m, cols, &local_cols)) {
    return false;
  }
  const Compressed& mc = m.Csc();
  std::vector<int64_t> out_indptr(static_cast<size_t>(t) + 1);
  std::vector<int32_t> out_indices(static_cast<size_t>(k * t));
  std::vector<float> out_values(static_cast<size_t>(k * t));
  abi::SliceSampleArgs args;
  args.indptr = mc.indptr.data();
  args.indices = mc.indices.data();
  args.values = mc.values.data();
  args.cols = local_cols.data();
  args.num_cols = t;
  args.out_indptr = out_indptr.data();
  args.out_indices = out_indices.data();
  args.out_values = out_values.data();
  args.rng = &got_rng;
  args.uniform_int = &UniformIntThunk;
  const int64_t nnz = reinterpret_cast<abi::SliceSampleFn>(entry)(&args);

  const Compressed& wc = want.Csc();
  if (nnz != want.nnz()) {
    return false;
  }
  for (int64_t i = 0; i <= t; ++i) {
    if (out_indptr[static_cast<size_t>(i)] != wc.indptr[i]) {
      return false;
    }
  }
  for (int64_t e = 0; e < nnz; ++e) {
    if (out_indices[static_cast<size_t>(e)] != wc.indices[e] ||
        out_values[static_cast<size_t>(e)] != wc.values[e]) {
      return false;
    }
  }
  return true;
}

bool SelfCheck(const Region& region, void* entry) {
  if (region.kind == core::OpKind::kFusedSliceSample) {
    return SelfCheckSliceSample(region, entry);
  }
  return SelfCheckEdgeMap(region, entry);
}

}  // namespace

JitStats GlobalJitStats() {
  Counters& c = GlobalCounters();
  JitStats stats;
  stats.regions = c.regions.load(std::memory_order_relaxed);
  stats.compiled = c.compiled.load(std::memory_order_relaxed);
  stats.artifact_hits = c.artifact_hits.load(std::memory_order_relaxed);
  stats.hits = c.hits.load(std::memory_order_relaxed);
  stats.demotions = c.demotions.load(std::memory_order_relaxed);
  return stats;
}

void ResetGlobalJitStats() {
  Counters& c = GlobalCounters();
  c.regions.store(0, std::memory_order_relaxed);
  c.compiled.store(0, std::memory_order_relaxed);
  c.artifact_hits.store(0, std::memory_order_relaxed);
  c.hits.store(0, std::memory_order_relaxed);
  c.demotions.store(0, std::memory_order_relaxed);
}

JitEngine::JitEngine(JitEngineOptions options)
    : options_(options),
      cache_(KernelCacheOptions{.artifact_dir = options.artifact_dir,
                                .compiler = options.compiler}) {}

std::shared_ptr<const core::FusedKernelTable> JitEngine::TableFor(const core::CompiledPlan& plan) {
  // Read live (not through core::EnvFlagEnabled's process-lifetime cache):
  // this is an operational kill switch, and one getenv per plan is free.
  if (std::getenv("GS_JIT_DISABLE") != nullptr) {
    return nullptr;
  }
  const std::vector<Region> regions = RegionExtractor::Extract(plan.program());
  if (regions.empty()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = tables_.find(plan.Digest()); it != tables_.end()) {
    return it->second;
  }

  Counters& counters = GlobalCounters();
  std::unordered_map<int, CompiledRegion> compiled;
  for (const Region& region : regions) {
    counters.regions.fetch_add(1, std::memory_order_relaxed);
    if (!CodeEmitter::CanEmit(region)) {
      counters.demotions.fetch_add(1, std::memory_order_relaxed);
      GS_LOG(Info) << "jit: region not emittable, interpreting: " << region.Signature();
      continue;
    }
    const std::string key = plan.DigestHex() + "-r" + std::to_string(region.rank);
    // Compile, load, and verify under one catch-all: a failure at any rung
    // demotes this region to the interpreter — never the request.
    try {
      std::string error;
      bool from_artifact = false;
      void* entry = cache_.LoadOrCompile(key, CodeEmitter::Emit(region, key), &error,
                                         &from_artifact);
      if (entry == nullptr) {
        counters.demotions.fetch_add(1, std::memory_order_relaxed);
        GS_LOG(Warning) << "jit: demoting " << region.Signature() << ": " << error;
        continue;
      }
      if (options_.self_check && !SelfCheck(region, entry)) {
        counters.demotions.fetch_add(1, std::memory_order_relaxed);
        GS_LOG(Warning) << "jit: demoting " << region.Signature()
                        << ": self-check mismatch vs interpreter (" << key << ")";
        continue;
      }
      counters.compiled.fetch_add(1, std::memory_order_relaxed);
      if (from_artifact) {
        counters.artifact_hits.fetch_add(1, std::memory_order_relaxed);
      }
      compiled.emplace(region.node_id, CompiledRegion{region, entry});
    } catch (const std::exception& e) {
      counters.demotions.fetch_add(1, std::memory_order_relaxed);
      GS_LOG(Warning) << "jit: demoting " << region.Signature() << ": " << e.what();
    }
  }
  GS_LOG(Info) << "jit: plan " << plan.DigestHex() << " (" << plan.label() << "): "
               << compiled.size() << "/" << regions.size() << " region(s) compiled";
  auto table = std::make_shared<JitKernelTable>(std::move(compiled));
  tables_.emplace(plan.Digest(), table);
  return table;
}

}  // namespace gs::jit
