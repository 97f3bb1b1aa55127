#include "baselines/baselines.h"

#include <algorithm>

#include "algorithms/algorithms.h"  // shared default hyper-parameters
#include "common/sampling.h"
#include "baselines/eager.h"
#include "common/error.h"
#include "device/device.h"
#include "device/stream.h"
#include "sparse/kernels.h"

namespace gs::baselines {
namespace {

using sparse::Matrix;
using sparse::ValueArray;
using tensor::IdArray;

bool IsSimpleAlgorithm(const std::string& algo) {
  return algo == "DeepWalk" || algo == "Node2Vec" || algo == "GraphSAGE";
}

bool IsEvaluatedAlgorithm(const std::string& algo) {
  return IsSimpleAlgorithm(algo) || algo == "LADIES" || algo == "AS-GCN" || algo == "PASS" ||
         algo == "ShaDow";
}

// Sink preventing the optimizer from eliding modeled work.
volatile int64_t benchmark_sink = 0;

// Small utility kernels modeling baseline-specific bookkeeping.
IdArray CloneIdsKernel(const IdArray& ids) {
  device::KernelScope kernel(device::Current().stream());
  IdArray copy = ids.Clone();
  kernel.Finish({.parallel_items = ids.size(), .hbm_bytes = 2 * ids.bytes()});
  return copy;
}

// Full-graph renumbering pass: cuGraph's bulk API re-maps vertex ids over
// the whole edge list on every call, which is what makes it slow for
// mini-batch sampling (Section 5.2). Modeled as a scan of the full edge
// array plus a COO-sized scratch write.
void FullGraphRenumberKernel(const graph::Graph& g) {
  device::KernelScope kernel(device::Current().stream());
  const sparse::Compressed& csc = g.adj().Csc();
  IdArray scratch = IdArray::Empty(g.num_edges());
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    scratch[e] = csc.indices[e];
  }
  kernel.Finish({.parallel_items = g.num_edges(),
                 .hbm_bytes = 2 * g.num_edges() * int64_t{4} + g.num_nodes() * int64_t{4}});
}

// SkyWalker's per-step alias-table construction over the current walkers'
// neighborhoods. Building a Walker table requires evaluating the sampling
// bias of every candidate edge (for second-order walks that is an adjacency
// membership test per candidate, like Node2VecStep's) and then the
// small/large bucket partition — a real pass with real per-edge work.
void AliasBuildKernel(const graph::Graph& g, const IdArray& cur, const IdArray* prev) {
  device::KernelScope kernel(device::Current().stream());
  const sparse::Compressed& csc = g.adj().Csc();
  int64_t touched = 0;
  int64_t checksum = 0;
  std::vector<float> scratch;
  for (int64_t i = 0; i < cur.size(); ++i) {
    if (cur[i] < 0) {
      continue;
    }
    const int64_t begin = csc.indptr[cur[i]];
    const int64_t end = csc.indptr[cur[i] + 1];
    scratch.clear();
    for (int64_t e = begin; e < end; ++e) {
      float bias = 1.0f;
      if (prev != nullptr && (*prev)[i] >= 0) {
        // Second-order bias: adjacency membership test per candidate.
        const int32_t anchor = (*prev)[i];
        bias = std::binary_search(csc.indices.data() + csc.indptr[anchor],
                                  csc.indices.data() + csc.indptr[anchor + 1],
                                  csc.indices[e])
                   ? 1.0f
                   : 0.5f;
      }
      scratch.push_back(bias);
      checksum += csc.indices[e];
    }
    // Bucket partition (the Walker construction itself).
    AliasTable table{std::span<const float>(scratch)};
    checksum += table.size();
    touched += end - begin;
  }
  benchmark_sink = checksum;
  kernel.Finish({.parallel_items = cur.size(), .hbm_bytes = touched * int64_t{20}});
}

// ------------------------------------------------------------ DGL / PyG

class DglSim final : public Baseline {
 public:
  DglSim(const graph::Graph& g, bool cpu)
      : graph_(&g), system_(cpu ? "DGL-CPU" : "DGL-GPU"), cpu_(cpu) {}

  const std::string& system() const override { return system_; }

  Availability Check(const std::string& algo) const override {
    if (!IsEvaluatedAlgorithm(algo)) {
      return Availability::kNotImplemented;
    }
    if (!cpu_ && algo == "Node2Vec") {
      // "DGL has no GPU implementation for Node2Vec" (Section 5.2).
      return Availability::kNotImplemented;
    }
    if (cpu_ && graph_->uva() && (algo == "LADIES" || algo == "AS-GCN" || algo == "PASS")) {
      // DGL-CPU exceeds 10 hours on the large graphs for these (Section 5.2).
      return Availability::kTimeout;
    }
    return Availability::kSupported;
  }

  BaselineResult SampleBatch(const std::string& algo, const IdArray& frontier,
                             Rng& rng) override {
    const eager::Style style;  // greedy formats + message materialization
    if (algo == "DeepWalk") {
      return eager::DeepWalk(*graph_, frontier, algorithms::DeepWalkParams{}.walk_length, rng,
                             style);
    }
    if (algo == "Node2Vec") {
      const algorithms::Node2VecParams p;
      return eager::Node2Vec(*graph_, frontier, p.walk_length, p.p, p.q, rng, style);
    }
    if (algo == "GraphSAGE") {
      return eager::GraphSage(*graph_, frontier, algorithms::SageParams{}.fanouts, rng, style);
    }
    if (algo == "LADIES") {
      const algorithms::LayerWiseParams p;
      return eager::Ladies(*graph_, frontier, p.num_layers, p.layer_width, rng, style);
    }
    if (algo == "AS-GCN") {
      const algorithms::LayerWiseParams p;
      return eager::Asgcn(*graph_, frontier, p.num_layers, p.layer_width, model_, rng, style);
    }
    if (algo == "PASS") {
      const algorithms::PassParams p;
      return eager::Pass(*graph_, frontier, p.fanouts, p.hidden, model_, rng, style);
    }
    if (algo == "ShaDow") {
      const algorithms::ShadowParams p;
      return eager::Shadow(*graph_, frontier, p.depth, p.fanout, rng, style);
    }
    GS_CHECK(false) << system_ << " does not implement " << algo;
    return {};
  }

 private:
  const graph::Graph* graph_;
  std::string system_;
  bool cpu_;
  eager::EagerModel model_;
};

class PygSim final : public Baseline {
 public:
  PygSim(const graph::Graph& g, bool cpu)
      : graph_(&g), system_(cpu ? "PyG-CPU" : "PyG-GPU"), cpu_(cpu) {}

  const std::string& system() const override { return system_; }

  Availability Check(const std::string& algo) const override {
    if (!cpu_) {
      // "PyG can only run DeepWalk on GPU and does not support UVA".
      if (algo != "DeepWalk" || graph_->uva()) {
        return Availability::kNotImplemented;
      }
      return Availability::kSupported;
    }
    if (IsSimpleAlgorithm(algo) || algo == "ShaDow") {
      return Availability::kSupported;
    }
    return Availability::kNotImplemented;
  }

  BaselineResult SampleBatch(const std::string& algo, const IdArray& frontier,
                             Rng& rng) override {
    const eager::Style style;
    if (algo == "DeepWalk") {
      return eager::DeepWalk(*graph_, frontier, algorithms::DeepWalkParams{}.walk_length, rng,
                             style);
    }
    if (algo == "Node2Vec") {
      const algorithms::Node2VecParams p;
      return eager::Node2Vec(*graph_, frontier, p.walk_length, p.p, p.q, rng, style);
    }
    if (algo == "GraphSAGE") {
      return eager::GraphSage(*graph_, frontier, algorithms::SageParams{}.fanouts, rng, style);
    }
    if (algo == "ShaDow") {
      const algorithms::ShadowParams p;
      return eager::Shadow(*graph_, frontier, p.depth, p.fanout, rng, style);
    }
    GS_CHECK(false) << system_ << " does not implement " << algo;
    return {};
  }

 private:
  const graph::Graph* graph_;
  std::string system_;
  bool cpu_;
};

// ------------------------------------------------------------- SkyWalker

class SkyWalkerSim final : public Baseline {
 public:
  explicit SkyWalkerSim(const graph::Graph& g) : graph_(&g) {}

  const std::string& system() const override { return system_; }

  Availability Check(const std::string& algo) const override {
    // Vertex-centric walker: biased/unbiased walks and uniform node-wise
    // sampling; no layer-wise or tensor-compute algorithms (Table 3).
    return IsSimpleAlgorithm(algo) ? Availability::kSupported
                                   : Availability::kNotImplemented;
  }

  BaselineResult SampleBatch(const std::string& algo, const IdArray& frontier,
                             Rng& rng) override {
    BaselineResult result;
    if (algo == "GraphSAGE") {
      // Uniform fanout sampling: SkyWalker samples neighbor slots directly
      // (no alias table needed when the bias is uniform); its overhead is
      // the per-layer walker-queue scheduling pass.
      IdArray cur = frontier;
      for (int64_t fanout : algorithms::SageParams{}.fanouts) {
        cur = CloneIdsKernel(cur);  // walker-queue scheduling pass
        Matrix sample = sparse::FusedSliceSample(graph_->adj(), cur, fanout, {&rng, 1});
        cur = sparse::RowIds(sample);
        result.layers.push_back(std::move(sample));
      }
      result.traces.push_back(cur);
      return result;
    }
    if (algo == "DeepWalk") {
      IdArray cur = frontier;
      for (int step = 0; step < algorithms::DeepWalkParams{}.walk_length; ++step) {
        cur = CloneIdsKernel(cur);  // queue compaction between steps
        cur = sparse::UniformWalkStep(graph_->adj(), cur, {&rng, 1});
        result.traces.push_back(cur);
      }
      return result;
    }
    if (algo == "Node2Vec") {
      const algorithms::Node2VecParams p;
      IdArray prev = frontier;
      IdArray cur = sparse::UniformWalkStep(graph_->adj(), frontier, {&rng, 1});
      result.traces.push_back(cur);
      for (int step = 1; step < p.walk_length; ++step) {
        AliasBuildKernel(*graph_, cur, &prev);  // per-step alias tables
        IdArray next = sparse::Node2VecStep(graph_->adj(), cur, prev, p.p, p.q, {&rng, 1});
        result.traces.push_back(next);
        prev = cur;
        cur = next;
      }
      return result;
    }
    GS_CHECK(false) << system_ << " does not implement " << algo;
    return {};
  }

 private:
  const graph::Graph* graph_;
  std::string system_ = "SkyWalker";
};

// --------------------------------------------------------------- GunRock

class GunRockSim final : public Baseline {
 public:
  explicit GunRockSim(const graph::Graph& g) : graph_(&g) {}

  const std::string& system() const override { return system_; }

  Availability Check(const std::string& algo) const override {
    // "GunRock only implements GraphSAGE and ... cannot use UVA".
    if (algo != "GraphSAGE" || graph_->uva()) {
      return Availability::kNotImplemented;
    }
    return Availability::kSupported;
  }

  BaselineResult SampleBatch(const std::string& algo, const IdArray& frontier,
                             Rng& rng) override {
    GS_CHECK(algo == "GraphSAGE");
    BaselineResult result;
    IdArray cur = frontier;
    for (int64_t fanout : algorithms::SageParams{}.fanouts) {
      // Advance: materialize the whole frontier neighborhood, then filter.
      Matrix sub = sparse::SliceColumns(graph_->adj(), cur);
      Matrix sample = sparse::IndividualSample(sub, fanout, ValueArray{}, {&rng, 1});
      cur = sparse::RowIds(sample);
      cur = CloneIdsKernel(cur);  // frontier compaction pass
      result.layers.push_back(std::move(sample));
    }
    result.traces.push_back(cur);
    return result;
  }

 private:
  const graph::Graph* graph_;
  std::string system_ = "GunRock";
};

// --------------------------------------------------------------- cuGraph

class CuGraphSim final : public Baseline {
 public:
  explicit CuGraphSim(const graph::Graph& g) : graph_(&g) {}

  const std::string& system() const override { return system_; }

  Availability Check(const std::string& algo) const override {
    if (!IsSimpleAlgorithm(algo)) {
      return Availability::kNotImplemented;
    }
    if (graph_->name() == "PP") {
      // "cuGraph cannot finish loading the PP graph in 10 hours".
      return Availability::kTimeout;
    }
    return Availability::kSupported;
  }

  BaselineResult SampleBatch(const std::string& algo, const IdArray& frontier,
                             Rng& rng) override {
    BaselineResult result;
    if (algo == "GraphSAGE") {
      IdArray cur = frontier;
      for (int64_t fanout : algorithms::SageParams{}.fanouts) {
        FullGraphRenumberKernel(*graph_);  // bulk-call overhead
        Matrix sample = sparse::FusedSliceSample(graph_->adj(), cur, fanout, {&rng, 1});
        cur = sparse::RowIds(sample);
        result.layers.push_back(std::move(sample));
      }
      result.traces.push_back(cur);
      return result;
    }
    const bool node2vec = algo == "Node2Vec";
    const int walk_length = node2vec ? algorithms::Node2VecParams{}.walk_length
                                     : algorithms::DeepWalkParams{}.walk_length;
    // One bulk random-walk call per batch: a single renumbering pass, then
    // the walk steps.
    FullGraphRenumberKernel(*graph_);
    IdArray prev = frontier;
    IdArray cur = sparse::UniformWalkStep(graph_->adj(), frontier, {&rng, 1});
    result.traces.push_back(cur);
    for (int step = 1; step < walk_length; ++step) {
      IdArray next =
          node2vec ? sparse::Node2VecStep(graph_->adj(), cur, prev,
                                          algorithms::Node2VecParams{}.p,
                                          algorithms::Node2VecParams{}.q, {&rng, 1})
                   : sparse::UniformWalkStep(graph_->adj(), cur, {&rng, 1});
      result.traces.push_back(next);
      prev = cur;
      cur = next;
    }
    return result;
  }

 private:
  const graph::Graph* graph_;
  std::string system_ = "cuGraph";
};

}  // namespace

std::vector<std::string> AllBaselineSystems() {
  return {"DGL-GPU", "DGL-CPU", "PyG-GPU", "PyG-CPU", "SkyWalker", "GunRock", "cuGraph"};
}

std::unique_ptr<Baseline> MakeBaseline(const std::string& system, const graph::Graph& g) {
  if (system == "DGL-GPU") {
    return std::make_unique<DglSim>(g, /*cpu=*/false);
  }
  if (system == "DGL-CPU") {
    return std::make_unique<DglSim>(g, /*cpu=*/true);
  }
  if (system == "PyG-GPU") {
    return std::make_unique<PygSim>(g, /*cpu=*/false);
  }
  if (system == "PyG-CPU") {
    return std::make_unique<PygSim>(g, /*cpu=*/true);
  }
  if (system == "SkyWalker") {
    return std::make_unique<SkyWalkerSim>(g);
  }
  if (system == "GunRock") {
    return std::make_unique<GunRockSim>(g);
  }
  if (system == "cuGraph") {
    return std::make_unique<CuGraphSim>(g);
  }
  GS_CHECK(false) << "unknown baseline system: " << system;
  return nullptr;
}

device::DeviceProfile ProfileFor(const std::string& system,
                                 const device::DeviceProfile& gpu_profile) {
  // Calibration constants for the CPU baselines (see DESIGN.md): DGL-CPU's
  // OpenMP kernels run ~40x slower than the reference device; PyG-CPU's
  // Python-driven sampling ~150x (consistent with Table 8's 13082s vs 322s
  // end-to-end gap and Section 5.2's 702x sampling gap).
  if (system == "DGL-CPU") {
    return device::CpuSim("DGL-CPU", 40.0);
  }
  if (system == "PyG-CPU") {
    return device::CpuSim("PyG-CPU", 150.0);
  }
  return gpu_profile;
}

Rng MirroredBatchRng(uint64_t seed, uint64_t batch_index) {
  // Must match SamplerSession: rng_ = Rng(seed), batch j samples from
  // rng_.Fork(j) (Fork is const, so earlier batches do not perturb it).
  return Rng(seed).Fork(batch_index);
}

struct EagerTwinState {
  eager::EagerModel model;
};

std::shared_ptr<EagerTwinState> MakeEagerTwinState() {
  return std::make_shared<EagerTwinState>();
}

bool HasEagerTwin(const std::string& algorithm) {
  return algorithm == "DeepWalk" || algorithm == "Node2Vec" || algorithm == "GraphSAGE" ||
         algorithm == "LADIES" || algorithm == "FastGCN" || algorithm == "AS-GCN" ||
         algorithm == "PASS" || algorithm == "ShaDow";
}

BaselineResult SampleEagerTwin(const std::string& algorithm, const graph::Graph& g,
                               const tensor::IdArray& frontier, EagerTwinState& state,
                               Rng& rng) {
  const eager::Style style;
  if (algorithm == "DeepWalk") {
    return eager::DeepWalk(g, frontier, algorithms::DeepWalkParams{}.walk_length, rng, style);
  }
  if (algorithm == "Node2Vec") {
    const algorithms::Node2VecParams p;
    return eager::Node2Vec(g, frontier, p.walk_length, p.p, p.q, rng, style);
  }
  if (algorithm == "GraphSAGE") {
    return eager::GraphSage(g, frontier, algorithms::SageParams{}.fanouts, rng, style);
  }
  if (algorithm == "LADIES") {
    const algorithms::LayerWiseParams p;
    return eager::Ladies(g, frontier, p.num_layers, p.layer_width, rng, style);
  }
  if (algorithm == "FastGCN") {
    const algorithms::LayerWiseParams p;
    return eager::FastGcn(g, frontier, p.num_layers, p.layer_width, rng, style);
  }
  if (algorithm == "AS-GCN") {
    const algorithms::LayerWiseParams p;
    return eager::Asgcn(g, frontier, p.num_layers, p.layer_width, state.model, rng, style);
  }
  if (algorithm == "PASS") {
    const algorithms::PassParams p;
    return eager::Pass(g, frontier, p.fanouts, p.hidden, state.model, rng, style);
  }
  if (algorithm == "ShaDow") {
    const algorithms::ShadowParams p;
    return eager::Shadow(g, frontier, p.depth, p.fanout, rng, style);
  }
  GS_CHECK(false) << "no eager twin for " << algorithm;
  return {};
}

}  // namespace gs::baselines
