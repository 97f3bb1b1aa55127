// Micro-benchmarks (google-benchmark, real wall time) for the hot sparse
// kernels: extraction, sampling, reductions, SpMM, fused edge maps. These
// complement the virtual-clock table/figure benches with raw kernel
// throughput numbers.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/executor.h"
#include "core/ir.h"
#include "core/plan.h"
#include "graph/datasets.h"
#include "jit/jit.h"
#include "sparse/fused.h"
#include "sparse/kernels.h"
#include "tensor/ops.h"

namespace gs {
namespace {

const graph::Graph& BenchGraph() {
  static graph::Graph g = graph::MakePD({.scale = 0.25, .weighted = true});
  return g;
}

tensor::IdArray Frontier(int64_t n) {
  const graph::Graph& g = BenchGraph();
  std::vector<int32_t> ids;
  for (int64_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<int32_t>((i * 13) % g.num_nodes()));
  }
  return tensor::IdArray::FromVector(ids);
}

void BM_SliceColumns(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::SliceColumns(g.adj(), frontier));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SliceColumns)->Arg(64)->Arg(256)->Arg(1024);

void BM_FusedSliceSample(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::FusedSliceSample(g.adj(), frontier, 10, {&rng, 1}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FusedSliceSample)->Arg(64)->Arg(256)->Arg(1024);

void BM_UnfusedSliceSample(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
    benchmark::DoNotOptimize(sparse::IndividualSample(sub, 10, sparse::ValueArray{}, {&rng, 1}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UnfusedSliceSample)->Arg(64)->Arg(256)->Arg(1024);

void BM_CollectiveSample(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(256);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  sparse::ValueArray probs = sparse::SumAxis(sub, 0);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::CollectiveSample(sub, state.range(0), probs, {&rng, 1}));
  }
}
BENCHMARK(BM_CollectiveSample)->Arg(64)->Arg(256)->Arg(512);

void BM_SumAxisRows(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::SumAxis(sub, 0));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_SumAxisRows);

void BM_SpMM(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  Rng rng(3);
  tensor::Tensor dense = tensor::Tensor::Randn({sub.num_cols(), state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::SpMM(sub, dense));
  }
}
BENCHMARK(BM_SpMM)->Arg(16)->Arg(64);

void BM_FusedEdgeMapReduce(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  std::vector<sparse::EdgeMapStage> stages(1);
  stages[0].op = BinaryOp::kPow;
  stages[0].kind = sparse::EdgeMapStage::OperandKind::kScalar;
  stages[0].scalar = 2.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::FusedEdgeMapReduce(sub, stages, {}, 0));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_FusedEdgeMapReduce);

void BM_UnfusedMapThenReduce(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  for (auto _ : state) {
    sparse::Matrix sq = sparse::EltwiseScalar(sub, BinaryOp::kPow, 2.0f);
    benchmark::DoNotOptimize(sparse::SumAxis(sq, 0));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_UnfusedMapThenReduce);

// ------------------------------------------------------------- JIT column
//
// The same fused chains executed through gs::jit's compiled kernels: each
// helper compiles a one-node program once, takes the plan's jump table, and
// benches the native entry against the interpreter loops above. Artifacts
// land in the engine's temp directory, so repeated bench runs reload the
// persisted .so instead of re-invoking the compiler.

jit::JitEngine& BenchJitEngine() {
  static jit::JitEngine engine;
  return engine;
}

sparse::EdgeMapStage ScalarStage(BinaryOp op, float scalar) {
  sparse::EdgeMapStage stage;
  stage.op = op;
  stage.kind = sparse::EdgeMapStage::OperandKind::kScalar;
  stage.scalar = scalar;
  return stage;
}

// The two-stage chain (0.5 * w^2) the fused-chain benches run end to end.
std::vector<sparse::EdgeMapStage> ChainStages() {
  return {ScalarStage(BinaryOp::kPow, 2.0f), ScalarStage(BinaryOp::kMul, 0.5f)};
}

struct JitKernel {
  std::shared_ptr<const core::FusedKernelTable> table;
  int node_id = -1;
};

// Compiles a single-fused-node program and returns its jump table plus the
// surviving node id (passes may renumber but never remove the sole output).
JitKernel CompileKernel(core::Program program, core::OpKind kind, const char* label) {
  auto plan = std::make_shared<core::CompiledPlan>(std::move(program), core::SamplerOptions{},
                                                   label);
  JitKernel kernel;
  for (int i = 0; i < plan->program().size(); ++i) {
    if (plan->program().node(i).kind == kind) {
      kernel.node_id = i;
    }
  }
  kernel.table = BenchJitEngine().TableFor(*plan);
  return kernel;
}

JitKernel CompileSliceSample(int64_t k) {
  core::Program program;
  const int gin = program.Add(core::OpKind::kGraphInput, {});
  const int fin = program.Add(core::OpKind::kFrontierInput, {});
  core::Attrs attrs;
  attrs.k = k;
  const int out = program.Add(core::OpKind::kFusedSliceSample, {gin, fin}, attrs);
  program.SetOutputs({out});
  return CompileKernel(std::move(program), core::OpKind::kFusedSliceSample, "bench-slice");
}

JitKernel CompileEdgeMap(std::vector<sparse::EdgeMapStage> stages) {
  core::Program program;
  const int gin = program.Add(core::OpKind::kGraphInput, {});
  core::Attrs attrs;
  attrs.stages = std::move(stages);
  const int out = program.Add(core::OpKind::kFusedEdgeMap, {gin}, attrs);
  program.SetOutputs({out});
  return CompileKernel(std::move(program), core::OpKind::kFusedEdgeMap, "bench-map");
}

JitKernel CompileEdgeMapReduce(std::vector<sparse::EdgeMapStage> stages, int axis) {
  core::Program program;
  const int gin = program.Add(core::OpKind::kGraphInput, {});
  core::Attrs attrs;
  attrs.stages = std::move(stages);
  attrs.axis = axis;
  const int out = program.Add(core::OpKind::kFusedEdgeMapReduce, {gin}, attrs);
  program.SetOutputs({out});
  return CompileKernel(std::move(program), core::OpKind::kFusedEdgeMapReduce, "bench-reduce");
}

void BM_JitSliceSample(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(state.range(0));
  static const JitKernel kernel = CompileSliceSample(10);
  if (kernel.table == nullptr || kernel.node_id < 0) {
    state.SkipWithError("jit unavailable");
    return;
  }
  Rng rng(1);
  for (auto _ : state) {
    sparse::Matrix out;
    if (!kernel.table->SliceSample(kernel.node_id, g.adj(), frontier, rng, &out, nullptr)) {
      state.SkipWithError("jit declined slice-sample");
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JitSliceSample)->Arg(64)->Arg(256)->Arg(1024);

void BM_FusedEdgeMapChain(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  const std::vector<sparse::EdgeMapStage> stages = ChainStages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::FusedEdgeMap(sub, stages, {}));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_FusedEdgeMapChain);

void BM_JitEdgeMapChain(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  static const JitKernel kernel = CompileEdgeMap(ChainStages());
  if (kernel.table == nullptr || kernel.node_id < 0) {
    state.SkipWithError("jit unavailable");
    return;
  }
  for (auto _ : state) {
    sparse::Matrix out;
    if (!kernel.table->EdgeMap(kernel.node_id, sub, {}, &out)) {
      state.SkipWithError("jit declined edge-map");
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_JitEdgeMapChain);

void BM_JitEdgeMapReduce(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  static const JitKernel kernel =
      CompileEdgeMapReduce({ScalarStage(BinaryOp::kPow, 2.0f)}, 0);
  if (kernel.table == nullptr || kernel.node_id < 0) {
    state.SkipWithError("jit unavailable");
    return;
  }
  for (auto _ : state) {
    sparse::ValueArray out;
    if (!kernel.table->EdgeMapReduce(kernel.node_id, sub, {}, &out)) {
      state.SkipWithError("jit declined edge-map-reduce");
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_JitEdgeMapReduce);

void BM_WalkStep(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray cur = Frontier(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::UniformWalkStep(g.adj(), cur, {&rng, 1}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WalkStep)->Arg(1024);

// DeepWalk's 80 steps in one fused launch: compare per item with
// BM_WalkStep (the wall clock of 80 launches' worth of walk work).
void BM_FusedWalk(benchmark::State& state) {
  constexpr int64_t kSteps = 80;
  const graph::Graph& g = BenchGraph();
  tensor::IdArray start = Frontier(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::UniformWalk(g.adj(), start, kSteps, {&rng, 1}));
  }
  state.SetItemsProcessed(state.iterations() * kSteps * state.range(0));
}
BENCHMARK(BM_FusedWalk)->Arg(1024);

}  // namespace
}  // namespace gs

BENCHMARK_MAIN();
