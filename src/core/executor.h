// IR interpreter: runs a Program per mini-batch against the sparse/tensor
// kernels on the simulated device.
//
// The executor supports three layout modes (Section 4.3 / Figure 10):
//  - kAsIs:    kernels use whatever format their inputs already have (the
//              "plain" configuration);
//  - kGreedy:  before each operator, inputs are converted to that operator's
//              single best format, ignoring conversion cost — the DGL-like
//              strategy the paper compares against;
//  - kPlanned: structure-producing nodes carry format/compaction
//              annotations chosen by the data-layout-selection pass.
//
// Super-batch execution (Section 4.4) runs the same program and kernels in
// labeled mode: mini-batch b's node v travels through the program as the
// labeled id `b * N + v`, which keeps batches independent.

#ifndef GSAMPLER_CORE_EXECUTOR_H_
#define GSAMPLER_CORE_EXECUTOR_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ir.h"
#include "sparse/kernels.h"
#include "tensor/tensor.h"

namespace gs::core {

// A runtime value (tagged by the producing node's ValueKind).
struct Value {
  ValueKind kind = ValueKind::kTensor;
  sparse::Matrix matrix;
  tensor::Tensor tensor;
  tensor::IdArray ids;

  static Value OfMatrix(sparse::Matrix m);
  static Value OfTensor(tensor::Tensor t);
  static Value OfIds(tensor::IdArray i);
};

// Exact (bit-level) equality of two runtime values: same kind, and the ids /
// matrix structure+values / tensor payloads compare equal element by
// element. Used by the plan round-trip checks ("a reloaded plan samples
// bit-identically") in tests, tools/check.sh, and the serving warm-start
// test.
bool BitIdentical(const Value& a, const Value& b);

// Per-program inputs.
struct Bindings {
  const sparse::Matrix* graph = nullptr;  // base adjacency (required)
  tensor::IdArray frontier;               // per-batch frontiers
  std::map<std::string, tensor::Tensor> tensors;
  // Additional relation matrices for heterogeneous programs (Section 4.5:
  // each edge type is its own sparse matrix); keyed by GraphNamed() name.
  std::map<std::string, const sparse::Matrix*> named_graphs;
};

enum class LayoutMode {
  kAsIs,
  kGreedy,
  kPlanned,
};

// Observer of frontier hops. The executor calls OnHop once per hop operator
// (column slice, the fused kernels that read a slice in place, walk step;
// a fused walk once per step, in step order) whose matrix operand spans the
// full base graph, passing that matrix and the frontier ids being gathered
// from it — exactly the points where a multi-device run would pull remote
// adjacency. shard::FrontierExchange implements this to charge the
// interconnect all-to-all; the observer is a pure cost-model tap and must
// not influence execution (sampled output is identical with or without
// one). Installed per thread so concurrent shard workers observe only their
// own executions.
class HopObserver {
 public:
  virtual ~HopObserver() = default;
  virtual void OnHop(const sparse::Matrix& graph, const tensor::IdArray& frontier) = 0;
};

// Replaces the calling thread's hop observer (nullptr clears it); returns
// the previous observer.
HopObserver* SetThreadHopObserver(HopObserver* observer);

// Scoped per-thread hop observer installation.
class HopObserverGuard {
 public:
  explicit HopObserverGuard(HopObserver& observer)
      : previous_(SetThreadHopObserver(&observer)) {}
  ~HopObserverGuard() { SetThreadHopObserver(previous_); }

  HopObserverGuard(const HopObserverGuard&) = delete;
  HopObserverGuard& operator=(const HopObserverGuard&) = delete;

 private:
  HopObserver* previous_;
};

struct ExecOptions {
  LayoutMode layout = LayoutMode::kAsIs;
  // Labeled (super-batch) mode when graph_num_nodes > 0: the frontier
  // carries labeled ids (b * N + v) over a graph of N = graph_num_nodes
  // nodes, one mini-batch per rng stream the run gets. Otherwise ids are
  // plain node ids and the run has one stream.
  int64_t graph_num_nodes = 0;
};

// Per-plan jump table of natively compiled fused kernels (src/jit). The
// executor consults it before interpreting a fused operator; each entry is
// keyed by the node id whose stage pipeline / fanout was baked into the
// compiled code. Every method returns false to mean "no compiled kernel for
// this node — interpret", which is also the contract for any demoted
// region: a missing entry is always a fallback, never a failure. A table
// must be bit-identical to the interpreter (the oracle and fuzz_passes
// --jit enforce this); implementations charge the same simulated kernel
// costs as the interpreted kernels so plans and benchmarks stay comparable.
class FusedKernelTable {
 public:
  virtual ~FusedKernelTable() = default;

  // kFusedEdgeMap: fills `out` with m's structure carrying the mapped
  // values (CSC-aligned), exactly like sparse::FusedEdgeMap.
  virtual bool EdgeMap(int node_id, const sparse::Matrix& m,
                       std::span<const tensor::Tensor> operands,
                       sparse::Matrix* out) const = 0;

  // kFusedEdgeMapReduce: fills `out` with the reduced vector (the axis was
  // baked in at compile time), exactly like sparse::FusedEdgeMapReduce.
  virtual bool EdgeMapReduce(int node_id, const sparse::Matrix& m,
                             std::span<const tensor::Tensor> operands,
                             sparse::ValueArray* out) const = 0;

  // kFusedSliceSample on a one-segment run: consumes draws from `rng` in
  // exactly the interpreter's order, so the sampled neighborhood is
  // bit-identical to sparse::FusedSliceSample with that one stream.
  virtual bool SliceSample(int node_id, const sparse::Matrix& m,
                           const tensor::IdArray& cols, Rng& rng,
                           sparse::Matrix* out) const = 0;
};

class Executor {
 public:
  Executor(const Program& program, ExecOptions options);

  // Injects a compile-time value for a batch-invariant node (the
  // pre-processing optimization); the node is skipped during Run.
  void SetPrecomputed(int node_id, Value value);
  void ClearPrecomputed() { precomputed_.clear(); }

  // Executes the program and returns one Value per program output.
  //
  // `rngs` holds one RNG stream per segment: all random draws attributed to
  // mini-batch b, walk steps included, come exclusively from rngs[b], making
  // segment b's output bit-identical to a one-segment run seeded with the
  // same stream. This is what lets the serving coalescer merge concurrent
  // requests without changing any tenant's results. A solo run is one
  // segment; the Rng& overload is its shorthand. Several streams need
  // labeled mode.
  std::vector<Value> Run(const Bindings& bindings, std::span<Rng> rngs) const;
  std::vector<Value> Run(const Bindings& bindings, Rng& rng) const;

  // Executes only the batch-invariant prefix (nodes marked invariant) and
  // returns their values; used by the engine to populate SetPrecomputed.
  std::map<int, Value> RunInvariant(const Bindings& bindings) const;

  const ExecOptions& options() const { return options_; }

  // Installs the plan's compiled-kernel jump table (nullptr = interpret
  // everything). Must not race with Run(): set it before the executor is
  // shared across threads, like SetPrecomputed.
  void SetFusedKernels(std::shared_ptr<const FusedKernelTable> table) {
    fused_kernels_ = std::move(table);
  }
  const std::shared_ptr<const FusedKernelTable>& fused_kernels() const {
    return fused_kernels_;
  }

 private:
  Value Evaluate(const Node& node, std::vector<Value>& values, const Bindings& bindings,
                 std::span<Rng> rngs) const;

  const Program* program_;
  ExecOptions options_;
  std::map<int, Value> precomputed_;
  std::vector<int> last_use_;  // node id -> index of its last consumer
  std::shared_ptr<const FusedKernelTable> fused_kernels_;
};

}  // namespace gs::core

#endif  // GSAMPLER_CORE_EXECUTOR_H_
