// The gSampler engine (Figure 4), split into its two halves:
//
//  - CompiledPlan (core/plan.h): the immutable compilation artifact — the
//    optimized Program, pass instrumentation, layout-calibration decisions,
//    and the tuned super-batch size. Frozen plans are thread-safe by
//    construction and serializable to disk.
//  - SamplerSession (this header): the lightweight mutable execution state
//    bound to one plan — the RNG, the batch counter, tensor/graph bindings
//    and the per-session pre-computed invariant values. Many sessions can
//    share one frozen plan.
//
// CompiledSampler remains as a thin facade that owns one plan plus one
// session, keeping the original single-object API source-compatible.

#ifndef GSAMPLER_CORE_ENGINE_H_
#define GSAMPLER_CORE_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/ir.h"
#include "core/plan.h"
#include "graph/graph.h"
#include "graph/store.h"

namespace gs::core {

class BatchProducer;

// Per-session execution state over a (shared) CompiledPlan. Construction is
// cheap: no passes run and no calibration happens here — only binding setup
// and (when preprocessing is on) evaluation of batch-invariant values.
class SamplerSession {
 public:
  SamplerSession(std::shared_ptr<CompiledPlan> plan, const graph::Graph& graph,
                 std::map<std::string, tensor::Tensor> tensors = {});

  // Snapshot-pinning constructor (gs::dyn): the session holds the snapshot's
  // shared_ptr for its whole lifetime, so the epoch's adjacency and features
  // stay alive and immutable under the session even while the owning
  // GraphStore advances to later epochs. Results are bit-identical to a
  // session over snapshot->graph() directly.
  SamplerSession(std::shared_ptr<CompiledPlan> plan,
                 std::shared_ptr<const graph::Snapshot> snapshot,
                 std::map<std::string, tensor::Tensor> tensors = {});

  SamplerSession(const SamplerSession&) = delete;
  SamplerSession& operator=(const SamplerSession&) = delete;

  // Runs one mini-batch; returns one Value per program output. The first
  // call triggers layout calibration when the plan is not yet calibrated.
  std::vector<Value> Sample(const tensor::IdArray& frontier);

  // Runs a full epoch: partitions `frontiers` into mini-batches of
  // `batch_size` and samples them, using super-batches when enabled. The
  // callback (optional) receives every mini-batch result.
  using BatchCallback = std::function<void(int64_t batch_index, std::vector<Value>& outputs)>;
  void SampleEpoch(const tensor::IdArray& frontiers, int64_t batch_size,
                   const BatchCallback& callback = nullptr);

  // Re-binds a named tensor (model-driven algorithms update weights between
  // batches; doing so keeps the compiled program). Hard error after Warmup:
  // the concurrent serving path relies on bindings never changing under it —
  // create a new SamplerSession over the shared plan instead.
  void BindTensor(const std::string& name, tensor::Tensor value);

  // Binds a named relation matrix (heterogeneous programs). The matrix must
  // outlive the session. Hard error after Warmup (see BindTensor).
  void BindGraph(const std::string& name, const sparse::Matrix* matrix);

  // --- Serving hooks (gs::serving) -----------------------------------------
  //
  // The serving path runs one session from many threads at once, so it needs
  // entry points that (a) touch no mutable session state and (b) make
  // results a pure function of (frontier, seed) — independent of request
  // arrival order and of which other requests share the execution.

  // True when requests against this plan can be merged into one segmented
  // super-batch with bit-identical per-request results (per-segment RNG
  // streams), i.e. the program has no tensor outputs and every walk it
  // outputs starts at the frontier (CompiledPlan::SuperBatchEligible). Walk
  // programs coalesce like every other program.
  bool Coalescable() const { return plan_->SuperBatchEligible(); }

  // One-time preparation for concurrent serving: runs calibration and
  // pre-computation, freezes the plan, then executes once so every lazily
  // cached structure (format conversions on the base graph and precomputed
  // matrices) is materialized. After Warmup, SampleSeeded / SampleGrouped
  // are const and safe to call concurrently from multiple threads.
  void Warmup(const tensor::IdArray& frontier);

  // Thread-safe seeded sampling: the result equals Executor::Run of
  // `frontier` on rng_.Fork(seed), bit for bit and in the program's own row
  // space, as Sample returns it, and launches the kernels Sample launches.
  // It runs as a one-member group, so for coalescable plans it is also the
  // same request served inside any coalesced group. Requires Warmup.
  std::vector<Value> SampleSeeded(const tensor::IdArray& frontier, uint64_t seed) const;

  // Thread-safe coalesced sampling: runs `group` as one labeled
  // super-batch where segment b draws exclusively from rng_.Fork(seeds[b]).
  // The callback receives (b, outputs) for every member, and each member's
  // outputs equal Executor::Run of group[b] on that stream, i.e.
  // SampleSeeded(group[b], seeds[b]), bit for bit. A group of two or more
  // splits each matrix output in one scatter kernel
  // (sparse::ScatterSegments) and requires Coalescable; a group of one is
  // any plan's plain run. Requires Warmup. Throws
  // fault::InvalidRequestError, before anything runs, when a seed lies
  // outside [0, num_nodes) or the group's labels overflow int32.
  void SampleGrouped(const std::vector<tensor::IdArray>& group,
                     const std::vector<uint64_t>& seeds, const BatchCallback& callback) const;

  // Analytic device-memory footprint of the session's resident state (the
  // pre-computed batch-invariant values); used by the serving plan cache to
  // enforce its byte budget.
  int64_t ResidentBytes() const;

  bool warmed_up() const { return warmed_up_; }

  // Installs the plan's compiled-kernel jump table (src/jit) on every
  // executor this session runs — including the per-call labeled executors
  // the coalesced serving path builds. nullptr restores pure interpretation.
  // Not thread-safe against concurrent sampling: install after Warmup but
  // before the session is shared (the serving path — warmup calibrates the
  // plan, which changes the digest JIT artifacts are keyed by) or between
  // batches (tools/tests).
  void SetJitTable(std::shared_ptr<const FusedKernelTable> table);
  const std::shared_ptr<const FusedKernelTable>& jit_table() const { return jit_table_; }

  const CompiledPlan& plan() const { return *plan_; }
  std::shared_ptr<CompiledPlan> plan_ptr() const { return plan_; }
  const Program& program() const { return plan_->program(); }
  const SamplerOptions& options() const { return plan_->options(); }

  // Plan-level pass/layout counters plus this session's pre-computed count.
  OptimizationReport report() const;
  // Effective super-batch size after auto-tuning (0 until tuned).
  int effective_super_batch() const { return tuned_super_batch_; }
  std::string DebugString() const;

 private:
  void Precompute();
  void EnsureCalibrated(const tensor::IdArray& frontier);
  // Runs `group` mini-batches as one labeled super-batch and appends the
  // per-batch split results via the callback.
  void RunSuperBatch(const std::vector<tensor::IdArray>& group, int64_t first_index,
                     const BatchCallback& callback);
  // Shared labeled-super-batch body: labels frontiers, runs a labeled
  // executor where mini-batch b draws only from segment_rngs[b], and splits
  // outputs per mini-batch into what a plain run of that mini-batch on its
  // stream returns. One mini-batch skips the labeling and runs on executor_
  // as that plain run. Const so the serving path can run it concurrently
  // after Warmup.
  void ExecuteLabeled(const std::vector<tensor::IdArray>& group, int64_t first_index,
                      std::span<Rng> segment_rngs, const BatchCallback& callback) const;
  int AutoTuneSuperBatch(const std::vector<tensor::IdArray>& batches);

  friend class BatchProducer;

  std::shared_ptr<CompiledPlan> plan_;  // stable address: executor_ points in
  // Pinned graph epoch (null for sessions over a caller-owned static graph).
  // Declared before graph_ so graph_ may point into *snapshot_.
  std::shared_ptr<const graph::Snapshot> snapshot_;
  const graph::Graph* graph_;
  Bindings bindings_;
  Rng rng_;
  uint64_t batch_counter_ = 0;
  Executor executor_;
  std::map<int, Value> precomputed_;
  bool needs_precompute_ = false;  // deferred until all bindings are present
  bool warmed_up_ = false;
  int tuned_super_batch_ = 0;
  std::shared_ptr<const FusedKernelTable> jit_table_;
};

// A small representative frontier for SamplerSession::Warmup: up to 32 of
// the graph's train ids when it has them (warmup then touches the same
// UVA/feature paths serving will), otherwise the first node ids.
tensor::IdArray WarmupFrontier(const graph::Graph& graph);

// Thin facade preserving the pre-split API: compiles a plan and opens one
// session over it in a single object. New code that shares or serializes
// plans should use CompiledPlan + SamplerSession directly.
class CompiledSampler {
 public:
  CompiledSampler(Program program, const graph::Graph& graph,
                  std::map<std::string, tensor::Tensor> tensors, SamplerOptions options)
      : plan_(std::make_shared<CompiledPlan>(std::move(program), options)),
        session_(std::make_shared<SamplerSession>(plan_, graph, std::move(tensors))) {}

  // Opens a session over an existing (possibly deserialized) plan.
  CompiledSampler(std::shared_ptr<CompiledPlan> plan, const graph::Graph& graph,
                  std::map<std::string, tensor::Tensor> tensors = {})
      : plan_(std::move(plan)),
        session_(std::make_shared<SamplerSession>(plan_, graph, std::move(tensors))) {}

  using BatchCallback = SamplerSession::BatchCallback;

  std::vector<Value> Sample(const tensor::IdArray& frontier) {
    return session_->Sample(frontier);
  }
  void SampleEpoch(const tensor::IdArray& frontiers, int64_t batch_size,
                   const BatchCallback& callback = nullptr) {
    session_->SampleEpoch(frontiers, batch_size, callback);
  }
  void BindTensor(const std::string& name, tensor::Tensor value) {
    session_->BindTensor(name, std::move(value));
  }
  void BindGraph(const std::string& name, const sparse::Matrix* matrix) {
    session_->BindGraph(name, matrix);
  }
  bool Coalescable() const { return session_->Coalescable(); }
  void Warmup(const tensor::IdArray& frontier) { session_->Warmup(frontier); }
  std::vector<Value> SampleSeeded(const tensor::IdArray& frontier, uint64_t seed) const {
    return session_->SampleSeeded(frontier, seed);
  }
  void SampleGrouped(const std::vector<tensor::IdArray>& group,
                     const std::vector<uint64_t>& seeds, const BatchCallback& callback) const {
    session_->SampleGrouped(group, seeds, callback);
  }
  int64_t ResidentBytes() const { return session_->ResidentBytes(); }
  bool warmed_up() const { return session_->warmed_up(); }
  const Program& program() const { return session_->program(); }
  OptimizationReport report() const { return session_->report(); }
  int effective_super_batch() const { return session_->effective_super_batch(); }
  std::string DebugString() const { return session_->DebugString(); }

  const CompiledPlan& plan() const { return *plan_; }
  std::shared_ptr<CompiledPlan> plan_ptr() const { return plan_; }
  SamplerSession& session() { return *session_; }
  const SamplerSession& session() const { return *session_; }
  std::shared_ptr<SamplerSession> session_ptr() const { return session_; }

 private:
  std::shared_ptr<CompiledPlan> plan_;
  std::shared_ptr<SamplerSession> session_;
};

// One sampled mini-batch as produced by BatchProducer.
struct EpochBatch {
  int64_t index = 0;
  tensor::IdArray seeds;
  std::vector<Value> outputs;
};

// Pull-style batch producer over one epoch: splits `frontiers` into
// mini-batches, triggers calibration / super-batch auto-tuning exactly like
// SampleEpoch, and yields sampled batches one at a time via Next(). This is
// the producer end the pipeline executor's sample stage drives — the caller
// controls pacing, so bounded prefetch queues can apply backpressure between
// sampling and training. Super-batch groups are sampled as a unit and the
// per-batch splits buffered internally, so batch identity (and the RNG
// stream consumed per batch) is identical to SampleEpoch.
class BatchProducer {
 public:
  // Epoch-position checkpoint. Captures how many batches were delivered and
  // the session's RNG-stream position (batch counter) at epoch start —
  // because every mini-batch j draws exclusively from the stream forked at
  // counter_base + j, this is all the RNG state resume needs: a producer
  // resumed from a checkpoint yields batches bit-identical to the ones an
  // uninterrupted epoch would have delivered from that point on, whatever
  // the super-batch grouping.
  struct Checkpoint {
    int64_t delivered = 0;      // batches handed out via Next()
    uint64_t counter_base = 0;  // session batch counter at epoch start
    int64_t num_batches = 0;    // epoch size, for validation
  };

  BatchProducer(SamplerSession& session, const tensor::IdArray& frontiers, int64_t batch_size);
  BatchProducer(CompiledSampler& sampler, const tensor::IdArray& frontiers, int64_t batch_size)
      : BatchProducer(sampler.session(), frontiers, batch_size) {}

  // Total mini-batches this epoch.
  int64_t num_batches() const { return static_cast<int64_t>(batches_.size()); }

  // Samples (or pops a buffered) next batch into `out`; false when the epoch
  // is exhausted.
  bool Next(EpochBatch* out);

  // Snapshot of the current epoch position (callable at any point, e.g.
  // from the recovery path after an injected fault killed the epoch).
  Checkpoint Save() const;

  // Rewinds a *fresh* producer (no Next() calls yet) over the same epoch to
  // `checkpoint`: re-pins the session's batch counter and re-samples the
  // partially-delivered super-batch group so the next Next() returns batch
  // `checkpoint.delivered`, bit-identical to the uninterrupted run.
  void Resume(const Checkpoint& checkpoint);

 private:
  SamplerSession& session_;
  std::vector<tensor::IdArray> batches_;
  int group_size_ = 1;
  size_t next_ = 0;  // next batch index not yet sampled
  uint64_t counter_base_ = 0;
  std::deque<EpochBatch> ready_;
};

}  // namespace gs::core

#endif  // GSAMPLER_CORE_ENGINE_H_
