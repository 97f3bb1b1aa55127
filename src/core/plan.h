// CompiledPlan: the compilation half of the engine (Figure 4) as a
// first-class, serializable artifact.
//
// A plan owns the optimized Program together with everything the pass
// pipeline and calibration decided about it: invariant flags, chosen sparse
// formats and row-compaction bits, the layout-calibration state, and the
// tuned super-batch size. Plans are built by running the registered pass
// pipeline (core/pass_manager.h), optionally calibrated against live
// bindings, then frozen — a frozen plan is immutable and safe to share
// across threads and SamplerSessions (core/engine.h).
//
// Plans round-trip through a line-based text format with a content digest:
// Deserialize(Serialize(plan)) reproduces the plan bit-for-bit, so loading
// a saved plan skips both the pass pipeline and layout calibration. This is
// what the serving plan cache persists for warm restarts and what
// `gsampler_cli --save-plan/--load-plan` uses for ahead-of-time compilation.

#ifndef GSAMPLER_CORE_PLAN_H_
#define GSAMPLER_CORE_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/ir.h"
#include "core/pass_manager.h"
#include "graph/store.h"

namespace gs::core {

// Validity predicate for a calibrated plan under online graph mutations
// (gs::dyn). Layout calibration measures format/compaction costs against the
// live degree distribution, so its decisions stay near-optimal only while
// that distribution holds. Calibrate() binds the observed distribution here;
// as mutation epochs land, dyn::PlanTable re-checks the predicate and a plan
// that drifted past the bounds is recompiled in the background while the
// stale-but-valid artifact keeps serving. Unbound validity (layout selection
// disabled, or a legacy artifact without the trailer) is always valid.
struct PlanValidity {
  bool bound = false;
  // Degree distribution observed at calibration time.
  double mean_in_degree = 0.0;
  int64_t p99_in_degree = 0;
  // Top-K in-degree hub set at calibration time (sorted by id).
  std::vector<int32_t> hubs;
  // Bounds: maximum relative drift of mean/p99 in-degree, and minimum
  // fraction of calibration hubs that must still be hubs.
  double max_drift = 0.25;
  double min_hub_overlap = 0.5;

  // True while `now` is within bounds. On failure fills `why` (optional)
  // with the violated bound.
  bool CheckAgainst(const graph::DegreeStats& now, std::string* why = nullptr) const;
};

struct SamplerOptions {
  // Section 4.2: SDDMM rewrite + Extract-Select / Edge-Map / Edge-MapReduce
  // fusion + CSE + DCE. The per-rule flags below allow ablating individual
  // rules; they only apply while enable_fusion is set.
  bool enable_fusion = true;
  bool fuse_extract_select = true;
  bool fuse_edge_maps = true;
  bool rewrite_sddmm = true;
  // Section 4.2: hoist + compile-time evaluation of batch-invariant nodes.
  bool enable_preprocessing = true;
  // Section 4.3: measured format/compaction selection (kPlanned mode). When
  // off, execution uses the greedy DGL-like per-operator format policy —
  // unless greedy_when_layout_disabled is cleared, which yields the plain
  // "use whatever format the kernel produced" behaviour (Figure 10's 'P').
  bool enable_layout_selection = true;
  bool greedy_when_layout_disabled = true;
  // Section 4.4: number of mini-batches sampled per kernel sequence. 1
  // disables; 0 requests a grid search bounded by memory_budget_bytes.
  // Ignored (forced to 1) for programs that produce tensor outputs. Every
  // mini-batch draws from its own RNG stream, so grouped batches stay
  // bit-identical to solo ones.
  int super_batch = 1;
  int64_t memory_budget_bytes = int64_t{2} * 1024 * 1024 * 1024;
  // Layout calibration batches taken from the first Sample calls.
  int calibration_batches = 1;
  uint64_t seed = 0x5EED;
  // Instrumentation-only knobs. These cannot change the compiled artifact
  // (they only add checks and logging), so they are excluded from the plan
  // serialization and from serving's PassConfigDigest.
  bool verify_passes = false;        // Verify() at every pass boundary (release)
  bool dump_ir_after_passes = false; // log the IR after each pass
  // Debugging knob for the differential fuzzer's bisection: run only the
  // first N passes of the registered pipeline (-1 = all). The serialized
  // artifact stores the resulting program, so round-trips stay exact, but
  // plans truncated this way must never feed a serving plan cache (the knob
  // is excluded from PassConfigDigest like the instrumentation flags).
  int pass_limit = -1;
};

// Summary of what the pass pipeline did to a program (for logging,
// debugging, and the optimization-walkthrough example), including the
// per-pass instrumentation collected by the PassManager.
struct OptimizationReport {
  int sddmm_rewrites = 0;
  int hoisted_ops = 0;
  int extract_select_fusions = 0;
  int edge_map_fusions = 0;
  int edge_map_reduce_fusions = 0;
  int cse_merged = 0;
  int precomputed_values = 0;
  int annotated_layouts = 0;   // structure nodes with a chosen format
  int compacted_extracts = 0;  // structure nodes with row compaction
  // One entry per executed pass, in pipeline order (layout calibration
  // appends its own entry when it runs).
  std::vector<PassStats> passes;
  std::string ToString() const;
};

// The standard optimization pipeline for `options`, as registered named
// passes in canonical order (conditional passes are registered only when
// their option flags are set).
PassManager StandardPassPipeline(const SamplerOptions& options);

class CompiledPlan {
 public:
  // Runs the standard pass pipeline over `program`. `label` is a free-form
  // tag carried through serialization (the CLI stores the algorithm name).
  CompiledPlan(Program program, SamplerOptions options, std::string label = "");

  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  const Program& program() const { return program_; }
  const SamplerOptions& options() const { return options_; }
  const std::string& label() const { return label_; }

  // --- Lifecycle -----------------------------------------------------------
  //
  // built -> Calibrate() (idempotent; mutates layout annotations) ->
  // Freeze() -> immutable. Deserialized calibrated plans arrive frozen.

  bool calibrated() const { return calibrated_; }
  bool frozen() const { return frozen_; }
  // True when this plan was loaded from a serialized artifact rather than
  // compiled in this process (i.e. passes and calibration were skipped).
  bool restored() const { return restored_; }

  // Runs layout calibration (Section 4.3) against live bindings, annotating
  // the program in place. No-op when already calibrated; a hard error on a
  // frozen, uncalibrated plan. When layout selection is disabled by the
  // options this only marks the plan calibrated.
  void Calibrate(const Bindings& bindings, std::span<const tensor::IdArray> calibration_batches,
                 const std::map<int, Value>& precomputed, Rng& rng);

  int tuned_super_batch() const { return tuned_super_batch_; }
  void set_tuned_super_batch(int size);

  // The mutation-validity predicate bound by Calibrate() (unbound when
  // layout selection is off or the artifact predates validity). Carried
  // through serialization as an informational trailer line — excluded from
  // Digest() like the report, because two plans with identical layout
  // decisions are the same artifact regardless of what distribution they
  // were measured against.
  const PlanValidity& validity() const { return validity_; }

  // Makes the plan immutable. Sessions call this before entering the
  // concurrent serving path (Warmup), so a shared plan can never change
  // under a running execution.
  void Freeze() { frozen_ = true; }

  // --- Program-shape queries ----------------------------------------------

  // True for programs without per-batch tensor outputs whose walk outputs
  // all start at the frontier: they run as one segmented super-batch, in an
  // epoch or as a coalesced serving group, with every member bit-identical
  // to running it alone. A walk from anywhere else is left out because its
  // -1 dead-end markers carry no label, so nothing tells which member each
  // one belongs to.
  bool SuperBatchEligible() const;
  // Executor layout mode implied by the options.
  LayoutMode layout_mode() const;

  // Pass counters plus a scan of the current layout annotations
  // (annotated_layouts / compacted_extracts reflect calibration once it
  // ran). precomputed_values is per-session state and stays 0 here.
  OptimizationReport report() const;

  // --- Serialization -------------------------------------------------------

  // Text round-trip: Deserialize(Serialize()) is bit-identical (hexfloat
  // scalars, full annotation state, calibration + tuning decisions). The
  // artifact embeds Digest() for integrity; Deserialize throws gs::Error on
  // digest mismatch or malformed input.
  std::string Serialize() const;
  static std::shared_ptr<CompiledPlan> Deserialize(const std::string& text);

  // FNV-1a content digest over the semantic payload (label, options,
  // calibration/tuning state, program, outputs) — stable across processes
  // for equal plans; excludes the informational report/pass-timing lines.
  uint64_t Digest() const;
  // Digest() as the canonical 16-hex-digit artifact key — the filename stem
  // the serving plan cache persists under, and the prefix the JIT kernel
  // cache (src/jit) keys compiled regions by.
  std::string DigestHex() const;

  std::string DebugString() const;

 private:
  CompiledPlan() = default;  // Deserialize

  Program program_;
  SamplerOptions options_;
  std::string label_;
  OptimizationReport report_;
  bool calibrated_ = false;
  bool frozen_ = false;
  bool restored_ = false;
  int tuned_super_batch_ = 0;  // 0 = not tuned
  PlanValidity validity_;
};

// File helpers over Serialize/Deserialize. Throw gs::Error on I/O failure.
void SavePlanFile(const CompiledPlan& plan, const std::string& path);
std::shared_ptr<CompiledPlan> LoadPlanFile(const std::string& path);

}  // namespace gs::core

#endif  // GSAMPLER_CORE_PLAN_H_
