// IR optimization passes (Section 4.2 - 4.4 of the paper).
//
// Pass pipeline (driven by core/engine.cc):
//   1. RewriteSddmm          — sub_A * (U @ V^T)  ->  SDDMM
//   2. HoistOverExtract      — move batch-invariant edge ops above A[:, f]
//   3. MarkInvariant         — flag nodes computable at compile time
//   4. FuseExtractSelect     — A[:, f] read in place by its one consumer:
//                              individual/collective sample, row sum
//   5. FuseEdgeMaps          — collapse edge-map chains (no intermediates)
//   6. FuseEdgeMapReduce     — absorb maps into reductions
//   7. FuseWalks             — a chain of walk steps becomes one kernel
//                              writing the step-major path; each step's
//                              value is a kernel-free row projection
//   8. EliminateCommonSubexpressions, DeadCodeElimination
//   9. SelectDataLayout      — measured, cost-aware format + compaction
//
// Super-batch (Section 4.4) is an execution mode, not a pass: the engine
// labels/concatenates/splits mini-batches (see core/engine.h) and the same
// extract/select kernels serve every segment in one launch.

#ifndef GSAMPLER_CORE_PASSES_H_
#define GSAMPLER_CORE_PASSES_H_

#include <map>
#include <span>

#include "core/executor.h"
#include "core/ir.h"

namespace gs::core {

// --- Computation optimizations (Section 4.2) ---

// DenseEltwise(m, mul, MatMul(u, Transpose(v))) -> Sddmm(m, u, v). Returns
// number of rewrites.
int RewriteSddmm(Program& program);

// Moves batch-invariant edge-map operators above column extraction:
// op(A[:, f]) -> op(A)[:, f] when op's operands don't depend on the batch
// (the LADIES `M = A ** 2` pre-computation). Returns number of hoists.
int HoistOverExtract(Program& program);

// Marks nodes whose value doesn't depend on per-batch inputs or randomness;
// the engine evaluates them once at compile time.
void MarkInvariant(Program& program);

// Extract-Select fusion (Figure 5a): a column slice whose only consumer is
// a node-wise sample, a layer-wise (collective) sample or an axis-0 sum is
// folded into that consumer, which then reads the slice's columns in place.
// Returns number of fusions.
int FuseExtractSelect(Program& program);

// Edge-map chain fusion (Figure 5b): canonicalizes edge-map ops to
// kFusedEdgeMap and collapses chains. Returns number of fusions.
int FuseEdgeMaps(Program& program);

// Edge-MapReduce fusion (Figure 5c): SumAxis over a fused edge map becomes a
// single-pass kFusedEdgeMapReduce. Returns number of fusions.
int FuseEdgeMapReduce(Program& program);

// Walk fusion: each maximal chain of two or more same-kind walk steps
// (walk_step, walk_restart_step or node2vec_step) over one graph operand,
// where each step moves the previous step's walkers and no other random or
// hop operator runs in between, becomes one kFusedWalk node. The fused node
// takes the first step's inputs and writes the L x W step-major path; every
// former step output becomes kWalkPathStep(path, row), a host-side copy that
// launches no kernel. A chain longer than kMaxFusedWalkSteps (core/ir.h)
// becomes several fused walks. Draw order and frontier hops match the
// unfused chain, so outputs are bit-identical. Returns number of fused
// walks.
int FuseWalks(Program& program);

// Classic cleanups. CSE never merges sampling/walk ops (they consume
// randomness). Both return the number of nodes eliminated.
int EliminateCommonSubexpressions(Program& program);
int DeadCodeElimination(Program& program);

// --- Data layout selection (Section 4.3) ---

// Chooses output formats (CSC/CSR/COO) and row-compaction for every
// structure-producing node by measuring candidate configurations on
// calibration batches (virtual device time), accounting for conversion and
// compaction overheads. Annotates the program in place; the executor's
// kPlanned mode enforces the choices. `precomputed` supplies compile-time
// values for invariant nodes during the trial runs.
void SelectDataLayout(Program& program, const Bindings& bindings,
                      std::span<const tensor::IdArray> calibration_batches,
                      const std::map<int, Value>& precomputed, Rng& rng);

}  // namespace gs::core

#endif  // GSAMPLER_CORE_PASSES_H_
