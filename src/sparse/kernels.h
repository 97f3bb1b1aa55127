// Sparse-matrix kernels backing the matrix-centric API (Table 4 of the
// paper). Every function launches one simulated kernel. Functions pick the
// cheapest *already materialized* format of their inputs; they never convert
// formats implicitly except where documented (the data-layout-selection pass
// owns conversion decisions, see core/passes/layout.*).
//
// Axis convention (matches the paper's Figure 3 usage, not PyTorch):
//   axis = 0 : result/operand indexed by ROW    (length num_rows)
//   axis = 1 : result/operand indexed by COLUMN (length num_cols)

#ifndef GSAMPLER_SPARSE_KERNELS_H_
#define GSAMPLER_SPARSE_KERNELS_H_

#include <span>

#include "common/binary_op.h"
#include "common/rng.h"
#include "device/stream.h"
#include "sparse/matrix.h"
#include "tensor/tensor.h"

namespace gs::sparse {

// ---------------------------------------------------------------- Extract

// A[:, cols]: keeps the full row dimension, selects columns. `cols` holds
// original-graph ids; they become the result's col_ids. Works on any input
// format (CSC is O(output); COO/CSR scan all edges — this cost asymmetry is
// Table 5's first row). Result is produced in the same format family it was
// computed from. With several segments m must be the base graph and cols
// are labeled ids (sparse/batch.h): column i holds the in-edges of node
// cols[i] % n with rows labeled into the same segment, read from CSC, in a
// row space of num_segments * n rows.
Matrix SliceColumns(const Matrix& m, const IdArray& cols, int64_t num_segments = 1);

// A[rows, :]: symmetric to SliceColumns (CSR is the fast path).
Matrix SliceRows(const Matrix& m, const IdArray& rows);

// ---------------------------------------------------------------- Compute

// Reduction of edge values onto rows (axis=0) or columns (axis=1).
// Unweighted matrices reduce unit weights (i.e., degrees).
ValueArray SumAxis(const Matrix& m, int axis);

// values'[e] = op(values[e], vec[row(e)]) for axis=0 (vec[col(e)] for
// axis=1). Returns a matrix sharing m's structure.
Matrix Broadcast(const Matrix& m, BinaryOp op, const ValueArray& vec, int axis);

// values'[e] = op(values[e], scalar). Shares structure.
Matrix EltwiseScalar(const Matrix& m, BinaryOp op, float scalar);

// values'[e] = op(a.values[e], b.values[e]); a and b must share their
// sparsity pattern. Shares structure with a.
Matrix EltwiseBinary(const Matrix& a, BinaryOp op, const Matrix& b);

// values'[e] = op(values[e], dense.at(row(e), col(e))) with dense of shape
// (num_rows, num_cols). Shares structure.
Matrix DenseEltwise(const Matrix& m, BinaryOp op, const tensor::Tensor& dense);

// A @ D: (num_rows x num_cols) @ (num_cols x k) -> dense (num_rows x k).
tensor::Tensor SpMM(const Matrix& m, const tensor::Tensor& dense);

// Sampled dense-dense matmul: values'[e] = dot(u[row(e)], v[col(e)]),
// optionally multiplied into the existing edge values (mul_existing). u is
// (num_rows x h), v is (num_cols x h). This is the fused form of
// `sub_A * (U @ V^T)` that the Edge-Map fusion pass emits for PASS-style
// attention computation.
Matrix Sddmm(const Matrix& m, const tensor::Tensor& u, const tensor::Tensor& v,
             bool mul_existing);

// ----------------------------------------------------------------- Select
//
// Every select kernel serves a super-batch (sparse/batch.h) in one launch,
// and a solo call is segment 0. Segment b draws only from rngs[b], in
// frontier (column or row) order, so a segment's sample is the same alone or
// grouped, and the kernel charges the sum of the solo calls' costs. The
// fused Extract-Select kernels take the segment count from rngs.size() and
// resolve their frontier as SliceColumns does. The kernels over an already
// extracted matrix take a column's or row's segment from its global
// (labeled) id / num_nodes; num_nodes = 0 puts everything in segment 0, as
// in the walk kernels.

// The node-wise kernels also return their result's node set, RowIds(result),
// when `node_set` is non-null (Select-Finalize fusion, core/passes.h): it is
// computed in the same launch, and the kernel charges the sum of both
// kernels' work items and bytes, so only the saved launch changes the cost.

// Node-wise selection: for every column, samples up to k of its edges
// without replacement, uniformly or proportional to `probs` (edge weights
// aligned with m's CSC order; pass an undefined array for uniform). Each
// column emits its picks in ascending slot order. Requires / materializes
// CSC. Result: CSC, same column set, original row dimension.
Matrix IndividualSample(const Matrix& m, int64_t k, const ValueArray& probs,
                        std::span<Rng> rngs, int64_t num_nodes = 0,
                        IdArray* node_set = nullptr);

// Layer-wise selection: each segment samples up to k distinct row nodes
// proportional to row_probs (length num_rows, or per node and folded through
// the row ids with a modulo; non-negative; rows with zero probability are
// never selected; a negative or NaN probability throws gs::Error) and keeps
// only edges whose row was selected. Result shape is (#selected x num_cols)
// with rows compacted (row_ids set). Fast path gathers selected rows from
// CSR; COO/CSC paths scan all edges (Table 5 row 3).
Matrix CollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs,
                        std::span<Rng> rngs, int64_t num_nodes = 0);

// Fused Extract-Select for uniform node-wise sampling: samples k
// in-neighbors for each of `cols` directly from the base matrix without
// materializing the sliced subgraph (Figure 5a); each column emits its picks
// in ascending slot order. Requires CSC on m.
Matrix FusedSliceSample(const Matrix& m, const IdArray& cols, int64_t k, std::span<Rng> rngs,
                        IdArray* node_set = nullptr);

// Fused Extract-Select for layer-wise sampling: these kernels read the
// frontier's columns of m in place, so m[:, cols] is never materialized.
// Their results are bit-identical to the unfused chains, with the frontier
// resolved as in SliceColumns. All require CSC on m.

// CollectiveSample(m[:, cols], k, row_probs), with one rng per segment.
Matrix FusedSliceCollectiveSample(const Matrix& m, const IdArray& cols, int64_t k,
                                  const ValueArray& row_probs, std::span<Rng> rngs);

// SumAxis(m[:, cols], 0) over the slice's (labeled) row space.
ValueArray FusedSliceReduce(const Matrix& m, const IdArray& cols, int64_t num_segments = 1);

// FusedSliceCollectiveSample(a, cols, k, FusedSliceReduce(m, cols)) in one
// launch, for an m that shares a's pattern (an edge map of a, such as
// LADIES' a ** 2): the row probabilities are m's frontier column sums, in
// FusedSliceReduce's order. Each frontier column is one UVA access, of m's
// list plus the values of a's kept edges, and the kernel charges the two
// kernels' summed work items and HBM bytes, so only the saved launch and
// the re-read change the cost. Throws gs::Error when m does not share a's
// pattern.
Matrix FusedSliceReduceSample(const Matrix& a, const IdArray& cols, int64_t k, const Matrix& m,
                              std::span<Rng> rngs);

// --------------------------------------------------------------- Finalize

// Original-graph ids of rows that carry at least one edge (the sampled
// neighbors), ascending by local row. For rows-compact matrices this is
// just row_ids.
IdArray RowIds(const Matrix& m);

// RowIds(m) for an m that is not rows-compact, computed inside the caller's
// open kernel instead of a launch of its own: adds RowIds' work items and
// HBM bytes to `charge`. The sampling kernels (and the JIT's native
// slice-sample) call it on their freshly built result.
IdArray RowIdsInKernel(const Matrix& m, device::KernelStats* charge);

// Original-graph ids of all columns.
IdArray ColIds(const Matrix& m);

// Drops empty rows and renumbers the remainder; sets row_ids and
// rows_compact. Costs a full pass plus index rewrite — the compaction the
// layout pass weighs against smaller downstream matrices (Section 4.3).
Matrix CompactRows(const Matrix& m);

// Sorted union of id arrays; negative ids (dead walk ends) are dropped.
IdArray Unique(std::span<const IdArray> arrays);

// Gathers vec[ids[i]] into a new array (e.g., row_probs[sample_A.row()]).
ValueArray GatherValues(const ValueArray& vec, const IdArray& ids);

// ------------------------------------------------------------------ Walks
//
// Walks run in the super-batch's labeled id space (sparse/batch.h): walker
// id b * num_nodes + v is node v of segment b, moves to a labeled id of the
// same segment, and draws only from rngs[b], in frontier order. A segment's
// walks are therefore the same alone or grouped. num_nodes = 0 means plain
// node ids of m, i.e. one segment: a solo run passes one rng.
//
// Each walk kernel moves every walker through `steps` steps in one launch
// (walk fusion, core/passes.h), steps on the outside and walkers on the
// inside, and returns the step-major path: row t, ids [t * W, (t + 1) * W)
// for W = start.size(), holds every walker's position after step t + 1 —
// the layout samgraph's random-walk kernel writes. Step t + 1 draws right
// after step t, so the path equals `steps` one-step calls bit for bit, and
// the kernel charges the sum of their work items, HBM and PCIe bytes: only
// the saved launches change the cost. A one-step walk is the per-step
// operator (UniformWalkStep and friends). A steps x W shape that
// overflows int64 throws gs::Error before the path is allocated; with no
// walkers no step runs.

// Row `row` of a step-major walk path of `steps` rows: a host-side copy
// that launches no kernel (the fused walk's per-step projection).
IdArray WalkPathRow(const IdArray& path, int64_t steps, int64_t row);

// Uniform random walk: each step moves a walker to a uniformly sampled
// in-neighbor in m, or to -1 when it is at -1 or at a node without
// in-neighbors. Requires CSC.
IdArray UniformWalk(const Matrix& m, const IdArray& start, int64_t steps, std::span<Rng> rngs,
                    int64_t num_nodes = 0);
IdArray UniformWalkStep(const Matrix& m, const IdArray& cur, std::span<Rng> rngs,
                        int64_t num_nodes = 0);

// Random walk with restarts (PinSAGE/HetGNN): each step, with probability
// `restart_prob`, or when the walker has no in-neighbors, it jumps back to
// root[i]; otherwise it moves to a uniform in-neighbor.
IdArray UniformWalkRestart(const Matrix& m, const IdArray& start, const IdArray& root,
                           float restart_prob, int64_t steps, std::span<Rng> rngs,
                           int64_t num_nodes = 0);
IdArray UniformWalkStepRestart(const Matrix& m, const IdArray& cur, const IdArray& root,
                               float restart_prob, std::span<Rng> rngs, int64_t num_nodes = 0);

// PinSAGE neighbor construction: given per-root walk traces (`steps[t][i]`
// is walker i's position after step t; -1 entries are skipped), counts
// visits per root and keeps each root's k most-visited nodes (the root
// itself excluded). Returns a (num_rows x #roots) CSC matrix whose values
// are the visit counts (the importance weights PinSAGE aggregates with).
Matrix TopKVisited(std::span<const IdArray> steps, const IdArray& roots, int64_t k,
                   int64_t num_rows);

// node2vec walk: each step, in-neighbor r of a walker's node gets bias 1/p
// when r is the walker's previous position, 1 when r is also an
// in/out-neighbor of that position, and 1/q otherwise (a previous position
// of -1 means a first, uniform step). The first step's previous positions
// are `prev`; each later step's are the positions the step before started
// from. Requires CSC with per-column-sorted indices for the adjacency test.
IdArray Node2VecWalk(const Matrix& m, const IdArray& start, const IdArray& prev, float p,
                     float q, int64_t steps, std::span<Rng> rngs, int64_t num_nodes = 0);
IdArray Node2VecStep(const Matrix& m, const IdArray& cur, const IdArray& prev, float p,
                     float q, std::span<Rng> rngs, int64_t num_nodes = 0);

}  // namespace gs::sparse

#endif  // GSAMPLER_SPARSE_KERNELS_H_
