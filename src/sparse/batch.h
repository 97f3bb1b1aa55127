// Super-batch (segmented) kernels — Section 4.4 of the paper.
//
// Super-batch sampling runs B independent mini-batches through one kernel
// sequence. Non-interference is guaranteed by giving each mini-batch its own
// id space: a node v of mini-batch b is labeled `b * num_nodes + v`. The
// segmented extract/select kernels below understand labeled ids; compute
// operators need no changes because the extracted matrices are block
// diagonal by construction (edges never cross id spaces).

#ifndef GSAMPLER_SPARSE_BATCH_H_
#define GSAMPLER_SPARSE_BATCH_H_

#include <span>

#include "common/rng.h"
#include "sparse/matrix.h"

namespace gs::sparse {

// A[:, labeled_cols] against the base graph: column i holds the in-edges of
// node (labeled_cols[i] % num_nodes); emitted row ids carry the same
// segment label. Result: CSC, num_rows = num_segments * num_nodes,
// col_ids = labeled_cols.
Matrix SegmentedSliceColumns(const Matrix& base, const IdArray& labeled_cols,
                             int64_t num_segments);

// Fused extract + uniform node-wise sample of k in-neighbors per labeled
// frontier (the super-batch counterpart of FusedSliceSample). Every draw for
// a column of segment b comes exclusively from segment_rngs[b], so segment
// b's sample is bit-identical to running that segment alone (one segment,
// the same RNG stream) — the property the request coalescer relies on.
Matrix SegmentedFusedSliceSample(const Matrix& base, const IdArray& labeled_cols,
                                 int64_t num_segments, int64_t k,
                                 std::span<Rng> segment_rngs);

// Layer-wise sampling per segment: independently samples up to k rows within
// each segment's labeled id range [s*num_nodes, (s+1)*num_nodes) according
// to row_probs (length m.num_rows()), then keeps only edges whose row was
// selected. Rows come out compacted with labeled row_ids. Segment s draws
// from segment_rngs[s]. Probabilities are validated as in CollectiveSample.
Matrix SegmentedCollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs,
                                 int64_t num_nodes, std::span<Rng> segment_rngs);

// Node-wise sample of k in-neighbors per column on a segmented matrix whose
// col ids carry labels: column j's draws come from
// segment_rngs[col_label / num_nodes]. `probs` (optional) must align with
// the matrix's CSC edge order, exactly like IndividualSample.
Matrix SegmentedIndividualSample(const Matrix& m, int64_t k, const ValueArray& probs,
                                 int64_t num_nodes, std::span<Rng> segment_rngs);

// Slices a contiguous column range [begin, end) preserving the row space —
// used to split a super-batch result back into per-batch samples. Requires
// CSC.
Matrix SliceColumnRange(const Matrix& m, int64_t begin, int64_t end);

// out[i] = ids[i] % n (labeled id -> original node id); negatives pass
// through.
IdArray MapIdsModulo(const IdArray& ids, int64_t n);

}  // namespace gs::sparse

#endif  // GSAMPLER_SPARSE_BATCH_H_
