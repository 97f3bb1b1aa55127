// Super-batch labels — Section 4.4 of the paper.
//
// Super-batch sampling runs B independent mini-batches through one kernel
// sequence. Non-interference is guaranteed by giving each mini-batch its own
// id space: a node v of mini-batch b is labeled `b * num_nodes + v`, so the
// labels of all B batches must fit int32. Every extract and select kernel
// (sparse/kernels.h) understands labeled ids, a solo call being segment 0;
// compute operators need no changes because the extracted matrices are
// block diagonal by construction (edges never cross id spaces).
//
// Output contract: segment b of a labeled run gets exactly what a plain run
// of its frontier on its own rng stream returns, bit for bit and in the
// program's own row space. A one-segment run already is the plain run;
// ScatterSegments below splits a several-segment matrix output in one launch.

#ifndef GSAMPLER_SPARSE_BATCH_H_
#define GSAMPLER_SPARSE_BATCH_H_

#include <vector>

#include "sparse/matrix.h"

namespace gs::sparse {

// Splits a labeled super-batch matrix into its `num_segments` members in one
// kernel. Segment b gets its contiguous run of columns (col_ids labeled b)
// and its row window: rows [b * num_nodes, (b + 1) * num_nodes) of an
// identity row space, which must then span num_segments * num_nodes rows,
// otherwise the run of row_ids labeled b. Row indices are renumbered into
// the window, b * num_nodes is subtracted from row_ids and col_ids, and
// rows_compact() carries over. Reads m's CSC, converting first when m
// lacks it, and emits CSC parts. Throws gs::Error when the labels are out of
// range or not grouped by segment, or when an edge's row lies outside its
// column's window.
std::vector<Matrix> ScatterSegments(const Matrix& m, int64_t num_nodes, int64_t num_segments);

// out[i] = ids[i] % n (labeled id -> original node id); negatives pass
// through.
IdArray MapIdsModulo(const IdArray& ids, int64_t n);

}  // namespace gs::sparse

#endif  // GSAMPLER_SPARSE_BATCH_H_
