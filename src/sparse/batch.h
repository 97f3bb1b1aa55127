// Super-batch labels — Section 4.4 of the paper.
//
// Super-batch sampling runs B independent mini-batches through one kernel
// sequence. Non-interference is guaranteed by giving each mini-batch its own
// id space: a node v of mini-batch b is labeled `b * num_nodes + v`, so the
// labels of all B batches must fit int32. Every extract and select kernel
// (sparse/kernels.h) understands labeled ids, a solo call being segment 0;
// compute operators need no changes because the extracted matrices are
// block diagonal by construction (edges never cross id spaces). The two
// helpers below scatter a super-batch result back into per-batch samples.

#ifndef GSAMPLER_SPARSE_BATCH_H_
#define GSAMPLER_SPARSE_BATCH_H_

#include "sparse/matrix.h"

namespace gs::sparse {

// Slices a contiguous column range [begin, end) preserving the row space —
// used to split a super-batch result back into per-batch samples. Requires
// CSC.
Matrix SliceColumnRange(const Matrix& m, int64_t begin, int64_t end);

// out[i] = ids[i] % n (labeled id -> original node id); negatives pass
// through.
IdArray MapIdsModulo(const IdArray& ids, int64_t n);

}  // namespace gs::sparse

#endif  // GSAMPLER_SPARSE_BATCH_H_
