#include "sparse/batch.h"

#include <algorithm>

#include "common/error.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;

Matrix SliceColumnRange(const Matrix& m, int64_t begin, int64_t end) {
  GS_CHECK(begin >= 0 && begin <= end && end <= m.num_cols());
  const Compressed& csc = m.Csc();
  device::KernelScope kernel(CurrentStream());
  const bool weighted = csc.values.defined();
  const int64_t t = end - begin;
  const int64_t e_begin = csc.indptr[begin];
  const int64_t e_end = csc.indptr[end];
  const int64_t out_nnz = e_end - e_begin;

  Compressed sub;
  sub.indptr = OffsetArray::Empty(t + 1);
  for (int64_t i = 0; i <= t; ++i) {
    sub.indptr[i] = csc.indptr[begin + i] - e_begin;
  }
  sub.indices = IdArray::Empty(out_nnz);
  std::copy_n(csc.indices.data() + e_begin, out_nnz, sub.indices.data());
  if (weighted) {
    sub.values = ValueArray::Empty(out_nnz);
    std::copy_n(csc.values.data() + e_begin, out_nnz, sub.values.data());
  }

  Matrix out = Matrix::FromCsc(m.num_rows(), t, std::move(sub));
  out.SetRowIds(m.row_ids());
  out.SetRowsCompact(false);
  if (m.has_col_ids()) {
    IdArray col_ids = IdArray::Empty(t);
    std::copy_n(m.col_ids().data() + begin, t, col_ids.data());
    out.SetColIds(std::move(col_ids));
  }
  kernel.Finish({.parallel_items = t, .hbm_bytes = 2 * out_nnz * int64_t{8}});
  return out;
}

IdArray MapIdsModulo(const IdArray& ids, int64_t n) {
  device::KernelScope kernel(CurrentStream());
  IdArray out = IdArray::Empty(ids.size());
  for (int64_t i = 0; i < ids.size(); ++i) {
    out[i] = ids[i] >= 0 ? static_cast<int32_t>(ids[i] % n) : ids[i];
  }
  kernel.Finish({.parallel_items = ids.size(), .hbm_bytes = 2 * ids.bytes()});
  return out;
}

}  // namespace gs::sparse
