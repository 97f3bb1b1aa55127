#include "sparse/batch.h"

#include <algorithm>

#include "common/error.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;

namespace {

// Offsets of each segment's run in `labels`: the ids labeled b are
// [runs[b], runs[b + 1]). Labels must lie in [0, segments * n) and ascend
// by segment.
std::vector<int64_t> SegmentRuns(const IdArray& labels, int64_t n, int64_t segments,
                                 const char* what) {
  std::vector<int64_t> runs(static_cast<size_t>(segments + 1), labels.size());
  runs[0] = 0;
  int64_t segment = 0;
  for (int64_t i = 0; i < labels.size(); ++i) {
    const int64_t label = labels[i];
    GS_CHECK(label >= 0 && label < segments * n)
        << what << " label " << label << " outside [0, " << segments * n << ")";
    GS_CHECK(label / n >= segment) << what << " " << i << " of segment " << label / n
                                   << " follows segment " << segment;
    while (segment < label / n) {
      runs[static_cast<size_t>(++segment)] = i;
    }
  }
  return runs;
}

// labels[begin, end) less `offset`.
IdArray Unlabel(const IdArray& labels, int64_t begin, int64_t end, int64_t offset) {
  IdArray out = IdArray::Empty(end - begin);
  for (int64_t i = begin; i < end; ++i) {
    out[i - begin] = static_cast<int32_t>(labels[i] - offset);
  }
  return out;
}

}  // namespace

std::vector<Matrix> ScatterSegments(const Matrix& m, int64_t num_nodes, int64_t num_segments) {
  GS_CHECK(num_nodes > 0 && num_segments > 0)
      << "scatter of " << num_segments << " segments over " << num_nodes << " nodes";
  GS_CHECK(m.has_col_ids()) << "a labeled matrix carries its columns' labels";
  const Compressed& csc = m.Csc();
  device::KernelScope kernel(CurrentStream());
  const std::vector<int64_t> cols = SegmentRuns(m.col_ids(), num_nodes, num_segments, "column");
  std::vector<int64_t> rows;
  if (m.has_row_ids()) {
    rows = SegmentRuns(m.row_ids(), num_nodes, num_segments, "row");
  } else {
    GS_CHECK_EQ(m.num_rows(), num_segments * num_nodes)
        << "an identity row space spans every segment's " << num_nodes << " rows";
    for (int64_t b = 0; b <= num_segments; ++b) {
      rows.push_back(b * num_nodes);
    }
  }

  // Segment b owns the contiguous CSC run of columns [cols[b], cols[b + 1]).
  std::vector<Matrix> parts;
  for (size_t b = 0; b + 1 < cols.size(); ++b) {
    const int64_t t = cols[b + 1] - cols[b];
    const int64_t e_begin = csc.indptr[cols[b]];
    const int64_t nnz = csc.indptr[cols[b + 1]] - e_begin;
    Compressed part;
    part.indptr = OffsetArray::Empty(t + 1);
    for (int64_t i = 0; i <= t; ++i) {
      part.indptr[i] = csc.indptr[cols[b] + i] - e_begin;
    }
    part.indices = IdArray::Empty(nnz);
    for (int64_t e = 0; e < nnz; ++e) {
      const int32_t row = csc.indices[e_begin + e];
      GS_CHECK(row >= rows[b] && row < rows[b + 1])
          << "segment " << b << " edge row " << row << " outside its window [" << rows[b]
          << ", " << rows[b + 1] << ")";
      part.indices[e] = static_cast<int32_t>(row - rows[b]);
    }
    if (csc.values.defined()) {
      part.values = ValueArray::Empty(nnz);
      std::copy_n(csc.values.data() + e_begin, nnz, part.values.data());
    }
    Matrix out = Matrix::FromCsc(rows[b + 1] - rows[b], t, std::move(part));
    const int64_t label = static_cast<int64_t>(b) * num_nodes;
    out.SetColIds(Unlabel(m.col_ids(), cols[b], cols[b + 1], label));
    if (m.has_row_ids()) {
      out.SetRowIds(Unlabel(m.row_ids(), rows[b], rows[b + 1], label));
    }
    out.SetRowsCompact(m.rows_compact());
    parts.push_back(std::move(out));
  }
  const int64_t edge_bytes = 4 + (csc.values.defined() ? 4 : 0);
  const int64_t id_bytes = csc.indptr.bytes() + m.col_ids().bytes() +
                           (m.has_row_ids() ? m.row_ids().bytes() : 0);
  kernel.Finish({.parallel_items = m.nnz() + m.num_cols(),
                 .hbm_bytes = 2 * (m.nnz() * edge_bytes + id_bytes)});
  return parts;
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
