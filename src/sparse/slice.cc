// Extract-step kernels: A[:, cols] and A[rows, :].

#include <algorithm>
#include <vector>

#include "sparse/kernels.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;
using internal::PickFormat;

namespace {

std::vector<int32_t> LocalizeRows(const Matrix& m, const IdArray& rows) {
  internal::RowLocalizer localizer(m);
  std::vector<int32_t> locals(static_cast<size_t>(rows.size()));
  for (int64_t i = 0; i < rows.size(); ++i) {
    locals[static_cast<size_t>(i)] = localizer.ToLocal(rows[i]);
  }
  return locals;
}

// Composes new global col_ids for the output: the requested ids are already
// original-graph ids.
IdArray CloneIds(const IdArray& ids) { return ids.Clone(); }

}  // namespace

Matrix SliceColumns(const Matrix& m, const IdArray& cols, int64_t num_segments) {
  // Labeled frontiers read the base graph's columns, so only CSC serves them.
  const Format format =
      num_segments == 1 ? PickFormat(m, {Format::kCsc, Format::kCoo, Format::kCsr}) : Format::kCsc;
  const int64_t t = cols.size();
  device::KernelScope kernel(CurrentStream());
  const internal::Frontier frontier(m, cols, num_segments);
  Matrix out;
  int64_t hbm = 0;
  int64_t pcie = 0;

  switch (format) {
    case Format::kCsc: {
      // Fast path: gather the selected columns' edge ranges.
      const Compressed& csc = m.Csc();
      const bool weighted = csc.values.defined();
      Compressed sub;
      sub.indptr = OffsetArray::Empty(t + 1);
      sub.indptr[0] = 0;
      for (int64_t i = 0; i < t; ++i) {
        const int32_t c = frontier[i].local;
        sub.indptr[i + 1] = sub.indptr[i] + (csc.indptr[c + 1] - csc.indptr[c]);
      }
      const int64_t out_nnz = sub.indptr[t];
      sub.indices = IdArray::Empty(out_nnz);
      if (weighted) {
        sub.values = ValueArray::Empty(out_nnz);
      }
      for (int64_t i = 0; i < t; ++i) {
        const internal::SliceColumn c = frontier[i];
        const int64_t begin = csc.indptr[c.local];
        const int64_t len = csc.indptr[c.local + 1] - begin;
        std::transform(csc.indices.data() + begin, csc.indices.data() + begin + len,
                       sub.indices.data() + sub.indptr[i],
                       [&c](int32_t row) { return c.row_offset + row; });
        if (weighted) {
          std::copy_n(csc.values.data() + begin, len, sub.values.data() + sub.indptr[i]);
        }
        const int64_t bytes = len * static_cast<int64_t>(weighted ? 8 : 4);
        pcie += internal::UvaCharge(m, static_cast<uint64_t>(m.GlobalColId(c.local)), bytes);
        hbm += 2 * bytes;
      }
      out = Matrix::FromCsc(frontier.num_rows(), t, std::move(sub));
      break;
    }
    case Format::kCoo: {
      // Slow path: scan every edge against a column membership table.
      const Coo& coo = m.GetCoo();
      const bool weighted = coo.values.defined();
      std::vector<int32_t> col_map(static_cast<size_t>(m.num_cols()), -1);
      for (int64_t i = 0; i < t; ++i) {
        col_map[static_cast<size_t>(frontier[i].local)] = static_cast<int32_t>(i);
      }
      std::vector<int32_t> rows_kept;
      std::vector<int32_t> cols_kept;
      std::vector<float> vals_kept;
      for (int64_t e = 0; e < m.nnz(); ++e) {
        const int32_t mapped = col_map[static_cast<size_t>(coo.col[e])];
        if (mapped >= 0) {
          rows_kept.push_back(coo.row[e]);
          cols_kept.push_back(mapped);
          if (weighted) {
            vals_kept.push_back(coo.values[e]);
          }
        }
      }
      Coo sub;
      sub.row = IdArray::FromVector(rows_kept);
      sub.col = IdArray::FromVector(cols_kept);
      if (weighted) {
        sub.values = ValueArray::FromVector(vals_kept);
      }
      hbm = m.nnz() * int64_t{8} + static_cast<int64_t>(rows_kept.size()) * 8;
      pcie = m.IsUva() ? m.nnz() * int64_t{8} : 0;
      out = Matrix::FromCoo(m.num_rows(), t, std::move(sub));
      break;
    }
    case Format::kCsr: {
      // Slow path: walk every row, keeping edges to selected columns.
      const Compressed& csr = m.Csr();
      const bool weighted = csr.values.defined();
      std::vector<int32_t> col_map(static_cast<size_t>(m.num_cols()), -1);
      for (int64_t i = 0; i < t; ++i) {
        col_map[static_cast<size_t>(frontier[i].local)] = static_cast<int32_t>(i);
      }
      Compressed sub;
      sub.indptr = OffsetArray::Empty(m.num_rows() + 1);
      sub.indptr[0] = 0;
      std::vector<int32_t> idx;
      std::vector<float> vals;
      for (int64_t r = 0; r < m.num_rows(); ++r) {
        for (int64_t e = csr.indptr[r]; e < csr.indptr[r + 1]; ++e) {
          const int32_t mapped = col_map[static_cast<size_t>(csr.indices[e])];
          if (mapped >= 0) {
            idx.push_back(mapped);
            if (weighted) {
              vals.push_back(csr.values[e]);
            }
          }
        }
        sub.indptr[r + 1] = static_cast<int64_t>(idx.size());
      }
      sub.indices = IdArray::FromVector(idx);
      if (weighted) {
        sub.values = ValueArray::FromVector(vals);
      }
      hbm = m.nnz() * int64_t{8} + m.num_rows() * 8;
      pcie = m.IsUva() ? m.nnz() * int64_t{8} : 0;
      out = Matrix::FromCsr(m.num_rows(), t, std::move(sub));
      break;
    }
  }

  internal::InheritRowSpace(frontier.row_ids(), out);
  out.SetColIds(CloneIds(cols));
  kernel.Finish({.parallel_items = std::max<int64_t>(out.nnz(), 1),
                 .hbm_bytes = hbm,
                 .pcie_bytes = pcie});
  return out;
}

Matrix SliceRows(const Matrix& m, const IdArray& rows) {
  const Format format = PickFormat(m, {Format::kCsr, Format::kCoo, Format::kCsc});
  const int64_t t = rows.size();
  device::KernelScope kernel(CurrentStream());
  std::vector<int32_t> locals = LocalizeRows(m, rows);
  Matrix out;
  int64_t hbm = 0;
  int64_t pcie = 0;

  switch (format) {
    case Format::kCsr: {
      const Compressed& csr = m.Csr();
      const bool weighted = csr.values.defined();
      Compressed sub;
      sub.indptr = OffsetArray::Empty(t + 1);
      sub.indptr[0] = 0;
      for (int64_t i = 0; i < t; ++i) {
        const int32_t r = locals[static_cast<size_t>(i)];
        sub.indptr[i + 1] = sub.indptr[i] + (r < 0 ? 0 : csr.indptr[r + 1] - csr.indptr[r]);
      }
      const int64_t out_nnz = sub.indptr[t];
      sub.indices = IdArray::Empty(out_nnz);
      if (weighted) {
        sub.values = ValueArray::Empty(out_nnz);
      }
      for (int64_t i = 0; i < t; ++i) {
        const int32_t r = locals[static_cast<size_t>(i)];
        if (r < 0) {
          continue;  // row absent from a compacted input: empty output row
        }
        const int64_t begin = csr.indptr[r];
        const int64_t len = csr.indptr[r + 1] - begin;
        std::copy_n(csr.indices.data() + begin, len, sub.indices.data() + sub.indptr[i]);
        if (weighted) {
          std::copy_n(csr.values.data() + begin, len, sub.values.data() + sub.indptr[i]);
        }
        const int64_t bytes = len * static_cast<int64_t>(weighted ? 8 : 4);
        pcie += internal::UvaCharge(m, static_cast<uint64_t>(rows[i]) | (uint64_t{1} << 40),
                                    bytes);
        hbm += 2 * bytes;
      }
      out = Matrix::FromCsr(t, m.num_cols(), std::move(sub));
      break;
    }
    case Format::kCoo:
    case Format::kCsc: {
      // Scan path (both remaining formats cost a full edge scan); produces
      // COO to avoid rebuilding compressed offsets on the slow path.
      const Coo& coo = m.GetCoo();
      const bool weighted = coo.values.defined();
      std::vector<int32_t> row_map(static_cast<size_t>(m.num_rows()), -1);
      for (int64_t i = 0; i < t; ++i) {
        const int32_t r = locals[static_cast<size_t>(i)];
        if (r >= 0) {
          row_map[static_cast<size_t>(r)] = static_cast<int32_t>(i);
        }
      }
      std::vector<int32_t> rows_kept;
      std::vector<int32_t> cols_kept;
      std::vector<float> vals_kept;
      for (int64_t e = 0; e < m.nnz(); ++e) {
        const int32_t mapped = row_map[static_cast<size_t>(coo.row[e])];
        if (mapped >= 0) {
          rows_kept.push_back(mapped);
          cols_kept.push_back(coo.col[e]);
          if (weighted) {
            vals_kept.push_back(coo.values[e]);
          }
        }
      }
      Coo sub;
      sub.row = IdArray::FromVector(rows_kept);
      sub.col = IdArray::FromVector(cols_kept);
      if (weighted) {
        sub.values = ValueArray::FromVector(vals_kept);
      }
      hbm = m.nnz() * int64_t{8};
      pcie = m.IsUva() ? m.nnz() * int64_t{8} : 0;
      out = Matrix::FromCoo(t, m.num_cols(), std::move(sub));
      break;
    }
  }

  // The selected rows define a compact row space with the requested ids.
  out.SetRowIds(CloneIds(rows));
  out.SetRowsCompact(true);
  out.SetColIds(m.col_ids());
  kernel.Finish({.parallel_items = std::max<int64_t>(t, 1), .hbm_bytes = hbm, .pcie_bytes = pcie});
  return out;
}

}  // namespace gs::sparse
