// Finalize-step kernels: id extraction, compaction, set union.

#include <algorithm>
#include <vector>

#include "sparse/kernels.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;
using internal::PickFormat;

namespace {

// Marks rows that carry at least one edge; returns locals in ascending
// order. For matrices whose row dimension far exceeds their edge count
// (e.g. super-batch block diagonals with num_rows = B * |V|), a
// sort-unique over the edge endpoints avoids the O(num_rows) mark array.
std::vector<int32_t> NonEmptyRows(const Matrix& m) {
  const Format format = PickFormat(m, {Format::kCsr, Format::kCoo, Format::kCsc});
  if (format != Format::kCsr && m.nnz() * 8 < m.num_rows()) {
    std::vector<int32_t> rows;
    rows.reserve(static_cast<size_t>(m.nnz()));
    if (format == Format::kCoo) {
      const Coo& coo = m.GetCoo();
      rows.assign(coo.row.data(), coo.row.data() + m.nnz());
    } else {
      const Compressed& csc = m.Csc();
      rows.assign(csc.indices.data(), csc.indices.data() + m.nnz());
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
  }

  std::vector<uint8_t> mark(static_cast<size_t>(m.num_rows()), 0);
  switch (format) {
    case Format::kCsr: {
      const Compressed& csr = m.Csr();
      for (int64_t r = 0; r < m.num_rows(); ++r) {
        mark[static_cast<size_t>(r)] = csr.indptr[r + 1] > csr.indptr[r] ? 1 : 0;
      }
      break;
    }
    case Format::kCoo: {
      const Coo& coo = m.GetCoo();
      for (int64_t e = 0; e < m.nnz(); ++e) {
        mark[static_cast<size_t>(coo.row[e])] = 1;
      }
      break;
    }
    case Format::kCsc: {
      const Compressed& csc = m.Csc();
      for (int64_t e = 0; e < m.nnz(); ++e) {
        mark[static_cast<size_t>(csc.indices[e])] = 1;
      }
      break;
    }
  }
  std::vector<int32_t> rows;
  for (int64_t r = 0; r < m.num_rows(); ++r) {
    if (mark[static_cast<size_t>(r)] != 0) {
      rows.push_back(static_cast<int32_t>(r));
    }
  }
  return rows;
}

}  // namespace

IdArray RowIds(const Matrix& m) {
  device::KernelScope kernel(CurrentStream());
  if (m.rows_compact()) {
    // row_ids already enumerates the node set.
    IdArray out = m.has_row_ids() ? m.row_ids().Clone() : IdArray::Empty(m.num_rows());
    if (!m.has_row_ids()) {
      for (int64_t i = 0; i < m.num_rows(); ++i) {
        out[i] = static_cast<int32_t>(i);
      }
    }
    kernel.Finish({.parallel_items = m.num_rows(), .hbm_bytes = out.bytes()});
    return out;
  }
  std::vector<int32_t> locals = NonEmptyRows(m);
  IdArray out = IdArray::Empty(static_cast<int64_t>(locals.size()));
  for (size_t i = 0; i < locals.size(); ++i) {
    out[static_cast<int64_t>(i)] = m.GlobalRowId(locals[i]);
  }
  kernel.Finish({.parallel_items = m.nnz(),
                 .hbm_bytes = m.nnz() * int64_t{4} + m.num_rows() + out.bytes()});
  return out;
}

IdArray ColIds(const Matrix& m) {
  device::KernelScope kernel(CurrentStream());
  IdArray out = IdArray::Empty(m.num_cols());
  for (int64_t c = 0; c < m.num_cols(); ++c) {
    out[c] = m.GlobalColId(static_cast<int32_t>(c));
  }
  kernel.Finish({.parallel_items = m.num_cols(), .hbm_bytes = 2 * out.bytes()});
  return out;
}

Matrix CompactRows(const Matrix& m) {
  device::KernelScope kernel(CurrentStream());
  std::vector<int32_t> kept = NonEmptyRows(m);
  const int64_t s = static_cast<int64_t>(kept.size());
  // Renumber locals; `kept` is sorted, so a binary search replaces the
  // O(num_rows) dense table when the row space is huge and sparse (the
  // super-batch block-diagonal case).
  const bool dense_table = m.num_rows() <= 8 * static_cast<int64_t>(kept.size());
  std::vector<int32_t> renumber;
  if (dense_table) {
    renumber.assign(static_cast<size_t>(m.num_rows()), -1);
  }
  auto renumber_of = [&](int32_t local) -> int32_t {
    if (dense_table) {
      return renumber[static_cast<size_t>(local)];
    }
    const auto it = std::lower_bound(kept.begin(), kept.end(), local);
    GS_INTERNAL(it != kept.end() && *it == local);
    return static_cast<int32_t>(it - kept.begin());
  };
  IdArray row_ids = IdArray::Empty(s);
  for (int64_t i = 0; i < s; ++i) {
    if (dense_table) {
      renumber[static_cast<size_t>(kept[static_cast<size_t>(i)])] = static_cast<int32_t>(i);
    }
    row_ids[i] = m.GlobalRowId(kept[static_cast<size_t>(i)]);
  }

  const Format format = PickFormat(m, {Format::kCsc, Format::kCoo, Format::kCsr});
  Matrix out;
  switch (format) {
    case Format::kCsc: {
      const Compressed& csc = m.Csc();
      Compressed rebuilt;
      rebuilt.indptr = csc.indptr;  // column structure unchanged
      rebuilt.indices = IdArray::Empty(m.nnz());
      rebuilt.values = csc.values;
      for (int64_t e = 0; e < m.nnz(); ++e) {
        rebuilt.indices[e] = renumber_of(csc.indices[e]);
      }
      out = Matrix::FromCsc(s, m.num_cols(), std::move(rebuilt));
      break;
    }
    case Format::kCoo: {
      const Coo& coo = m.GetCoo();
      Coo rebuilt;
      rebuilt.row = IdArray::Empty(m.nnz());
      rebuilt.col = coo.col;
      rebuilt.values = coo.values;
      for (int64_t e = 0; e < m.nnz(); ++e) {
        rebuilt.row[e] = renumber_of(coo.row[e]);
      }
      out = Matrix::FromCoo(s, m.num_cols(), std::move(rebuilt));
      break;
    }
    case Format::kCsr: {
      const Compressed& csr = m.Csr();
      Compressed rebuilt;
      rebuilt.indptr = OffsetArray::Empty(s + 1);
      rebuilt.indptr[0] = 0;
      for (int64_t i = 0; i < s; ++i) {
        const int32_t r = kept[static_cast<size_t>(i)];
        rebuilt.indptr[i + 1] = rebuilt.indptr[i] + (csr.indptr[r + 1] - csr.indptr[r]);
      }
      rebuilt.indices = IdArray::Empty(m.nnz());
      if (csr.values.defined()) {
        rebuilt.values = ValueArray::Empty(m.nnz());
      }
      for (int64_t i = 0; i < s; ++i) {
        const int32_t r = kept[static_cast<size_t>(i)];
        const int64_t begin = csr.indptr[r];
        const int64_t len = csr.indptr[r + 1] - begin;
        std::copy_n(csr.indices.data() + begin, len, rebuilt.indices.data() + rebuilt.indptr[i]);
        if (csr.values.defined()) {
          std::copy_n(csr.values.data() + begin, len, rebuilt.values.data() + rebuilt.indptr[i]);
        }
      }
      out = Matrix::FromCsr(s, m.num_cols(), std::move(rebuilt));
      break;
    }
  }

  out.SetRowIds(std::move(row_ids));
  out.SetRowsCompact(true);
  out.SetColIds(m.col_ids());
  kernel.Finish({.parallel_items = m.nnz(),
                 .hbm_bytes = 2 * m.nnz() * int64_t{4} + m.num_rows() * int64_t{8}});
  return out;
}

IdArray Unique(std::span<const IdArray> arrays) {
  device::KernelScope kernel(CurrentStream());
  std::vector<int32_t> all;
  int64_t total = 0;
  for (const IdArray& a : arrays) {
    total += a.size();
  }
  all.reserve(static_cast<size_t>(total));
  for (const IdArray& a : arrays) {
    for (int64_t i = 0; i < a.size(); ++i) {
      if (a[i] >= 0) {  // -1 marks dead walk ends; never a node
        all.push_back(a[i]);
      }
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  IdArray out = IdArray::FromVector(all);
  kernel.Finish({.parallel_items = total, .hbm_bytes = (total + out.size()) * int64_t{4}});
  return out;
}

ValueArray GatherValues(const ValueArray& vec, const IdArray& ids) {
  device::KernelScope kernel(CurrentStream());
  ValueArray out = ValueArray::Empty(ids.size());
  for (int64_t i = 0; i < ids.size(); ++i) {
    GS_CHECK(ids[i] >= 0 && ids[i] < vec.size())
        << "gather index " << ids[i] << " out of range " << vec.size();
    out[i] = vec[ids[i]];
  }
  kernel.Finish({.parallel_items = ids.size(), .hbm_bytes = 3 * ids.size() * int64_t{4}});
  return out;
}

}  // namespace gs::sparse
