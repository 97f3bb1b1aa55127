// Layer-wise select kernels: collective sampling and the two fused
// layer-wise Extract-Select kernels, which read the frontier's columns of
// the base matrix in place instead of slicing them.
//
// All collective samples share one RowSelection: candidate gathering,
// per-segment draws and the selected-row edge filter. That is what keeps a
// fused sample bit-identical to the unfused slice + sample.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/sampling.h"
#include "sparse/kernels.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;
using internal::Frontier;
using internal::PickFormat;
using internal::RowOperand;
using internal::SliceColumn;

namespace {

// Layer-wise row selection over the rows of `rows`. Segment s draws up to
// k rows from rngs[s] among its positive-probability rows, in row order.
// A row's segment is its global id / num_nodes; num_nodes = 0 puts every
// row in segment 0 (a solo call with one rng). Negative and NaN
// probabilities throw gs::Error in every mode.
class RowSelection {
 public:
  RowSelection(const RowOperand& rows, const ValueArray& row_probs, int64_t k,
               int64_t num_nodes, std::span<Rng> rngs)
      : rows_(&rows) {
    const size_t segments = rngs.size();
    std::vector<std::vector<int32_t>> candidates(segments);
    std::vector<std::vector<float>> weights(segments);
    const float* probs = row_probs.data();
    // Global ids usually ascend, so a row's segment is recomputed only when
    // its id leaves the current segment's id range [lo, hi).
    size_t s = 0;
    int64_t lo = 0;
    int64_t hi = num_nodes == 0 ? INT64_MAX : num_nodes;
    for (int32_t r = 0; r < rows.num_rows(); ++r) {
      const float p = probs[rows.Index(r)];
      if (!(p > 0.0f)) {
        GS_CHECK(p == 0.0f) << "negative or NaN sampling weight " << p << " for row "
                            << rows.GlobalRowId(r);
        continue;
      }
      const int64_t id = rows.GlobalRowId(r);
      if (id < lo || id >= hi) {
        s = static_cast<size_t>(id / num_nodes);
        lo = static_cast<int64_t>(s) * num_nodes;
        hi = lo + num_nodes;
      }
      GS_CHECK_LT(s, segments) << "need one rng per segment";
      candidates[s].push_back(r);
      weights[s].push_back(p);
    }
    std::vector<int32_t> picked;
    for (s = 0; s < segments; ++s) {
      picked.clear();
      SampleWeightedWithoutReplacement(weights[s], k, rngs[s], picked);
      for (int32_t slot : picked) {
        selected_.push_back(candidates[s][static_cast<size_t>(slot)]);
      }
    }
    std::sort(selected_.begin(), selected_.end());

    // Membership bitmap plus the number of selected rows before each word:
    // Position() is O(1) without a map sized to every (labeled) row, and
    // the edge filter's hot loop touches only the bitmap.
    const size_t words = static_cast<size_t>((rows.num_rows() + 63) / 64);
    bits_.assign(words, 0);
    for (int32_t r : selected_) {
      bits_[static_cast<size_t>(r) / 64] |= uint64_t{1} << (r % 64);
    }
    rank_.resize(words);
    int32_t before = 0;
    for (size_t w = 0; w < words; ++w) {
      rank_[w] = before;
      before += std::popcount(bits_[w]);
    }
  }

  // Selected local rows, ascending.
  const std::vector<int32_t>& rows() const { return selected_; }
  int64_t size() const { return static_cast<int64_t>(selected_.size()); }

  // Position of local row r among the selected rows, or -1.
  int32_t Position(int32_t r) const {
    const size_t w = static_cast<size_t>(r) / 64;
    const uint64_t bit = uint64_t{1} << (r % 64);
    return (bits_[w] & bit) != 0 ? rank_[w] + std::popcount(bits_[w] & (bit - 1)) : -1;
  }

  // The result's row id map.
  IdArray GlobalIds() const {
    IdArray ids = IdArray::Empty(size());
    for (int64_t i = 0; i < size(); ++i) {
      ids[i] = rows_->GlobalRowId(selected_[static_cast<size_t>(i)]);
    }
    return ids;
  }

  // Keeps the edges whose row was selected, preserving CSC column order:
  // column i of the result filters csc column column_of(i).local, whose
  // rows are shifted by column_of(i).row_offset.
  template <typename ColumnOf>
  Compressed Filter(const Compressed& csc, int64_t num_cols, ColumnOf column_of) const {
    const int64_t* indptr = csc.indptr.data();
    const int32_t* indices = csc.indices.data();
    const float* values = csc.values.data();  // null when unweighted
    Compressed out;
    out.indptr = OffsetArray::Empty(num_cols + 1);
    out.indptr[0] = 0;
    std::vector<int32_t> idx;
    std::vector<float> vals;
    for (int64_t i = 0; i < num_cols; ++i) {
      const SliceColumn c = column_of(i);
      for (int64_t e = indptr[c.local]; e < indptr[c.local + 1]; ++e) {
        const int32_t mapped = Position(c.row_offset + indices[e]);
        if (mapped >= 0) {
          idx.push_back(mapped);
          if (values != nullptr) {
            vals.push_back(values[e]);
          }
        }
      }
      out.indptr[i + 1] = static_cast<int64_t>(idx.size());
    }
    out.indices = IdArray::FromVector(idx);
    if (values != nullptr) {
      out.values = ValueArray::FromVector(vals);
    }
    return out;
  }

 private:
  const RowOperand* rows_;
  std::vector<int32_t> selected_;
  std::vector<uint64_t> bits_;
  std::vector<int32_t> rank_;
};

SliceColumn Identity(int64_t c) { return {static_cast<int32_t>(c), 0, 0}; }

}  // namespace

Matrix CollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs,
                        std::span<Rng> rngs, int64_t num_nodes) {
  GS_CHECK_GT(k, 0);
  // row_probs lives in m's local row space or per node, folded through the
  // (labeled) row ids with a modulo.
  const RowOperand rows(m, row_probs.size());
  const Format format = PickFormat(m, {Format::kCsr, Format::kCoo, Format::kCsc});
  device::KernelScope kernel(CurrentStream());

  const RowSelection selection(rows, row_probs, k, num_nodes, rngs);
  const std::vector<int32_t>& selected = selection.rows();
  const int64_t s = selection.size();
  Matrix result;
  int64_t hbm = 0;

  switch (format) {
    case Format::kCsr: {
      // Fast path: gather only the selected rows.
      const Compressed& csr = m.Csr();
      const bool weighted = csr.values.defined();
      Compressed out;
      out.indptr = OffsetArray::Empty(s + 1);
      out.indptr[0] = 0;
      for (int64_t i = 0; i < s; ++i) {
        const int32_t r = selected[static_cast<size_t>(i)];
        out.indptr[i + 1] = out.indptr[i] + (csr.indptr[r + 1] - csr.indptr[r]);
      }
      const int64_t out_nnz = out.indptr[s];
      out.indices = IdArray::Empty(out_nnz);
      if (weighted) {
        out.values = ValueArray::Empty(out_nnz);
      }
      for (int64_t i = 0; i < s; ++i) {
        const int32_t r = selected[static_cast<size_t>(i)];
        const int64_t begin = csr.indptr[r];
        const int64_t len = csr.indptr[r + 1] - begin;
        std::copy_n(csr.indices.data() + begin, len, out.indices.data() + out.indptr[i]);
        if (weighted) {
          std::copy_n(csr.values.data() + begin, len, out.values.data() + out.indptr[i]);
        }
      }
      hbm = 2 * out_nnz * int64_t{8} + m.num_rows() * int64_t{4};
      result = Matrix::FromCsr(s, m.num_cols(), std::move(out));
      break;
    }
    case Format::kCoo: {
      // Scan path over the edge list.
      const Coo& coo = m.GetCoo();
      const bool weighted = coo.values.defined();
      std::vector<int32_t> rows_kept;
      std::vector<int32_t> cols_kept;
      std::vector<float> vals_kept;
      for (int64_t e = 0; e < m.nnz(); ++e) {
        const int32_t mapped = selection.Position(coo.row[e]);
        if (mapped >= 0) {
          rows_kept.push_back(mapped);
          cols_kept.push_back(coo.col[e]);
          if (weighted) {
            vals_kept.push_back(coo.values[e]);
          }
        }
      }
      Coo out;
      out.row = IdArray::FromVector(rows_kept);
      out.col = IdArray::FromVector(cols_kept);
      if (weighted) {
        out.values = ValueArray::FromVector(vals_kept);
      }
      hbm = m.nnz() * int64_t{8};
      result = Matrix::FromCoo(s, m.num_cols(), std::move(out));
      break;
    }
    case Format::kCsc:
      // Slowest path: per-column scans with row filtering (preserves CSC).
      hbm = m.nnz() * int64_t{12};
      result = Matrix::FromCsc(s, m.num_cols(), selection.Filter(m.Csc(), m.num_cols(), Identity));
      break;
  }

  result.SetRowIds(selection.GlobalIds());
  result.SetRowsCompact(true);
  result.SetColIds(m.col_ids());
  kernel.Finish({.parallel_items = m.nnz(),
                 .hbm_bytes = hbm,
                 .pcie_bytes = m.IsUva() ? m.nnz() * int64_t{8} : 0});
  return result;
}

Matrix FusedSliceCollectiveSample(const Matrix& m, const IdArray& cols, int64_t k,
                                  const ValueArray& row_probs, std::span<Rng> rngs) {
  GS_CHECK_GT(k, 0);
  const Compressed& csc = m.Csc();
  const bool weighted = csc.values.defined();
  device::KernelScope kernel(CurrentStream());
  const Frontier frontier(m, cols, static_cast<int64_t>(rngs.size()));
  const RowOperand rows(frontier.num_rows(), frontier.row_ids(), row_probs.size());

  const RowSelection selection(rows, row_probs, k, rngs.size() == 1 ? 0 : m.num_cols(), rngs);
  const int64_t t = frontier.size();
  Compressed out = selection.Filter(csc, t, [&](int64_t i) { return frontier[i]; });
  // The filter reads every frontier edge's row id but the value of a kept
  // edge only.
  int64_t scanned = 0;
  int64_t pcie = 0;
  for (int64_t i = 0; i < t; ++i) {
    const int32_t c = frontier[i].local;
    const int64_t deg = csc.indptr[c + 1] - csc.indptr[c];
    const int64_t kept = weighted ? out.indptr[i + 1] - out.indptr[i] : 0;
    scanned += deg;
    pcie += internal::UvaCharge(m, static_cast<uint64_t>(m.GlobalColId(c)),
                                (deg + kept) * int64_t{4});
  }
  const int64_t out_nnz = out.indptr[t];

  Matrix result = Matrix::FromCsc(selection.size(), t, std::move(out));
  result.SetRowIds(selection.GlobalIds());
  result.SetRowsCompact(true);
  result.SetColIds(cols.Clone());
  kernel.Finish({.parallel_items = std::max<int64_t>(scanned, 1),
                 .hbm_bytes = (scanned + rows.num_rows()) * int64_t{4} +
                              out_nnz * int64_t{weighted ? 12 : 8},
                 .pcie_bytes = pcie});
  return result;
}

ValueArray FusedSliceReduce(const Matrix& m, const IdArray& cols, int64_t num_segments) {
  const Compressed& csc = m.Csc();
  const bool weighted = csc.values.defined();
  const int64_t edge_bytes = weighted ? 8 : 4;
  device::KernelScope kernel(CurrentStream());
  const Frontier frontier(m, cols, num_segments);

  // Same per-row summation order as SumAxis over the CSC slice.
  ValueArray out = ValueArray::Full(frontier.num_rows(), 0.0f);
  float* sums = out.data();
  const int32_t* indices = csc.indices.data();
  const float* values = csc.values.data();
  int64_t scanned = 0;
  int64_t pcie = 0;
  for (int64_t i = 0; i < frontier.size(); ++i) {
    const SliceColumn c = frontier[i];
    const int64_t begin = csc.indptr[c.local];
    const int64_t end = csc.indptr[c.local + 1];
    float* column_sums = sums + c.row_offset;
    if (weighted) {
      for (int64_t e = begin; e < end; ++e) {
        column_sums[indices[e]] += values[e];
      }
    } else {
      for (int64_t e = begin; e < end; ++e) {
        column_sums[indices[e]] += 1.0f;
      }
    }
    scanned += end - begin;
    pcie += internal::UvaCharge(m, static_cast<uint64_t>(m.GlobalColId(c.local)),
                                (end - begin) * edge_bytes);
  }
  kernel.Finish({.parallel_items = std::max<int64_t>(scanned, 1),
                 .hbm_bytes = scanned * edge_bytes + out.bytes(),
                 .pcie_bytes = pcie});
  return out;
}

}  // namespace gs::sparse
