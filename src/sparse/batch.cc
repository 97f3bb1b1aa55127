#include "sparse/batch.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/sampling.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;
using internal::PickFormat;

namespace {

// Decodes a labeled id against the base graph's node count.
struct Labeled {
  int64_t segment;
  int32_t node;
};

Labeled Decode(int32_t labeled, int64_t num_nodes) {
  GS_CHECK_GE(labeled, 0);
  return {labeled / num_nodes, static_cast<int32_t>(labeled % num_nodes)};
}

}  // namespace

Matrix SegmentedFusedSliceSample(const Matrix& base, const IdArray& labeled_cols,
                                 int64_t num_segments, int64_t k,
                                 std::span<Rng> segment_rngs) {
  GS_CHECK(!base.has_col_ids()) << "super-batch extract requires the base graph";
  GS_CHECK_GT(k, 0);
  GS_CHECK_GE(static_cast<int64_t>(segment_rngs.size()), num_segments)
      << "need one rng per segment";
  const Compressed& csc = base.Csc();
  const int64_t n = base.num_cols();
  device::KernelScope kernel(CurrentStream());
  const bool weighted = csc.values.defined();
  const int64_t t = labeled_cols.size();

  Compressed sub;
  sub.indptr = OffsetArray::Empty(t + 1);
  sub.indptr[0] = 0;
  std::vector<int32_t> picked;
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(k * t));
  int64_t pcie = 0;

  for (int64_t i = 0; i < t; ++i) {
    const Labeled lc = Decode(labeled_cols[i], n);
    GS_CHECK_LT(lc.segment, num_segments);
    const int64_t begin = csc.indptr[lc.node];
    const int64_t deg = csc.indptr[lc.node + 1] - begin;
    const int32_t offset = static_cast<int32_t>(lc.segment * n);
    picked.clear();
    SampleUniformWithoutReplacement(deg, k, segment_rngs[static_cast<size_t>(lc.segment)],
                                    picked);
    for (int32_t slot : picked) {
      indices.push_back(csc.indices[begin + slot] + offset);
      if (weighted) {
        values.push_back(csc.values[begin + slot]);
      }
    }
    sub.indptr[i + 1] = static_cast<int64_t>(indices.size());
    pcie += internal::UvaCharge(base, static_cast<uint64_t>(lc.node),
                                static_cast<int64_t>(picked.size()) * 4);
  }

  const int64_t out_nnz = static_cast<int64_t>(indices.size());
  sub.indices = IdArray::FromVector(indices);
  if (weighted) {
    sub.values = ValueArray::FromVector(values);
  }
  Matrix out = Matrix::FromCsc(num_segments * n, t, std::move(sub));
  out.SetColIds(labeled_cols.Clone());
  kernel.Finish({.parallel_items = std::max<int64_t>(out_nnz, 1),
                 .hbm_bytes = out_nnz * int64_t{8},
                 .pcie_bytes = pcie});
  return out;
}

Matrix SegmentedSliceColumns(const Matrix& base, const IdArray& labeled_cols,
                             int64_t num_segments) {
  GS_CHECK(!base.has_col_ids()) << "super-batch extract requires the base graph";
  const Compressed& csc = base.Csc();
  const int64_t n = base.num_cols();
  device::KernelScope kernel(CurrentStream());
  const bool weighted = csc.values.defined();
  const int64_t t = labeled_cols.size();

  Compressed sub;
  sub.indptr = OffsetArray::Empty(t + 1);
  sub.indptr[0] = 0;
  for (int64_t i = 0; i < t; ++i) {
    const Labeled lc = Decode(labeled_cols[i], n);
    GS_CHECK_LT(lc.segment, num_segments);
    sub.indptr[i + 1] = sub.indptr[i] + (csc.indptr[lc.node + 1] - csc.indptr[lc.node]);
  }
  const int64_t out_nnz = sub.indptr[t];
  sub.indices = IdArray::Empty(out_nnz);
  if (weighted) {
    sub.values = ValueArray::Empty(out_nnz);
  }
  int64_t pcie = 0;
  for (int64_t i = 0; i < t; ++i) {
    const Labeled lc = Decode(labeled_cols[i], n);
    const int64_t begin = csc.indptr[lc.node];
    const int64_t len = csc.indptr[lc.node + 1] - begin;
    const int32_t offset = static_cast<int32_t>(lc.segment * n);
    for (int64_t e = 0; e < len; ++e) {
      sub.indices[sub.indptr[i] + e] = csc.indices[begin + e] + offset;
    }
    if (weighted) {
      std::copy_n(csc.values.data() + begin, len, sub.values.data() + sub.indptr[i]);
    }
    pcie += internal::UvaCharge(base, static_cast<uint64_t>(lc.node),
                                len * static_cast<int64_t>(weighted ? 8 : 4));
  }

  Matrix out = Matrix::FromCsc(num_segments * n, t, std::move(sub));
  out.SetColIds(labeled_cols.Clone());
  kernel.Finish({.parallel_items = std::max<int64_t>(out_nnz, 1),
                 .hbm_bytes = 2 * out_nnz * int64_t{8},
                 .pcie_bytes = pcie});
  return out;
}

Matrix SegmentedIndividualSample(const Matrix& m, int64_t k, const ValueArray& probs,
                                 int64_t num_nodes, std::span<Rng> segment_rngs) {
  GS_CHECK_GT(k, 0) << "fanout must be positive";
  GS_CHECK(m.has_col_ids()) << "segmented individual sample needs labeled col ids";
  if (probs.defined()) {
    GS_CHECK_EQ(probs.size(), m.nnz()) << "probs must align with the matrix's CSC edge order";
  }
  const Compressed& csc = m.Csc();
  const bool weighted = csc.values.defined();
  device::KernelScope kernel(CurrentStream());

  const int64_t t = m.num_cols();
  Compressed out;
  out.indptr = OffsetArray::Empty(t + 1);
  out.indptr[0] = 0;
  std::vector<int32_t> picked;  // per-column scratch of selected slots
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(std::min(m.nnz(), k * t)));
  int64_t pcie = 0;

  for (int64_t c = 0; c < t; ++c) {
    const Labeled lc = Decode(m.GlobalColId(static_cast<int32_t>(c)), num_nodes);
    GS_CHECK_LT(lc.segment, static_cast<int64_t>(segment_rngs.size()))
        << "need one rng per segment";
    Rng& rng = segment_rngs[static_cast<size_t>(lc.segment)];
    const int64_t begin = csc.indptr[c];
    const int64_t deg = csc.indptr[c + 1] - begin;
    picked.clear();
    if (probs.defined()) {
      SampleWeightedWithoutReplacement(
          std::span<const float>(probs.data() + begin, static_cast<size_t>(deg)), k, rng,
          picked);
    } else {
      SampleUniformWithoutReplacement(deg, k, rng, picked);
    }
    std::sort(picked.begin(), picked.end());  // canonical output order
    for (int32_t slot : picked) {
      indices.push_back(csc.indices[begin + slot]);
      if (weighted) {
        values.push_back(csc.values[begin + slot]);
      }
    }
    out.indptr[c + 1] = static_cast<int64_t>(indices.size());
    if (m.IsUva()) {
      pcie += internal::UvaCharge(m, static_cast<uint64_t>(lc.node), deg * int64_t{4});
    }
  }

  const int64_t out_nnz = static_cast<int64_t>(indices.size());
  out.indices = IdArray::FromVector(indices);
  if (weighted) {
    out.values = ValueArray::FromVector(values);
  }
  Matrix result = Matrix::FromCsc(m.num_rows(), t, std::move(out));
  internal::InheritRowSpace(m, result);
  result.SetColIds(m.col_ids());
  kernel.Finish({.parallel_items = std::max<int64_t>(m.nnz(), 1),
                 .hbm_bytes = m.nnz() * int64_t{4} + out_nnz * int64_t{8},
                 .pcie_bytes = pcie});
  return result;
}

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
