// Shared helpers for the sparse kernel implementations. Internal to
// src/sparse; not part of the public API.

#ifndef GSAMPLER_SPARSE_KERNELS_INTERNAL_H_
#define GSAMPLER_SPARSE_KERNELS_INTERNAL_H_

#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "device/device.h"
#include "device/stream.h"
#include "sparse/matrix.h"

namespace gs::sparse::internal {

inline device::Stream& CurrentStream() { return device::Current().stream(); }

// First format in `preference` that is already materialized on m; falls back
// to whatever exists.
inline Format PickFormat(const Matrix& m, std::initializer_list<Format> preference) {
  for (Format f : preference) {
    if (m.HasFormat(f)) {
      return f;
    }
  }
  for (Format f : {Format::kCsc, Format::kCsr, Format::kCoo}) {
    if (m.HasFormat(f)) {
      return f;
    }
  }
  GS_CHECK(false) << "matrix has no materialized format";
  return Format::kCoo;
}

// Translates original-graph ids to local indices of m's column space.
// Identity maps pass through; otherwise builds a hash lookup.
class ColLocalizer {
 public:
  explicit ColLocalizer(const Matrix& m) {
    if (m.has_col_ids()) {
      const IdArray& ids = m.col_ids();
      map_.reserve(static_cast<size_t>(ids.size()));
      for (int64_t i = 0; i < ids.size(); ++i) {
        map_.emplace(ids[i], static_cast<int32_t>(i));
      }
      identity_ = false;
    }
    num_cols_ = m.num_cols();
  }

  int32_t ToLocal(int32_t global) const {
    if (identity_) {
      GS_CHECK(global >= 0 && global < num_cols_)
          << "column id " << global << " out of range " << num_cols_;
      return global;
    }
    auto it = map_.find(global);
    GS_CHECK(it != map_.end()) << "column id " << global << " not present in matrix";
    return it->second;
  }

 private:
  bool identity_ = true;
  int64_t num_cols_ = 0;
  std::unordered_map<int32_t, int32_t> map_;
};

class RowLocalizer {
 public:
  explicit RowLocalizer(const Matrix& m) {
    if (m.has_row_ids()) {
      const IdArray& ids = m.row_ids();
      map_.reserve(static_cast<size_t>(ids.size()));
      for (int64_t i = 0; i < ids.size(); ++i) {
        map_.emplace(ids[i], static_cast<int32_t>(i));
      }
      identity_ = false;
    }
    num_rows_ = m.num_rows();
  }

  // Returns -1 when the id is valid for the original graph but absent from
  // this (possibly compacted) matrix: slicing such a row yields an empty
  // row, not an error.
  int32_t ToLocal(int32_t global) const {
    GS_CHECK_GE(global, 0) << "negative row id";
    if (identity_) {
      GS_CHECK_LT(global, num_rows_) << "row id out of range";
      return global;
    }
    auto it = map_.find(global);
    return it != map_.end() ? it->second : -1;
  }

 private:
  bool identity_ = true;
  int64_t num_rows_ = 0;
  std::unordered_map<int32_t, int32_t> map_;
};

// One column of a (possibly virtual) slice: column `local` of the source
// matrix, whose row ids are shifted by `row_offset` (a super-batch label)
// and whose draws come from the stream of `segment`.
struct SliceColumn {
  int32_t local;
  int32_t row_offset;
  int32_t segment;
};

// The frontier of an extract, A[:, cols] (see sparse/batch.h for labels).
// A one-segment call reads m's columns by global id (through its col id
// map) and the slice keeps m's row space. With several segments m must be
// the base graph and an id is the label segment * n + v (n = m.num_cols());
// the column's rows carry the same label, in a row space of
// num_segments * n rows.
class Frontier {
 public:
  Frontier(const Matrix& m, const IdArray& cols, int64_t num_segments) : columns_(cols.size()) {
    GS_CHECK_GE(num_segments, 1);
    const int64_t n = m.num_cols();
    if (num_segments == 1) {
      const ColLocalizer localizer(m);
      for (int64_t i = 0; i < cols.size(); ++i) {
        columns_[static_cast<size_t>(i)] = {localizer.ToLocal(cols[i]), 0, 0};
      }
      num_rows_ = m.num_rows();
      row_ids_ = m.row_ids();
      return;
    }
    GS_CHECK(!m.has_col_ids()) << "super-batch extract requires the base graph";
    for (int64_t i = 0; i < cols.size(); ++i) {
      const int64_t segment = cols[i] / n;
      GS_CHECK(cols[i] >= 0 && segment < num_segments)
          << "labeled column " << cols[i] << " out of range";
      columns_[static_cast<size_t>(i)] = {static_cast<int32_t>(cols[i] % n),
                                          static_cast<int32_t>(segment * n),
                                          static_cast<int32_t>(segment)};
    }
    num_rows_ = num_segments * n;
  }

  SliceColumn operator[](int64_t i) const { return columns_[static_cast<size_t>(i)]; }
  int64_t size() const { return static_cast<int64_t>(columns_.size()); }
  // Row space of the slice m[:, cols].
  int64_t num_rows() const { return num_rows_; }
  const IdArray& row_ids() const { return row_ids_; }

 private:
  std::vector<SliceColumn> columns_;
  int64_t num_rows_ = 0;
  IdArray row_ids_;
};

// PCIe bytes for touching `bytes` of adjacency data of node `key` on a
// UVA-resident matrix; 0 for device-resident matrices.
inline int64_t UvaCharge(const Matrix& m, uint64_t key, int64_t bytes) {
  return m.IsUva() ? m.uva_cache()->Access(key, bytes) : 0;
}

// Gives a sliced/sampled result the row id map of the row space it was
// read from (the input's, or a frontier's). The compact flag does NOT
// propagate: these kernels drop edges, so rows that were non-empty in the
// input may be empty in the output, and a stale
// rows_compact claim flips RowIds from "rows that still carry edges" to
// "every inherited row" — which would make the node-set outputs depend on
// whether a layout pass happened to compact the input (a plan decision must
// never change sampled results; the differential oracle checks exactly
// this). Kernels that build a fresh row space whose rows are the intended
// node set (collective sample, slice-rows, compact-rows) set the flag
// themselves.
inline void InheritRowSpace(const IdArray& row_ids, Matrix& out) {
  out.SetRowIds(row_ids);
  out.SetRowsCompact(false);
}

// Resolves a row-aligned vector operand that may live in either the
// matrix's local row space (length == num_rows) or the original graph's
// global node space (anything else, indexed through row_ids). This is the
// global-to-local id translation that row compaction (Section 4.3)
// otherwise forces on users.
class RowOperand {
 public:
  RowOperand(const Matrix& m, int64_t operand_rows)
      : RowOperand(m.num_rows(), m.row_ids(), operand_rows) {}

  // A row space of `num_rows` rows whose global ids are `row_ids`
  // (identity when undefined) — e.g. a slice the fused kernels never
  // materialize. `row_ids` must outlive the operand.
  RowOperand(int64_t num_rows, const IdArray& row_ids, int64_t operand_rows)
      : num_rows_(num_rows),
        row_ids_(row_ids.defined() ? row_ids.data() : nullptr),
        operand_rows_(operand_rows),
        local_(operand_rows == num_rows) {
    // Under super-batching the row space is labeled (segment * n + node)
    // while per-node operands keep length n; the label folds away with a
    // modulo, both through an explicit row id map (compacted matrices
    // inherit labeled ids) and in the full labeled space where global ids
    // are the identity and num_rows is a multiple of the operand length.
    GS_CHECK(local_ || row_ids_ != nullptr || (operand_rows > 0 && num_rows % operand_rows == 0))
        << "row operand length " << operand_rows << " does not match num_rows " << num_rows
        << " and the matrix has no row id map";
  }

  int32_t GlobalRowId(int32_t local_row) const {
    return row_ids_ != nullptr ? row_ids_[local_row] : local_row;
  }

  int64_t Index(int32_t local_row) const {
    return local_ ? local_row : GlobalRowId(local_row) % operand_rows_;
  }

  int64_t num_rows() const { return num_rows_; }

 private:
  int64_t num_rows_;
  const int32_t* row_ids_;
  int64_t operand_rows_;
  bool local_;
};

}  // namespace gs::sparse::internal

#endif  // GSAMPLER_SPARSE_KERNELS_INTERNAL_H_
