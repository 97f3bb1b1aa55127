// Tests for the super-batch (segmented) kernels: labeled id spaces keep
// mini-batches independent, and splitting recovers per-batch results.

#include <gtest/gtest.h>

#include "common/error.h"
#include "sparse/batch.h"
#include "sparse/kernels.h"
#include "tests/testing.h"

namespace gs::sparse {
namespace {

using gs::testing::EdgeSet;
using tensor::IdArray;

TEST(SegmentedSliceColumns, MatchesPerBatchSlices) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  std::vector<int32_t> batch0 = {1, 2, 3};
  std::vector<int32_t> batch1 = {2, 5};

  std::vector<int32_t> labeled;
  for (int32_t v : batch0) {
    labeled.push_back(v);
  }
  for (int32_t v : batch1) {
    labeled.push_back(static_cast<int32_t>(n + v));
  }
  Matrix seg = SegmentedSliceColumns(g.adj(), IdArray::FromVector(labeled), 2);
  EXPECT_EQ(seg.num_rows(), 2 * n);
  EXPECT_EQ(seg.num_cols(), 5);

  // Split back and compare with plain slices (labels mod n).
  Matrix part0 = SliceColumnRange(seg, 0, 3);
  Matrix ref0 = SliceColumns(g.adj(), IdArray::FromVector(batch0));
  auto strip = [&](const Matrix& m) {
    std::map<std::pair<int32_t, int32_t>, float> out;
    for (const auto& [edge, w] : EdgeSet(m)) {
      out[{static_cast<int32_t>(edge.first % n), static_cast<int32_t>(edge.second % n)}] = w;
    }
    return out;
  };
  EXPECT_EQ(strip(part0), EdgeSet(ref0));

  Matrix part1 = SliceColumnRange(seg, 3, 5);
  Matrix ref1 = SliceColumns(g.adj(), IdArray::FromVector(batch1));
  EXPECT_EQ(strip(part1), EdgeSet(ref1));

  // Segment 1's rows are all labeled into its own id space.
  for (const auto& [edge, w] : EdgeSet(part1)) {
    EXPECT_GE(edge.first, n);
    (void)w;
  }
}

TEST(SegmentedSliceColumns, RejectsNonBaseMatrix) {
  graph::Graph g = gs::testing::SmallRmat();
  Matrix sub = SliceColumns(g.adj(), IdArray::FromVector({1, 2}));
  EXPECT_THROW(SegmentedSliceColumns(sub, IdArray::FromVector({1}), 1), Error);
}

TEST(SegmentedFusedSliceSample, FanoutPerLabeledColumn) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  IdArray labeled = IdArray::FromVector(
      {1, 2, static_cast<int32_t>(n + 1), static_cast<int32_t>(n + 9)});
  std::vector<Rng> rngs = {Rng(157), Rng(158)};
  Matrix sample = SegmentedFusedSliceSample(g.adj(), labeled, 2, 3, rngs);
  EXPECT_EQ(sample.num_cols(), 4);
  const Compressed& csc = sample.Csc();
  const Compressed& base = g.adj().Csc();
  for (int64_t c = 0; c < 4; ++c) {
    const int32_t node = labeled[c] % static_cast<int32_t>(n);
    const int64_t deg = base.indptr[node + 1] - base.indptr[node];
    EXPECT_EQ(csc.indptr[c + 1] - csc.indptr[c], std::min<int64_t>(deg, 3));
    // Edges stay in the column's segment id space.
    const int64_t segment = labeled[c] / n;
    for (int64_t e = csc.indptr[c]; e < csc.indptr[c + 1]; ++e) {
      EXPECT_EQ(csc.indices[e] / n, segment);
    }
  }
}

TEST(SegmentedCollectiveSample, SamplesWithinEachSegment) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  IdArray labeled = IdArray::FromVector({0, 1, 2, static_cast<int32_t>(n + 0),
                                         static_cast<int32_t>(n + 3)});
  Matrix seg = SegmentedSliceColumns(g.adj(), labeled, 2);
  ValueArray probs = SumAxis(seg, 0);
  std::vector<Rng> rngs = {Rng(163), Rng(164)};
  Matrix sample = SegmentedCollectiveSample(seg, 4, probs, n, rngs);
  EXPECT_TRUE(sample.rows_compact());
  // At most 4 rows per segment, each within its own id space.
  int64_t per_segment[2] = {0, 0};
  for (int64_t i = 0; i < sample.row_ids().size(); ++i) {
    const int64_t s = sample.row_ids()[i] / n;
    ASSERT_LT(s, 2);
    ++per_segment[s];
  }
  EXPECT_LE(per_segment[0], 4);
  EXPECT_LE(per_segment[1], 4);
  EXPECT_GT(per_segment[0], 0);
  EXPECT_GT(per_segment[1], 0);
}

TEST(SliceColumnRange, PreservesMetadata) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({4, 5, 6, 7});
  Matrix sub = SliceColumns(g.adj(), cols);
  Matrix range = SliceColumnRange(sub, 1, 3);
  EXPECT_EQ(range.num_cols(), 2);
  ASSERT_TRUE(range.has_col_ids());
  EXPECT_EQ(range.col_ids()[0], 5);
  EXPECT_EQ(range.col_ids()[1], 6);
  EXPECT_THROW(SliceColumnRange(sub, 3, 1), Error);
  EXPECT_THROW(SliceColumnRange(sub, 0, 9), Error);
}

TEST(MapIdsModulo, WrapsAndKeepsNegatives) {
  IdArray ids = IdArray::FromVector({5, 105, -1, 205});
  IdArray out = MapIdsModulo(ids, 100);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(out[2], -1);
  EXPECT_EQ(out[3], 5);
}

}  // namespace
}  // namespace gs::sparse
