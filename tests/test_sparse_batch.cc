// Tests for the super-batch (segmented) kernels: labeled id spaces keep
// mini-batches independent, and splitting recovers per-batch results.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/sampling.h"
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

// Solo CollectiveSample rejects negative and NaN row probabilities with a
// typed error; super-batching must not turn such a program into one that
// succeeds by silently skipping those rows.
TEST(SegmentedCollectiveSample, RejectsNegativeAndNanProbabilitiesLikeSolo) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  const IdArray labeled = IdArray::FromVector({0, 1, 2, static_cast<int32_t>(n + 3)});
  const Matrix seg = SegmentedSliceColumns(g.adj(), labeled, 2);
  const Matrix solo = SliceColumns(g.adj(), IdArray::FromVector({0, 1, 2}));
  for (const float bad : {-1.0f, std::numeric_limits<float>::quiet_NaN()}) {
    ValueArray seg_probs = SumAxis(seg, 0);
    seg_probs[seg.Csc().indices[0]] = bad;
    std::vector<Rng> rngs = {Rng(1), Rng(2)};
    EXPECT_THROW(SegmentedCollectiveSample(seg, 4, seg_probs, n, rngs), Error) << bad;

    ValueArray solo_probs = SumAxis(solo, 0);
    solo_probs[solo.Csc().indices[0]] = bad;
    Rng rng(1);
    EXPECT_THROW(CollectiveSample(solo, 4, solo_probs, rng), Error) << bad;
  }
}

// ----------------------------------------- fused layer-wise extract-select

using core::Value;

Value Tensor(ValueArray values) {
  const int64_t size = values.size();
  return Value::OfTensor(tensor::Tensor::FromArray({size}, std::move(values)));
}

// `per_segment` distinct nodes of each of `segments` mini-batches, labeled
// b * n + v.
IdArray LabeledFrontier(int64_t n, int64_t segments, int64_t per_segment, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> ids;
  for (int64_t b = 0; b < segments; ++b) {
    std::vector<int32_t> picked;
    SampleUniformWithoutReplacement(n, per_segment, rng, picked);
    for (int32_t v : picked) {
      ids.push_back(static_cast<int32_t>(b * n + v));
    }
  }
  return IdArray::FromVector(ids);
}

std::vector<Rng> Streams(int64_t segments, uint64_t seed) {
  std::vector<Rng> rngs;
  for (int64_t b = 0; b < segments; ++b) {
    rngs.emplace_back(seed + static_cast<uint64_t>(b));
  }
  return rngs;
}

// The fused kernels against the unfused pairs they replace, bit for bit:
// solo (SliceColumns then CollectiveSample / SumAxis) and segmented
// (SegmentedSliceColumns then SegmentedCollectiveSample / SumAxis), on
// weighted and unweighted graphs, with row probabilities in the slice's
// own row space and per node (folded by modulo). k = 3 draws among the
// candidates; k = 10000 keeps every positive-probability row.
TEST(FusedLayerWise, BitIdenticalToUnfusedPairs) {
  for (const bool weighted : {true, false}) {
    const graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, weighted);
    const Matrix& a = g.adj();
    const int64_t n = g.num_nodes();
    const Matrix squared = EltwiseScalar(a, BinaryOp::kPow, 2.0f);
    const ValueArray degree = SumAxis(a, 0);  // per-node probabilities
    for (const int64_t segments : {int64_t{1}, int64_t{3}}) {
      const IdArray cols = LabeledFrontier(n, segments, 6, 40 + static_cast<uint64_t>(segments));
      const std::string label = std::string(weighted ? "weighted" : "unweighted") +
                                " segments=" + std::to_string(segments);
      const bool solo = segments == 1;
      const Matrix sub = solo ? SliceColumns(a, cols) : SegmentedSliceColumns(a, cols, segments);
      const Matrix sub_squared =
          solo ? SliceColumns(squared, cols) : SegmentedSliceColumns(squared, cols, segments);

      const ValueArray local = SumAxis(sub_squared, 0);
      gs::testing::ExpectBitIdentical({Tensor(FusedSliceReduce(squared, cols, segments))},
                                      {Tensor(local)}, label + " reduce");
      gs::testing::ExpectBitIdentical({Tensor(FusedSliceReduce(a, cols, segments))},
                                      {Tensor(SumAxis(sub, 0))}, label + " reduce of A");

      for (const ValueArray& probs : {local, degree}) {
        for (const int64_t k : {int64_t{3}, int64_t{10000}}) {
          std::vector<Rng> fused_rngs = Streams(segments, 7);
          std::vector<Rng> ref_rngs = Streams(segments, 7);
          const Matrix fused = FusedSliceCollectiveSample(a, cols, k, probs, fused_rngs);
          const Matrix ref = solo ? CollectiveSample(sub, k, probs, ref_rngs[0])
                                  : SegmentedCollectiveSample(sub, k, probs, n, ref_rngs);
          const std::string name = label + " probs=" + std::to_string(probs.size()) +
                                   " k=" + std::to_string(k);
          gs::testing::ExpectBitIdentical({Value::OfMatrix(fused)}, {Value::OfMatrix(ref)},
                                          name);
          EXPECT_TRUE(fused.rows_compact()) << name;
          if (k == 10000) {
            EXPECT_GT(fused.nnz(), 0) << name;  // kept edges carry compared values
          }
          // Both consumed the same draws.
          for (int64_t b = 0; b < segments; ++b) {
            EXPECT_EQ(fused_rngs[static_cast<size_t>(b)].NextU64(),
                      ref_rngs[static_cast<size_t>(b)].NextU64())
                << name;
          }
        }
      }
    }
  }
}

// A solo call on a matrix with its own col and row id maps (a compacted
// slice): cols are global ids localized through the col map, and
// probabilities resolve in the slice's row space or per node through the
// row map, exactly as SliceColumns then CollectiveSample.
TEST(FusedLayerWise, SoloMatrixWithIdMapsMatchesUnfused) {
  const graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, true);
  const Matrix base_cols = CompactRows(SliceColumns(
      g.adj(), IdArray::FromVector({3, 7, 11, 19, 23, 42, 57, 64, 99, 128, 200, 255})));
  ASSERT_TRUE(base_cols.has_col_ids());
  ASSERT_TRUE(base_cols.has_row_ids());
  const IdArray cols = IdArray::FromVector({42, 3, 255, 19, 99});
  const Matrix sub = SliceColumns(base_cols, cols);

  gs::testing::ExpectBitIdentical({Tensor(FusedSliceReduce(base_cols, cols))},
                                  {Tensor(SumAxis(sub, 0))}, "reduce");
  for (const ValueArray& probs : {SumAxis(sub, 0), SumAxis(g.adj(), 0)}) {
    Rng fused_rng(11);
    Rng ref_rng(11);
    const Matrix fused =
        FusedSliceCollectiveSample(base_cols, cols, 2, probs, std::span<Rng>(&fused_rng, 1));
    gs::testing::ExpectBitIdentical({Value::OfMatrix(fused)},
                                    {Value::OfMatrix(CollectiveSample(sub, 2, probs, ref_rng))},
                                    "probs=" + std::to_string(probs.size()));
  }
}

TEST(FusedLayerWise, RejectsNegativeAndNanProbabilities) {
  const graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  for (const int64_t segments : {int64_t{1}, int64_t{2}}) {
    const IdArray cols = LabeledFrontier(n, segments, 4, 5);
    ValueArray probs = FusedSliceReduce(g.adj(), cols, segments);
    for (const float bad : {-0.5f, std::numeric_limits<float>::quiet_NaN()}) {
      probs[5] = bad;  // every row is validated, with or without frontier edges
      std::vector<Rng> rngs = Streams(segments, 3);
      EXPECT_THROW(FusedSliceCollectiveSample(g.adj(), cols, 4, probs, rngs), Error)
          << "segments=" << segments << " p=" << bad;
    }
  }
}

TEST(FusedLayerWise, SegmentedRequiresBaseGraphAndLabelsInRange) {
  const graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  const Matrix sub = SliceColumns(g.adj(), IdArray::FromVector({1, 2}));
  EXPECT_THROW(FusedSliceReduce(sub, IdArray::FromVector({1}), 2), Error);
  EXPECT_THROW(FusedSliceReduce(g.adj(), IdArray::FromVector({static_cast<int32_t>(2 * n)}), 2),
               Error);
  EXPECT_THROW(FusedSliceReduce(g.adj(), IdArray::FromVector({-1}), 2), Error);
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
