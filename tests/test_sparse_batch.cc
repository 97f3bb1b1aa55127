// Tests for super-batch execution in the sparse kernels: a node v of
// mini-batch b carries the label b * n + v, every extract and select kernel
// serves all segments in one launch (a solo call is segment 0), and one
// scatter launch splits the result into each segment's solo result.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/sampling.h"
#include "device/device.h"
#include "feature/hot_set_cache.h"
#include "sparse/batch.h"
#include "sparse/kernels.h"
#include "tests/testing.h"

namespace gs::sparse {
namespace {

using core::Value;
using tensor::IdArray;

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

// Segment b's ids of a labeled array, label removed, in order.
IdArray Unlabeled(const IdArray& labeled, int64_t n, int64_t b) {
  std::vector<int32_t> ids;
  for (int64_t i = 0; i < labeled.size(); ++i) {
    if (labeled[i] / n == b) {
      ids.push_back(static_cast<int32_t>(labeled[i] - b * n));
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

// ------------------------------------------------ one kernel per sampling op

enum class Op {
  kSliceColumns,
  kFusedSliceSample,
  kIndividualSample,
  kIndividualSampleBiased,
  kCollectiveSample,           // per-node row probabilities
  kCollectiveSampleSliceRows,  // row probabilities in the slice's own row space
};

constexpr Op kOps[] = {Op::kSliceColumns,     Op::kFusedSliceSample,
                       Op::kIndividualSample, Op::kIndividualSampleBiased,
                       Op::kCollectiveSample, Op::kCollectiveSampleSliceRows};

bool Collective(Op op) {
  return op == Op::kCollectiveSample || op == Op::kCollectiveSampleSliceRows;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kSliceColumns:
      return "SliceColumns";
    case Op::kFusedSliceSample:
      return "FusedSliceSample";
    case Op::kIndividualSample:
      return "IndividualSample";
    case Op::kIndividualSampleBiased:
      return "IndividualSample(biased)";
    case Op::kCollectiveSample:
      return "CollectiveSample";
    case Op::kCollectiveSampleSliceRows:
      return "CollectiveSample(slice-row probs)";
  }
  return "?";
}

constexpr int64_t kFanout = 3;

// m's structure and id maps, read through `cache` (UVA) or from device
// memory (nullptr).
Matrix Resident(const Matrix& m, feature::HotSetCache* cache) {
  Matrix out = Matrix::FromCsc(m.num_rows(), m.num_cols(), m.Csc());
  out.SetRowIds(m.row_ids());
  out.SetColIds(m.col_ids());
  out.SetUvaCache(cache);
  return out;
}

// Edge probabilities aligned with m's CSC order, a function of each edge's
// node id alone (so labels do not change them); a quarter are zero.
ValueArray EdgeProbs(const Matrix& m, int64_t n) {
  const Compressed& csc = m.Csc();
  ValueArray probs = ValueArray::Empty(m.nnz());
  for (int64_t e = 0; e < m.nnz(); ++e) {
    probs[e] = static_cast<float>(m.GlobalRowId(csc.indices[e]) % n % 4);
  }
  return probs;
}

// Per-node row probabilities (folded through labels by a modulo); a fifth
// are zero.
ValueArray NodeProbs(int64_t n) {
  ValueArray probs = ValueArray::Empty(n);
  for (int64_t v = 0; v < n; ++v) {
    probs[v] = static_cast<float>(v % 5);
  }
  return probs;
}

struct OpRun {
  Matrix out;
  int64_t kernels = 0;
  int64_t hbm_bytes = 0;
  int64_t pcie_bytes = 0;
};

// The result of `call` with the kernels and bytes it charged to the
// current stream.
OpRun Measure(const std::function<Matrix()>& call) {
  device::Stream& stream = device::Current().stream();
  const device::StreamCounters before = stream.counters();
  OpRun run;
  run.out = call();
  const device::StreamCounters after = stream.counters();
  run.kernels = after.kernels_launched - before.kernels_launched;
  run.hbm_bytes = after.hbm_bytes - before.hbm_bytes;
  run.pcie_bytes = after.pcie_bytes - before.pcie_bytes;
  return run;
}

// One call of `op` on the frontier `cols` of a's columns: segments > 1
// means labeled ids with one rng per segment, 1 a solo call (num_nodes 0).
// The kernels that sample an already extracted matrix get A[:, cols],
// sliced before the measured call; slice-row probabilities are its row sums
// (SumAxis(A[:, cols], 0)), taken before the call too. Every matrix the
// call reads goes through `cache` (nullptr: device-resident).
OpRun RunOp(Op op, const Matrix& a, const IdArray& cols, int64_t segments, std::span<Rng> rngs,
            feature::HotSetCache* cache) {
  const int64_t n = a.num_cols();
  const int64_t num_nodes = segments > 1 ? n : 0;
  const bool extracts = op == Op::kSliceColumns || op == Op::kFusedSliceSample;
  const Matrix extracted = extracts ? a : SliceColumns(a, cols, segments);
  const Matrix input = Resident(extracted, cache);
  ValueArray probs;
  if (op == Op::kIndividualSampleBiased) {
    probs = EdgeProbs(input, n);
  } else if (op == Op::kCollectiveSample) {
    probs = NodeProbs(n);
  } else if (op == Op::kCollectiveSampleSliceRows) {
    probs = SumAxis(extracted, 0);
  }
  return Measure([&] {
    switch (op) {
      case Op::kSliceColumns:
        return SliceColumns(input, cols, segments);
      case Op::kFusedSliceSample:
        return FusedSliceSample(input, cols, kFanout, rngs);
      case Op::kIndividualSample:
      case Op::kIndividualSampleBiased:
        return IndividualSample(input, kFanout, probs, rngs, num_nodes);
      case Op::kCollectiveSample:
      case Op::kCollectiveSampleSliceRows:
        return CollectiveSample(input, kFanout, probs, rngs, num_nodes);
    }
    return Matrix{};
  });
}

// A 3-segment call of `op` on g is one launch and equals three solo calls.
// ScatterSegments splits it back, in one more launch, into segments that are
// bit-identical to the solo calls' results; every stream consumed the same
// draws, and the HBM and PCIe bytes are the solo calls' sum (each side reads
// through its own fresh UVA cache, so both see the same access sequence).
void ExpectThreeSegmentsEqualThreeSoloCalls(Op op, const graph::Graph& g, bool uva) {
  constexpr int64_t kSegments = 3;
  const Matrix& a = g.adj();
  const int64_t n = g.num_nodes();
  const IdArray cols = LabeledFrontier(n, kSegments, 8, 21);
  const Compressed& base = a.Csc();
  feature::HotSetCache multi_cache(16);
  feature::HotSetCache solo_cache(16);
  std::vector<Rng> multi_rngs = Streams(kSegments, 5);
  const OpRun multi = RunOp(op, a, cols, kSegments, multi_rngs, uva ? &multi_cache : nullptr);
  EXPECT_EQ(multi.kernels, 1);
  if (!Collective(op)) {
    EXPECT_EQ(multi.out.num_rows(), kSegments * n);
  }
  device::Stream& stream = device::Current().stream();
  const int64_t launched = stream.counters().kernels_launched;
  const std::vector<Matrix> parts = ScatterSegments(multi.out, n, kSegments);
  EXPECT_EQ(stream.counters().kernels_launched - launched, 1);
  ASSERT_EQ(parts.size(), static_cast<size_t>(kSegments));

  std::vector<Rng> solo_rngs = Streams(kSegments, 5);
  int64_t solo_hbm = 0;
  int64_t solo_pcie = 0;
  for (int64_t b = 0; b < kSegments; ++b) {
    const IdArray ids = Unlabeled(cols, n, b);
    const OpRun solo = RunOp(op, a, ids, 1, {&solo_rngs[b], 1}, uva ? &solo_cache : nullptr);
    EXPECT_EQ(solo.kernels, 1);
    solo_hbm += solo.hbm_bytes;
    solo_pcie += solo.pcie_bytes;
    const Matrix& part = parts[static_cast<size_t>(b)];
    EXPECT_TRUE(core::BitIdentical(Value::OfMatrix(part), Value::OfMatrix(solo.out)))
        << "segment " << b;
    EXPECT_EQ(part.rows_compact(), solo.out.rows_compact()) << "segment " << b;
    if (op == Op::kFusedSliceSample || op == Op::kIndividualSample) {
      for (int64_t c = 0; c < part.num_cols(); ++c) {
        const int32_t v = ids[c];
        EXPECT_EQ(part.Csc().indptr[c + 1] - part.Csc().indptr[c],
                  std::min(base.indptr[v + 1] - base.indptr[v], kFanout))
            << "node " << v;
      }
    }
    EXPECT_EQ(multi_rngs[static_cast<size_t>(b)].NextU64(),
              solo_rngs[static_cast<size_t>(b)].NextU64())
        << "segment " << b;
    if (Collective(op)) {
      // Each segment drew its own 1..k rows.
      EXPECT_TRUE(part.rows_compact());
      EXPECT_GT(part.num_rows(), 0);
      EXPECT_LE(part.num_rows(), kFanout);
    }
  }
  EXPECT_EQ(multi.hbm_bytes, solo_hbm);
  EXPECT_EQ(multi.pcie_bytes, solo_pcie);
  if (uva) {
    EXPECT_GT(multi.pcie_bytes, 0);
  }
}

// The merged-kernel table. Its first rows run every op form on weighted and
// unweighted graphs, device-resident and UVA, through the three-segments
// check above. The rest are inputs each kernel rejects with a gs::Error from
// a GS_CHECK, never an internal invariant: a labeled extract from a matrix
// other than the base graph, a label (or id) out of range or without a
// stream, negative or NaN probabilities (row probabilities per node and in
// the slice's row space), solo and segmented alike, and scatters of labels
// out of range or out of segment order, of an identity row space other than
// segments x n, and of an edge outside its segment's row window.
TEST(SuperBatchKernels, OneKernelPerOp) {
  std::vector<std::pair<std::string, std::function<void()>>> rows;
  const graph::Graph weighted = gs::testing::SmallRmat(300, 3000, 9, true);
  const graph::Graph unweighted = gs::testing::SmallRmat(300, 3000, 9, false);
  for (const graph::Graph* g : {&weighted, &unweighted}) {
    for (const bool uva : {false, true}) {
      for (const Op op : kOps) {
        rows.emplace_back(std::string(OpName(op)) + (g == &weighted ? " weighted" : " unweighted") +
                              (uva ? " uva" : " device"),
                          [op, g, uva] { ExpectThreeSegmentsEqualThreeSoloCalls(op, *g, uva); });
      }
    }
  }

  const graph::Graph& g = weighted;
  const Matrix& a = g.adj();
  const int64_t n = g.num_nodes();
  const int32_t n32 = static_cast<int32_t>(n);
  const Matrix sub = SliceColumns(a, IdArray::FromVector({1, 2}));
  const Matrix three = SliceColumns(a, LabeledFrontier(n, 3, 4, 5), 3);
  std::vector<Rng> two = Streams(2, 1);
  // Segment 1's column keeps unlabeled rows, which lie in segment 0's window.
  ASSERT_GT(sub.Csc().indptr[2], sub.Csc().indptr[1]);
  Matrix crossing = Matrix::FromCsc(2 * n, 2, sub.Csc());
  crossing.SetColIds(IdArray::FromVector({1, n32 + 2}));
  auto rejects = [&rows](const std::string& name, std::function<void()> call) {
    rows.emplace_back("rejects " + name, [call] {
      try {
        call();
        ADD_FAILURE() << "no gs::Error thrown";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()).find("[internal invariant]"), std::string::npos)
            << e.what();
      }
    });
  };
  rejects("a slice of a sliced matrix",
          [&] { SliceColumns(sub, IdArray::FromVector({1}), 2); });
  rejects("a slice-sample of a sliced matrix",
          [&] { FusedSliceSample(sub, IdArray::FromVector({1}), kFanout, two); });
  rejects("slice id n", [&] { SliceColumns(a, IdArray::FromVector({n32})); });
  rejects("slice label 2n", [&] { SliceColumns(a, IdArray::FromVector({2 * n32}), 2); });
  rejects("slice label -1", [&] { SliceColumns(a, IdArray::FromVector({-1}), 2); });
  rejects("slice-sample label 2n",
          [&] { FusedSliceSample(a, IdArray::FromVector({2 * n32}), kFanout, two); });
  rejects("slice-sample label -1",
          [&] { FusedSliceSample(a, IdArray::FromVector({-1}), kFanout, two); });
  rejects("an individual-sample label without a stream",
          [&] { IndividualSample(three, kFanout, ValueArray{}, two, n); });
  rejects("a collective-sample label without a stream",
          [&] { CollectiveSample(three, kFanout, NodeProbs(n), two, n); });
  rejects("a scatter of segment 1's column ahead of segment 0's",
          [&] { ScatterSegments(SliceColumns(a, IdArray::FromVector({n32 + 1, 2}), 2), n, 2); });
  rejects("a scatter of labels beyond its segments", [&] { ScatterSegments(three, n, 2); });
  rejects("a scatter of an identity row space other than segments x n",
          [&] { ScatterSegments(sub, n, 2); });
  rejects("a scatter of an edge outside its segment's row window",
          [&] { ScatterSegments(crossing, n, 2); });
  for (const int64_t segments : {int64_t{1}, int64_t{3}}) {
    const Matrix m = SliceColumns(a, LabeledFrontier(n, segments, 4, 5), segments);
    const int64_t num_nodes = segments > 1 ? n : 0;
    for (const float bad : {-1.0f, std::numeric_limits<float>::quiet_NaN()}) {
      const std::string tag = " p=" + std::to_string(bad) + " segments=" + std::to_string(segments);
      rejects("collective" + tag, [m, num_nodes, n, bad, segments] {
        ValueArray probs = NodeProbs(n);
        probs[6] = bad;  // every row is validated, with or without edges
        std::vector<Rng> rngs = Streams(segments, 3);
        CollectiveSample(m, kFanout, probs, rngs, num_nodes);
      });
      rejects("collective slice-row" + tag, [m, num_nodes, bad, segments] {
        ValueArray probs = SumAxis(m, 0);
        probs[6] = bad;
        std::vector<Rng> rngs = Streams(segments, 3);
        CollectiveSample(m, kFanout, probs, rngs, num_nodes);
      });
      rejects("individual biased" + tag, [m, num_nodes, n, bad, segments] {
        ValueArray probs = EdgeProbs(m, n);
        probs[0] = bad;
        std::vector<Rng> rngs = Streams(segments, 3);
        IndividualSample(m, kFanout, probs, rngs, num_nodes);
      });
    }
  }

  for (const auto& [name, check] : rows) {
    SCOPED_TRACE(name);
    check();
  }
}

// ----------------------------------------- fused layer-wise extract-select

Value Tensor(ValueArray values) {
  const int64_t size = values.size();
  return Value::OfTensor(tensor::Tensor::FromArray({size}, std::move(values)));
}

// The fused kernels against the unfused pairs they replace (SliceColumns
// then CollectiveSample / SumAxis), bit for bit, solo and segmented, on
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
      const Matrix sub = SliceColumns(a, cols, segments);
      const Matrix sub_squared = SliceColumns(squared, cols, segments);

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
          const Matrix ref = CollectiveSample(sub, k, probs, ref_rngs, segments > 1 ? n : 0);
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
    const Matrix ref = CollectiveSample(sub, 2, probs, {&ref_rng, 1});
    gs::testing::ExpectBitIdentical({Value::OfMatrix(fused)}, {Value::OfMatrix(ref)},
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

// -------------------------------------------------- the one-launch layer

// The probability matrices of the layer-wise programs: LADIES' A ** 2 and
// AS-GCN's row-scaled A (an edge map with a per-node vector).
std::vector<std::pair<std::string, Matrix>> EdgeMapsOf(const Matrix& a, int64_t n) {
  return {{"pow", EltwiseScalar(a, BinaryOp::kPow, 2.0f)},
          {"row-scaled", Broadcast(a, BinaryOp::kMul, NodeProbs(n), 0)}};
}

// FusedSliceReduceSample against the two fused kernels it replaces
// (FusedSliceReduce, then FusedSliceCollectiveSample) and against the
// unfused chain (SliceColumns, SumAxis, CollectiveSample), bit for bit:
// solo and 3 segments, weighted and unweighted, device-resident and UVA,
// for both edge maps. It launches one kernel where the pair launches two and
// moves the pair's HBM bytes; everything consumed the same draws. (Its PCIe
// bytes are pinned below: through a cache that keeps every column, the
// pair's sample hits the columns its reduce fetched.)
TEST(FusedLayerWise, ReduceSampleIsBitIdenticalToThePairAndTheChain) {
  for (const bool weighted : {true, false}) {
    const graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, weighted);
    const int64_t n = g.num_nodes();
    for (const bool uva : {false, true}) {
      for (const int64_t segments : {int64_t{1}, int64_t{3}}) {
        const IdArray cols = LabeledFrontier(n, segments, 6, 60 + static_cast<uint64_t>(segments));
        for (const int64_t k : {int64_t{3}, int64_t{10000}}) {
          feature::HotSetCache pair_cache(16);
          feature::HotSetCache fused_cache(16);
          const Matrix pair_a = Resident(g.adj(), uva ? &pair_cache : nullptr);
          const Matrix fused_a = Resident(g.adj(), uva ? &fused_cache : nullptr);
          const auto pair_maps = EdgeMapsOf(pair_a, n);
          const auto fused_maps = EdgeMapsOf(fused_a, n);
          for (size_t map = 0; map < pair_maps.size(); ++map) {
            const std::string name = std::string(weighted ? "weighted" : "unweighted") +
                                     (uva ? " uva" : " device") +
                                     " segments=" + std::to_string(segments) +
                                     " k=" + std::to_string(k) + " " + pair_maps[map].first;
            std::vector<Rng> pair_rngs = Streams(segments, 7);
            std::vector<Rng> fused_rngs = Streams(segments, 7);
            std::vector<Rng> chain_rngs = Streams(segments, 7);
            const OpRun pair = Measure([&] {
              const ValueArray probs = FusedSliceReduce(pair_maps[map].second, cols, segments);
              return FusedSliceCollectiveSample(pair_a, cols, k, probs, pair_rngs);
            });
            const OpRun fused = Measure([&] {
              return FusedSliceReduceSample(fused_a, cols, k, fused_maps[map].second, fused_rngs);
            });
            const Matrix chain = CollectiveSample(
                SliceColumns(g.adj(), cols, segments), k,
                SumAxis(SliceColumns(pair_maps[map].second, cols, segments), 0), chain_rngs,
                segments > 1 ? n : 0);
            gs::testing::ExpectBitIdentical({Value::OfMatrix(fused.out)},
                                            {Value::OfMatrix(pair.out)}, name + " vs pair");
            gs::testing::ExpectBitIdentical({Value::OfMatrix(fused.out)},
                                            {Value::OfMatrix(chain)}, name + " vs chain");
            EXPECT_TRUE(fused.out.rows_compact()) << name;
            if (k == 10000) {
              EXPECT_GT(fused.out.nnz(), 0) << name;
            }
            for (int64_t b = 0; b < segments; ++b) {
              const uint64_t next = fused_rngs[static_cast<size_t>(b)].NextU64();
              EXPECT_EQ(next, pair_rngs[static_cast<size_t>(b)].NextU64()) << name;
              EXPECT_EQ(next, chain_rngs[static_cast<size_t>(b)].NextU64()) << name;
            }
            EXPECT_EQ(fused.kernels, 1) << name;
            EXPECT_EQ(pair.kernels, 2) << name;
            EXPECT_EQ(fused.hbm_bytes, pair.hbm_bytes) << name;
            EXPECT_EQ(fused.pcie_bytes > 0, uva) << name;
          }
        }
      }
    }
  }
}

// On a UVA graph whose cache holds one slot, every access to a column other
// than the one read last misses. The pair reads each of t distinct frontier
// columns twice (2t misses): the sample re-reads the indices the reduce
// fetched, 4 bytes per frontier edge. The one-launch layer reads each
// column once (t misses): the reduce's list plus the sample's kept values.
TEST(FusedLayerWise, ReduceSampleReadsEachColumnOnce) {
  for (const bool weighted : {true, false}) {
    const graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, weighted);
    const IdArray cols = LabeledFrontier(g.num_nodes(), 1, 12, 77);
    const Compressed& csc = g.adj().Csc();
    int64_t frontier_edges = 0;
    for (int64_t i = 0; i < cols.size(); ++i) {
      frontier_edges += csc.indptr[cols[i] + 1] - csc.indptr[cols[i]];
    }
    feature::HotSetCache pair_cache(1);
    feature::HotSetCache fused_cache(1);
    const Matrix pair_a = Resident(g.adj(), &pair_cache);
    const Matrix fused_a = Resident(g.adj(), &fused_cache);
    const Matrix pair_m = EltwiseScalar(pair_a, BinaryOp::kPow, 2.0f);
    const Matrix fused_m = EltwiseScalar(fused_a, BinaryOp::kPow, 2.0f);
    Rng pair_rng(3);
    Rng fused_rng(3);
    const OpRun pair = Measure([&] {
      return FusedSliceCollectiveSample(pair_a, cols, 5, FusedSliceReduce(pair_m, cols),
                                        {&pair_rng, 1});
    });
    const OpRun fused =
        Measure([&] { return FusedSliceReduceSample(fused_a, cols, 5, fused_m, {&fused_rng, 1}); });
    const std::string name = weighted ? "weighted" : "unweighted";
    gs::testing::ExpectBitIdentical({Value::OfMatrix(fused.out)}, {Value::OfMatrix(pair.out)},
                                    name);
    EXPECT_EQ(pair_cache.misses(), 2 * cols.size()) << name;
    EXPECT_EQ(fused_cache.misses(), cols.size()) << name;
    EXPECT_EQ(pair_cache.hits() + fused_cache.hits(), 0) << name;
    EXPECT_EQ(pair.pcie_bytes - fused.pcie_bytes, 4 * frontier_edges) << name;
  }
}

// Negative and NaN edge values of the probability matrix make negative or
// NaN row sums, which the shared row selection rejects, solo and
// segmented; so is a probability matrix with another pattern.
TEST(FusedLayerWise, ReduceSampleRejectsNegativeNanAndForeignProbabilities) {
  const graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  for (const int64_t segments : {int64_t{1}, int64_t{2}}) {
    const IdArray cols = LabeledFrontier(n, segments, 4, 5);
    for (const float bad : {-0.5f, std::numeric_limits<float>::quiet_NaN()}) {
      const Matrix m = EltwiseScalar(g.adj(), BinaryOp::kMul, bad);
      std::vector<Rng> rngs = Streams(segments, 3);
      EXPECT_THROW(FusedSliceReduceSample(g.adj(), cols, 4, m, rngs), Error)
          << "segments=" << segments << " p=" << bad;
    }
  }
  const graph::Graph other = gs::testing::SmallRmat(300, 2000, 5);
  Rng rng(3);
  EXPECT_THROW(FusedSliceReduceSample(g.adj(), IdArray::FromVector({1, 2}), 4,
                                      EltwiseScalar(other.adj(), BinaryOp::kPow, 2.0f),
                                      {&rng, 1}),
               Error);
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
