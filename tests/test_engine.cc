// Tests for the SamplerSession engine: compiling and running all 15
// algorithms, pre-computation, super-batch execution, memory budgeting, and
// tensor re-binding.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/trace.h"
#include "device/device.h"
#include "tests/testing.h"

namespace gs::core {
namespace {

using tensor::IdArray;

IdArray Iota(int n, int start = 0) {
  std::vector<int32_t> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(start + i);
  }
  return IdArray::FromVector(v);
}

class AllAlgorithms : public ::testing::TestWithParam<std::string> {};

TEST_P(AllAlgorithms, CompilesAndSamples) {
  const std::string name = GetParam();
  graph::Graph g = gs::testing::SmallRmat(250, 2500, 33, true);
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
  SamplerOptions opts;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts,
                         std::move(ap.relations));
  std::vector<Value> out = sampler.Sample(Iota(16));
  EXPECT_FALSE(out.empty());
  // Any matrix output must reference valid original-graph ids.
  for (const Value& v : out) {
    if (v.kind == ValueKind::kMatrix) {
      for (const auto& [edge, w] : gs::testing::EdgeSet(v.matrix)) {
        EXPECT_GE(edge.first, 0);
        EXPECT_LT(edge.first, g.num_nodes());
        EXPECT_GE(edge.second, 0);
        EXPECT_LT(edge.second, g.num_nodes());
        (void)w;
      }
    }
    if (v.kind == ValueKind::kIds) {
      for (int64_t i = 0; i < v.ids.size(); ++i) {
        EXPECT_LT(v.ids[i], g.num_nodes());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, AllAlgorithms,
                         ::testing::ValuesIn(algorithms::AllAlgorithmNames()));

TEST(Engine, PrecomputesInvariantNodes) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 16});
  SamplerOptions opts;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  // The hoisted A**2 must be marked invariant in the compiled program.
  int invariant_compute = 0;
  for (const Node& n : sampler.program().nodes()) {
    if (n.invariant && n.kind == OpKind::kEltwiseScalar) {
      ++invariant_compute;
    }
  }
  EXPECT_GE(invariant_compute, 1);
  EXPECT_NE(sampler.DebugString().find("precomputed="), std::string::npos);
}

TEST(Engine, OptimizationReportCountsPasses) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 16});
  SamplerOptions opts;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  OptimizationReport before = sampler.report();
  EXPECT_GE(before.hoisted_ops, 2);             // A**2 hoisted in both layers
  EXPECT_GE(before.edge_map_reduce_fusions, 2); // normalization chains fused
  EXPECT_GE(before.cse_merged, 1);              // the hoisted A**2 deduped
  EXPECT_GE(before.precomputed_values, 1);
  EXPECT_EQ(before.annotated_layouts, 0);       // layouts not calibrated yet
  sampler.Sample(Iota(8));
  EXPECT_FALSE(sampler.report().ToString().empty());

  algorithms::AlgorithmProgram sage = algorithms::GraphSage(g, {.fanouts = {4}});
  SamplerOptions off;
  off.enable_fusion = false;
  off.enable_preprocessing = false;
  SamplerSession plain(std::move(sage.program), g, std::move(sage.tensors), off);
  OptimizationReport none = plain.report();
  EXPECT_EQ(none.extract_select_fusions, 0);
  EXPECT_EQ(none.hoisted_ops, 0);
}

TEST(Engine, SuperBatchSplitsMatchFrontiers) {
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 55, true);
  algorithms::AlgorithmProgram ap =
      algorithms::GraphSage(g, {.fanouts = {3, 2}, .include_seeds = false});
  SamplerOptions opts;
  opts.super_batch = 4;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  int batches = 0;
  sampler.SampleEpoch(Iota(64), 8, [&](int64_t index, std::vector<Value>& out) {
    ++batches;
    ASSERT_EQ(out.size(), 3u);
    // Layer-1 columns must be exactly this mini-batch's seeds.
    const sparse::Matrix& layer1 = out[0].matrix;
    ASSERT_EQ(layer1.num_cols(), 8);
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_EQ(layer1.GlobalColId(static_cast<int32_t>(c)),
                static_cast<int32_t>(index * 8 + c));
    }
    // Fanout bound per column.
    const sparse::Compressed& csc = layer1.Csc();
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_LE(csc.indptr[c + 1] - csc.indptr[c], 3);
    }
    // All ids are back in the original space.
    for (const auto& [edge, w] : gs::testing::EdgeSet(out[1].matrix)) {
      EXPECT_LT(edge.first, g.num_nodes());
      (void)w;
    }
    for (int64_t i = 0; i < out[2].ids.size(); ++i) {
      EXPECT_LT(out[2].ids[i], g.num_nodes());
    }
  });
  EXPECT_EQ(batches, 8);
}

TEST(Engine, SuperBatchLayerWise) {
  graph::Graph g = gs::testing::SmallRmat(300, 3000, 77, true);
  algorithms::AlgorithmProgram ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 12});
  SamplerOptions opts;
  opts.super_batch = 2;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  int batches = 0;
  sampler.SampleEpoch(Iota(32), 8, [&](int64_t, std::vector<Value>& out) {
    ++batches;
    // Layer width bound holds per batch (not 2x): batches stay independent.
    const sparse::Matrix& w2 = out[0].matrix;
    EXPECT_LE(w2.num_rows(), 12);
  });
  EXPECT_EQ(batches, 4);
}

// The plain-run output contract: every member of a labeled run gets bit for
// bit what a plain run of its frontier on its own stream returns, in the
// program's own row space. So for every algorithm an epoch at super_batch 8
// or 9 equals one at super_batch 1 (ids with their -1 markers, matrices with
// their row space and id maps), and a producer resumed from a checkpoint
// taken inside a group reproduces the rest of the epoch. Super-batch 9
// leaves a trailing group of one, which runs as a one-segment labeled run.
TEST(Engine, SuperBatchIsBitIdenticalToSolo) {
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 11);
  const IdArray seeds = Iota(150);  // 19 batches: groups of 8, 8 and 3, or 9, 9 and 1
  for (const std::string& name : algorithms::AllAlgorithmNames()) {
    // Delivers `cut` batches, checkpoints, and drains a resumed producer.
    auto epoch = [&](int super_batch, int64_t cut) {
      algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
      SamplerOptions opts;
      opts.super_batch = super_batch;
      SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts,
                             std::move(ap.relations));
      EXPECT_TRUE(sampler.Coalescable()) << name;
      std::vector<std::vector<Value>> batches;
      BatchProducer producer(sampler, seeds, 8);
      EpochBatch batch;
      while (static_cast<int64_t>(batches.size()) < cut && producer.Next(&batch)) {
        batches.push_back(std::move(batch.outputs));
      }
      BatchProducer resumed(sampler, seeds, 8);
      resumed.Resume(producer.Save());
      while (resumed.Next(&batch)) {
        batches.push_back(std::move(batch.outputs));
      }
      return batches;
    };
    const auto solo = epoch(1, 19);
    ASSERT_EQ(solo.size(), 19u) << name;
    for (const auto& grouped : {epoch(8, 19), epoch(8, 11), epoch(9, 19)}) {
      ASSERT_EQ(grouped.size(), solo.size()) << name;
      for (size_t b = 0; b < solo.size(); ++b) {
        ASSERT_EQ(grouped[b].size(), solo[b].size()) << name;
        for (size_t o = 0; o < solo[b].size(); ++o) {
          EXPECT_TRUE(BitIdentical(grouped[b][o], solo[b][o]))
              << name << " batch " << b << " output " << o;
        }
      }
    }
  }
}

// A walk from anywhere but the frontier, here a sample's rows, marks a dead
// end with a -1 that carries no label, so nothing could tell which member of
// a group it belongs to. Its plan is not super-batch eligible: an epoch at
// super_batch 8 runs every batch plain, -1 markers in place, and equals one
// at super_batch 1.
TEST(Engine, WalksFromOtherStartsRunUngrouped) {
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 11);
  auto epoch = [&g](int super_batch) {
    Builder b;
    MVal a = b.Graph();
    IVal cur = a.Cols(b.Frontier()).IndividualSample(4).Row();
    for (int step = 0; step < 3; ++step) {
      cur = b.WalkStep(a, cur);
    }
    b.Output(cur);
    SamplerOptions opts;
    opts.super_batch = super_batch;
    SamplerSession sampler(std::move(b).Build(), g, {}, opts);
    EXPECT_FALSE(sampler.Coalescable());
    std::vector<IdArray> walks;
    BatchProducer producer(sampler, Iota(64), 8);
    EpochBatch batch;
    while (producer.Next(&batch)) {
      walks.push_back(batch.outputs[0].ids);
    }
    return walks;
  };
  const std::vector<IdArray> solo = epoch(1);
  const std::vector<IdArray> grouped = epoch(8);
  ASSERT_EQ(grouped.size(), solo.size());
  int64_t dead = 0;
  for (size_t b = 0; b < solo.size(); ++b) {
    dead += std::count(solo[b].data(), solo[b].data() + solo[b].size(), -1);
    EXPECT_TRUE(BitIdentical(Value::OfIds(grouped[b]), Value::OfIds(solo[b]))) << "batch " << b;
  }
  EXPECT_GT(dead, 0) << "the walks should hit dead ends";
}

// The plain run's kernels and model clock per algorithm: one 64-seed
// Sample on SmallRmat(400, 4000, 11) under V100Sim. A change that adds a
// launch to any algorithm fails here; one that removes a launch updates its
// row.
struct PlainRunCost {
  int64_t kernels;
  int64_t model_ns;
};
const std::map<std::string, PlainRunCost>& PlainRunGoldens() {
  static const std::map<std::string, PlainRunCost> goldens = {
      {"DeepWalk", {1, 7280}},    {"GraphSAINT", {5, 31319}}, {"PinSAGE", {12, 72634}},
      {"HetGNN", {42, 252803}},   {"GraphSAGE", {2, 13113}},  {"VR-GCN", {2, 12129}},
      {"SEAL", {10, 64566}},      {"ShaDow", {6, 38454}},     {"Node2Vec", {2, 13280}},
      {"GCN-BS", {4, 26306}},     {"Thanos", {4, 26306}},     {"PASS", {24, 177505}},
      {"FastGCN", {6, 39126}},    {"AS-GCN", {8, 53140}},     {"LADIES", {8, 53140}},
  };
  return goldens;
}

// On V100Sim a seeded request, a one-member labeled run, launches exactly
// the kernels Sample launches for the same frontier, for every algorithm,
// and Sample costs what PlainRunGoldens says; a 3-member GraphSAGE {10,5}
// group launches those plus one scatter kernel per matrix output.
TEST(Engine, LabeledRunsLaunchThePlainRunsKernels) {
  device::Device v100(device::V100Sim());
  device::DeviceGuard guard(v100);
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 11);
  const IdArray frontier = Iota(64);
  auto launches = [&v100](const std::function<void()>& run) {
    const int64_t before = v100.stream().counters().kernels_launched;
    run();
    return v100.stream().counters().kernels_launched - before;
  };
  for (const std::string& name : algorithms::AllAlgorithmNames()) {
    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
    SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), SamplerOptions{},
                           std::move(ap.relations));
    sampler.Warmup(frontier);
    const int64_t model_before = v100.stream().counters().model_ns;
    const int64_t plain = launches([&] { sampler.Sample(frontier); });
    const int64_t model_ns = v100.stream().counters().model_ns - model_before;
    EXPECT_EQ(plain, PlainRunGoldens().at(name).kernels) << name;
    EXPECT_EQ(model_ns, PlainRunGoldens().at(name).model_ns) << name;
    EXPECT_EQ(launches([&] { sampler.SampleSeeded(frontier, 7); }), plain) << name;
    EXPECT_EQ(launches([&] { sampler.SampleSeeded(frontier, 8); }), plain) << name;
  }

  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {10, 5}});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), SamplerOptions{});
  sampler.Warmup(frontier);
  int64_t matrices = 0;
  const int64_t plain = launches([&] {
    for (const Value& v : sampler.Sample(frontier)) {
      matrices += v.kind == ValueKind::kMatrix ? 1 : 0;
    }
  });
  EXPECT_EQ(matrices, 2);
  const std::vector<IdArray> group = {frontier, Iota(64, 64), Iota(64, 128)};
  EXPECT_EQ(launches([&] { sampler.SampleGrouped(group, {1, 2, 3}, [](int64_t, auto&) {}); }),
            plain + matrices);
}

// Regression: greedy layout (`--no-layout`, the layout ablation's DGL-like
// bar) converted every `row_ids` input to COO, also when the `row_ids`
// returned a marked sample's node set without a launch. A greedy GraphSAGE
// `Sample` launched 4 kernels (2 samples, 2 COO conversions); it launches
// the planned mode's 2.
TEST(Engine, GreedyLayoutConvertsOnlyForRowIdsThatLaunch) {
  device::Device v100(device::V100Sim());
  device::DeviceGuard guard(v100);
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 11);
  const IdArray frontier = Iota(64);
  SamplerOptions options;
  options.enable_layout_selection = false;
  ASSERT_TRUE(options.greedy_when_layout_disabled);
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {10, 5}});
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), options);
  sampler.Warmup(frontier);
  const int64_t before = v100.stream().counters().kernels_launched;
  sampler.Sample(frontier);
  EXPECT_EQ(v100.stream().counters().kernels_launched - before, 2);
}

// FNV-1a over every id of every output, in order: pins an output stream to
// the bit, -1 dead-end markers included.
uint64_t IdsDigest(const std::vector<Value>& outputs) {
  uint64_t h = 1469598103934665603ull;
  for (const Value& v : outputs) {
    for (int64_t i = 0; i < v.ids.size(); ++i) {
      h = (h ^ static_cast<uint32_t>(v.ids[i])) * 1099511628211ull;
    }
  }
  return h;
}

// Golden digests of seeded DeepWalk and Node2Vec walks. A walker draws from
// its segment's stream and a solo request is one segment, so SampleSeeded
// consumes the seed's stream in frontier order; the digests pin that stream.
TEST(Engine, SeededWalkStreamsArePinned) {
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 11);
  const std::vector<std::pair<std::string, uint64_t>> goldens = {
      {"DeepWalk", 0x3bbd405a210f8c2full}, {"Node2Vec", 0xe5076fa5ffcfd716ull}};
  for (const auto& [name, digest] : goldens) {
    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
    SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), SamplerOptions{});
    sampler.Warmup(Iota(4));
    const std::vector<Value> out = sampler.SampleSeeded(Iota(64), 2026);
    int64_t dead = 0;
    for (const Value& step : out) {
      dead += std::count(step.ids.data(), step.ids.data() + step.ids.size(), -1);
    }
    EXPECT_GT(dead, 0) << name << " walks should hit dead ends";
    EXPECT_EQ(IdsDigest(out), digest) << name << std::hex << " digest 0x" << IdsDigest(out);
  }
}

TEST(Engine, AutoSuperBatchRespectsMemoryBudget) {
  graph::Graph g = gs::testing::SmallRmat(300, 3000, 88, true);
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  SamplerOptions opts;
  opts.super_batch = 0;                  // auto grid search
  opts.memory_budget_bytes = 64 * 1024;  // tiny budget -> small super-batch
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  sampler.SampleEpoch(Iota(64), 8, nullptr);
  EXPECT_GE(sampler.effective_super_batch(), 1);
  EXPECT_LE(sampler.effective_super_batch(), 8);
}

TEST(Engine, BindTensorRefreshesBias) {
  // GCN-BS with bandit weights concentrated on a single edge per column
  // must sample exactly that edge when k=1.
  graph::Graph g = gs::testing::SmallRmat(100, 1200, 99, false);
  algorithms::AlgorithmProgram ap = algorithms::GcnBs(g, {.fanouts = {1}});
  SamplerOptions opts;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  // Weight vector: ~0 everywhere except the first edge of each column.
  tensor::Tensor biased = tensor::Tensor::Full({g.num_edges()}, 1e-8f);
  const sparse::Compressed& csc = g.adj().Csc();
  for (int64_t c = 0; c < g.num_nodes(); ++c) {
    if (csc.indptr[c + 1] > csc.indptr[c]) {
      biased.at(csc.indptr[c]) = 1.0f;
    }
  }
  sampler.BindTensor("bandit_w", biased);
  std::vector<Value> out = sampler.Sample(Iota(10, 1));
  const sparse::Matrix& sample = out[0].matrix;
  const sparse::Compressed& s = sample.Csc();
  for (int64_t c = 0; c < sample.num_cols(); ++c) {
    const int32_t col_global = sample.GlobalColId(static_cast<int32_t>(c));
    if (s.indptr[c + 1] > s.indptr[c]) {
      EXPECT_EQ(s.indices[s.indptr[c]], csc.indices[csc.indptr[col_global]]);
    }
  }
}

TEST(Engine, EpochWithoutSuperBatchEqualsPerBatchSampling) {
  // SampleEpoch with super_batch = 1 must behave exactly like calling
  // Sample per mini-batch (same rng stream, same results).
  graph::Graph g = gs::testing::SmallRmat();
  SamplerOptions opts;
  opts.super_batch = 1;

  algorithms::AlgorithmProgram ap1 = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerSession epoch_sampler(std::move(ap1.program), g, std::move(ap1.tensors), opts);
  std::vector<std::map<std::pair<int32_t, int32_t>, float>> from_epoch;
  epoch_sampler.SampleEpoch(Iota(24), 8, [&](int64_t, std::vector<Value>& out) {
    from_epoch.push_back(gs::testing::EdgeSet(out[0].matrix));
  });

  algorithms::AlgorithmProgram ap2 = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerSession batch_sampler(std::move(ap2.program), g, std::move(ap2.tensors), opts);
  for (int b = 0; b < 3; ++b) {
    std::vector<Value> out = batch_sampler.Sample(Iota(8, b * 8));
    EXPECT_EQ(gs::testing::EdgeSet(out[0].matrix), from_epoch[static_cast<size_t>(b)])
        << "batch " << b;
  }
}

TEST(Engine, SuperBatchStatisticallyMatchesPerBatch) {
  // Super-batched GraphSAGE must sample the same expected number of edges
  // per mini-batch as sequential sampling (independence across segments).
  graph::Graph g = gs::testing::SmallRmat(300, 6000, 3, true);
  auto mean_edges = [&](int super_batch) {
    algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {5}});
    SamplerOptions opts;
    opts.super_batch = super_batch;
    opts.seed = 99 + static_cast<uint64_t>(super_batch);
    SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
    int64_t edges = 0;
    int64_t batches = 0;
    sampler.SampleEpoch(Iota(128), 16, [&](int64_t, std::vector<Value>& out) {
      edges += out[0].matrix.nnz();
      ++batches;
    });
    EXPECT_EQ(batches, 8);
    return static_cast<double>(edges) / static_cast<double>(batches);
  };
  const double sequential = mean_edges(1);
  const double batched = mean_edges(8);
  EXPECT_NEAR(batched, sequential, sequential * 0.05);
}

TEST(BatchProducer, EmptySeedSetYieldsNoBatches) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerOptions opts;
  opts.super_batch = 4;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  BatchProducer producer(sampler, IdArray::Empty(0), 8);
  EXPECT_EQ(producer.num_batches(), 0);
  EpochBatch batch;
  EXPECT_FALSE(producer.Next(&batch));
  EXPECT_FALSE(producer.Next(&batch));  // stays exhausted
  int callbacks = 0;
  sampler.SampleEpoch(IdArray::Empty(0), 8,
                      [&](int64_t, std::vector<Value>&) { ++callbacks; });
  EXPECT_EQ(callbacks, 0);
}

TEST(BatchProducer, FinalPartialBatchMatchesSoloSampling) {
  // 27 seeds at batch size 8: three full batches plus a final partial batch
  // of 3. Grouped into a super-batch of 4, every batch — including the
  // partial one — must equal what solo per-batch sampling produces.
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 55, true);
  SamplerOptions grouped_opts;
  grouped_opts.super_batch = 4;
  algorithms::AlgorithmProgram ap1 = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  SamplerSession grouped(std::move(ap1.program), g, std::move(ap1.tensors), grouped_opts);

  SamplerOptions solo_opts;
  solo_opts.super_batch = 1;
  algorithms::AlgorithmProgram ap2 = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  SamplerSession solo(std::move(ap2.program), g, std::move(ap2.tensors), solo_opts);

  const IdArray seeds = Iota(27);
  BatchProducer producer(grouped, seeds, 8);
  EXPECT_EQ(producer.num_batches(), 4);

  std::vector<EpochBatch> grouped_batches;
  EpochBatch batch;
  while (producer.Next(&batch)) {
    grouped_batches.push_back(std::move(batch));
    batch = EpochBatch{};
  }
  ASSERT_EQ(grouped_batches.size(), 4u);
  EXPECT_EQ(grouped_batches.back().seeds.size(), 3);

  size_t b = 0;
  solo.SampleEpoch(seeds, 8, [&](int64_t index, std::vector<Value>& out) {
    ASSERT_LT(b, grouped_batches.size());
    EXPECT_EQ(grouped_batches[b].index, index);
    ASSERT_EQ(grouped_batches[b].outputs.size(), out.size());
    for (size_t o = 0; o < out.size(); ++o) {
      const Value& got = grouped_batches[b].outputs[o];
      const Value& want = out[o];
      ASSERT_EQ(got.kind, want.kind);
      if (want.kind == ValueKind::kMatrix) {
        EXPECT_EQ(gs::testing::EdgeSet(got.matrix), gs::testing::EdgeSet(want.matrix));
      } else if (want.kind == ValueKind::kIds) {
        ASSERT_EQ(got.ids.size(), want.ids.size());
        for (int64_t i = 0; i < want.ids.size(); ++i) {
          EXPECT_EQ(got.ids[i], want.ids[i]);
        }
      }
    }
    ++b;
  });
  EXPECT_EQ(b, 4u);
}

TEST(BatchProducer, SeedSetSmallerThanBatchSize) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerOptions opts;
  opts.super_batch = 4;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  BatchProducer producer(sampler, Iota(3), 64);
  EXPECT_EQ(producer.num_batches(), 1);
  EpochBatch batch;
  ASSERT_TRUE(producer.Next(&batch));
  EXPECT_EQ(batch.seeds.size(), 3);
  EXPECT_FALSE(batch.outputs.empty());
  EXPECT_FALSE(producer.Next(&batch));
}

TEST(Engine, MissingTensorBindingThrows) {
  graph::Graph g = gs::testing::SmallRmat();
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  TVal w = b.Input("missing");
  b.Output(a.Cols(f).Mul(w, 0));
  Program p = std::move(b).Build();
  SamplerOptions opts;
  opts.enable_preprocessing = false;
  opts.enable_layout_selection = false;
  SamplerSession sampler(std::move(p), g, {}, opts);
  EXPECT_THROW(sampler.Sample(Iota(4)), Error);
}

TEST(Engine, EmptyFrontierProducesEmptySample) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerOptions opts;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  std::vector<Value> out = sampler.Sample(IdArray::FromVector(std::vector<int32_t>{}));
  EXPECT_EQ(out[0].matrix.num_cols(), 0);
  EXPECT_EQ(out[0].matrix.nnz(), 0);
}

TEST(Engine, UvaGraphChargesPcie) {
  graph::RMatParams params;
  params.num_nodes = 300;
  params.num_edges = 3000;
  params.uva = true;
  params.seed = 3;
  graph::Graph g = graph::MakeRMatGraph(params);
  ASSERT_TRUE(g.uva());
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  SamplerOptions opts;
  SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  const int64_t before = device::Current().stream().counters().pcie_bytes;
  sampler.Sample(Iota(16));
  EXPECT_GT(device::Current().stream().counters().pcie_bytes, before);
}

}  // namespace
}  // namespace gs::core
