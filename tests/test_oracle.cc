// Oracle tier: differential plan verification across the full algorithm x
// dataset x device-profile matrix, statistical-test machinery units, and
// distribution tests for the sampling primitives.

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "common/sampling.h"
#include "core/executor.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "oracle/oracle.h"
#include "oracle/stats.h"
#include "sparse/kernels.h"
#include "tests/testing.h"

namespace gs::oracle {
namespace {

// ------------------------------------------------------------ stats units

TEST(Stats, ChiSquarePValueKnownPoints) {
  // Classic table entries: chi2(1) upper tail at 3.841 is 5%.
  EXPECT_NEAR(ChiSquarePValue(3.841, 1), 0.05, 2e-3);
  EXPECT_NEAR(ChiSquarePValue(9.488, 4), 0.05, 2e-3);
  EXPECT_NEAR(ChiSquarePValue(0.0, 3), 1.0, 1e-12);
  EXPECT_LT(ChiSquarePValue(100.0, 3), 1e-12);
  // dof <= 0 degenerates to "no test".
  EXPECT_EQ(ChiSquarePValue(5.0, 0), 1.0);
}

TEST(Stats, RegularizedGammaQBounds) {
  EXPECT_EQ(RegularizedGammaQ(2.0, 0.0), 1.0);
  // Q(1, x) = e^-x exactly.
  for (double x : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaQ(1.0, x), std::exp(-x), 1e-10);
  }
}

TEST(Stats, GoodnessOfFitAcceptsMatchingCounts) {
  // Counts exactly proportional to the probabilities: statistic 0.
  std::vector<int64_t> observed = {100, 200, 300, 400};
  std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  const TestResult r = ChiSquareGoodnessOfFit(observed, probs);
  EXPECT_NEAR(r.statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-12);
}

TEST(Stats, GoodnessOfFitRejectsSkew) {
  std::vector<int64_t> observed = {400, 100, 300, 200};
  std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  const TestResult r = ChiSquareGoodnessOfFit(observed, probs);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(Stats, GoodnessOfFitPoolsSparseTail) {
  // 60 categories with tiny expected counts must be pooled, not fed to the
  // chi-square approximation raw.
  std::vector<int64_t> observed(60, 1);
  std::vector<double> probs(60, 1.0 / 60.0);
  const TestResult r = ChiSquareGoodnessOfFit(observed, probs, 5.0);
  EXPECT_GT(r.dof, 0);
  EXPECT_LT(r.dof, 59);  // pooling reduced the cell count
  EXPECT_GT(r.p_value, 0.5);
}

TEST(Stats, HomogeneityAcceptsSameDistribution) {
  Rng rng(11);
  std::vector<int64_t> a(20, 0);
  std::vector<int64_t> b(20, 0);
  for (int t = 0; t < 20000; ++t) {
    a[rng.UniformInt(20)] += 1;
    b[rng.UniformInt(20)] += 1;
  }
  const TestResult r = ChiSquareHomogeneity(a, b);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(Stats, HomogeneityRejectsDifferentDistributions) {
  Rng rng(13);
  std::vector<int64_t> a(20, 0);
  std::vector<int64_t> b(20, 0);
  for (int t = 0; t < 20000; ++t) {
    a[rng.UniformInt(20)] += 1;
    b[rng.UniformInt(10)] += 1;  // b concentrated on half the categories
  }
  const TestResult r = ChiSquareHomogeneity(a, b);
  EXPECT_LT(r.p_value, 1e-9);
}

TEST(Stats, KolmogorovSmirnovSeparatesShiftedSamples) {
  Rng rng(17);
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  for (int t = 0; t < 4000; ++t) {
    a.push_back(rng.Uniform());
    b.push_back(rng.Uniform());
    c.push_back(rng.Uniform() + 0.2);
  }
  EXPECT_GT(KolmogorovSmirnov(a, b).p_value, 0.01);
  EXPECT_LT(KolmogorovSmirnov(a, c).p_value, 1e-9);
}

// ----------------------------------------------- sampling primitives (dist)

TEST(Primitives, OracleSuiteIsClean) {
  for (const CheckResult& check : VerifySamplingPrimitives(0x5EED01)) {
    EXPECT_TRUE(check.ok) << check.ToString();
  }
}

TEST(Primitives, AliasTableMatchesAnalyticInclusion) {
  // Satellite: alias-table distribution vs the analytic probabilities, with
  // a real p-value instead of a fixed statistic threshold.
  const std::vector<float> weights = {0.5f, 1.5f, 3.0f, 5.0f, 0.1f};
  AliasTable table{std::span<const float>(weights)};
  Rng rng(101);
  std::vector<int64_t> counts(weights.size(), 0);
  constexpr int64_t kTrials = 50000;
  for (int64_t t = 0; t < kTrials; ++t) {
    counts[static_cast<size_t>(table.Sample(rng))] += 1;
  }
  double total = 0.0;
  for (float w : weights) {
    total += w;
  }
  std::vector<double> probs;
  for (float w : weights) {
    probs.push_back(w / total);
  }
  const TestResult r = ChiSquareGoodnessOfFit(counts, probs);
  EXPECT_GT(r.p_value, 0.01) << "stat=" << r.statistic << " dof=" << r.dof;
}

TEST(Primitives, WeightedWithoutReplacementMatchesEnumeratedPairs) {
  // Satellite: Efraimidis-Spirakis selection frequencies vs exactly
  // enumerated sequential-sampling pair probabilities (they define the same
  // distribution).
  const std::vector<float> weights = {1.0f, 2.0f, 3.0f, 4.0f};
  double total = 10.0;
  std::vector<double> probs;
  std::vector<std::pair<int32_t, int32_t>> pairs;
  for (size_t a = 0; a < weights.size(); ++a) {
    for (size_t b = a + 1; b < weights.size(); ++b) {
      const double wa = weights[a];
      const double wb = weights[b];
      probs.push_back(wa / total * wb / (total - wa) + wb / total * wa / (total - wb));
      pairs.emplace_back(static_cast<int32_t>(a), static_cast<int32_t>(b));
    }
  }
  Rng rng(103);
  std::vector<int64_t> counts(pairs.size(), 0);
  std::vector<int32_t> picks;
  constexpr int64_t kTrials = 30000;
  for (int64_t t = 0; t < kTrials; ++t) {
    picks.clear();
    SampleWeightedWithoutReplacement(weights, 2, rng, picks);
    ASSERT_EQ(picks.size(), 2u);
    const std::pair<int32_t, int32_t> key = {std::min(picks[0], picks[1]),
                                             std::max(picks[0], picks[1])};
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i] == key) {
        counts[i] += 1;
        break;
      }
    }
  }
  const TestResult r = ChiSquareGoodnessOfFit(counts, probs);
  EXPECT_GT(r.p_value, 0.01) << "stat=" << r.statistic << " dof=" << r.dof;
}

// ------------------------------------------------------- differential oracle

core::SamplerOptions FullyOptimized() {
  core::SamplerOptions opts;
  opts.enable_fusion = true;
  opts.enable_preprocessing = true;
  opts.enable_layout_selection = true;
  opts.super_batch = 2;
  opts.seed = 0xD1FF;
  return opts;
}

struct MatrixCase {
  std::string dataset;
  bool eager_twin;  // the expensive check runs on one dataset per algorithm
};

void RunMatrix(const device::DeviceProfile& profile) {
  device::Device device(profile);
  device::DeviceGuard guard(device);
  const std::vector<MatrixCase> cases = {{"LJ", true}, {"PD", false}, {"FS", false}};
  for (const MatrixCase& c : cases) {
    graph::Graph g = graph::MakeDataset(c.dataset, {.scale = 0.004});
    for (const std::string& algo : algorithms::AllAlgorithmNames()) {
      OracleOptions oracle_opts;
      oracle_opts.check_eager_twin = c.eager_twin;
      const OracleReport report = VerifyConfig(algo, g, FullyOptimized(), oracle_opts);
      EXPECT_TRUE(report.ok())
          << c.dataset << " on " << profile.name << ": " << report.ToString();
      // No algorithm has tensor outputs, so grouping is checked bit-exactly
      // for all of them, walks included.
      for (const CheckResult& check : report.checks) {
        if (check.name == "super-batch-grouping") {
          EXPECT_TRUE(check.applicable && check.deterministic) << algo;
        }
      }
    }
  }
}

TEST(Oracle, FullMatrixV100) { RunMatrix(device::V100Sim()); }

TEST(Oracle, FullMatrixT4) { RunMatrix(device::T4Sim()); }

TEST(Oracle, EveryPassPrefixIsCorrect) {
  // The fuzzer's bisection hook: truncating the pipeline after any pass
  // must still yield a semantically equivalent plan, so the minimizer can
  // attribute a divergence to the first pass whose prefix fails.
  graph::Graph g = gs::testing::SmallRmat(200, 2000, 31, true);
  algorithms::AlgorithmProgram probe = algorithms::MakeAlgorithm("LADIES", g);
  core::CompiledPlan full(std::move(probe.program), FullyOptimized());
  const int total = static_cast<int>(full.report().passes.size());
  ASSERT_GT(total, 3);
  for (int limit = 0; limit <= total; ++limit) {
    core::SamplerOptions opts = FullyOptimized();
    opts.pass_limit = limit;
    OracleOptions oracle_opts;
    oracle_opts.check_eager_twin = false;
    const OracleReport report = VerifyConfig("LADIES", g, opts, oracle_opts);
    EXPECT_TRUE(report.ok()) << "pass_limit=" << limit << ": " << report.ToString();
  }
}

TEST(Oracle, PassLimitTruncatesPipeline) {
  graph::Graph g = gs::testing::SmallRmat(150, 1200, 37, true);
  algorithms::AlgorithmProgram a = algorithms::MakeAlgorithm("GraphSAGE", g);
  core::SamplerOptions opts = FullyOptimized();
  opts.pass_limit = 2;
  core::CompiledPlan plan(std::move(a.program), opts);
  EXPECT_EQ(plan.report().passes.size(), 2u);
}

TEST(Oracle, RowCompactionDoesNotChangeNodeSets) {
  // Compacting a sample's input is a layout decision, so the node set the
  // sample reports downstream (RowIds = rows that still carry edges) must
  // not change. Regression: sampled results used to inherit the input's
  // rows_compact flag, and RowIds then returned every inherited row —
  // including rows the sampler had emptied.
  device::Device device(device::T4Sim());
  device::DeviceGuard guard(device);
  graph::Graph g = gs::testing::SmallRmat(123, 676, 314901, false);

  std::vector<int32_t> frontier;
  for (int32_t v = 0; v < 13; ++v) {
    frontier.push_back(v * 9 % 123);
  }
  const tensor::IdArray cols = tensor::IdArray::FromVector(frontier);

  const sparse::Matrix plain = sparse::SliceColumns(g.adj(), cols);
  const sparse::Matrix compacted = sparse::CompactRows(plain);

  Rng rng_a(798216);
  Rng rng_b(798216);
  const sparse::Matrix sampled_plain = sparse::IndividualSample(plain, 2, {}, {&rng_a, 1});
  const sparse::Matrix sampled_compacted = sparse::IndividualSample(compacted, 2, {}, {&rng_b, 1});
  EXPECT_FALSE(sampled_compacted.rows_compact())
      << "sampling can empty rows; the compact claim must not survive it";

  const std::vector<int32_t> ids_plain = sparse::RowIds(sampled_plain).ToVector();
  const std::vector<int32_t> ids_compacted = sparse::RowIds(sampled_compacted).ToVector();
  EXPECT_EQ(ids_plain, ids_compacted);
}

TEST(Oracle, CompactingCollectiveInputIsRejected) {
  // Row compaction ahead of a collective sample is a semantic change, not a
  // layout choice: a dropped row with positive probability can no longer be
  // drawn. The layout pass never proposes it; the executor must reject it
  // outright so a hand-edited plan cannot sample a different distribution.
  device::Device device(device::T4Sim());
  device::DeviceGuard guard(device);
  graph::Graph g = gs::testing::SmallRmat(123, 676, 314901, false);
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("FastGCN", g);

  for (core::Node& n : ap.program.nodes()) {
    if (n.kind == core::OpKind::kCollectiveSample) {
      ap.program.node(n.inputs[0]).compact_rows = true;
      break;
    }
  }
  EXPECT_THROW(core::Executor(ap.program, core::ExecOptions{.layout = core::LayoutMode::kPlanned}),
               Error);
}

TEST(Oracle, LayoutCalibrationIsDeterministic) {
  // Calibration ranks candidates on the deterministic model clock, so two
  // compiles of the same program must annotate identically — otherwise the
  // plan is a function of host timing noise and a differential failure
  // cannot be replayed. (This test was flaky before calibration moved off
  // the measured-CPU virtual clock.)
  device::Device device(device::T4Sim());
  device::DeviceGuard guard(device);
  graph::Graph g = gs::testing::SmallRmat(123, 676, 314901, false);

  core::SamplerOptions opts = FullyOptimized();
  opts.super_batch = 1;
  std::vector<tensor::IdArray> batches;
  for (int b = 0; b < 2; ++b) {
    std::vector<int32_t> ids;
    for (int32_t i = 0; i < 8; ++i) {
      ids.push_back((b * 8 + i) * 7 % 123);
    }
    batches.push_back(tensor::IdArray::FromVector(ids));
  }
  core::Bindings bindings;
  bindings.graph = &g.adj();

  auto annotated = [&]() {
    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GCN-BS", g);
    core::CompiledPlan plan(std::move(ap.program), opts);
    core::Bindings bound = bindings;
    for (auto& [name, t] : ap.tensors) {
      bound.tensors[name] = t;
    }
    Rng rng(opts.seed);
    plan.Calibrate(bound, batches, {}, rng);
    return plan.program().ToString();
  };
  EXPECT_EQ(annotated(), annotated());
}

TEST(Oracle, ReferenceOptionsDisableEverything) {
  core::SamplerOptions opts = FullyOptimized();
  opts.pass_limit = 3;
  const core::SamplerOptions ref = ReferenceOptions(opts);
  EXPECT_FALSE(ref.enable_fusion);
  EXPECT_FALSE(ref.enable_preprocessing);
  EXPECT_FALSE(ref.enable_layout_selection);
  EXPECT_FALSE(ref.greedy_when_layout_disabled);
  EXPECT_EQ(ref.super_batch, 1);
  EXPECT_EQ(ref.pass_limit, -1);
  EXPECT_EQ(ref.seed, opts.seed);  // mirrored RNG streams
}

}  // namespace
}  // namespace gs::oracle
