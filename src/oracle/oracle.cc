#include "oracle/oracle.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "algorithms/algorithms.h"
#include "baselines/baselines.h"
#include "common/error.h"
#include "common/sampling.h"
#include "core/engine.h"
#include "feature/hot_set_cache.h"
#include "feature/store.h"

namespace gs::oracle {
namespace {

using core::CompiledPlan;
using core::CompiledSampler;
using core::SamplerOptions;
using core::Value;
using core::ValueKind;

// One mini-batch's outputs reduced to a comparable form: exact structure
// (kinds, ids, edge sets in global ids) plus float payloads for tolerance
// comparison.
struct BatchFingerprint {
  std::vector<ValueKind> kinds;
  std::vector<std::vector<int32_t>> ids;                             // kIds outputs
  std::vector<std::map<std::pair<int32_t, int32_t>, float>> edges;   // kMatrix outputs
  std::vector<std::vector<float>> tensors;                           // kTensor outputs
};

std::map<std::pair<int32_t, int32_t>, float> GlobalEdges(const sparse::Matrix& m) {
  std::map<std::pair<int32_t, int32_t>, float> out;
  const sparse::Coo& coo = m.GetCoo();
  for (int64_t e = 0; e < m.nnz(); ++e) {
    const int32_t r = m.GlobalRowId(coo.row[e]);
    const int32_t c = m.GlobalColId(coo.col[e]);
    out[{r, c}] = coo.values.defined() ? coo.values[e] : 1.0f;
  }
  return out;
}

BatchFingerprint Fingerprint(const std::vector<Value>& outputs) {
  BatchFingerprint fp;
  for (const Value& v : outputs) {
    fp.kinds.push_back(v.kind);
    switch (v.kind) {
      case ValueKind::kIds:
        fp.ids.push_back(v.ids.ToVector());
        break;
      case ValueKind::kMatrix:
        fp.edges.push_back(GlobalEdges(v.matrix));
        break;
      case ValueKind::kTensor: {
        std::vector<float> values;
        values.reserve(static_cast<size_t>(v.tensor.numel()));
        for (int64_t i = 0; i < v.tensor.numel(); ++i) {
          values.push_back(v.tensor.at(i));
        }
        fp.tensors.push_back(std::move(values));
        break;
      }
    }
  }
  return fp;
}

// Compares two fingerprints: structure exactly, float payloads within
// `tolerance`. Returns an empty string on match, a description of the first
// divergence otherwise.
std::string CompareFingerprints(const BatchFingerprint& a, const BatchFingerprint& b,
                                float tolerance) {
  std::ostringstream why;
  if (a.kinds != b.kinds) {
    why << "output kinds differ (" << a.kinds.size() << " vs " << b.kinds.size() << " outputs)";
    return why.str();
  }
  if (a.ids != b.ids) {
    why << "id outputs differ";
    return why.str();
  }
  if (a.edges.size() != b.edges.size()) {
    why << "matrix output count differs";
    return why.str();
  }
  for (size_t m = 0; m < a.edges.size(); ++m) {
    const auto& ea = a.edges[m];
    const auto& eb = b.edges[m];
    if (ea.size() != eb.size()) {
      why << "matrix " << m << ": nnz " << ea.size() << " vs " << eb.size();
      return why.str();
    }
    auto ia = ea.begin();
    auto ib = eb.begin();
    for (; ia != ea.end(); ++ia, ++ib) {
      if (ia->first != ib->first) {
        why << "matrix " << m << ": edge (" << ia->first.first << "," << ia->first.second
            << ") vs (" << ib->first.first << "," << ib->first.second << ")";
        return why.str();
      }
      if (std::abs(ia->second - ib->second) > tolerance) {
        why << "matrix " << m << ": value at (" << ia->first.first << "," << ia->first.second
            << "): " << ia->second << " vs " << ib->second;
        return why.str();
      }
    }
  }
  if (a.tensors.size() != b.tensors.size()) {
    why << "tensor output count differs";
    return why.str();
  }
  for (size_t t = 0; t < a.tensors.size(); ++t) {
    if (a.tensors[t].size() != b.tensors[t].size()) {
      why << "tensor " << t << ": numel differs";
      return why.str();
    }
    for (size_t i = 0; i < a.tensors[t].size(); ++i) {
      if (std::abs(a.tensors[t][i] - b.tensors[t][i]) > tolerance) {
        why << "tensor " << t << "[" << i << "]: " << a.tensors[t][i] << " vs "
            << b.tensors[t][i];
        return why.str();
      }
    }
  }
  return {};
}

// Fails `check` at the first batch whose fingerprints differ.
void CompareEpochs(const std::vector<BatchFingerprint>& a, const std::vector<BatchFingerprint>& b,
                   float tolerance, CheckResult& check) {
  if (a.size() != b.size()) {
    check.ok = false;
    check.detail = "batch count differs";
    return;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string why = CompareFingerprints(a[i], b[i], tolerance);
    if (!why.empty()) {
      check.ok = false;
      check.detail = "batch " + std::to_string(i) + ": " + why;
      return;
    }
  }
}

// Random frontier over the graph's training ids (deterministic in `rng`).
tensor::IdArray MakeFrontiers(const graph::Graph& g, int64_t count, Rng& rng) {
  const device::Array<int32_t>& train = g.train_ids();
  GS_CHECK_GT(train.size(), 0) << "graph has no train ids";
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    out.push_back(train[static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(train.size())))]);
  }
  return tensor::IdArray::FromVector(out);
}

CompiledSampler MakeSampler(const std::string& algorithm, const graph::Graph& g,
                            const SamplerOptions& options) {
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algorithm, g);
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), options);
  if (algorithm == "HetGNN") {
    sampler.BindGraph("rel0", &g.adj());
    sampler.BindGraph("rel1", &g.adj());
  }
  return sampler;
}

std::vector<BatchFingerprint> RunEpoch(const std::string& algorithm, const graph::Graph& g,
                                       const SamplerOptions& options,
                                       const tensor::IdArray& frontiers, int64_t batch_size) {
  CompiledSampler sampler = MakeSampler(algorithm, g, options);
  std::vector<BatchFingerprint> fingerprints;
  sampler.SampleEpoch(frontiers, batch_size, [&](int64_t, std::vector<Value>& outputs) {
    fingerprints.push_back(Fingerprint(outputs));
  });
  return fingerprints;
}

// Per-node inclusion counting: a node counts once per mini-batch it appears
// in (any output), making the counts robust to representation multiplicity
// while still sensitive to distribution skew.
void CountBatchInclusions(const std::set<int32_t>& batch_nodes, std::vector<int64_t>& counts) {
  for (int32_t node : batch_nodes) {
    if (node >= 0 && static_cast<size_t>(node) < counts.size()) {
      counts[static_cast<size_t>(node)] += 1;
    }
  }
}

void CollectValueNodes(const Value& v, std::set<int32_t>& nodes) {
  switch (v.kind) {
    case ValueKind::kIds:
      for (int64_t i = 0; i < v.ids.size(); ++i) {
        nodes.insert(v.ids[i]);
      }
      break;
    case ValueKind::kMatrix: {
      const sparse::Coo& coo = v.matrix.GetCoo();
      for (int64_t e = 0; e < v.matrix.nnz(); ++e) {
        nodes.insert(v.matrix.GlobalRowId(coo.row[e]));
        nodes.insert(v.matrix.GlobalColId(coo.col[e]));
      }
      break;
    }
    case ValueKind::kTensor:
      break;  // no node identity
  }
}

std::vector<int64_t> AccumulateEngineInclusions(const std::string& algorithm,
                                                const graph::Graph& g,
                                                const SamplerOptions& options,
                                                const tensor::IdArray& frontiers,
                                                int64_t batch_size) {
  std::vector<int64_t> counts(static_cast<size_t>(g.num_nodes()), 0);
  CompiledSampler sampler = MakeSampler(algorithm, g, options);
  sampler.SampleEpoch(frontiers, batch_size, [&](int64_t, std::vector<Value>& outputs) {
    std::set<int32_t> nodes;
    for (const Value& v : outputs) {
      CollectValueNodes(v, nodes);
    }
    CountBatchInclusions(nodes, counts);
  });
  return counts;
}

std::vector<int64_t> AccumulateEagerInclusions(const std::string& algorithm,
                                               const graph::Graph& g, uint64_t seed,
                                               const tensor::IdArray& frontiers,
                                               int64_t batch_size) {
  std::vector<int64_t> counts(static_cast<size_t>(g.num_nodes()), 0);
  auto state = baselines::MakeEagerTwinState();
  const int64_t total = frontiers.size();
  int64_t batch_index = 0;
  for (int64_t start = 0; start < total; start += batch_size, ++batch_index) {
    const int64_t end = std::min(total, start + batch_size);
    std::vector<int32_t> slice;
    slice.reserve(static_cast<size_t>(end - start));
    for (int64_t i = start; i < end; ++i) {
      slice.push_back(frontiers[i]);
    }
    Rng rng = baselines::MirroredBatchRng(seed, static_cast<uint64_t>(batch_index));
    baselines::BaselineResult result = baselines::SampleEagerTwin(
        algorithm, g, tensor::IdArray::FromVector(slice), *state, rng);
    std::set<int32_t> nodes;
    for (const sparse::Matrix& layer : result.layers) {
      CollectValueNodes(Value::OfMatrix(layer), nodes);
    }
    for (const tensor::IdArray& trace : result.traces) {
      CollectValueNodes(Value::OfIds(trace), nodes);
    }
    CountBatchInclusions(nodes, counts);
  }
  return counts;
}

CheckResult StatisticalCheck(std::string name, const std::vector<int64_t>& a,
                             const std::vector<int64_t>& b, double significance,
                             const std::string& label_a, const std::string& label_b) {
  CheckResult check;
  check.name = std::move(name);
  check.deterministic = false;
  const TestResult test = ChiSquareHomogeneity(a, b);
  check.p_value = test.p_value;
  check.ok = test.p_value >= significance;
  std::ostringstream detail;
  detail << label_a << " vs " << label_b << ": chi2=" << test.statistic << " dof=" << test.dof
         << " p=" << test.p_value;
  check.detail = detail.str();
  return check;
}

}  // namespace

std::string CheckResult::ToString() const {
  std::ostringstream out;
  out << name << ": ";
  if (!applicable) {
    out << "n/a";
  } else if (ok) {
    out << "ok";
  } else {
    out << "FAIL";
  }
  if (!deterministic && applicable) {
    out << " (p=" << p_value << ")";
  }
  if (!detail.empty()) {
    out << " — " << detail;
  }
  return out.str();
}

bool OracleReport::ok() const {
  for (const CheckResult& check : checks) {
    if (check.applicable && !check.ok) {
      return false;
    }
  }
  return true;
}

std::string OracleReport::ToString() const {
  std::ostringstream out;
  out << "oracle[" << algorithm << "]: " << (ok() ? "ok" : "FAIL");
  for (const CheckResult& check : checks) {
    out << "\n  " << check.ToString();
  }
  return out.str();
}

SamplerOptions ReferenceOptions(const SamplerOptions& optimized) {
  SamplerOptions reference = optimized;
  reference.enable_fusion = false;
  reference.enable_preprocessing = false;
  reference.enable_layout_selection = false;
  reference.greedy_when_layout_disabled = false;
  reference.super_batch = 1;
  reference.pass_limit = -1;
  return reference;
}

OracleReport VerifyConfig(const std::string& algorithm, const graph::Graph& g,
                          const SamplerOptions& optimized, const OracleOptions& options) {
  OracleReport report;
  report.algorithm = algorithm;

  // Program-shape queries need a compiled plan; compile one throwaway copy
  // of the optimized config (cheap: passes only, no calibration).
  algorithms::AlgorithmProgram probe = algorithms::MakeAlgorithm(algorithm, g);
  CompiledPlan probe_plan(std::move(probe.program), optimized);
  const bool super_batched = optimized.super_batch != 1 && probe_plan.SuperBatchEligible();

  Rng frontier_rng = Rng(options.seed).Fork(0xF0);
  const tensor::IdArray frontiers =
      MakeFrontiers(g, options.batch_size * options.num_batches, frontier_rng);

  // --- Check 1: optimized vs reference, mirrored streams, deterministic ---
  {
    CheckResult check;
    check.name = "optimized-vs-reference";
    CompareEpochs(RunEpoch(algorithm, g, optimized, frontiers, options.batch_size),
                  RunEpoch(algorithm, g, ReferenceOptions(optimized), frontiers,
                           options.batch_size),
                  options.value_tolerance, check);
    report.checks.push_back(std::move(check));
  }

  // --- Check 2: super-batch grouping ---
  {
    CheckResult check;
    check.name = "super-batch-grouping";
    if (!super_batched) {
      check.applicable = false;
    } else {
      // Per-segment RNG streams, walk steps included: grouped execution must
      // be bit-identical to solo batches.
      SamplerOptions solo = optimized;
      solo.super_batch = 1;
      CompareEpochs(RunEpoch(algorithm, g, optimized, frontiers, options.batch_size),
                    RunEpoch(algorithm, g, solo, frontiers, options.batch_size),
                    options.value_tolerance, check);
    }
    report.checks.push_back(std::move(check));
  }

  // --- Check 3: eager-twin equivalence, mirrored streams ---
  {
    CheckResult check;
    check.name = "eager-twin";
    if (!options.check_eager_twin || !baselines::HasEagerTwin(algorithm)) {
      check.applicable = false;
    } else {
      Rng stochastic_rng = Rng(options.seed).Fork(0xF2);
      const tensor::IdArray wide = MakeFrontiers(
          g, options.batch_size * static_cast<int64_t>(options.stochastic_batches),
          stochastic_rng);
      SamplerOptions solo = optimized;
      solo.super_batch = 1;  // batch j draws exactly from Rng(seed).Fork(j)
      const std::vector<int64_t> engine =
          AccumulateEngineInclusions(algorithm, g, solo, wide, options.batch_size);
      const std::vector<int64_t> eager =
          AccumulateEagerInclusions(algorithm, g, solo.seed, wide, options.batch_size);
      check = StatisticalCheck("eager-twin", engine, eager, options.significance, "engine",
                               "eager");
    }
    report.checks.push_back(std::move(check));
  }

  // --- Check 4: feature gather through the hot-set cache ---
  //
  // Every sampled batch's node set is gathered twice (cold, then warm)
  // under each admission policy; the cache may change WHERE bytes are
  // charged, never WHAT rows come back — bit-identical to an eager lookup.
  {
    CheckResult check;
    check.name = "feature-gather";
    if (!options.check_feature_gather || !g.features().defined()) {
      check.applicable = false;
    } else {
      const std::vector<BatchFingerprint> batches =
          RunEpoch(algorithm, g, ReferenceOptions(optimized), frontiers, options.batch_size);
      const int64_t n_nodes = g.num_nodes();
      const int64_t dim = g.features().cols();
      feature::FeatureStore store(g.features());
      for (feature::Admission admission :
           {feature::Admission::kStaticDegree, feature::Admission::kLru,
            feature::Admission::kFrequencyEma}) {
        if (!check.ok) {
          break;
        }
        feature::HotSetCache cache(feature::HotSetCacheOptions{
            .capacity = std::max<int64_t>(n_nodes / 10, 64), .admission = admission});
        for (int pass = 0; pass < 2 && check.ok; ++pass) {
          for (size_t b = 0; b < batches.size() && check.ok; ++b) {
            // The batch's node set: id outputs plus matrix edge endpoints,
            // folded to base node ids (negatives are walk dead-end markers).
            std::set<int32_t> nodes;
            for (const std::vector<int32_t>& out : batches[b].ids) {
              for (const int32_t v : out) {
                if (v >= 0) {
                  nodes.insert(static_cast<int32_t>(v % n_nodes));
                }
              }
            }
            for (const auto& edges : batches[b].edges) {
              for (const auto& [edge, weight] : edges) {
                (void)weight;
                if (edge.first >= 0) {
                  nodes.insert(static_cast<int32_t>(edge.first % n_nodes));
                }
                if (edge.second >= 0) {
                  nodes.insert(static_cast<int32_t>(edge.second % n_nodes));
                }
              }
            }
            if (nodes.empty()) {
              continue;
            }
            const std::vector<int32_t> ids(nodes.begin(), nodes.end());
            const tensor::Tensor gathered =
                store.Gather(tensor::IdArray::FromVector(ids), &cache);
            for (size_t i = 0; i < ids.size() && check.ok; ++i) {
              const float* got = gathered.data() + static_cast<int64_t>(i) * dim;
              const float* want = g.features().data() + static_cast<int64_t>(ids[i]) * dim;
              if (std::memcmp(got, want, static_cast<size_t>(dim) * sizeof(float)) != 0) {
                check.ok = false;
                std::ostringstream detail;
                detail << feature::AdmissionName(admission) << " pass " << pass << " batch "
                       << b << ": row " << i << " (node " << ids[i]
                       << ") diverges from the eager lookup";
                check.detail = detail.str();
              }
            }
          }
        }
      }
    }
    report.checks.push_back(std::move(check));
  }

  return report;
}

OracleReport VerifySnapshotEquivalence(const std::string& algorithm,
                                       const graph::GraphStore& store,
                                       const SamplerOptions& optimized,
                                       const OracleOptions& options) {
  OracleReport report;
  report.algorithm = algorithm;

  const std::shared_ptr<const graph::Snapshot> snap = store.Current();
  const graph::Graph& live = snap->graph();

  // From-scratch reference: reload the effective edge set through the very
  // same FromEdges path a cold restart would take, then carry over the
  // epoch's node attributes (the check is about adjacency maintenance).
  std::vector<float> weights;
  std::vector<std::pair<int32_t, int32_t>> edges =
      store.EffectiveEdges(store.weighted() ? &weights : nullptr);
  graph::Graph reload =
      graph::Graph::FromEdges(live.name() + "-reload", store.num_nodes(), std::move(edges),
                              store.weighted() ? &weights : nullptr);
  if (live.features().defined()) {
    reload.SetFeatures(live.features());
  }
  if (live.labels().defined()) {
    reload.SetLabels(live.labels(), live.num_classes());
  }
  reload.SetTrainIds(live.train_ids());

  // --- Check 1: digest equality with the from-scratch load ---
  {
    CheckResult check;
    check.name = "snapshot-digest";
    const uint64_t reloaded = graph::Snapshot::DigestOf(reload);
    if (reloaded != snap->digest()) {
      check.ok = false;
      std::ostringstream detail;
      detail << "epoch " << snap->epoch() << ": snapshot digest " << std::hex << snap->digest()
             << " != from-scratch digest " << reloaded << std::dec << " ("
             << live.num_edges() << " vs " << reload.num_edges() << " edges)";
      check.detail = detail.str();
    }
    report.checks.push_back(std::move(check));
  }

  // --- Check 2: bit-identical sampling under mirrored streams ---
  //
  // Identical CSC bytes must yield identical draws, so unlike the
  // optimized-vs-reference differential this one compares floats exactly
  // (tolerance 0): both sides run the SAME plan configuration over graphs
  // that check 1 proved byte-equal.
  {
    CheckResult check;
    check.name = "snapshot-sample";
    Rng frontier_rng = Rng(options.seed).Fork(0xD1);
    const tensor::IdArray frontiers =
        MakeFrontiers(live, options.batch_size * options.num_batches, frontier_rng);
    CompareEpochs(RunEpoch(algorithm, live, optimized, frontiers, options.batch_size),
                  RunEpoch(algorithm, reload, optimized, frontiers, options.batch_size), 0.0f,
                  check);
    report.checks.push_back(std::move(check));
  }

  return report;
}

std::vector<CheckResult> VerifySamplingPrimitives(uint64_t seed, double significance) {
  std::vector<CheckResult> checks;
  Rng rng(seed);

  // --- Alias table vs inverse-CDF single draws over one weight vector ---
  {
    constexpr size_t kCategories = 12;
    constexpr int64_t kTrials = 30000;
    std::vector<float> weights(kCategories);
    double total = 0.0;
    for (float& w : weights) {
      w = 0.1f + 1.9f * rng.UniformF();
      total += w;
    }
    AliasTable table{std::span<const float>(weights)};
    Rng alias_rng = rng.Fork(1);
    Rng cdf_rng = rng.Fork(2);
    std::vector<int64_t> alias_counts(kCategories, 0);
    std::vector<int64_t> cdf_counts(kCategories, 0);
    std::vector<double> alias_samples;
    std::vector<double> cdf_samples;
    alias_samples.reserve(kTrials);
    cdf_samples.reserve(kTrials);
    for (int64_t t = 0; t < kTrials; ++t) {
      const int32_t a = table.Sample(alias_rng);
      const int32_t c = SampleWeightedOne(weights, cdf_rng);
      alias_counts[static_cast<size_t>(a)] += 1;
      cdf_counts[static_cast<size_t>(c)] += 1;
      alias_samples.push_back(static_cast<double>(a));
      cdf_samples.push_back(static_cast<double>(c));
    }
    std::vector<double> probs(kCategories);
    for (size_t i = 0; i < kCategories; ++i) {
      probs[i] = static_cast<double>(weights[i]) / total;
    }
    const TestResult alias_gof = ChiSquareGoodnessOfFit(alias_counts, probs);
    const TestResult cdf_gof = ChiSquareGoodnessOfFit(cdf_counts, probs);
    const TestResult homogeneity = ChiSquareHomogeneity(alias_counts, cdf_counts);
    const TestResult ks = KolmogorovSmirnov(std::move(alias_samples), std::move(cdf_samples));
    const auto push = [&](const char* name, const TestResult& test) {
      CheckResult check;
      check.name = name;
      check.deterministic = false;
      check.p_value = test.p_value;
      check.ok = test.p_value >= significance;
      std::ostringstream detail;
      detail << "stat=" << test.statistic << " p=" << test.p_value;
      check.detail = detail.str();
      checks.push_back(std::move(check));
    };
    push("alias-gof", alias_gof);
    push("inverse-cdf-gof", cdf_gof);
    push("alias-vs-cdf-homogeneity", homogeneity);
    push("alias-vs-cdf-ks", ks);
  }

  // --- Efraimidis-Spirakis without-replacement pairs vs exact enumeration ---
  {
    const std::vector<float> weights = {0.4f, 1.1f, 0.7f, 2.0f, 0.2f, 1.6f};
    const size_t n = weights.size();
    constexpr int64_t kTrials = 20000;
    double total = 0.0;
    for (float w : weights) {
      total += w;
    }
    // P({a, b}) for a WOR sample of size 2 = sum over both draw orders of
    // the sequential selection probabilities (E-S keys realize exactly this
    // distribution).
    std::vector<double> pair_probs;
    std::vector<std::pair<size_t, size_t>> pair_index;
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        const double wa = weights[a];
        const double wb = weights[b];
        pair_probs.push_back(wa / total * wb / (total - wa) + wb / total * wa / (total - wb));
        pair_index.emplace_back(a, b);
      }
    }
    Rng wor_rng = rng.Fork(3);
    std::vector<int64_t> pair_counts(pair_probs.size(), 0);
    std::vector<int32_t> picks;
    for (int64_t t = 0; t < kTrials; ++t) {
      picks.clear();
      SampleWeightedWithoutReplacement(weights, 2, wor_rng, picks);
      GS_CHECK_EQ(picks.size(), 2u);
      const size_t a = static_cast<size_t>(std::min(picks[0], picks[1]));
      const size_t b = static_cast<size_t>(std::max(picks[0], picks[1]));
      for (size_t i = 0; i < pair_index.size(); ++i) {
        if (pair_index[i] == std::make_pair(a, b)) {
          pair_counts[i] += 1;
          break;
        }
      }
    }
    const TestResult gof = ChiSquareGoodnessOfFit(pair_counts, pair_probs);
    CheckResult check;
    check.name = "efraimidis-spirakis-pairs";
    check.deterministic = false;
    check.p_value = gof.p_value;
    check.ok = gof.p_value >= significance;
    std::ostringstream detail;
    detail << "stat=" << gof.statistic << " dof=" << gof.dof << " p=" << gof.p_value;
    check.detail = detail.str();
    checks.push_back(std::move(check));
  }

  return checks;
}

}  // namespace gs::oracle
