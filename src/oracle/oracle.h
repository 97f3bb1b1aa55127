// gs::oracle — the differential-correctness oracle.
//
// The engine's central promise is that compilation never changes sampling
// semantics: for any algorithm x dataset x device profile, the optimized
// CompiledPlan must sample exactly what the eager (all-optimizations-off)
// reference samples, because every pass preserves both the program's meaning
// and its RNG-consumption order. The oracle turns that promise into a
// checked property:
//
//  - Deterministic differential: run the optimized plan and the reference
//    plan under mirrored RNG streams (same session seed => batch j draws
//    from Rng(seed).Fork(j) on both sides) and assert bit-identical sampled
//    structure (frontiers, edges, walk traces); float payloads compare
//    within tolerance since fused kernels may reorder reductions.
//    Super-batch grouping is checked the same way, bit-exactly, for every
//    super-batch eligible program (CompiledPlan::SuperBatchEligible).
//  - Stochastic equivalence: comparisons that are only *statistically*
//    equivalent — the eager baseline twins (different execution order),
//    alias vs. inverse-CDF sampling paths — run
//    chi-square / KS equivalence tests over per-node inclusion frequencies
//    at a configurable significance level.
//
// tools/fuzz_passes drives VerifyConfig over randomized pass configurations
// and minimizes any failure to a one-line reproducer.

#ifndef GSAMPLER_ORACLE_ORACLE_H_
#define GSAMPLER_ORACLE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "oracle/stats.h"

namespace gs::oracle {

struct OracleOptions {
  uint64_t seed = 0x0AC1E;
  // Deterministic differential: epoch shape.
  int num_batches = 4;
  int64_t batch_size = 8;
  // Stochastic checks: batches of frequency accumulation per side.
  int stochastic_batches = 150;
  // Reject statistical equivalence below this p-value.
  double significance = 0.01;
  // Run the eager-twin comparison for algorithms that have one (the most
  // expensive check; the ctest tier enables it on one dataset per
  // algorithm, the fuzzer disables it).
  bool check_eager_twin = true;
  // Feature-gather differential (gs::feature): gather the feature rows of
  // every sampled batch's node set through a hot-set cache — once cold, once
  // warm, under each admission policy — and require bit-identity with an
  // eager per-node lookup. Applicable only when the graph has features.
  bool check_feature_gather = true;
  // Tolerance for float payload comparison in the deterministic check.
  float value_tolerance = 1e-3f;
};

struct CheckResult {
  std::string name;
  bool applicable = true;   // false: check does not apply to this config
  bool ok = true;
  bool deterministic = true;  // bit-exact comparison vs. hypothesis test
  double p_value = 1.0;       // hypothesis tests only
  std::string detail;
  std::string ToString() const;
};

struct OracleReport {
  std::string algorithm;
  std::vector<CheckResult> checks;
  bool ok() const;
  std::string ToString() const;
};

// The eager reference twin of `optimized`: every optimization disabled,
// layout left as produced (Figure 10's 'P' mode), no super-batching, no pass
// truncation — same seed, so RNG streams mirror the optimized run.
core::SamplerOptions ReferenceOptions(const core::SamplerOptions& optimized);

// Runs every applicable check for one algorithm x graph x options config on
// the current device. HetGNN's relation graphs default to g.adj().
OracleReport VerifyConfig(const std::string& algorithm, const graph::Graph& g,
                          const core::SamplerOptions& optimized,
                          const OracleOptions& options = {});

// Snapshot equivalence (gs::dyn): asserts the store's current snapshot is
// bit-identical to a from-scratch Graph::FromEdges load of the same
// effective edge set — digest equality plus bit-exact sampled fingerprints
// under mirrored RNG streams. This is the property that makes incremental
// mutation maintenance trustworthy: however many MutationBatches (and
// Seals) produced the epoch, sampling it is indistinguishable from sampling
// a clean reload.
OracleReport VerifySnapshotEquivalence(const std::string& algorithm,
                                       const graph::GraphStore& store,
                                       const core::SamplerOptions& optimized,
                                       const OracleOptions& options = {});

// Primitive-level distribution checks, independent of any algorithm:
// alias-table vs. inverse-CDF sampling equivalence (chi-square homogeneity
// and a conservative KS test over the drawn indices) and Efraimidis-Spirakis
// without-replacement sampling against exactly enumerated pair
// probabilities. Used by the oracle ctest tier and as the fuzzer's
// self-check.
std::vector<CheckResult> VerifySamplingPrimitives(uint64_t seed, double significance = 0.01);

}  // namespace gs::oracle

#endif  // GSAMPLER_ORACLE_ORACLE_H_
