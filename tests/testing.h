// Shared test fixtures and reference implementations.

#ifndef GSAMPLER_TESTS_TESTING_H_
#define GSAMPLER_TESTS_TESTING_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/executor.h"
#include "core/plan.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "serving/server.h"
#include "sparse/matrix.h"
#include "tensor/tensor.h"

namespace gs::testing {

// A small fixed weighted graph (7 nodes, mirrors the paper's Figure 1
// layout loosely): edges are (src, dst, weight); column v of the adjacency
// matrix holds the in-edges of v.
inline graph::Graph ToyGraph() {
  std::vector<std::pair<int32_t, int32_t>> edges = {
      {1, 0}, {2, 0}, {4, 0},          // in-neighbors of a=0: b,c,e
      {2, 1}, {3, 1}, {5, 1},          // in-neighbors of b=1: c,d,f
      {5, 4}, {6, 4},                  // in-neighbors of e=4: f,g
      {0, 2}, {1, 3}, {4, 5}, {0, 6},  // some edges to make rows non-empty
  };
  std::vector<float> weights = {0.5f, 0.8f, 0.3f, 0.2f, 0.6f, 0.7f,
                                0.3f, 0.9f, 0.4f, 0.5f, 0.6f, 0.7f};
  return graph::Graph::FromEdges("toy", 7, edges, &weights);
}

// Deterministic small R-MAT graph for property tests.
inline graph::Graph SmallRmat(int64_t nodes = 300, int64_t edges = 3000, uint64_t seed = 9,
                              bool weighted = true) {
  graph::RMatParams p;
  p.name = "small";
  p.num_nodes = nodes;
  p.num_edges = edges;
  p.weighted = weighted;
  p.seed = seed;
  return graph::MakeRMatGraph(p);
}

// Edge set of a matrix in original-graph ids: (row_global, col_global) ->
// value (1.0 when unweighted).
inline std::map<std::pair<int32_t, int32_t>, float> EdgeSet(const sparse::Matrix& m) {
  std::map<std::pair<int32_t, int32_t>, float> out;
  const sparse::Coo& coo = m.GetCoo();
  for (int64_t e = 0; e < m.nnz(); ++e) {
    const int32_t r = m.GlobalRowId(coo.row[e]);
    const int32_t c = m.GlobalColId(coo.col[e]);
    out[{r, c}] = coo.values.defined() ? coo.values[e] : 1.0f;
  }
  return out;
}

// Expects two output lists to match bit for bit; `context` names the case
// in the failure message.
inline void ExpectBitIdentical(const std::vector<core::Value>& a,
                               const std::vector<core::Value>& b, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(core::BitIdentical(a[i], b[i])) << context << " output " << i << " diverged";
  }
}

// Compiles a Table-2 algorithm as the epoch callers do (model-updating
// algorithms at super_batch 1); `bindings` receives its tensors and
// relations.
inline std::shared_ptr<core::CompiledPlan> CompileAlgorithm(
    const std::string& name, const graph::Graph& g, core::SamplerOptions options,
    algorithms::AlgorithmProgram* bindings) {
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
  if (ap.updates_model) {
    options.super_batch = 1;
  }
  auto plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), options, name);
  *bindings = std::move(ap);
  return plan;
}

// A session over `plan` with `bindings`' tensors and relations, warmed up,
// then `table` attached (the serving order: Warmup calibrates the plan and
// so finalizes the digest the JIT keys its artifacts by).
inline std::shared_ptr<core::SamplerSession> MakeSession(
    std::shared_ptr<core::CompiledPlan> plan, const graph::Graph& g,
    const algorithms::AlgorithmProgram& bindings = {},
    std::shared_ptr<const core::FusedKernelTable> table = nullptr) {
  auto session = std::make_shared<core::SamplerSession>(std::move(plan), g, bindings.tensors,
                                                        bindings.relations);
  session->Warmup(tensor::IdArray::FromVector({0, 1, 2, 3}));
  session->SetJitTable(std::move(table));
  return session;
}

// Single-device reference: same program, default options, same seed.
inline std::vector<core::Value> ReferenceSample(const std::string& algorithm,
                                                const graph::Graph& g,
                                                const tensor::IdArray& frontier, uint64_t seed) {
  algorithms::AlgorithmProgram bindings;
  return MakeSession(CompileAlgorithm(algorithm, g, {}, &bindings), g, bindings)
      ->SampleSeeded(frontier, seed);
}

// The first `count` nodes `partition` homes on `shard`, ascending. A request
// for them routes to that shard (Partition::HomeShard).
inline tensor::IdArray OwnedSeeds(const graph::Partition& partition, int shard, size_t count) {
  std::vector<int32_t> ids;
  for (int32_t v = 0; v < partition.num_nodes() && ids.size() < count; ++v) {
    if (partition.OwnerOf(v) == shard) {
      ids.push_back(v);
    }
  }
  return tensor::IdArray::FromVector(ids);
}

// One worker, so requests execute one at a time in submission order.
inline serving::ServerOptions ShardedOptions(int num_shards, int num_replicas = 1) {
  serving::ServerOptions options;
  options.num_workers = 1;
  options.num_shards = num_shards;
  options.num_replicas = num_replicas;
  return options;
}

inline std::unique_ptr<serving::Server> StartServer(const serving::ServerOptions& options,
                                                    serving::Endpoint endpoint) {
  auto server = std::make_unique<serving::Server>(options);
  server->RegisterEndpoint(std::move(endpoint));
  server->Start();
  return server;
}

// A request on dataset "small" at the algorithm's default fanouts, so its
// response is bit-identical to ReferenceSample of the same seeds and seed.
inline serving::SampleRequest DefaultRequest(const std::string& algorithm,
                                             const tensor::IdArray& seeds, uint64_t seed) {
  serving::SampleRequest request;
  request.algorithm = algorithm;
  request.dataset = "small";
  request.seeds = seeds;
  request.seed = seed;
  return request;
}

// Chi-square upper-tail test helper: returns the statistic for observed
// counts vs expected probabilities over `trials` draws.
inline double ChiSquare(const std::vector<int64_t>& observed,
                        const std::vector<double>& probs, int64_t trials) {
  double stat = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const double expected = probs[i] * static_cast<double>(trials);
    if (expected > 0) {
      const double d = static_cast<double>(observed[i]) - expected;
      stat += d * d / expected;
    }
  }
  return stat;
}

}  // namespace gs::testing

#endif  // GSAMPLER_TESTS_TESTING_H_
