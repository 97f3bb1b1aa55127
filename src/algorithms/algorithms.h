// The 15 graph sampling algorithms of the paper's Table 2, each expressed
// once against the matrix-centric tracing API (core/trace.h) and compiled by
// the gSampler engine. Factories return the traced Program plus the tensor
// and relation bindings it needs (features, model weights, bandit state,
// HetGNN's edge-type matrices, ...). The registry at the end of this header
// is the one place that maps an algorithm name and a fanout vector to a
// program.
//
// Simplifications relative to the original papers are documented on each
// factory and in DESIGN.md; the sampling *structure* (node-wise vs
// layer-wise, bias source, finalize behaviour) follows Table 2.

#ifndef GSAMPLER_ALGORITHMS_ALGORITHMS_H_
#define GSAMPLER_ALGORITHMS_ALGORITHMS_H_

#include <map>
#include <string>
#include <vector>

#include "core/ir.h"
#include "graph/graph.h"
#include "tensor/tensor.h"

namespace gs::algorithms {

struct AlgorithmProgram {
  std::string name;
  core::Program program;
  // Named tensor bindings consumed by the program.
  std::map<std::string, tensor::Tensor> tensors;
  // Named relation matrices the program reads through Builder::GraphNamed
  // (Bindings::named_graphs); each must outlive the sessions bound to it.
  // Only HetGNN reads any, and its factory points both at the traced
  // graph's adjacency.
  std::map<std::string, const sparse::Matrix*> relations;
  // Model-driven algorithms update tensors between batches, which rules out
  // super-batch sampling (Section 4.4). The engine never reads this flag:
  // the callers that run epochs (the CLI, benches, fuzzer and tests) set
  // SamplerOptions::super_batch = 1 for these algorithms themselves.
  bool updates_model = false;
};

// --- Node-wise, uniform ---

// DeepWalk: vanilla random walk; outputs the node ids of every step.
struct DeepWalkParams {
  int walk_length = 80;
};
AlgorithmProgram DeepWalk(const graph::Graph& g, const DeepWalkParams& params = {});

// GraphSAINT (random-walk sampler): walks from the roots, then induces the
// subgraph over all visited nodes.
struct SaintParams {
  int walk_length = 4;
};
AlgorithmProgram GraphSaint(const graph::Graph& g, const SaintParams& params = {});

// PinSAGE: walks with restarts; each root keeps its k most-visited nodes as
// neighbors, weighted by visit count.
struct PinSageParams {
  int num_walks = 10;
  int walk_length = 3;
  float restart_prob = 0.5f;
  int64_t k = 10;
};
AlgorithmProgram PinSage(const graph::Graph& g, const PinSageParams& params = {});

// HetGNN: restart walks alternating over two edge-type relation matrices (a
// metapath), then top-k frequent neighbors. The program reads the named
// graphs "rel0"/"rel1"; `relations` points both at g.adj(), and a caller
// with real edge types binds its own matrices (SamplerSession::BindGraph).
struct HetGnnParams {
  int num_walks = 10;
  int walk_length = 4;
  float restart_prob = 0.5f;
  int64_t k = 10;
};
AlgorithmProgram HetGnn(const graph::Graph& g, const HetGnnParams& params = {});

// GraphSAGE: per-layer uniform node-wise sampling of `fanouts[l]` neighbors.
struct SageParams {
  std::vector<int64_t> fanouts = {25, 10};
  // Training batches need layer-l representations for the layer-(l-1)
  // targets too; when set, each layer's frontier is the union of the
  // previous frontier and the sampled neighbors (DGL's "block" semantics).
  bool include_seeds = false;
};
AlgorithmProgram GraphSage(const graph::Graph& g, const SageParams& params = {});

// VR-GCN: GraphSAGE-style sampling with tiny fanouts (the variance reduction
// via historical activations is a training-side technique; its sampler is a
// fanout-2 neighbor sampler).
AlgorithmProgram VrGcn(const graph::Graph& g);

// --- Node-wise, static bias ---

// SEAL: neighbor sampling biased by PageRank scores (computed in-IR by power
// iteration and hoisted to compile time), then induced subgraph over all
// sampled nodes. (The original uses per-pair PPR; we use global PageRank as
// the static bias, which exercises the same pre-processing path.)
struct SealParams {
  int depth = 2;
  int64_t fanout = 10;
  int pagerank_iters = 10;
};
AlgorithmProgram Seal(const graph::Graph& g, const SealParams& params = {});

// ShaDow-GNN: per-frontier bounded-depth neighbor expansion, then induced
// subgraph over all sampled nodes (uniform bias variant).
struct ShadowParams {
  int depth = 2;
  int64_t fanout = 10;
};
AlgorithmProgram Shadow(const graph::Graph& g, const ShadowParams& params = {});

// --- Node-wise, dynamic bias ---

// Node2Vec: second-order walk with return parameter p and in-out parameter q.
struct Node2VecParams {
  int walk_length = 80;
  float p = 2.0f;
  float q = 0.5f;
};
AlgorithmProgram Node2Vec(const graph::Graph& g, const Node2VecParams& params = {});

// GCN-BS: bandit sampler — per-edge weights ("bandit_w", aligned with the
// base graph's CSC order) drive biased node-wise sampling and are updated
// with rewards between batches (UpdateBanditWeights).
struct BanditParams {
  std::vector<int64_t> fanouts = {10, 10};
};
AlgorithmProgram GcnBs(const graph::Graph& g, const BanditParams& params = {});

// Thanos: bandit sampler variant (different reward; same sampling program
// shape as GCN-BS).
AlgorithmProgram Thanos(const graph::Graph& g, const BanditParams& params = {});

// PASS: attention-driven node-wise sampling with trainable projections W1,
// W2 and attention mixer W3 (Figure 3c of the paper).
struct PassParams {
  std::vector<int64_t> fanouts = {10, 10};
  int hidden = 16;
};
AlgorithmProgram Pass(const graph::Graph& g, const PassParams& params = {});

// --- Layer-wise ---

// FastGCN: layer-wise importance sampling with static degree-based node
// probabilities (pre-computed) and 1/(K q_u) weight rescaling.
struct LayerWiseParams {
  int num_layers = 2;
  int64_t layer_width = 512;
};
AlgorithmProgram FastGcn(const graph::Graph& g, const LayerWiseParams& params = {});

// LADIES: layer-dependent importance sampling; bias = sum of squared edge
// weights to the frontiers, with post-sampling weight normalization
// (Figure 3b of the paper).
AlgorithmProgram Ladies(const graph::Graph& g, const LayerWiseParams& params = {});

// AS-GCN: adaptive layer-wise sampling; node bias comes from a trainable
// linear sampler over node features ("as_w"), with variance-reduction weight
// adjustment.
AlgorithmProgram Asgcn(const graph::Graph& g, const LayerWiseParams& params = {});

// --- Bandit state updates (GCN-BS / Thanos) ---

// Applies one reward update to `bandit_w` (base-CSC-aligned) for every edge
// present in `sample`: GCN-BS uses a UCB-style additive reward, Thanos an
// EXP3-style multiplicative one. Returns the number of edges updated.
int64_t UpdateBanditWeights(const graph::Graph& g, const sparse::Matrix& sample,
                            tensor::Tensor& bandit_w, bool multiplicative, float reward);

// --- Registry ---

// Builds an algorithm by Table-2 name ("DeepWalk", "GraphSAINT", "PinSAGE",
// "HetGNN", "GraphSAGE", "VR-GCN", "SEAL", "ShaDow", "Node2Vec", "GCN-BS",
// "Thanos", "PASS", "FastGCN", "AS-GCN", "LADIES") with default parameters,
// except for a non-empty `fanouts`: GraphSAGE, GCN-BS, Thanos and PASS
// sample fanouts[l] neighbors at layer l; FastGCN, AS-GCN and LADIES run
// fanouts.size() layers of fanouts.front() nodes each; the other eight
// ignore it. Throws on an unknown name.
AlgorithmProgram MakeAlgorithm(const std::string& name, const graph::Graph& g,
                               const std::vector<int64_t>& fanouts = {});

// The fanouts MakeAlgorithm(name, g) uses, in the same reading: the params
// struct's defaults for the seven algorithms that take fanouts, empty for
// the other eight. Throws on an unknown name.
std::vector<int64_t> DefaultFanouts(const std::string& name);

// The 15 names, in Table-2 order.
std::vector<std::string> AllAlgorithmNames();

}  // namespace gs::algorithms

#endif  // GSAMPLER_ALGORITHMS_ALGORITHMS_H_
