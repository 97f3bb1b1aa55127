#include "algorithms/algorithms.h"

#include <algorithm>

#include "common/error.h"
#include "core/trace.h"

namespace gs::algorithms {

using core::Builder;
using core::IVal;
using core::MVal;
using core::TVal;

namespace {

// Deterministic parameter initialization shared by the model-driven
// algorithms (PASS, AS-GCN); seeded per tensor name so programs are
// reproducible.
tensor::Tensor InitWeight(int64_t rows, int64_t cols, uint64_t seed, float std = 0.1f) {
  Rng rng(seed);
  return tensor::Tensor::Randn({rows, cols}, rng, std);
}

}  // namespace

AlgorithmProgram DeepWalk(const graph::Graph& g, const DeepWalkParams& params) {
  (void)g;
  GS_CHECK_GT(params.walk_length, 0);
  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  for (int step = 0; step < params.walk_length; ++step) {
    cur = b.WalkStep(a, cur);
    b.Output(cur);
  }
  return {"DeepWalk", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram Node2Vec(const graph::Graph& g, const Node2VecParams& params) {
  (void)g;
  GS_CHECK_GT(params.walk_length, 0);
  Builder b;
  MVal a = b.Graph();
  IVal root = b.Frontier();
  // First hop is uniform (no previous node yet).
  IVal prev = root;
  IVal cur = b.WalkStep(a, root);
  b.Output(cur);
  for (int step = 1; step < params.walk_length; ++step) {
    IVal next = b.Node2VecStep(a, cur, prev, params.p, params.q);
    b.Output(next);
    prev = cur;
    cur = next;
  }
  return {"Node2Vec", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram GraphSage(const graph::Graph& g, const SageParams& params) {
  (void)g;
  GS_CHECK(!params.fanouts.empty());
  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  for (int64_t fanout : params.fanouts) {
    MVal sub = a.Cols(cur);                       // extract
    MVal sample = sub.IndividualSample(fanout);   // select (uniform)
    b.Output(sample);                             // finalize
    if (params.include_seeds) {
      std::vector<IVal> merged = {cur, sample.Row()};
      cur = b.Unique(merged);
    } else {
      cur = sample.Row();
    }
  }
  b.Output(cur);
  return {"GraphSAGE", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram VrGcn(const graph::Graph& g) {
  AlgorithmProgram p = GraphSage(g, SageParams{.fanouts = {2, 2}});
  p.name = "VR-GCN";
  return p;
}

AlgorithmProgram GraphSaint(const graph::Graph& g, const SaintParams& params) {
  (void)g;
  Builder b;
  MVal a = b.Graph();
  IVal root = b.Frontier();
  std::vector<IVal> visited = {root};
  IVal cur = root;
  for (int step = 0; step < params.walk_length; ++step) {
    cur = b.WalkStep(a, cur);
    visited.push_back(cur);
  }
  IVal nodes = b.Unique(visited);
  MVal induced = a.Cols(nodes).Rows(nodes);  // A[nodes, nodes]
  b.Output(induced);
  b.Output(nodes);
  return {"GraphSAINT", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram PinSage(const graph::Graph& g, const PinSageParams& params) {
  (void)g;
  Builder b;
  MVal a = b.Graph();
  IVal root = b.Frontier();
  std::vector<IVal> steps;
  for (int walk = 0; walk < params.num_walks; ++walk) {
    IVal cur = root;
    for (int step = 0; step < params.walk_length; ++step) {
      cur = b.WalkStepRestart(a, cur, root, params.restart_prob);
      steps.push_back(cur);
    }
  }
  MVal neighbors = b.TopKVisited(root, steps, params.k);
  b.Output(neighbors);
  b.Output(neighbors.Row());
  return {"PinSAGE", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram HetGnn(const graph::Graph& g, const HetGnnParams& params) {
  Builder b;
  MVal rel0 = b.GraphNamed("rel0");
  MVal rel1 = b.GraphNamed("rel1");
  IVal root = b.Frontier();
  std::vector<IVal> steps;
  for (int walk = 0; walk < params.num_walks; ++walk) {
    IVal cur = root;
    for (int step = 0; step < params.walk_length; ++step) {
      // Metapath: alternate relation matrices (e.g. user->item, item->user).
      cur = b.WalkStepRestart(step % 2 == 0 ? rel0 : rel1, cur, root, params.restart_prob);
      steps.push_back(cur);
    }
  }
  MVal neighbors = b.TopKVisited(root, steps, params.k);
  b.Output(neighbors);
  b.Output(neighbors.Row());
  return {"HetGNN", std::move(b).Build(), {}, {{"rel0", &g.adj()}, {"rel1", &g.adj()}}, false};
}

AlgorithmProgram Seal(const graph::Graph& g, const SealParams& params) {
  Builder b;
  MVal a = b.Graph();
  IVal frontier = b.Frontier();

  // PageRank by power iteration — every node here is batch-invariant, so the
  // pre-processing pass evaluates the whole chain once at compile time.
  TVal pr = b.Input("pr_init");
  MVal a_norm = a.Div(a.Sum(1) + 1e-9f, 1);  // column-normalized weights
  for (int it = 0; it < params.pagerank_iters; ++it) {
    pr = a_norm.MM(pr) * 0.85f + (0.15f / static_cast<float>(g.num_nodes()));
  }

  IVal cur = frontier;
  std::vector<IVal> collected = {frontier};
  for (int layer = 0; layer < params.depth; ++layer) {
    MVal sub = a.Cols(cur);
    MVal probs = sub.Mul(pr, 0);  // PageRank-biased edge probabilities
    MVal sample = sub.IndividualSample(params.fanout, probs);
    cur = sample.Row();
    collected.push_back(cur);
  }
  IVal nodes = b.Unique(collected);
  MVal induced = a.Cols(nodes).Rows(nodes);
  b.Output(induced);
  b.Output(nodes);

  tensor::Tensor init = tensor::Tensor::Full({g.num_nodes(), 1},
                                             1.0f / static_cast<float>(g.num_nodes()));
  return {"SEAL", std::move(b).Build(), {{"pr_init", std::move(init)}}, {}, false};
}

AlgorithmProgram Shadow(const graph::Graph& g, const ShadowParams& params) {
  (void)g;
  Builder b;
  MVal a = b.Graph();
  IVal frontier = b.Frontier();
  IVal cur = frontier;
  std::vector<IVal> collected = {frontier};
  for (int layer = 0; layer < params.depth; ++layer) {
    MVal sample = a.Cols(cur).IndividualSample(params.fanout);
    cur = sample.Row();
    collected.push_back(cur);
  }
  IVal nodes = b.Unique(collected);
  MVal induced = a.Cols(nodes).Rows(nodes);
  b.Output(induced);
  b.Output(nodes);
  return {"ShaDow", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram GcnBs(const graph::Graph& g, const BanditParams& params) {
  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  // Bandit weights ride on the base graph's edges (batch-invariant between
  // updates; re-binding bandit_w refreshes the pre-computation).
  MVal weighted = a.WithEdgeValues(b.Input("bandit_w"));
  for (int64_t fanout : params.fanouts) {
    MVal sub = weighted.Cols(cur);
    MVal sample = sub.IndividualSample(fanout, sub);  // bias = own weights
    b.Output(sample);
    cur = sample.Row();
  }
  b.Output(cur);
  tensor::Tensor w = tensor::Tensor::Full({g.num_edges()}, 1.0f);
  return {"GCN-BS", std::move(b).Build(), {{"bandit_w", std::move(w)}}, {}, true};
}

AlgorithmProgram Thanos(const graph::Graph& g, const BanditParams& params) {
  AlgorithmProgram p = GcnBs(g, params);
  p.name = "Thanos";
  return p;
}

AlgorithmProgram Pass(const graph::Graph& g, const PassParams& params) {
  GS_CHECK(g.features().defined()) << "PASS needs node features";
  const int64_t d = g.features().cols();
  const int64_t h = params.hidden;

  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  TVal features = b.Input("features");
  TVal w1 = b.Input("W1");
  TVal w2 = b.Input("W2");
  TVal w3 = b.Input("W3");
  // U projections cover all rows and are batch-invariant (pre-computed).
  TVal u1 = features.MM(w1);
  TVal u2 = features.MM(w2);

  for (int64_t fanout : params.fanouts) {
    MVal sub = a.Cols(cur);
    TVal c = features.Gather(cur);  // frontier features (Figure 3c, line 4)
    // Attention heads: sub_A * ((B @ Wi) @ (C @ Wi)^T) — rewritten to SDDMM
    // and fused by the engine.
    MVal a1 = sub.MulDense(u1.MM(c.MM(w1).T()));
    MVal a2 = sub.MulDense(u2.MM(c.MM(w2).T()));
    MVal a3 = sub.Div(sub.Sum(1), 1);  // degree-normalized third head
    std::vector<TVal> heads = {a1.EdgeValues(), a2.EdgeValues(), a3.EdgeValues()};
    TVal att = b.Stack(heads);                 // (E, 3)
    TVal mixed = att.MM(w3.Softmax().T()).Relu();  // (E, 1) attention scores
    MVal probs = sub.WithEdgeValues(mixed);
    MVal sample = sub.IndividualSample(fanout, probs);
    b.Output(sample);
    cur = sample.Row();
  }
  b.Output(cur);

  std::map<std::string, tensor::Tensor> tensors;
  tensors["features"] = g.features();
  tensors["W1"] = InitWeight(d, h, 0xF001);
  tensors["W2"] = InitWeight(d, h, 0xF002);
  tensors["W3"] = InitWeight(1, 3, 0xF003, 0.5f);
  return {"PASS", std::move(b).Build(), std::move(tensors), {}, true};
}

AlgorithmProgram FastGcn(const graph::Graph& g, const LayerWiseParams& params) {
  (void)g;
  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  // Static importance q_u ∝ out-degree (sum of edge weights per row);
  // batch-invariant, pre-computed once.
  TVal q = a.Sum(0);
  for (int layer = 0; layer < params.num_layers; ++layer) {
    MVal sub = a.Cols(cur);
    MVal sample = sub.CollectiveSample(params.layer_width, q);
    // Importance-sampling rescale: divide edges by the selected node's q
    // (global row vector: sample's row_ids translate the indexing), then
    // normalize per frontier.
    MVal w1 = sample.Div(q, 0);
    MVal w2 = w1.Div(w1.Sum(1), 1);
    b.Output(w2);
    cur = sample.Row();
  }
  b.Output(cur);
  return {"FastGCN", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram Ladies(const graph::Graph& g, const LayerWiseParams& params) {
  (void)g;
  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  for (int layer = 0; layer < params.num_layers; ++layer) {
    MVal sub = a.Cols(cur);
    // Bias of candidate u: sum of squared edge weights to the frontiers.
    // (A ** 2) is hoisted above the extract and pre-computed on the full
    // graph by the pre-processing pass.
    TVal row_probs = sub.Pow(2.0f).Sum(0);
    MVal sample = sub.CollectiveSample(params.layer_width, row_probs);
    // Post-sampling adjustment: divide by the selected nodes' bias (their
    // own squared-weight sums) and normalize per frontier column.
    TVal selected_probs = sample.Pow(2.0f).Sum(0);
    MVal w1 = sample.Div(selected_probs, 0);
    MVal w2 = w1.Div(w1.Sum(1), 1);
    b.Output(w2);
    cur = sample.Row();
  }
  b.Output(cur);
  return {"LADIES", std::move(b).Build(), {}, {}, false};
}

AlgorithmProgram Asgcn(const graph::Graph& g, const LayerWiseParams& params) {
  GS_CHECK(g.features().defined()) << "AS-GCN needs node features";
  Builder b;
  MVal a = b.Graph();
  IVal cur = b.Frontier();
  TVal features = b.Input("features");
  TVal w = b.Input("as_w");
  // Trainable linear sampler g(x_u) = relu(x_u . w) + eps; invariant until
  // the trainer re-binds as_w.
  TVal h = features.MM(w).Relu() + 1e-6f;
  for (int layer = 0; layer < params.num_layers; ++layer) {
    MVal sub = a.Cols(cur);
    // Node importance: (sum of incident frontier edges) * g(x_u).
    TVal row_probs = sub.Mul(h, 0).Sum(0);
    MVal sample = sub.CollectiveSample(params.layer_width, row_probs);
    TVal selected = sample.Mul(h, 0).Sum(0);
    MVal w1 = sample.Div(selected, 0);
    MVal w2 = w1.Div(w1.Sum(1), 1);
    b.Output(w2);
    cur = sample.Row();
  }
  b.Output(cur);

  std::map<std::string, tensor::Tensor> tensors;
  tensors["features"] = g.features();
  tensors["as_w"] = InitWeight(g.features().cols(), 1, 0xA5C0);
  return {"AS-GCN", std::move(b).Build(), std::move(tensors), {}, true};
}

int64_t UpdateBanditWeights(const graph::Graph& g, const sparse::Matrix& sample,
                            tensor::Tensor& bandit_w, bool multiplicative, float reward) {
  GS_CHECK_EQ(bandit_w.numel(), g.num_edges());
  const sparse::Compressed& base = g.adj().Csc();
  const sparse::Compressed& csc = sample.Csc();
  int64_t updated = 0;
  for (int64_t c = 0; c < sample.num_cols(); ++c) {
    const int32_t col = sample.GlobalColId(static_cast<int32_t>(c));
    const int64_t begin = base.indptr[col];
    const int64_t end = base.indptr[col + 1];
    for (int64_t e = csc.indptr[c]; e < csc.indptr[c + 1]; ++e) {
      const int32_t row = sample.GlobalRowId(csc.indices[e]);
      // Locate the base edge (row -> col); per-column indices are sorted.
      const int32_t* lo = std::lower_bound(base.indices.data() + begin,
                                           base.indices.data() + end, row);
      if (lo != base.indices.data() + end && *lo == row) {
        const int64_t slot = lo - base.indices.data();
        float& w = bandit_w.at(slot);
        w = multiplicative ? w * std::max(0.1f, 1.0f + reward)  // EXP3-style
                           : w + reward;                        // UCB-style
        w = std::max(w, 1e-3f);
        ++updated;
      }
    }
  }
  return updated;
}

namespace {

using Fanouts = std::vector<int64_t>;

// Layer-wise samplers read a fanout vector as one layer per entry, each
// `front()` nodes wide.
LayerWiseParams LayerWise(const Fanouts& fanouts) {
  return {.num_layers = static_cast<int>(fanouts.size()), .layer_width = fanouts.front()};
}

Fanouts LayerWiseDefaults() {
  const LayerWiseParams defaults;
  return Fanouts(static_cast<size_t>(defaults.num_layers), defaults.layer_width);
}

// One row per Table-2 algorithm, in AllAlgorithmNames() order. `defaults`
// is empty for the algorithms that take no fanouts, whose `make` ignores
// its argument; the others' `make` always receives a non-empty vector.
struct Entry {
  std::string name;
  Fanouts defaults;
  AlgorithmProgram (*make)(const graph::Graph& g, const Fanouts& fanouts);
};

const std::vector<Entry>& Registry() {
  static const std::vector<Entry> registry = {
      {"DeepWalk", {}, [](const graph::Graph& g, const Fanouts&) { return DeepWalk(g); }},
      {"GraphSAINT", {}, [](const graph::Graph& g, const Fanouts&) { return GraphSaint(g); }},
      {"PinSAGE", {}, [](const graph::Graph& g, const Fanouts&) { return PinSage(g); }},
      {"HetGNN", {}, [](const graph::Graph& g, const Fanouts&) { return HetGnn(g); }},
      {"GraphSAGE", SageParams{}.fanouts,
       [](const graph::Graph& g, const Fanouts& f) { return GraphSage(g, {.fanouts = f}); }},
      {"VR-GCN", {}, [](const graph::Graph& g, const Fanouts&) { return VrGcn(g); }},
      {"SEAL", {}, [](const graph::Graph& g, const Fanouts&) { return Seal(g); }},
      {"ShaDow", {}, [](const graph::Graph& g, const Fanouts&) { return Shadow(g); }},
      {"Node2Vec", {}, [](const graph::Graph& g, const Fanouts&) { return Node2Vec(g); }},
      {"GCN-BS", BanditParams{}.fanouts,
       [](const graph::Graph& g, const Fanouts& f) { return GcnBs(g, {.fanouts = f}); }},
      {"Thanos", BanditParams{}.fanouts,
       [](const graph::Graph& g, const Fanouts& f) { return Thanos(g, {.fanouts = f}); }},
      {"PASS", PassParams{}.fanouts,
       [](const graph::Graph& g, const Fanouts& f) { return Pass(g, {.fanouts = f}); }},
      {"FastGCN", LayerWiseDefaults(),
       [](const graph::Graph& g, const Fanouts& f) { return FastGcn(g, LayerWise(f)); }},
      {"AS-GCN", LayerWiseDefaults(),
       [](const graph::Graph& g, const Fanouts& f) { return Asgcn(g, LayerWise(f)); }},
      {"LADIES", LayerWiseDefaults(),
       [](const graph::Graph& g, const Fanouts& f) { return Ladies(g, LayerWise(f)); }},
  };
  return registry;
}

const Entry& Find(const std::string& name) {
  const std::vector<Entry>& registry = Registry();
  auto it = std::find_if(registry.begin(), registry.end(),
                         [&name](const Entry& entry) { return entry.name == name; });
  GS_CHECK(it != registry.end()) << "unknown algorithm: " << name;
  return *it;
}

}  // namespace

AlgorithmProgram MakeAlgorithm(const std::string& name, const graph::Graph& g,
                               const std::vector<int64_t>& fanouts) {
  const Entry& entry = Find(name);
  return entry.make(g, fanouts.empty() ? entry.defaults : fanouts);
}

std::vector<int64_t> DefaultFanouts(const std::string& name) { return Find(name).defaults; }

std::vector<std::string> AllAlgorithmNames() {
  std::vector<std::string> names;
  for (const Entry& entry : Registry()) {
    names.push_back(entry.name);
  }
  return names;
}

}  // namespace gs::algorithms
