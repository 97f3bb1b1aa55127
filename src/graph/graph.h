// Input graphs for sampling: adjacency matrix + node features/labels +
// frontier set, with optional UVA residency for graphs that "exceed device
// memory" (the paper's PP and FS configurations).

#ifndef GSAMPLER_GRAPH_GRAPH_H_
#define GSAMPLER_GRAPH_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "feature/hot_set_cache.h"
#include "sparse/matrix.h"
#include "tensor/tensor.h"

namespace gs::graph {

class Graph {
 public:
  Graph() = default;

  // Builds a graph from directed edges (src -> dst). The adjacency matrix is
  // stored so that column v holds the in-neighbors of v (A[:, v]), matching
  // the paper's convention. Edges are deduplicated, self-loops dropped, and
  // per-column indices sorted (required by Node2Vec's adjacency test).
  //
  // Duplicate-edge resolution rule: `weights` (optional, aligned with
  // `edges`) become edge values, and when the same (src, dst) pair appears
  // more than once the FIRST occurrence in the input order wins — the sort
  // that groups duplicates tie-breaks on the original input index, so the
  // rule is deterministic regardless of the sort implementation.
  // gs::graph::GraphStore's snapshots keep these postconditions (Apply
  // upserts into sorted columns), and GraphStore::EffectiveEdges lists each
  // live pair once, so a from-scratch FromEdges load of it is bit-identical
  // to the store's snapshot (pinned by tests/test_graph.cc, test_dyn and
  // the gs::oracle snapshot-equivalence check).
  static Graph FromEdges(std::string name, int64_t num_nodes,
                         std::vector<std::pair<int32_t, int32_t>> edges,
                         const std::vector<float>* weights = nullptr, bool uva = false);

  // Builds a graph directly from materialized CSC arrays (column v holds the
  // sorted in-neighbors of v). Used by gs::graph::GraphStore for each
  // epoch's CSC, which Apply builds from the previous one without a
  // re-sort; the caller guarantees sorted, deduplicated, self-loop-free
  // columns (the FromEdges postconditions).
  static Graph FromCsc(std::string name, int64_t num_nodes, sparse::Compressed csc,
                       bool uva = false);

  const std::string& name() const { return name_; }
  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return adj_.nnz(); }
  bool uva() const { return uva_cache_ != nullptr; }

  // Adjacency as a sparse matrix with CSC materialized (CSR on demand).
  const sparse::Matrix& adj() const { return adj_; }
  // Mutable access for experiment harnesses (e.g. swapping the UVA cache).
  sparse::Matrix& mutable_adj() { return adj_; }

  const tensor::Tensor& features() const { return features_; }
  const device::Array<int32_t>& labels() const { return labels_; }
  int num_classes() const { return num_classes_; }
  // Nodes used as sampling frontiers / training seeds.
  const device::Array<int32_t>& train_ids() const { return train_ids_; }

  void SetFeatures(tensor::Tensor features) { features_ = std::move(features); }
  void SetLabels(device::Array<int32_t> labels, int num_classes) {
    labels_ = std::move(labels);
    num_classes_ = num_classes;
  }
  void SetTrainIds(device::Array<int32_t> ids) { train_ids_ = std::move(ids); }

  feature::HotSetCache* uva_cache() const { return uva_cache_.get(); }

 private:
  std::string name_;
  int64_t num_nodes_ = 0;
  sparse::Matrix adj_;
  tensor::Tensor features_;
  device::Array<int32_t> labels_;
  int num_classes_ = 0;
  device::Array<int32_t> train_ids_;
  std::shared_ptr<feature::HotSetCache> uva_cache_;
  // RAII registration of the UVA cache's memory-pressure handler (allocator
  // OOM ladder -> HotSetCache::Shrink). Declared after uva_cache_ so the
  // handler is unregistered before the cache is destroyed; copies of the
  // Graph share the token and the last one unregisters.
  std::shared_ptr<void> uva_pressure_token_;
};

}  // namespace gs::graph

#endif  // GSAMPLER_GRAPH_GRAPH_H_
