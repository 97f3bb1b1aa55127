// gs::graph::GraphStore — versioned graph snapshots with online mutations.
//
// A server for millions of users cannot restart to pick up new edges
// (ROADMAP item 4), yet every sampling layer here wants an immutable graph:
// compiled plans embed layout/calibration decisions, sessions run lock-free
// over frozen adjacency, shards route by a fixed ownership. GraphStore
// reconciles the two with the classic snapshot design (AliGraph-style):
//
//   - Each epoch is one immutable Snapshot whose CSC is the only adjacency
//     the store keeps. Apply() validates the whole batch, edits copies of
//     the touched columns, copies every run of untouched columns whole into
//     the next CSC, and stamps the next epoch with its digest and degree
//     stats, all on the calling (ingest) thread.
//   - Readers never wait for a mutation: a writer mutex serializes Apply,
//     and Current() locks only to copy the snapshot pointer, which Apply
//     swaps once the next epoch is complete. In-flight work keeps pinning
//     old snapshots via shared_ptr until completion.
//
// Mutation semantics (the contract the oracle pins):
//   - A batch is validated before anything changes: one out-of-range edge or
//     feature row rejects the whole batch, which then publishes nothing.
//   - remove_edges run first, in batch order: they delete the pair when
//     present (no-op otherwise).
//   - add_edges then run as UPSERTS: a (src, dst) that already exists has
//     its weight replaced; a new pair is inserted in sorted position.
//     Self-loops are dropped, matching Graph::FromEdges. Within one batch,
//     the LAST add for a pair wins (it is the newest write).
//   - update_features overwrite whole feature rows (the feature tensor is
//     copied-on-first-write per epoch; untouched epochs share storage).
//
// Equivalence guarantee: for every epoch,
//   Graph::FromEdges(EffectiveEdges())  ==  snapshot->graph()
// bit-for-bit (CSC arrays and digest), which is what makes gs::oracle's
// snapshot check and fuzz_passes --mutate possible.

#ifndef GSAMPLER_GRAPH_STORE_H_
#define GSAMPLER_GRAPH_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sparse/matrix.h"

namespace gs::graph {

// One in-edge upsert: insert (src -> dst) or, when the pair already exists,
// replace its weight.
struct EdgeAdd {
  int32_t src = 0;
  int32_t dst = 0;
  float weight = 1.0f;  // ignored when the base graph is unweighted
};

// One whole-row feature overwrite; `row` must match the feature dim.
struct FeatureUpdate {
  int32_t node = 0;
  std::vector<float> row;
};

struct MutationBatch {
  std::vector<EdgeAdd> add_edges;
  std::vector<std::pair<int32_t, int32_t>> remove_edges;
  std::vector<FeatureUpdate> update_features;

  bool empty() const {
    return add_edges.empty() && remove_edges.empty() && update_features.empty();
  }
  // Distinct destination columns this batch touches (sorted).
  std::vector<int32_t> TouchedColumns() const;
};

// In-degree distribution summary used by plan validity predicates
// (core::PlanValidity). Lives in gs::graph — not gs::core — because core
// already depends on graph and the reverse edge would be a cycle.
struct DegreeStats {
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  double mean_in_degree = 0.0;
  int64_t p99_in_degree = 0;
  int64_t max_in_degree = 0;
  // Top-`top_k` nodes by in-degree (ties broken by lower id), sorted by id —
  // the "hub set" whose membership stability gates layout decisions.
  std::vector<int32_t> hubs;

  static DegreeStats FromMatrix(const sparse::Matrix& adj, int64_t top_k = 32);
  // |a ∩ b| / |a| for the hub sets (1.0 when `a` is empty).
  static double HubOverlap(const std::vector<int32_t>& a, const std::vector<int32_t>& b);
};

// An immutable epoch of the graph. Snapshots are handed out as
// shared_ptr<const Snapshot>; holding one pins the whole epoch (adjacency,
// features, labels, train ids) for the holder's lifetime — the pinning rule
// every consumer (SamplerSession, shards, serving requests) relies on.
class Snapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  // FNV-1a digest over the materialized CSC (indptr, indices, values) —
  // identical for an incrementally maintained epoch and a from-scratch
  // FromEdges load of the same effective edge set.
  uint64_t digest() const { return digest_; }
  const Graph& graph() const { return graph_; }
  const DegreeStats& degree_stats() const { return degree_stats_; }

  // Digest of a graph's materialized CSC (what digest() reports).
  static uint64_t DigestOf(const Graph& graph);

 private:
  friend class GraphStore;
  Snapshot() = default;

  uint64_t epoch_ = 0;
  uint64_t digest_ = 0;
  Graph graph_;
  DegreeStats degree_stats_;
};

struct GraphStoreStats {
  uint64_t epoch = 0;
  int64_t batches_applied = 0;
  int64_t edges_added = 0;    // new pairs inserted
  int64_t edges_updated = 0;  // existing pairs whose weight was replaced
  int64_t edges_removed = 0;  // pairs deleted
  int64_t features_updated = 0;
};

class GraphStore {
 public:
  // Takes over `base` as epoch 0. The base graph's features/labels/train
  // ids are shared by every snapshot until a FeatureUpdate copies-on-write.
  explicit GraphStore(Graph base);

  // The latest snapshot. Thread-safe and never null; it does not wait for
  // an Apply in progress.
  std::shared_ptr<const Snapshot> Current() const;

  // Applies one batch, producing (and returning) the next epoch's snapshot.
  // Runs entirely on the calling thread — existing snapshots are untouched
  // and concurrently readable throughout. Throws gs::Error, and publishes
  // nothing, when any entry of the batch is invalid. Serialized internally;
  // listeners fire after the new snapshot is published.
  std::shared_ptr<const Snapshot> Apply(const MutationBatch& batch);

  // One occurrence per live edge of the current snapshot with its weight,
  // in an order that makes Graph::FromEdges(EffectiveEdges(&w), &w)
  // bit-identical to Current()->graph(). `weights` is filled only for
  // weighted stores (pass nullptr for unweighted ones).
  std::vector<std::pair<int32_t, int32_t>> EffectiveEdges(
      std::vector<float>* weights = nullptr) const;

  // Mutation listeners, fired on the ingest thread after each Apply with
  // the new snapshot and the batch that produced it (serving uses this for
  // cache invalidation and partition accounting). They run in epoch order
  // under Apply's writer lock, so a listener must not call Apply. Remove
  // with the returned id.
  using Listener =
      std::function<void(const std::shared_ptr<const Snapshot>&, const MutationBatch&)>;
  int64_t AddListener(Listener listener);
  void RemoveListener(int64_t id);

  bool weighted() const { return weighted_; }
  int64_t num_nodes() const { return num_nodes_; }
  GraphStoreStats stats() const;

 private:
  // Wraps `graph` as the snapshot of `epoch`, with its digest and stats.
  static std::shared_ptr<const Snapshot> Stamp(uint64_t epoch, Graph graph);

  int64_t num_nodes_ = 0;
  bool weighted_ = false;

  std::mutex apply_mutex_;  // serializes Apply; only its holder replaces current_
  mutable std::mutex mutex_;  // held only to copy or swap current_ and stats_
  std::shared_ptr<const Snapshot> current_;
  GraphStoreStats stats_;

  mutable std::mutex listener_mutex_;
  std::map<int64_t, Listener> listeners_;
  int64_t next_listener_id_ = 1;
};

}  // namespace gs::graph

#endif  // GSAMPLER_GRAPH_STORE_H_
