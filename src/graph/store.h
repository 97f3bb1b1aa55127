// gs::graph::GraphStore — versioned graph snapshots with online mutations.
//
// A server for millions of users cannot restart to pick up new edges
// (ROADMAP item 4), yet every sampling layer here wants an immutable graph:
// compiled plans embed layout/calibration decisions, sessions run lock-free
// over frozen adjacency, shards partition a fixed edge set. GraphStore
// reconciles the two with the classic snapshot design (AliGraph-style):
//
//   - The base adjacency is held as copy-on-write COLUMN SEGMENTS — fixed
//     column ranges of the CSC, each an immutable shared_ptr. A mutation
//     touching column v only ever replaces v's segment; every other segment
//     is structurally shared across epochs (GraphStoreStats counts
//     segments_reused vs segments_rebuilt).
//   - Mutations arrive as MutationBatch and land in an append-only DELTA
//     LOG plus an in-memory per-column overlay. Apply() materializes a new
//     immutable Snapshot — epoch-numbered and digest-stamped — on the
//     calling (ingest) thread, so readers never see a half-applied batch
//     and serving never stalls: in-flight work keeps pinning old snapshots
//     via shared_ptr until completion.
//   - Seal() compacts the delta run into fresh COW segments (again off the
//     serving path) and clears the log; compaction replays the exact
//     FromEdges duplicate-resolution rule, so a sealed store is
//     bit-identical to an unsealed one.
//
// Mutation semantics (the contract the oracle pins):
//   - add_edges are UPSERTS: a (src, dst) that already exists has its
//     weight replaced; a new pair is inserted in sorted position.
//     Self-loops are dropped, matching Graph::FromEdges. Within one batch,
//     the LAST add for a pair wins (it is the newest write).
//   - remove_edges delete the pair when present (no-op otherwise).
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
#include <string>
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

struct GraphStoreOptions {
  // Columns per COW segment. Smaller segments = finer-grained sharing
  // across epochs, more per-epoch bookkeeping.
  int64_t segment_cols = 1024;
  // Hub-set size tracked in every snapshot's DegreeStats.
  int64_t hub_top_k = 32;
  // Auto-seal when the delta log reaches this many entries (0 = manual
  // Seal() only). Sealing runs on the ingest thread inside Apply.
  int64_t seal_threshold = 0;
};

struct GraphStoreStats {
  uint64_t epoch = 0;
  int64_t batches_applied = 0;
  int64_t edges_added = 0;    // new pairs inserted
  int64_t edges_updated = 0;  // existing pairs whose weight was replaced
  int64_t edges_removed = 0;  // pairs deleted
  int64_t features_updated = 0;
  // COW accounting, cumulative over every materialization.
  int64_t segments_rebuilt = 0;
  int64_t segments_reused = 0;
  int64_t delta_entries = 0;  // current (un-sealed) log length, in batches
  int64_t seals = 0;
};

class GraphStore {
 public:
  // Takes over `base` as epoch 0. The base graph's features/labels/train
  // ids are shared by every snapshot until a FeatureUpdate copies-on-write.
  explicit GraphStore(Graph base, GraphStoreOptions options = {});

  // The latest snapshot. Thread-safe; never null.
  std::shared_ptr<const Snapshot> Current() const;

  // Applies one batch, producing (and returning) the next epoch's snapshot.
  // Runs entirely on the calling thread — existing snapshots are untouched
  // and concurrently readable throughout. Serialized internally; listeners
  // fire after the new snapshot is published.
  std::shared_ptr<const Snapshot> Apply(const MutationBatch& batch);

  // Compacts the delta log into fresh COW segments and clears it. Pure
  // maintenance: the current snapshot (and its digest) are unchanged.
  void Seal();

  // One occurrence per live edge with its current weight, in an order that
  // makes Graph::FromEdges(EffectiveEdges(&w), &w) bit-identical to
  // Current()->graph(). `weights` is filled only for weighted stores
  // (pass nullptr for unweighted ones).
  std::vector<std::pair<int32_t, int32_t>> EffectiveEdges(
      std::vector<float>* weights = nullptr) const;

  // Mutation listeners, fired on the ingest thread after each Apply with
  // the new snapshot and the batch that produced it (serving uses this for
  // cache invalidation and plan revalidation). Remove with the returned id.
  using Listener =
      std::function<void(const std::shared_ptr<const Snapshot>&, const MutationBatch&)>;
  int64_t AddListener(Listener listener);
  void RemoveListener(int64_t id);

  bool weighted() const { return weighted_; }
  int64_t num_nodes() const { return num_nodes_; }
  GraphStoreStats stats() const;

 private:
  // Immutable CSC slice covering columns [begin_col, end_col).
  struct ColumnSegment {
    int64_t begin_col = 0;
    int64_t end_col = 0;
    std::vector<int64_t> offsets;  // local, size end_col - begin_col + 1
    std::vector<int32_t> indices;
    std::vector<float> weights;  // empty when unweighted
  };
  // Effective adjacency of one overlaid column: sorted (src, weight) pairs.
  using ColumnOverlay = std::vector<std::pair<int32_t, float>>;

  int64_t SegmentOf(int64_t col) const { return col / options_.segment_cols; }
  // Effective (src, weight) list for `col` (overlay if present, else the
  // sealed segment's slice). Requires mutex_ held.
  ColumnOverlay EffectiveColumnLocked(int64_t col) const;
  // Builds the full CSC from segments + overlay and stamps a Snapshot.
  // Requires mutex_ held.
  std::shared_ptr<const Snapshot> MaterializeLocked(uint64_t epoch, Graph features_from);
  void SealLocked();

  GraphStoreOptions options_;
  std::string name_;
  int64_t num_nodes_ = 0;
  bool weighted_ = false;
  bool uva_ = false;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const ColumnSegment>> segments_;
  std::map<int64_t, ColumnOverlay> overlay_;  // column -> effective adjacency
  std::vector<MutationBatch> delta_log_;
  std::shared_ptr<const Snapshot> current_;
  GraphStoreStats stats_;

  mutable std::mutex listener_mutex_;
  std::map<int64_t, Listener> listeners_;
  int64_t next_listener_id_ = 1;
};

}  // namespace gs::graph

#endif  // GSAMPLER_GRAPH_STORE_H_
