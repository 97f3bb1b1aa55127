// Graph partitioning for multi-device sharded sampling (gs::shard).
//
// A Partition gives every node a home shard and places each shard's
// replicas on devices. It keeps no copy of the graph: sharded sessions bind
// the full graph, so a partition decides only where work runs and what it
// costs.
//
//  - Edge-cut: nodes are split into contiguous ranges balanced by
//    in-degree; a node's whole in-adjacency belongs to its home shard, so
//    cut edges are those whose *source* is remote.
//  - Routing (HomeShard) votes by owner, the exchange cost model charges
//    what a remote owner ships (bytes_per_edge per adjacency slot), and
//    replica placement and degraded coverage follow the owners.
//
// Partitions are deterministic functions of the graph and shard count — two
// processes partitioning the same graph agree on every ownership decision —
// and are immutable after construction, so concurrent shard workers may
// consult them without locks. A dynamic graph keeps the partition of its
// first epoch: ownership churn would invalidate every shard's locality at
// once, and the exchange prices each hop on the epoch the hop read.

#ifndef GSAMPLER_GRAPH_PARTITION_H_
#define GSAMPLER_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gs::graph {

enum class PartitionKind {
  kEdgeCut,
};

// An immutable N-way ownership split of one graph. Built by Partitioner.
class Partition {
 public:
  int num_shards() const { return num_shards_; }
  int64_t num_nodes() const { return static_cast<int64_t>(owner_.size()); }

  // Home shard of a global node id (the owner of the node's column). O(1).
  int OwnerOf(int32_t global) const;

  // Plurality home shard of a frontier (ties break toward the lower shard
  // id); the locality-aware routing hint used by serving. Labeled
  // super-batch ids fold with modulo; negative ids (walk dead-ends) are
  // skipped. An empty frontier routes to shard 0.
  int HomeShard(const int32_t* ids, int64_t count) const;

  // Bytes an owner ships per adjacency slot: the neighbor id, plus its
  // weight when the graph is weighted. shard::FrontierExchange charges
  // these over the interconnect.
  int64_t bytes_per_edge() const { return bytes_per_edge_; }

  // --- Replica placement (gs::ha) -------------------------------------
  //
  // With r > 1 replicas, shard s's work can additionally run on r-1 other
  // devices by chained declustering: replica k of shard s lives on device
  // (s + k) % num_shards. The placement is a pure function of (shard,
  // replica, num_shards), so every process — and every failover decision —
  // agrees on it without coordination, and a single dead device takes out
  // exactly one replica of each of r shards instead of all replicas of one.
  int num_replicas() const { return num_replicas_; }

  // Device hosting replica `r` (0 = primary) of `shard`.
  int ReplicaDevice(int shard, int r) const;

  // Whether `device` hosts a replica of `shard`.
  bool Hosts(int device, int shard) const;

 private:
  friend class Partitioner;

  int num_shards_ = 1;
  int num_replicas_ = 1;
  int64_t bytes_per_edge_ = 4;
  std::vector<int32_t> owner_;  // node -> home shard
};

// Factory for deterministic partitions: contiguous node ranges balanced by
// in-degree. `num_replicas` (1..shards) places each shard on that many
// devices by chained declustering (see Partition::ReplicaDevice). Build's
// `kind` can only name the edge-cut; callers that pass it keep compiling.
class Partitioner {
 public:
  static Partition EdgeCut(const Graph& graph, int num_shards);
  static Partition Build(const Graph& graph, PartitionKind kind, int num_shards,
                         int num_replicas = 1);
};

}  // namespace gs::graph

#endif  // GSAMPLER_GRAPH_PARTITION_H_
