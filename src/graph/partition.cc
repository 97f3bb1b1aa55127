#include "graph/partition.h"

#include "common/error.h"

namespace gs::graph {
namespace {

// Contiguous node ranges balanced by per-node work (in-degree + 1, so
// zero-degree nodes still count toward the balance). Deterministic: shard s
// closes once its cumulative work reaches the proportional boundary, except
// that every remaining shard is guaranteed at least one column.
std::vector<int32_t> ContiguousOwners(const std::vector<int64_t>& work, int num_shards) {
  const int64_t n = static_cast<int64_t>(work.size());
  int64_t total = 0;
  for (int64_t w : work) {
    total += w;
  }
  std::vector<int32_t> owner(static_cast<size_t>(n), 0);
  int shard = 0;
  int64_t acc = 0;
  for (int64_t c = 0; c < n; ++c) {
    owner[static_cast<size_t>(c)] = shard;
    acc += work[static_cast<size_t>(c)];
    if (shard == num_shards - 1) {
      continue;
    }
    const int64_t remaining_cols = n - c - 1;
    const int64_t remaining_shards = num_shards - shard - 1;
    const int64_t boundary = (shard + 1) * total / num_shards;
    if (remaining_cols == remaining_shards ||
        (remaining_cols > remaining_shards && acc >= boundary)) {
      ++shard;
    }
  }
  return owner;
}

}  // namespace

int Partition::OwnerOf(int32_t global) const {
  GS_CHECK(global >= 0 && global < static_cast<int64_t>(owner_.size()))
      << "node id " << global << " out of range " << owner_.size();
  return owner_[static_cast<size_t>(global)];
}

int Partition::HomeShard(const int32_t* ids, int64_t count) const {
  std::vector<int64_t> votes(static_cast<size_t>(num_shards_), 0);
  const int64_t n = static_cast<int64_t>(owner_.size());
  for (int64_t i = 0; i < count; ++i) {
    if (ids[i] < 0) {
      continue;  // walk dead-end marker
    }
    // Super-batch frontiers label node v of segment b as b*N + v.
    votes[static_cast<size_t>(owner_[static_cast<size_t>(ids[i] % n)])] += 1;
  }
  int best = 0;
  for (int s = 1; s < num_shards_; ++s) {
    if (votes[static_cast<size_t>(s)] > votes[static_cast<size_t>(best)]) {
      best = s;
    }
  }
  return best;
}

int Partition::ReplicaDevice(int shard, int r) const {
  GS_CHECK(shard >= 0 && shard < num_shards_) << "shard " << shard << " out of range";
  GS_CHECK(r >= 0 && r < num_replicas_) << "replica " << r << " out of range";
  return (shard + r) % num_shards_;
}

bool Partition::Hosts(int device, int shard) const {
  GS_CHECK(device >= 0 && device < num_shards_)
      << "device " << device << " out of range";
  GS_CHECK(shard >= 0 && shard < num_shards_) << "shard " << shard << " out of range";
  // device == (shard + r) % N for some r < num_replicas_.
  return (device - shard + num_shards_) % num_shards_ < num_replicas_;
}

Partition Partitioner::EdgeCut(const Graph& graph, int num_shards) {
  return Build(graph, PartitionKind::kEdgeCut, num_shards);
}

Partition Partitioner::Build(const Graph& graph, PartitionKind /*kind*/, int num_shards,
                             int num_replicas) {
  const int64_t n = graph.num_nodes();
  GS_CHECK_GE(num_shards, 1) << "partition needs at least one shard";
  GS_CHECK_LE(num_shards, n) << "more shards than nodes";
  GS_CHECK_GE(num_replicas, 1) << "partition needs at least one replica";
  GS_CHECK_LE(num_replicas, num_shards)
      << "more replicas than devices (" << num_replicas << " > " << num_shards << ")";

  const sparse::Compressed& csc = graph.adj().Csc();
  Partition p;
  p.num_shards_ = num_shards;
  p.num_replicas_ = num_replicas;
  p.bytes_per_edge_ = static_cast<int64_t>(sizeof(int32_t)) +
                      (csc.values.defined() ? static_cast<int64_t>(sizeof(float)) : 0);
  std::vector<int64_t> work(static_cast<size_t>(n));
  for (int64_t c = 0; c < n; ++c) {
    work[static_cast<size_t>(c)] = csc.indptr[c + 1] - csc.indptr[c] + 1;
  }
  p.owner_ = ContiguousOwners(work, num_shards);
  return p;
}

}  // namespace gs::graph
