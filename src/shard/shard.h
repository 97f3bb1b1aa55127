// gs::shard — the cross-shard frontier exchange, the cost tap of sharded
// sampling.
//
// Sharded serving (serving::Server with ServerOptions::num_shards > 1)
// partitions each dataset across N simulated devices (graph::Partitioner)
// and runs every request on a device hosting its home shard. Each frontier
// hop executes locally; frontier nodes whose adjacency is owned by a remote
// shard are detected by a FrontierExchange observer, which charges one
// coalesced all-to-all per hop at the profile's interconnect_ns_per_byte —
// the shard-to-shard analog of the UVA PCIe charge.
//
// The all-to-all carries what the hop's kernel reads from remote owners,
// not their whole lists. A hop that draws s > 0 slots per frontier entry (a
// fused slice-sample's fanout, one per walk step) has the home shard draw
// the slots from the node's degree and send their indices; the owner
// returns the picks. For a remote node v that m entries stand on, the hop
// charges the cheaper of v's whole list and the picks:
//
//   min(deg(v) * bytes_per_edge, m * min(deg(v), s) * (4 + bytes_per_edge))
//
// where 4 is the slot index and bytes_per_edge the neighbor id plus its
// weight on a weighted graph. A hop that reads whole lists (s = 0: column
// slice, the layer-wise fused kernels, Node2Vec) charges deg(v) *
// bytes_per_edge. deg(v) is the in-degree in the matrix the hop read, so a
// request pinned to an older graph epoch is priced on that epoch.
//
// Cost-model tap, not a data-path fork: after the (simulated) exchange a
// shard holds exactly the adjacency the full matrix would give, so every
// shard session binds the full graph, the partition keeps owners and
// replica placement but no per-shard copy of the edges, and the exchange
// only advances the shard's virtual clock and counters. Sharded sampling is therefore
// bit-identical to single-device SampleSeeded with the same plan and seed —
// the property the shard oracle tests check — while capacity (requests per
// simulated second) scales with the shard count because each shard's work
// lands on its own timeline (bench/serving_throughput --shards).
//
// High availability (gs::ha): with a HealthMonitor attached the exchange
// runs the exchange half of the HA protocol (below); replica failover is
// the server's placement step.

#ifndef GSAMPLER_SHARD_SHARD_H_
#define GSAMPLER_SHARD_SHARD_H_

#include <cstdint>
#include <vector>

#include "core/executor.h"
#include "graph/partition.h"
#include "ha/health.h"

namespace gs::shard {

// One frontier hop's cross-shard traffic as seen by one shard.
struct HopRecord {
  int hop = 0;                 // hop index within the sample
  int64_t frontier_nodes = 0;  // deduplicated frontier size
  int64_t remote_nodes = 0;    // frontier nodes with remote adjacency
  int64_t bytes = 0;           // bytes remote owners ship: picks or whole lists
  int64_t exchange_ns = 0;     // model time (StreamCounters::model_ns) of the all-to-all
  int64_t hedges = 0;          // hedged re-issues of this hop's exchange
};

// Hop observer charging the cross-shard all-to-all. One instance per
// execution (it carries the hop index), installed on the executing thread
// via core::HopObserverGuard. For every hop against the base graph it
// deduplicates the frontier, looks up each node's owner in the
// partition, prices each node not hosted on the executing device by the
// rule above, and records one kernel on the current stream whose only cost
// is those bytes at the profile's interconnect_ns_per_byte. It reads the
// hop matrix's degrees from a format the kernel already built and launches
// nothing else. Hops with no remote nodes charge nothing (no all-to-all is
// needed).
//
// With a HealthMonitor attached the exchange also runs the HA protocol:
// an injected exchange.timeout is absorbed by a hedged re-issue (a second
// all-to-all charged on the replica path) while the hedge budget lasts,
// then unwinds as fault::ExchangeTimeoutError; a suspect executing shard
// hedges proactively; shard.slow inflates the charge and flags the shard.
class FrontierExchange : public core::HopObserver {
 public:
  FrontierExchange(const graph::Partition& partition, int shard,
                   ha::HealthMonitor* monitor = nullptr, int max_hedges = 0)
      : partition_(&partition), shard_(shard), monitor_(monitor), max_hedges_(max_hedges) {}

  void OnHop(const sparse::Matrix& graph, const tensor::IdArray& frontier,
             int64_t slots) override;

  // Per-hop records of the sample this instance observed.
  const std::vector<HopRecord>& hops() const { return hops_; }
  // Hedged re-issues across all hops of this sample.
  int64_t hedges() const { return hedges_; }

 private:
  const graph::Partition* partition_;
  int shard_;
  ha::HealthMonitor* monitor_;
  int max_hedges_;
  int64_t hedges_ = 0;
  std::vector<HopRecord> hops_;
};

}  // namespace gs::shard

#endif  // GSAMPLER_SHARD_SHARD_H_
