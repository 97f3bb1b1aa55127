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
// Cost-model tap, not a data-path fork: after the (simulated) exchange a
// shard holds exactly the adjacency the full matrix would give, so every
// shard session binds the full graph and the exchange only advances the
// shard's virtual clock and counters. Sharded sampling is therefore
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
  int64_t bytes = 0;           // adjacency bytes pulled over the interconnect
  int64_t exchange_ns = 0;     // virtual time charged for the all-to-all
  int64_t hedges = 0;          // hedged re-issues of this hop's exchange
};

// Hop observer charging the cross-shard all-to-all. One instance per
// execution (it carries the hop index), installed on the executing thread
// via core::HopObserverGuard. For every hop against the base graph it
// deduplicates the frontier, looks up each node's owner in the
// partition, sums the bytes of adjacency not hosted on the executing
// device, and records one kernel on the current stream whose only cost is
// those bytes at the profile's interconnect_ns_per_byte. Hops with no
// remote nodes charge nothing (no all-to-all is needed).
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

  void OnHop(const sparse::Matrix& graph, const tensor::IdArray& frontier) override;

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
