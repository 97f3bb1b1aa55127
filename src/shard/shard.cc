#include "shard/shard.h"

#include <algorithm>
#include <string>

#include "device/device.h"
#include "device/stream.h"
#include "fault/fault.h"
#include "fault/status.h"

namespace gs::shard {

void FrontierExchange::OnHop(const sparse::Matrix& graph, const tensor::IdArray& frontier) {
  (void)graph;  // the partition already knows every node's adjacency size
  const int64_t n = partition_->graph().num_nodes();
  HopRecord record;
  record.hop = static_cast<int>(hops_.size());

  // Deduplicate folded global ids: a node appearing twice in the frontier
  // ships its adjacency once. Labeled super-batch ids (b*N + v) fold with
  // modulo; negative ids are walk dead-end markers.
  std::vector<int32_t> ids;
  ids.reserve(static_cast<size_t>(frontier.size()));
  for (int64_t i = 0; i < frontier.size(); ++i) {
    const int32_t v = frontier[i];
    if (v < 0) {
      continue;
    }
    ids.push_back(static_cast<int32_t>(v % n));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  record.frontier_nodes = static_cast<int64_t>(ids.size());

  for (const int32_t v : ids) {
    // Remote means "no replica of the owner lives on the executing
    // device"; with one replica this reduces to OwnerOf != shard.
    if (!partition_->Hosts(shard_, partition_->OwnerOf(v))) {
      record.remote_nodes += 1;
      record.bytes += partition_->AdjBytes(v);
    }
  }

  if (record.remote_nodes > 0) {
    // One coalesced all-to-all for the hop: every peer's contribution moves
    // concurrently, so the charge is the byte total at the interconnect
    // rate (plus the launch overhead any kernel pays).
    device::Stream& stream = device::Current().stream();
    const int64_t before = stream.counters().model_ns;
    {
      device::KernelScope kernel(stream);
      kernel.Finish({.parallel_items = record.remote_nodes,
                     .interconnect_bytes = record.bytes});
    }

    // HA protocol for the exchange. An injected timeout is absorbed by a
    // hedged re-issue — the same bytes charged again, modeling the replica
    // path answering — until the per-sample hedge budget runs out, at which
    // point it unwinds as a Transient error for the retry ladder. A suspect
    // executing shard hedges proactively (tail-latency insurance), sharing
    // the same budget. Hedges only charge time, so outputs stay
    // bit-identical whether or not a hedge fired.
    bool hedge = false;
    if (fault::Injected(fault::Site::kExchangeTimeout)) {
      if (monitor_ != nullptr) {
        monitor_->ReportExchangeTimeout(shard_);
      }
      if (hedges_ >= max_hedges_) {
        record.exchange_ns = stream.counters().model_ns - before;
        hops_.push_back(record);
        throw fault::ExchangeTimeoutError("cross-shard exchange timed out on shard " +
                                          std::to_string(shard_) +
                                          " with hedge budget exhausted");
      }
      hedge = true;
    } else if (monitor_ != nullptr && hedges_ < max_hedges_ &&
               monitor_->state(shard_) == ha::ShardHealth::kSuspect) {
      hedge = true;
    }
    if (hedge) {
      device::KernelScope kernel(stream);
      kernel.Finish({.parallel_items = record.remote_nodes,
                     .interconnect_bytes = record.bytes});
      record.hedges += 1;
      ++hedges_;
    }

    // Gray slowness: the shard answers, late. Charge the extra time and
    // feed the monitor's suspect machinery.
    const double slow = fault::SlowShardMultiplier();
    if (slow > 1.0) {
      device::KernelScope kernel(stream);
      kernel.Finish({.parallel_items = record.remote_nodes,
                     .interconnect_bytes = static_cast<int64_t>(
                         static_cast<double>(record.bytes) * (slow - 1.0))});
      if (monitor_ != nullptr) {
        monitor_->ReportSlowShard(shard_);
      }
    }
    record.exchange_ns = stream.counters().model_ns - before;
  }
  hops_.push_back(record);
}

}  // namespace gs::shard
