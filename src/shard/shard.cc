#include "shard/shard.h"

#include <algorithm>
#include <string>

#include "device/device.h"
#include "device/stream.h"
#include "fault/fault.h"
#include "fault/status.h"

namespace gs::shard {
namespace {

// The slot index the home shard sends for each drawn slot.
constexpr int64_t kSlotIndexBytes = 4;

// In-degree of each of `nodes` (sorted, distinct) in the hop's matrix, read
// from a format it already holds: the CSC that every hop kernel reads, or
// the COO or CSR that a column slice of a matrix without one scanned.
std::vector<int64_t> InDegrees(const sparse::Matrix& m, const std::vector<int32_t>& nodes) {
  std::vector<int64_t> degrees(nodes.size(), 0);
  if (m.HasFormat(sparse::Format::kCsc)) {
    const sparse::OffsetArray& indptr = m.Csc().indptr;
    for (size_t i = 0; i < nodes.size(); ++i) {
      degrees[i] = indptr[nodes[i] + 1] - indptr[nodes[i]];
    }
    return degrees;
  }
  const sparse::IdArray& cols =
      m.HasFormat(sparse::Format::kCoo) ? m.GetCoo().col : m.Csr().indices;
  for (int64_t e = 0; e < cols.size(); ++e) {
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), cols[e]);
    if (it != nodes.end() && *it == cols[e]) {
      ++degrees[static_cast<size_t>(it - nodes.begin())];
    }
  }
  return degrees;
}

}  // namespace

void FrontierExchange::OnHop(const sparse::Matrix& graph, const tensor::IdArray& frontier,
                             int64_t slots) {
  const int64_t n = graph.num_cols();
  HopRecord record;
  record.hop = static_cast<int>(hops_.size());

  // Fold global ids: labeled super-batch ids (b*N + v) fold with modulo;
  // negative ids are walk dead-end markers. Sorted, each run of equal ids
  // is one distinct node and the frontier entries standing on it.
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

  // Remote means "no replica of the owner lives on the executing device";
  // with one replica this reduces to OwnerOf != shard.
  std::vector<int32_t> remote;
  std::vector<int64_t> entries;  // frontier entries standing on remote[i]
  for (size_t i = 0; i < ids.size();) {
    size_t end = i + 1;
    while (end < ids.size() && ids[end] == ids[i]) {
      ++end;
    }
    record.frontier_nodes += 1;
    if (!partition_->Hosts(shard_, partition_->OwnerOf(ids[i]))) {
      remote.push_back(ids[i]);
      entries.push_back(static_cast<int64_t>(end - i));
    }
    i = end;
  }
  record.remote_nodes = static_cast<int64_t>(remote.size());

  // The cheaper of the whole list and the entries' picks (shard.h).
  const std::vector<int64_t> degrees = InDegrees(graph, remote);
  const int64_t edge_bytes = partition_->bytes_per_edge();
  for (size_t i = 0; i < remote.size(); ++i) {
    const int64_t list = degrees[i] * edge_bytes;
    record.bytes += slots > 0 ? std::min(list, entries[i] * std::min(degrees[i], slots) *
                                                   (kSlotIndexBytes + edge_bytes))
                              : list;
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
