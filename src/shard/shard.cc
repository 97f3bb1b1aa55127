#include "shard/shard.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "device/stream.h"
#include "fault/fault.h"
#include "fault/status.h"

namespace gs::shard {

void ExchangeStats::Add(const std::vector<HopRecord>& hops_taken) {
  samples += 1;
  if (per_hop.size() < hops_taken.size()) {
    per_hop.resize(hops_taken.size());
  }
  for (size_t i = 0; i < hops_taken.size(); ++i) {
    const HopRecord& h = hops_taken[i];
    hops += 1;
    frontier_nodes += h.frontier_nodes;
    remote_nodes += h.remote_nodes;
    bytes += h.bytes;
    exchange_ns += h.exchange_ns;
    hedges += h.hedges;
    HopRecord& agg = per_hop[i];
    agg.hop = static_cast<int>(i);
    agg.frontier_nodes += h.frontier_nodes;
    agg.remote_nodes += h.remote_nodes;
    agg.bytes += h.bytes;
    agg.exchange_ns += h.exchange_ns;
    agg.hedges += h.hedges;
  }
}

void ExchangeStats::Merge(const ExchangeStats& other) {
  samples += other.samples;
  hops += other.hops;
  frontier_nodes += other.frontier_nodes;
  remote_nodes += other.remote_nodes;
  bytes += other.bytes;
  exchange_ns += other.exchange_ns;
  hedges += other.hedges;
  failovers += other.failovers;
  if (per_hop.size() < other.per_hop.size()) {
    per_hop.resize(other.per_hop.size());
  }
  for (size_t i = 0; i < other.per_hop.size(); ++i) {
    HopRecord& agg = per_hop[i];
    agg.hop = static_cast<int>(i);
    agg.frontier_nodes += other.per_hop[i].frontier_nodes;
    agg.remote_nodes += other.per_hop[i].remote_nodes;
    agg.bytes += other.per_hop[i].bytes;
    agg.exchange_ns += other.per_hop[i].exchange_ns;
    agg.hedges += other.per_hop[i].hedges;
  }
}

std::string ExchangeStats::ToString() const {
  std::ostringstream out;
  out << "samples=" << samples << " hops=" << hops << " frontier_nodes=" << frontier_nodes
      << " remote_nodes=" << remote_nodes << " bytes=" << bytes
      << " exchange_us=" << exchange_ns / 1000 << " hedges=" << hedges
      << " failovers=" << failovers;
  return out.str();
}

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
    // Remote means "no replica of the owner's segment lives on the
    // executing device"; with one replica this reduces to OwnerOf != shard.
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
    const int64_t before = stream.now_ns();
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
        record.exchange_ns = stream.now_ns() - before;
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
    record.exchange_ns = stream.now_ns() - before;
  }
  hops_.push_back(record);
}

ShardGroup::ShardGroup(const graph::Graph& graph, core::Program program,
                       std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options)
    : options_(std::move(options)),
      graph_(&graph),
      plan_(std::make_shared<core::CompiledPlan>(std::move(program), options_.sampler)) {
  Init(graph, std::move(tensors));
}

ShardGroup::ShardGroup(const graph::Graph& graph, std::shared_ptr<core::CompiledPlan> plan,
                       std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options)
    : options_(std::move(options)), graph_(&graph), plan_(std::move(plan)) {
  GS_CHECK(plan_ != nullptr) << "ShardGroup needs a plan";
  Init(graph, std::move(tensors));
}

ShardGroup::ShardGroup(std::shared_ptr<const graph::Snapshot> snapshot, core::Program program,
                       std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options)
    : options_(std::move(options)),
      snapshot_(std::move(snapshot)),
      graph_(&snapshot_->graph()),
      plan_(std::make_shared<core::CompiledPlan>(std::move(program), options_.sampler)) {
  Init(*graph_, std::move(tensors));
}

ShardGroup::ShardGroup(std::shared_ptr<const graph::Snapshot> snapshot,
                       std::shared_ptr<core::CompiledPlan> plan,
                       std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options)
    : options_(std::move(options)),
      snapshot_(std::move(snapshot)),
      graph_(&snapshot_->graph()),
      plan_(std::move(plan)) {
  GS_CHECK(plan_ != nullptr) << "ShardGroup needs a plan";
  Init(*graph_, std::move(tensors));
}

ShardGroup::~ShardGroup() = default;

void ShardGroup::Init(const graph::Graph& graph, std::map<std::string, tensor::Tensor> tensors) {
  GS_CHECK_GE(options_.num_shards, 1);
  GS_CHECK_LE(options_.num_shards, fault::kMaxShards)
      << "ShardGroup supports at most " << fault::kMaxShards << " shards";
  GS_CHECK_GE(options_.num_replicas, 1);
  GS_CHECK_LE(options_.num_replicas, options_.num_shards)
      << "more replicas than shard devices";
  partition_ = std::make_unique<graph::Partition>(graph::Partitioner::Build(
      graph, options_.partition, options_.num_shards, options_.num_replicas));
  monitor_ = std::make_unique<ha::HealthMonitor>(options_.num_shards, options_.health);
  exchange_.resize(static_cast<size_t>(options_.num_shards));

  const bool features = options_.serve_features && graph.features().defined();
  if (features) {
    feature_store_ = std::make_unique<feature::FeatureStore>(graph.features());
  }
  const int64_t cache_rows = options_.feature_cache_rows > 0
                                 ? options_.feature_cache_rows
                                 : std::max<int64_t>(graph.num_nodes() / 10, 64);

  const tensor::IdArray warmup = core::WarmupFrontier(graph);
  devices_.reserve(static_cast<size_t>(options_.num_shards));
  sessions_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    devices_.push_back(std::make_unique<device::Device>(options_.profile));
    // Warm sequentially under the shard's device: shard 0 calibrates and
    // freezes the shared plan (deterministically — calibration ranks
    // candidates on the model clock), later shards adopt it; each shard's
    // pre-computed values land in its own allocator.
    device::ThreadDeviceGuard guard(*devices_[static_cast<size_t>(s)]);
    if (features) {
      // Built under the guard so the cache's backing pages land on — and
      // join the OOM ladder of — this shard's allocator.
      feature_caches_.push_back(std::make_unique<feature::HotSetCache>(feature::HotSetCacheOptions{
          .capacity = cache_rows,
          .admission = options_.feature_admission,
          .entry_bytes = feature_store_->row_bytes(),
          .register_pressure_handler = true,
      }));
    }
    sessions_.push_back(std::make_unique<core::SamplerSession>(plan_, graph, tensors));
    sessions_.back()->Warmup(warmup);
  }
}

int ShardGroup::Route(const tensor::IdArray& frontier) const {
  return partition_->HomeShard(frontier.data(), frontier.size());
}

std::vector<core::Value> ShardGroup::Sample(int shard, const tensor::IdArray& frontier,
                                            uint64_t seed, std::vector<HopRecord>* hops) const {
  GS_CHECK(shard >= 0 && shard < options_.num_shards) << "shard " << shard << " out of range";
  // Walk the shard's replica chain in placement order (primary first).
  // Every replica binds the full graph and SampleSeeded is pure, so where
  // the sample lands never changes what it returns — failover is invisible
  // in the outputs and visible only in the per-device timelines and the
  // failover counter. The chain order is a pure function of the partition,
  // so a seeded FaultPlan replays identical decisions.
  bool transient_failure = false;
  std::string last_error;
  for (int r = 0; r < options_.num_replicas; ++r) {
    const int exec = partition_->ReplicaDevice(shard, r);
    if (!monitor_->AdmitWork(exec)) {
      continue;  // dead and not yet due for a backoff probe
    }
    // Pin this thread to the executing device so kernels advance its
    // timeline and allocations draw from its capacity; the ShardScope
    // routes shard-qualified fault clauses at this placement.
    device::ThreadDeviceGuard device_guard(*devices_[static_cast<size_t>(exec)]);
    fault::ShardScope fault_shard(exec);
    if (fault::Injected(fault::Site::kShardLost)) {
      devices_[static_cast<size_t>(exec)]->MarkLost();
      monitor_->ReportDeviceLost(exec);
      last_error = "shard " + std::to_string(exec) + " lost";
      continue;
    }
    FrontierExchange exchange(*partition_, exec, monitor_.get(),
                              options_.max_hedged_exchanges);
    core::HopObserverGuard observer_guard(exchange);
    const int64_t stuck_before =
        devices_[static_cast<size_t>(exec)]->default_stream().counters().stuck_kernels;
    try {
      std::vector<core::Value> outputs =
          sessions_[static_cast<size_t>(exec)]->SampleSeeded(frontier, seed);
      monitor_->ReportSuccess(exec);
      if (devices_[static_cast<size_t>(exec)]->lost()) {
        devices_[static_cast<size_t>(exec)]->Revive();  // probe made it through
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ExchangeStats& stats = exchange_[static_cast<size_t>(shard)];
        stats.Add(exchange.hops());
        if (r > 0) {
          stats.failovers += 1;
        }
      }
      if (hops != nullptr) {
        *hops = exchange.hops();
      }
      return outputs;
    } catch (const fault::TransientError& e) {
      // Injected kernel faults, watchdog-cancelled batches, and exchange
      // timeouts past the hedge budget all land here; feed the monitor and
      // try the next replica.
      const int64_t stuck_after =
          devices_[static_cast<size_t>(exec)]->default_stream().counters().stuck_kernels;
      if (stuck_after > stuck_before) {
        monitor_->ReportStuckKernels(exec, stuck_after - stuck_before);
      } else {
        monitor_->ReportTransient(exec);
      }
      transient_failure = true;
      last_error = e.what();
      continue;
    }
  }
  if (transient_failure) {
    // At least one replica answered (transiently); the caller's retry
    // ladder may re-resolve placement and succeed.
    throw fault::TransientError("shard " + std::to_string(shard) +
                                " failed on every admitted replica: " + last_error);
  }
  throw fault::ShardUnavailableError(
      "shard " + std::to_string(shard) + " has no live replica" +
      (last_error.empty() ? "" : " (" + last_error + ")"));
}

std::vector<core::Value> ShardGroup::SampleRouted(const tensor::IdArray& frontier, uint64_t seed,
                                                  std::vector<HopRecord>* hops) const {
  return Sample(Route(frontier), frontier, seed, hops);
}

tensor::Tensor ShardGroup::GatherFeatures(int shard, const tensor::IdArray& ids,
                                          feature::GatherStats* stats) const {
  GS_CHECK(shard >= 0 && shard < options_.num_shards) << "shard " << shard << " out of range";
  GS_CHECK(feature_store_ != nullptr)
      << "ShardGroup built without serve_features (or the graph has no features)";
  device::ThreadDeviceGuard guard(*devices_[static_cast<size_t>(shard)]);
  return feature_store_->Gather(ids, feature_cache(shard), stats);
}

feature::HotSetCache* ShardGroup::feature_cache(int shard) const {
  GS_CHECK(shard >= 0 && shard < options_.num_shards) << "shard " << shard << " out of range";
  return feature_caches_.empty() ? nullptr : feature_caches_[static_cast<size_t>(shard)].get();
}

device::Device& ShardGroup::device(int shard) const {
  GS_CHECK(shard >= 0 && shard < options_.num_shards) << "shard " << shard << " out of range";
  return *devices_[static_cast<size_t>(shard)];
}

core::SamplerSession& ShardGroup::session(int shard) const {
  GS_CHECK(shard >= 0 && shard < options_.num_shards) << "shard " << shard << " out of range";
  return *sessions_[static_cast<size_t>(shard)];
}

ExchangeStats ShardGroup::exchange_stats(int shard) const {
  GS_CHECK(shard >= 0 && shard < options_.num_shards) << "shard " << shard << " out of range";
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return exchange_[static_cast<size_t>(shard)];
}

ExchangeStats ShardGroup::TotalExchange() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ExchangeStats total;
  for (const ExchangeStats& stats : exchange_) {
    total.Merge(stats);
  }
  return total;
}

device::StreamCounters ShardGroup::counters(int shard) const {
  return device(shard).default_stream().counters();
}

std::string ShardGroup::DebugString() const {
  std::ostringstream out;
  out << "ShardGroup(" << partition_->DebugString();
  for (int s = 0; s < options_.num_shards; ++s) {
    const device::StreamCounters c = counters(s);
    out << ", s" << s << "={kernels=" << c.kernels_launched
        << " virtual_us=" << c.virtual_ns / 1000
        << " interconnect_bytes=" << c.interconnect_bytes << "}";
  }
  out << ")";
  return out.str();
}

}  // namespace gs::shard
