// gs::serving::Server — embedded multi-tenant sampling service.
//
// Concurrent SampleRequests flow through four stages:
//
//   1. Admission (Submit, caller thread): unknown endpoints fail fast;
//      requests whose deadline cannot plausibly be met (EMA service-time
//      estimate x queue depth) are rejected; a full admission queue rejects
//      with a retry-after hint; past the shed threshold requests are
//      admitted with halved fanouts (graceful degradation) — so overload
//      degrades fidelity before it degrades availability.
//   2. Queueing: admitted requests wait in per-tenant queues. Workers pick
//      the least-served tenant first (fair queueing), then the earliest
//      deadline within it (EDF; priority breaks ties). Requests that expire
//      while queued complete as kDeadlineExceeded without executing.
//   3. Execution (ExecuteAndScatter), one path for every group in named
//      steps. Place picks the executing device: the home shard's replica
//      chain in sharded mode, or — when no replica lives — the lowest-
//      numbered live device with each member cut to its covered seeds
//      (degraded mode). Attempt resolves the compiled plan through the
//      PlanCache (LRU under a byte budget) and runs the group — up to
//      coalesce_max queued requests with the same plan key, and at most
//      2^31 / num_nodes so its labels fit int32 — as ONE labeled
//      super-batch (serving/coalescer.h) under the recovery ladder
//      (transient backoff, one shed-fanout retry). Per-segment RNG streams
//      make each member's results bit-identical to being served alone.
//   4. Scatter splits group outputs per request (kDegraded plus coverage in
//      degraded mode); GatherFeatures attaches feature rows to kOk
//      responses; Record updates the stats once per group; promises are
//      fulfilled with a per-stage wall-latency breakdown in every response.
//
// Built on pipeline::WorkerPool (one device stream per worker) and
// pipeline::BoundedQueue (admission tokens with TryPush rejection). The
// token queue is a capacity limiter and wakeup channel: every registered
// request pushes one token, workers block popping tokens, and the scheduler
// tolerates token/request imbalance from coalescing (a popped token that
// finds no queued request is a no-op).
//
// Sharded mode (ServerOptions::num_shards > 1, gs::shard): Start()
// partitions every registered dataset and creates one simulated device per
// shard. Submit routes each request to its seed frontier's home shard
// (locality-aware routing — the shard owning the plurality of the seeds'
// adjacency); the shard becomes part of the plan key, so every shard warms
// its own session on its own device and coalescing never crosses shards. A
// FrontierExchange observer prices each hop's remote adjacency as a
// coalesced all-to-all at the profile's interconnect rate, surfacing as
// exchange_* counters and per-shard completions/latency in ServerStats.

#ifndef GSAMPLER_SERVING_SERVER_H_
#define GSAMPLER_SERVING_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "device/device.h"
#include "dyn/plan_table.h"
#include "dyn/replanner.h"
#include "feature/hot_set_cache.h"
#include "feature/store.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "ha/health.h"
#include "pipeline/queue.h"
#include "pipeline/worker_pool.h"
#include "serving/coalescer.h"
#include "serving/plan_cache.h"
#include "serving/request.h"
#include "serving/stats.h"

namespace gs::jit {
class JitEngine;
}  // namespace gs::jit

namespace gs::serving {

// A servable (algorithm, dataset) pair. The factory traces the program
// against a graph for a given effective fanout vector (empty = algorithm
// defaults); the sampler options are part of the plan key.
struct Endpoint {
  std::string algorithm;
  std::string dataset;
  const graph::Graph* graph = nullptr;
  std::function<algorithms::AlgorithmProgram(const graph::Graph& graph,
                                             const std::vector<int64_t>& fanouts)>
      factory;
  core::SamplerOptions options;
  // Fallback fanouts used when a request does not specify any and overload
  // shedding needs something to halve.
  std::vector<int64_t> default_fanouts;
  // Dynamic graphs (gs::dyn): a mutable versioned store instead of a static
  // graph. When set, `graph` is ignored: every request resolves the store's
  // latest snapshot at admission (and pins it to completion), the plan key
  // carries the snapshot's epoch + digest, and programs are traced against
  // the pinned snapshot's graph. The store must outlive the server.
  graph::GraphStore* store = nullptr;
};

// Convenience endpoint over the Table-2 registry. Fanout vectors are honored
// for the fanout-parameterized algorithms (GraphSAGE, GCN-BS, Thanos,
// FastGCN, LADIES); others compile with their defaults.
Endpoint MakeEndpoint(const std::string& algorithm, const std::string& dataset,
                      const graph::Graph& graph, core::SamplerOptions options = {});

// The dynamic twin of MakeEndpoint: serves `store`'s evolving graph. Same
// algorithm registry, but programs are traced per epoch against the pinned
// snapshot and compiled plans are reused across epochs while their validity
// predicate holds (see dyn::PlanTable).
Endpoint MakeDynamicEndpoint(const std::string& algorithm, const std::string& dataset,
                             graph::GraphStore& store, core::SamplerOptions options = {});

struct ServerOptions {
  int num_workers = 2;
  // Admission queue capacity; TryPush failure = reject with retry-after.
  int queue_capacity = 64;
  // Maximum requests merged into one labeled execution (a group also stops
  // at 2^31 / num_nodes members, where its labels would overflow int32).
  int coalesce_max = 8;
  bool enable_coalescing = true;
  int64_t plan_cache_budget_bytes = int64_t{256} * 1024 * 1024;
  // Queue-occupancy fraction beyond which admitted requests get shed
  // (halved) fanouts.
  double shed_occupancy = 0.75;
  // Reject requests whose deadline is below the service-time estimate.
  bool deadline_admission = true;
  // Suggested client back-off on rejection.
  std::chrono::nanoseconds retry_after{2'000'000};
  // Recovery ladder (gs::fault taxonomy). Transient execution failures are
  // retried up to this many times with exponential backoff starting at
  // 50 us; resource exhaustion (device OOM that survived the allocator's
  // own ladder) is retried once with halved fanouts, marking the responses
  // degraded.
  int max_transient_retries = 3;
  // Persistent plan directory. When non-empty, Start() warm-starts the plan
  // cache from artifacts saved there (skipping passes and calibration for
  // every matching endpoint) and Stop() persists the resident plans back —
  // so a restarted server answers its first request from a warm cache.
  std::string plan_dir;
  // Shard every dataset across this many simulated devices (1 = unsharded,
  // today's behavior). Requests route to their seed frontier's home shard
  // and execute on that shard's device with cross-shard adjacency charged
  // at the profile's interconnect_ns_per_byte.
  int num_shards = 1;
  graph::PartitionKind partition_kind = graph::PartitionKind::kEdgeCut;
  // High availability (gs::ha): replicas per shard (1 = no failover). With
  // r > 1 every shard's segment is mirrored onto r devices (chained
  // declustering) and execution walks the replica chain past dead devices;
  // when no replica of a request's home shard survives, the response
  // degrades to a typed partial (Status::kDegraded with a per-request
  // coverage fraction) instead of failing.
  int num_replicas = 1;
  ha::HealthOptions health;
  // Feature serving (gs::feature). When set, every kOk response for a
  // dataset with features also carries the gathered feature rows for its
  // result frontier (SampleResponse::features / feature_ids), gathered
  // through a per-tenant hot-set cache partition on the executing shard's
  // device.
  bool serve_features = false;
  // Device bytes each shard budgets for feature caching, divided evenly
  // into `feature_cache_partitions` per-tenant shares (multi-tenant
  // isolation: one tenant's scan cannot evict another's hot set). Each
  // partition is byte-accounted through the shard allocator's
  // reserved-bytes and joins its OOM ladder.
  int64_t feature_cache_budget_bytes = int64_t{64} * 1024 * 1024;
  int feature_cache_partitions = 4;
  feature::Admission feature_admission = feature::Admission::kFrequencyEma;
  // Dynamic graphs (gs::dyn): recompile drift-invalidated plans on the
  // background replanner thread while the stale (still-correct) plan keeps
  // serving. When false, a drifted judgment compiles inline on the serving
  // path instead — the contrast bench/mutation_throughput measures.
  bool background_recompile = true;
  // JIT-compile fused IR regions (gs::jit): every session built or
  // warm-started by this server gets its plan's compiled-kernel jump table
  // attached right after warmup (warmup calibrates the plan, which changes
  // the digest artifacts are keyed by). Kernel artifacts persist in
  // plan_dir (when set) next to the plans they specialize, so a warm
  // restart re-attaches native kernels without recompiling. Region compile/load/verify failures demote
  // to the interpreter (jit_demotions in ServerStats) — never a failed
  // request. Results are bit-identical either way.
  bool jit = false;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registration must complete before Start().
  void RegisterEndpoint(Endpoint endpoint);

  void Start();
  // Drains queued admitted requests, then joins the workers. Idempotent.
  void Stop();
  bool running() const { return running_; }

  // Thread-safe; returns a future fulfilled by a worker (or immediately on
  // rejection/failure). Never blocks on execution.
  std::future<SampleResponse> Submit(SampleRequest request);

  // Persists every resident plan to `dir` (see PlanCache::SaveAll). Requires
  // Start(). Returns the number of plans written.
  int64_t SavePlans(const std::string& dir);

  ServerStats stats() const;

  // Per-shard health state (sharded mode only; null when num_shards == 1).
  // Exposed for tests and for operators polling failover state.
  const ha::HealthMonitor* health_monitor() const { return monitor_.get(); }

  // Dynamic graphs: the epoch-independent compile table and a test hook
  // that blocks until every queued background recompile has run.
  dyn::PlanTableStats plan_table_stats() const { return plan_table_.stats(); }
  dyn::ReplannerStats replanner_stats() const;
  void DrainRecompiles();

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    uint64_t id = 0;
    SampleRequest request;
    std::promise<SampleResponse> promise;
    PlanKey key;
    std::string canonical;  // key.Canonical(), cached; key.shard = home shard
    bool degraded = false;
    bool has_deadline = false;
    // Dynamic endpoints: the snapshot resolved at admission, pinned until
    // the response is fulfilled (mutations applied meanwhile never move a
    // request off its epoch).
    std::shared_ptr<const graph::Snapshot> snapshot;
    // Node count of the graph the seeds were checked against at admission.
    int64_t num_nodes = 0;
    // The seeds this member executes: the request's seeds, cut to the
    // covered subset (fraction `coverage`) in degraded mode. Empty = the
    // member is answered without executing.
    tensor::IdArray frontier;
    double coverage = 1.0;
    Clock::time_point deadline_abs{};
    Clock::time_point submitted{};
    Clock::time_point dequeued{};
  };
  using Group = std::vector<std::unique_ptr<Pending>>;

  // One group's state, threaded through the steps of ExecuteAndScatter.
  struct Execution {
    const Endpoint* endpoint = nullptr;
    // Pinned for the whole group (a mutation epoch may swap in a rebuilt
    // partition mid-flight); null when unsharded.
    std::shared_ptr<const graph::Partition> partition;
    PlanKey key;  // the leader's; the shed-fanout retry halves its fanouts
    int device = 0;         // executing device (== key.shard unsharded)
    bool degraded = false;  // no live replica of the home shard
    bool shed = false;      // the shed-fanout retry ran
    // Outcome of the last attempt.
    GroupResult result;
    int64_t runs = 0;  // members that executed
    bool cache_hit = false;
    int64_t compile_ns = 0;  // summed over attempts
    std::string error;
    fault::ErrorCode code = fault::ErrorCode::kOk;
    int64_t scatter_ns = 0;
    // The group's exchange and feature-gather counters, which Record adds
    // into the server's.
    ServerStats counters;
  };

  const Endpoint* FindEndpoint(const std::string& algorithm, const std::string& dataset) const;
  // Fulfills a request that never executes (refused at admission, expired
  // while queued, or left over at Stop) and counts it. Caller must not hold
  // sched_mutex_.
  void Finish(Pending& pending, Status status, fault::ErrorCode code, const std::string& error);
  void WorkerLoop(int worker);
  // Handles one admission token: picks a group and serves it. Returns false
  // when the token found no queued request (tolerated imbalance).
  bool ServeOne();
  // The one serving execution path (normal, failed-over, coalesced, walk
  // and degraded groups), run as the steps below; see server.cc.
  void ExecuteAndScatter(Group group);
  void Place(Execution& exec, Group& group);
  void Attempt(Execution& exec, Group& group);
  void RunOnce(Execution& exec, const std::shared_ptr<const graph::Snapshot>& snapshot,
               const std::vector<tensor::IdArray>& frontiers, const std::vector<uint64_t>& seeds);
  template <typename Fn>
  void OnDevice(const Execution& exec, Fn&& fn);
  std::vector<SampleResponse> Scatter(Execution& exec, Group& group);
  void GatherFeatures(Execution& exec, const Group& group,
                      std::vector<SampleResponse>& responses);
  void Record(const Execution& exec, const Group& group, std::vector<SampleResponse>& responses);
  // Adds `n` to one server counter under stats_mutex_.
  void Count(int64_t ServerStats::*field, int64_t n = 1);
  // Plan-cache miss path. For dynamic endpoints (`snapshot` non-null) the
  // compile table is consulted first: a still-valid frozen plan gets a cheap
  // session rebuild (no passes, no calibration); a drifted one serves stale
  // and schedules a background recompile.
  std::shared_ptr<core::SamplerSession> BuildPlan(
      const Endpoint& endpoint, const PlanKey& key,
      const std::shared_ptr<const graph::Snapshot>& snapshot);
  // The one place sessions are built: traces the endpoint's program against
  // `snapshot`'s graph (the static graph when null), adopts `plan` or
  // compiles a fresh one when null, warms up, then attaches the JIT table.
  std::shared_ptr<core::SamplerSession> OpenSession(
      const Endpoint& endpoint, const std::vector<int64_t>& fanouts,
      const std::shared_ptr<const graph::Snapshot>& snapshot,
      std::shared_ptr<core::CompiledPlan> plan = nullptr);
  // Replanner job body: full compile of `compile_key` against `snapshot`,
  // publishing into the plan table and the session cache so the next
  // request at that epoch hits. Runs on the replanner thread.
  void CompileForSnapshot(const std::string& compile_key,
                          const std::shared_ptr<const graph::Snapshot>& snapshot);
  // Mutation listener (runs on the ingest thread, never a serving worker):
  // incremental re-partition, feature-store refresh + cache invalidation,
  // and epoch accounting.
  void OnMutation(const std::string& dataset,
                  const std::shared_ptr<const graph::Snapshot>& snapshot,
                  const graph::MutationBatch& batch);
  // The dataset's current partition (swapped by OnMutation); null when
  // unsharded or unknown. Callers hold the returned shared_ptr across use.
  std::shared_ptr<const graph::Partition> PartitionFor(const std::string& dataset) const;
  // PlanCache::LoadFrom activator: re-binds tensors and warms up a session
  // over a persisted plan; null when this server cannot serve the key.
  std::shared_ptr<core::SamplerSession> ActivatePlan(const PlanKey& key,
                                                     std::shared_ptr<core::CompiledPlan> plan);
  // The feature-cache partition for (shard, tenant, dataset), created
  // lazily on the worker thread (with the shard's device active, so the
  // cache's backing pages land on — and are byte-accounted against — that
  // shard's allocator). `row_bytes` sizes the entries.
  feature::HotSetCache* TenantFeatureCache(int shard, const std::string& tenant,
                                           const std::string& dataset, int64_t row_bytes);

  ServerOptions options_;
  std::map<std::string, Endpoint> endpoints_;  // "algorithm|dataset" -> endpoint
  // Sharded mode: dataset name -> partition, plus one device per shard.
  // Immutable snapshots swapped under partition_mutex_ by OnMutation;
  // readers copy the shared_ptr (PartitionFor) and use it lock-free.
  mutable std::mutex partition_mutex_;
  std::map<std::string, std::shared_ptr<const graph::Partition>> partitions_;
  std::vector<std::unique_ptr<device::Device>> shard_devices_;
  std::unique_ptr<ha::HealthMonitor> monitor_;
  // Feature serving: one store per dataset with features, plus per-
  // (shard, tenant, dataset) cache partitions. Declared after
  // shard_devices_ so the caches (whose backing pages live on those
  // devices) are destroyed first. Stores are swapped (under feature_mutex_)
  // when a mutation epoch copies the feature tensor on write.
  std::map<std::string, std::shared_ptr<const feature::FeatureStore>> feature_stores_;
  mutable std::mutex feature_mutex_;
  std::map<std::string, std::unique_ptr<feature::HotSetCache>> feature_caches_;
  // Dynamic graphs: the epoch-independent compile table, the background
  // recompilation worker, and the store listeners to unregister at Stop().
  dyn::PlanTable plan_table_;
  std::unique_ptr<dyn::Replanner> replanner_;
  std::vector<std::pair<graph::GraphStore*, int64_t>> store_listeners_;
  // JIT region compiler (ServerOptions::jit); artifacts live in plan_dir.
  // Declared before plan_cache_ so cached sessions (which hold jump tables)
  // are destroyed first.
  std::unique_ptr<jit::JitEngine> jit_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<pipeline::BoundedQueue<uint64_t>> tokens_;
  std::unique_ptr<pipeline::WorkerPool> pool_;
  std::atomic<bool> running_{false};

  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> queued_{0};           // admitted, not yet dequeued
  std::atomic<int64_t> ema_service_ns_{0};   // per-request EMA (wall)

  mutable std::mutex sched_mutex_;  // tenant queues + served counts
  std::map<std::string, std::deque<std::unique_ptr<Pending>>> tenant_queues_;
  std::map<std::string, int64_t> tenant_served_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  // One histogram per shard (a single entry when unsharded); stats() merges
  // them into the server-level percentiles.
  std::vector<LatencyHistogram> shard_latency_;
};

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_SERVER_H_
