#include "serving/server.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "common/logging.h"
#include "common/timer.h"
#include "device/device.h"
#include "feature/store.h"
#include "jit/jit.h"
#include "shard/shard.h"

namespace gs::serving {
namespace {

std::string EndpointKey(const std::string& algorithm, const std::string& dataset) {
  return algorithm + "|" + dataset;
}

int64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

// Recovery-ladder constants: the first transient-retry backoff (doubling on
// each retry) and the hedged cross-shard exchange re-issues allowed per
// execution attempt.
constexpr std::chrono::nanoseconds kRetryBackoff{50'000};
constexpr int kMaxHedgedExchanges = 2;

// Counts one response under its status (and a failure under its error
// code): the one tally of every answer the server gives. Caller holds the
// stats mutex.
void CountOutcome(ServerStats& stats, const SampleResponse& response, const std::string& tenant) {
  switch (response.status) {
    case Status::kRejected:
      ++stats.rejected;
      return;
    case Status::kDeadlineExceeded:
      ++stats.deadline_exceeded;
      return;
    case Status::kOk:
    case Status::kDegraded:
      ++stats.completed;
      ++stats.per_tenant_completed[tenant];
      if (response.status == Status::kDegraded) {
        ++stats.partial;
      } else if (response.degraded) {
        ++stats.degraded;
      }
      return;
    case Status::kFailed:
      break;
  }
  ++stats.failed;
  ++stats.per_tenant_failed[tenant];
  switch (response.code) {
    case fault::ErrorCode::kTransient:
      ++stats.failed_transient;
      break;
    case fault::ErrorCode::kResourceExhausted:
      ++stats.failed_resource_exhausted;
      break;
    case fault::ErrorCode::kInvalidRequest:
      ++stats.failed_invalid;
      break;
    default:
      ++stats.failed_internal;
      break;
  }
}

// The frontier a response's features are gathered for: the last ids output
// of the program (the sampled frontier the caller will train on) without
// the -1 markers of walkers that hit a dead end, falling back to the
// request's seeds for programs that emit no id output.
tensor::IdArray FeatureFrontier(const std::vector<core::Value>& outputs,
                                const tensor::IdArray& seeds) {
  for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
    if (it->kind == core::ValueKind::kIds && it->ids.defined() && !it->ids.empty()) {
      const int32_t* begin = it->ids.data();
      const int32_t* end = begin + it->ids.size();
      const auto dead = [](int32_t id) { return id < 0; };
      if (std::none_of(begin, end, dead)) {
        return it->ids;
      }
      std::vector<int32_t> live;
      std::remove_copy_if(begin, end, std::back_inserter(live), dead);
      return tensor::IdArray::FromVector(live);
    }
  }
  return seeds;
}

std::vector<int64_t> ShedFanouts(const std::vector<int64_t>& fanouts) {
  std::vector<int64_t> shed(fanouts.size());
  for (size_t i = 0; i < fanouts.size(); ++i) {
    shed[i] = std::max<int64_t>(1, fanouts[i] / 2);
  }
  return shed;
}

}  // namespace

Endpoint MakeEndpoint(const std::string& algorithm, const std::string& dataset,
                      const graph::Graph& graph, core::SamplerOptions options) {
  return {.algorithm = algorithm,
          .dataset = dataset,
          .graph = &graph,
          .factory = [algorithm](const graph::Graph& g, const std::vector<int64_t>& fanouts) {
            return algorithms::MakeAlgorithm(algorithm, g, fanouts);
          },
          .options = options};
}

Endpoint MakeDynamicEndpoint(const std::string& algorithm, const std::string& dataset,
                             graph::GraphStore& store, core::SamplerOptions options) {
  return {.algorithm = algorithm,
          .dataset = dataset,
          .factory = [algorithm](const graph::Graph& g, const std::vector<int64_t>& fanouts) {
            return algorithms::MakeAlgorithm(algorithm, g, fanouts);
          },
          .options = options,
          .store = &store};
}

Server::Server(ServerOptions options) : options_(options) {
  GS_CHECK_GT(options_.num_workers, 0);
  GS_CHECK_GT(options_.queue_capacity, 0);
  GS_CHECK_GT(options_.coalesce_max, 0);
  GS_CHECK_GE(options_.num_shards, 1);
  GS_CHECK_LE(options_.num_shards, fault::kMaxShards)
      << "serving supports at most " << fault::kMaxShards << " shards";
  GS_CHECK_GE(options_.num_replicas, 1);
  GS_CHECK_LE(options_.num_replicas, options_.num_shards)
      << "more replicas than shard devices";
}

Server::~Server() { Stop(); }

void Server::RegisterEndpoint(Endpoint endpoint) {
  GS_CHECK(!running_) << "endpoints must be registered before Start()";
  GS_CHECK(endpoint.store != nullptr || endpoint.graph != nullptr);
  GS_CHECK(endpoint.factory != nullptr);
  // Admission takes a request's default fanouts from the registry, which
  // throws here, not in Submit, on an algorithm it does not know.
  algorithms::DefaultFanouts(endpoint.algorithm);
  const std::string key = EndpointKey(endpoint.algorithm, endpoint.dataset);
  endpoints_[key] = std::move(endpoint);
}

const Endpoint* Server::FindEndpoint(const std::string& algorithm,
                                     const std::string& dataset) const {
  auto it = endpoints_.find(EndpointKey(algorithm, dataset));
  return it != endpoints_.end() ? &it->second : nullptr;
}

void Server::Start() {
  GS_CHECK(!running_) << "server already running";
  GS_CHECK(!endpoints_.empty()) << "no endpoints registered";
  plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache_budget_bytes,
                                            &device::Current().allocator());
  // Per dataset, once. Sharded mode partitions it and gives each shard its
  // own simulated device: per-shard sessions allocate there and locality
  // routing (Submit) resolves against these partitions. num_replicas > 1
  // additionally places each shard on more devices (chained declustering)
  // so execution can fail over past dead devices. Dynamic endpoints
  // partition the store's current snapshot and keep its owners for every
  // later epoch; the exchange prices each hop on the epoch it read.
  for (const auto& [key, endpoint] : endpoints_) {
    if (options_.num_shards > 1 && partitions_.find(endpoint.dataset) == partitions_.end()) {
      const graph::Graph& graph =
          endpoint.store != nullptr ? endpoint.store->Current()->graph() : *endpoint.graph;
      partitions_.emplace(endpoint.dataset,
                          graph::Partitioner::Build(graph, options_.partition_kind,
                                                    options_.num_shards, options_.num_replicas));
    }
  }
  if (options_.num_shards > 1) {
    shard_devices_.reserve(static_cast<size_t>(options_.num_shards));
    for (int s = 0; s < options_.num_shards; ++s) {
      shard_devices_.push_back(std::make_unique<device::Device>(device::Current().profile()));
    }
    monitor_ = std::make_unique<ha::HealthMonitor>(options_.num_shards, options_.health);
    // Pre-register every shard in the per-shard completion map so a shard
    // that dies before completing anything still shows up (as zero) in
    // stats() instead of silently vanishing from the report.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (int s = 0; s < options_.num_shards; ++s) {
      stats_.per_shard_completed[s] += 0;
    }
  }
  // Dynamic endpoints: subscribe to each distinct store's mutation stream
  // (feature-cache invalidation, epoch accounting) and start the background
  // replanner. Listeners run on the ingest thread — materialization and
  // invalidation never touch the serving path.
  bool any_dynamic = false;
  for (const auto& [key, endpoint] : endpoints_) {
    if (endpoint.store == nullptr) {
      continue;
    }
    any_dynamic = true;
    bool subscribed = false;
    for (const auto& [store, id] : store_listeners_) {
      if (store == endpoint.store) {
        subscribed = true;
        break;
      }
    }
    if (subscribed) {
      continue;
    }
    const std::string dataset = endpoint.dataset;
    const int64_t id = endpoint.store->AddListener(
        [this, dataset](const std::shared_ptr<const graph::Snapshot>& /*snapshot*/,
                        const graph::MutationBatch& batch) { OnMutation(dataset, batch); });
    store_listeners_.emplace_back(endpoint.store, id);
  }
  if (any_dynamic && options_.background_recompile) {
    replanner_ = std::make_unique<dyn::Replanner>(
        [this](const std::string& key, std::shared_ptr<const graph::Snapshot> snapshot) {
          CompileForSnapshot(key, snapshot);
        });
    replanner_->Start();
  }
  pool_ = std::make_unique<pipeline::WorkerPool>(device::Current().profile(),
                                                 options_.num_workers);
  if (options_.jit) {
    // Created before the plan warm start so warm-started sessions re-attach
    // persisted kernel artifacts (which live next to the plans in plan_dir).
    jit::JitEngineOptions jit_options;
    jit_options.artifact_dir = options_.plan_dir;
    jit_ = std::make_unique<jit::JitEngine>(jit_options);
  }
  if (!options_.plan_dir.empty()) {
    // Warm start: activate persisted plans before workers begin serving, so
    // the first request of every restored endpoint is a cache hit with no
    // pass pipeline and no layout calibration.
    try {
      plan_cache_->LoadFrom(options_.plan_dir,
                            [this](const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan) {
                              return ActivatePlan(key, std::move(plan));
                            });
    } catch (const Error& e) {
      GS_LOG(Warning) << "serving: plan warm-start failed, continuing cold: " << e.what();
    }
  }
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    running_ = true;
  }
  pool_->Start([this](int worker) { WorkerLoop(worker); });
  GS_LOG(Info) << "serving: started " << options_.num_workers << " workers, queue capacity "
               << options_.queue_capacity << ", coalesce_max " << options_.coalesce_max;
}

void Server::Stop() {
  {
    // From here Submit admits nothing, and the workers drain every waiting
    // request before they return.
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (!running_.exchange(false)) {
      return;
    }
  }
  work_ready_.notify_all();
  // Quiesce the dynamic-graph machinery: unsubscribe from mutation streams
  // (no callback may outlive the server) and stop the replanner after at
  // most its in-flight compile.
  for (const auto& [store, id] : store_listeners_) {
    store->RemoveListener(id);
  }
  store_listeners_.clear();
  if (replanner_ != nullptr) {
    replanner_->Stop();
  }
  pool_->Join();
  if (!options_.plan_dir.empty() && plan_cache_ != nullptr) {
    // Best effort: a failed save must not turn shutdown into a crash.
    try {
      plan_cache_->SaveAll(options_.plan_dir);
    } catch (const Error& e) {
      GS_LOG(Warning) << "serving: failed to persist plans to " << options_.plan_dir << ": "
                      << e.what();
    }
  }
  GS_LOG(Info) << "serving: stopped";
}

void Server::Finish(Pending& pending, Status status, fault::ErrorCode code,
                    const std::string& error) {
  SampleResponse response;
  response.status = status;
  response.code = code;
  response.request_id = pending.id;
  response.error = error;
  if (status == Status::kRejected) {
    response.retry_after = options_.retry_after;
  } else if (status == Status::kDeadlineExceeded) {
    response.degraded = pending.degraded;
    response.stages.queue_wait_ns = ElapsedNs(pending.submitted, Clock::now());
    response.stages.total_ns = response.stages.queue_wait_ns;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    CountOutcome(stats_, response, pending.request.tenant);
  }
  pending.promise.set_value(std::move(response));
}

std::future<SampleResponse> Server::Submit(SampleRequest request) {
  auto pending = std::make_unique<Pending>();
  pending->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending->submitted = Clock::now();
  pending->request = std::move(request);
  std::future<SampleResponse> future = pending->promise.get_future();
  Count(&ServerStats::received);

  const SampleRequest& req = pending->request;
  if (!running_) {
    Finish(*pending, Status::kFailed, fault::ErrorCode::kInternal, "server not running");
    return future;
  }
  const Endpoint* endpoint = FindEndpoint(req.algorithm, req.dataset);
  if (endpoint == nullptr) {
    Finish(*pending, Status::kFailed, fault::ErrorCode::kInvalidRequest,
           "unknown endpoint: " + EndpointKey(req.algorithm, req.dataset));
    return future;
  }
  if (!req.seeds.defined() || req.seeds.empty()) {
    Finish(*pending, Status::kFailed, fault::ErrorCode::kInvalidRequest, "empty seed set");
    return future;
  }
  for (const int64_t fanout : req.fanouts) {
    if (fanout <= 0) {
      Finish(*pending, Status::kFailed, fault::ErrorCode::kInvalidRequest,
             "fanouts must be positive, got " + std::to_string(fanout));
      return future;
    }
  }
  if (endpoint->store != nullptr) {
    // Dynamic endpoint: resolve the latest snapshot at admission and pin it
    // for the request's lifetime; seeds are checked against it.
    pending->snapshot = endpoint->store->Current();
  }
  // A seed outside [0, num_nodes) would alias a node of a neighbouring
  // member once coalesced; reject it before it joins a group.
  pending->num_nodes = pending->snapshot != nullptr ? pending->snapshot->graph().num_nodes()
                                                    : endpoint->graph->num_nodes();
  for (int64_t i = 0; i < req.seeds.size(); ++i) {
    if (req.seeds[i] < 0 || req.seeds[i] >= pending->num_nodes) {
      Finish(*pending, Status::kFailed, fault::ErrorCode::kInvalidRequest,
             "seed " + std::to_string(req.seeds[i]) + " outside [0, " +
                 std::to_string(pending->num_nodes) + ")");
      return future;
    }
  }

  // Graceful degradation: past the shed threshold, admit with halved
  // fanouts instead of rejecting outright.
  std::vector<int64_t> fanouts =
      req.fanouts.empty() ? algorithms::DefaultFanouts(req.algorithm) : req.fanouts;
  const int64_t backlog = queued_.load(std::memory_order_relaxed);
  const int64_t shed_threshold =
      static_cast<int64_t>(options_.shed_occupancy * options_.queue_capacity);
  if (!fanouts.empty() && backlog >= shed_threshold) {
    fanouts = ShedFanouts(fanouts);
    pending->degraded = true;
  }

  pending->has_deadline = req.deadline.count() > 0;
  pending->deadline_abs = pending->submitted + req.deadline;

  // Deadline-aware admission: estimate completion as (queue depth / workers
  // + 1) service times and reject when that already exceeds the deadline.
  // With no service history yet, admit.
  if (pending->has_deadline && options_.deadline_admission) {
    const int64_t ema = ema_service_ns_.load(std::memory_order_relaxed);
    if (ema > 0) {
      const int64_t waves = backlog / std::max(1, options_.num_workers) + 1;
      if (ema * waves > req.deadline.count()) {
        Finish(*pending, Status::kRejected, fault::ErrorCode::kResourceExhausted,
               "deadline infeasible under current load");
        return future;
      }
    }
  }

  pending->key.algorithm = req.algorithm;
  pending->key.dataset = req.dataset;
  pending->key.device = device::Current().profile().name;
  pending->key.pass_config = PassConfigDigest(endpoint->options);
  pending->key.fanouts = std::move(fanouts);
  pending->frontier = req.seeds;
  if (pending->snapshot != nullptr) {
    // The snapshot pinned above: its epoch + digest join the plan key, so
    // sessions and coalescing groups never mix epochs.
    pending->key.dynamic = true;
    pending->key.graph_epoch = pending->snapshot->epoch();
    pending->key.graph_digest = pending->snapshot->digest();
  }
  if (options_.num_shards > 1) {
    // Locality-aware routing: execute on the shard owning the plurality of
    // the seeds. The shard is part of the plan key, so each shard warms its
    // own session and coalescing stays shard-local.
    const graph::Partition* partition = PartitionFor(req.dataset);
    if (partition != nullptr) {
      pending->key.shard = partition->HomeShard(req.seeds.data(), req.seeds.size());
    }
  }
  pending->canonical = pending->key.Canonical();

  // A full queue is the overload signal; so is a server that Stop() shut
  // after the check above, which admits nothing more.
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (running_ && queued_.load(std::memory_order_relaxed) < options_.queue_capacity) {
      queued_.fetch_add(1, std::memory_order_relaxed);
      tenant_queues_[req.tenant].push_back(std::move(pending));
      Count(&ServerStats::admitted);
      work_ready_.notify_one();
      return future;
    }
  }
  Finish(*pending, Status::kRejected, fault::ErrorCode::kResourceExhausted, "admission queue full");
  return future;
}

void Server::WorkerLoop(int worker) {
  // Nothing a request does may kill a worker: ExecuteAndScatter already
  // classifies and absorbs execution failures per request, so anything that
  // reaches this boundary is a server-side bug — log it, count it, and keep
  // serving. (A dead worker would leave the queues to the others, or with
  // one worker hang Stop() on requests nobody serves.)
  while (true) {
    try {
      if (!ServeOne()) {
        return;
      }
    } catch (const std::exception& e) {
      GS_LOG(Warning) << "serving: worker " << worker
                      << " caught exception at the loop boundary: " << e.what();
      Count(&ServerStats::worker_exceptions);
    } catch (...) {
      GS_LOG(Warning) << "serving: worker " << worker
                      << " caught non-standard exception at the loop boundary";
      Count(&ServerStats::worker_exceptions);
    }
  }
}

bool Server::ServeOne() {
  Group expired;
  Group group;
  {
    std::unique_lock<std::mutex> lock(sched_mutex_);
    work_ready_.wait(lock,
                     [this] { return queued_.load(std::memory_order_relaxed) > 0 || !running_; });
    if (queued_.load(std::memory_order_relaxed) == 0) {
      return false;  // stopped, and every admitted request is answered or in flight
    }
    const Clock::time_point now = Clock::now();

    // Requests that expired while queued complete without executing.
    for (auto& [tenant, queue] : tenant_queues_) {
      for (auto it = queue.begin(); it != queue.end();) {
        if ((*it)->has_deadline && (*it)->deadline_abs <= now) {
          queued_.fetch_sub(1, std::memory_order_relaxed);
          expired.push_back(std::move(*it));
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
    }

    // Fair queueing across tenants: serve the least-served tenant first.
    std::map<std::string, std::deque<std::unique_ptr<Pending>>>::iterator best_tenant =
        tenant_queues_.end();
    for (auto it = tenant_queues_.begin(); it != tenant_queues_.end(); ++it) {
      if (it->second.empty()) {
        continue;
      }
      if (best_tenant == tenant_queues_.end() ||
          tenant_served_[it->first] < tenant_served_[best_tenant->first]) {
        best_tenant = it;
      }
    }
    if (best_tenant != tenant_queues_.end()) {
      // Strict scheduling order within a tenant: earliest deadline first
      // (requests with deadlines ahead of those without), then priority,
      // then arrival.
      const auto before = [](const Pending& a, const Pending& b) {
        if (a.has_deadline != b.has_deadline) {
          return a.has_deadline;
        }
        if (a.has_deadline && a.deadline_abs != b.deadline_abs) {
          return a.deadline_abs < b.deadline_abs;
        }
        if (a.request.priority != b.request.priority) {
          return a.request.priority > b.request.priority;
        }
        return a.id < b.id;
      };
      auto& queue = best_tenant->second;
      auto leader = queue.begin();
      for (auto it = std::next(queue.begin()); it != queue.end(); ++it) {
        if (before(**it, **leader)) {
          leader = it;
        }
      }
      queued_.fetch_sub(1, std::memory_order_relaxed);
      tenant_served_[best_tenant->first] += 1;
      group.push_back(std::move(*leader));
      queue.erase(leader);

      // Coalesce: gather queued requests (any tenant, arrival order) whose
      // plan key matches the leader's. Members share the leader's graph, and
      // the group stops growing before its labels b * N + v would overflow
      // int32.
      if (options_.enable_coalescing) {
        const std::string& canonical = group.front()->canonical;
        const size_t max_members = static_cast<size_t>(std::min<int64_t>(
            options_.coalesce_max, (int64_t{1} << 31) / group.front()->num_nodes));
        for (auto& [tenant, queue2] : tenant_queues_) {
          if (group.size() >= max_members) {
            break;
          }
          for (auto it = queue2.begin(); it != queue2.end() && group.size() < max_members;) {
            if ((*it)->canonical == canonical) {
              queued_.fetch_sub(1, std::memory_order_relaxed);
              tenant_served_[tenant] += 1;
              group.push_back(std::move(*it));
              it = queue2.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
    }
  }

  for (auto& pending : expired) {
    Finish(*pending, Status::kDeadlineExceeded, fault::ErrorCode::kOk,
           "deadline expired while queued");
  }
  if (!group.empty()) {
    ExecuteAndScatter(std::move(group));
  }
  return true;
}

std::shared_ptr<core::SamplerSession> Server::OpenSession(
    const Endpoint& endpoint, const std::vector<int64_t>& fanouts,
    const std::shared_ptr<const graph::Snapshot>& snapshot,
    std::shared_ptr<core::CompiledPlan> plan) {
  const graph::Graph& graph = snapshot != nullptr ? snapshot->graph() : *endpoint.graph;
  // With an adopted plan the trace only recovers the named tensor and
  // relation bindings: no passes and no calibration run.
  algorithms::AlgorithmProgram algorithm = endpoint.factory(graph, fanouts);
  if (plan == nullptr) {
    core::SamplerOptions options = endpoint.options;
    // The server groups requests itself; epoch-style super-batching inside
    // the plan would fight the coalescer.
    options.super_batch = 1;
    plan = std::make_shared<core::CompiledPlan>(std::move(algorithm.program), options,
                                                endpoint.algorithm);
  }
  auto session = snapshot != nullptr
                     ? std::make_shared<core::SamplerSession>(std::move(plan), snapshot,
                                                              std::move(algorithm.tensors),
                                                              std::move(algorithm.relations))
                     : std::make_shared<core::SamplerSession>(std::move(plan), graph,
                                                              std::move(algorithm.tensors),
                                                              std::move(algorithm.relations));
  session->Warmup(core::WarmupFrontier(graph));
  // The JIT attaches after Warmup: warmup calibrates the plan, and the
  // calibration state is part of CompiledPlan::Digest() — attaching earlier
  // would key artifacts under a digest the persisted (calibrated) plan no
  // longer has, defeating warm-restart reuse. TableFor never throws:
  // unresolvable regions demote to the interpreter, and a plan with no
  // fused regions yields no table at all.
  if (jit_ != nullptr) {
    session->SetJitTable(jit_->TableFor(session->plan()));
  }
  return session;
}

// Runs `fn` with shard `device`'s device and fault scope installed (as is
// when unsharded).
template <typename Fn>
auto Server::OnDevice(int device, Fn&& fn) -> decltype(fn()) {
  if (shard_devices_.empty()) {
    return fn();
  }
  device::ThreadDeviceGuard device_guard(*shard_devices_[static_cast<size_t>(device)]);
  fault::ShardScope fault_scope(device);
  return fn();
}

std::shared_ptr<core::SamplerSession> Server::BuildPlan(
    const Endpoint& endpoint, const PlanKey& key,
    const std::shared_ptr<const graph::Snapshot>& snapshot,
    std::shared_ptr<core::CompiledPlan> resident) {
  if (resident == nullptr) {
    // Cold start: the full compile runs here on the serving path.
    if (snapshot != nullptr) {
      Count(&ServerStats::recompiles_inline);
    }
    return OpenSession(endpoint, key.fanouts, snapshot);
  }
  // Dynamic endpoint at a new epoch: judge the resident plan against the
  // snapshot's degree distribution before paying for passes + calibration.
  std::string why;
  if (resident->validity().CheckAgainst(snapshot->degree_stats(), &why)) {
    Count(&ServerStats::plan_reuses);
  } else if (replanner_ == nullptr) {
    // Drift with background recompilation disabled: compile inline.
    Count(&ServerStats::recompiles_inline);
    return OpenSession(endpoint, key.fanouts, snapshot);
  } else {
    // A drifted plan still serves correct results (layout decisions affect
    // cost, never values) while the replanner recompiles off the serving
    // path.
    const std::string compile_key = key.CompileKey();
    GS_LOG(Info) << "serving: plan " << compile_key << " drifted past validity (" << why
                 << "); serving stale, recompiling in the background";
    replanner_->Enqueue(compile_key, snapshot);
    Count(&ServerStats::stale_plans_served);
  }
  // Cheap path: rebuild a session over the resident frozen plan.
  return OpenSession(endpoint, key.fanouts, snapshot, std::move(resident));
}

void Server::CompileForSnapshot(const std::string& compile_key,
                                const std::shared_ptr<const graph::Snapshot>& snapshot) {
  PlanKey key = PlanKey::Parse(compile_key);
  const Endpoint* endpoint = FindEndpoint(key.algorithm, key.dataset);
  if (endpoint == nullptr || endpoint->store == nullptr) {
    return;  // endpoint vanished (shutdown race); nothing to publish
  }
  // Published at its epoch: the next request there hits, and later epochs
  // are judged against the fresh plan.
  key.dynamic = true;
  key.graph_epoch = snapshot->epoch();
  key.graph_digest = snapshot->digest();
  plan_cache_->Insert(
      key, OnDevice(key.shard, [&] { return OpenSession(*endpoint, key.fanouts, snapshot); }));
  Count(&ServerStats::recompiles_background);
}

void Server::OnMutation(const std::string& dataset, const graph::MutationBatch& batch) {
  Count(&ServerStats::graph_epochs);
  // Ownership is pinned across epochs, so routing stays stable and the
  // partition never changes. Shards owning a touched column count as
  // rebuilt, the others as reused.
  if (const graph::Partition* partition = PartitionFor(dataset)) {
    std::vector<bool> touched(static_cast<size_t>(options_.num_shards), false);
    for (const int32_t col : batch.TouchedColumns()) {
      touched[static_cast<size_t>(partition->OwnerOf(col))] = true;
    }
    const int64_t rebuilt = std::count(touched.begin(), touched.end(), true);
    Count(&ServerStats::partition_segments_rebuilt, rebuilt);
    Count(&ServerStats::partition_segments_reused, options_.num_shards - rebuilt);
  }
  // Feature tier: invalidate exactly the mutated rows in every cache
  // partition of this dataset. Requests gather from their own epoch's
  // tensor, so the cache decides only what a gather costs; untouched rows
  // are identical across epochs and keep their cached copies. The counter
  // counts the batch's updates once, however many partitions exist yet.
  if (batch.update_features.empty()) {
    return;
  }
  Count(&ServerStats::feature_invalidations, static_cast<int64_t>(batch.update_features.size()));
  std::lock_guard<std::mutex> lock(feature_mutex_);
  auto it = feature_caches_.find(dataset);
  if (it == feature_caches_.end()) {
    return;
  }
  for (const auto& [shard, partitions] : it->second) {
    (void)shard;
    for (const FeaturePartition& partition : partitions) {
      for (const graph::FeatureUpdate& update : batch.update_features) {
        partition.cache->Invalidate(static_cast<uint64_t>(update.node));
      }
    }
  }
}

const graph::Partition* Server::PartitionFor(const std::string& dataset) const {
  auto it = partitions_.find(dataset);
  return it != partitions_.end() ? &it->second : nullptr;
}

void Server::DrainRecompiles() {
  if (replanner_ != nullptr) {
    replanner_->Drain();
  }
}

dyn::ReplannerStats Server::replanner_stats() const {
  return replanner_ != nullptr ? replanner_->stats() : dyn::ReplannerStats{};
}

std::shared_ptr<core::SamplerSession> Server::ActivatePlan(
    const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan) {
  const Endpoint* endpoint = FindEndpoint(key.algorithm, key.dataset);
  if (endpoint == nullptr) {
    return nullptr;  // this server no longer serves the endpoint
  }
  if (key.device != device::Current().profile().name) {
    return nullptr;  // calibrated for a different device profile
  }
  if (key.pass_config != PassConfigDigest(endpoint->options)) {
    return nullptr;  // stale artifact: pass configuration changed
  }
  if (key.shard >= std::max(1, options_.num_shards)) {
    return nullptr;  // persisted by a server with more shards
  }
  if (key.dynamic != (endpoint->store != nullptr)) {
    return nullptr;  // endpoint changed between static and dynamic
  }
  std::shared_ptr<const graph::Snapshot> snapshot;
  if (key.dynamic) {
    // A persisted dynamic plan is only servable when the store's current
    // epoch has the exact digest it was calibrated against; otherwise the
    // first request compiles and later epochs re-plan from there.
    snapshot = endpoint->store->Current();
    if (key.graph_digest != snapshot->digest()) {
      return nullptr;
    }
  }
  // The persisted plan (program + annotations + calibration) is used as-is,
  // so no passes and no calibration run here.
  return OnDevice(key.shard, [&] {
    return OpenSession(*endpoint, key.fanouts, snapshot, std::move(plan));
  });
}

std::shared_ptr<feature::HotSetCache> Server::TenantFeatureCache(int shard,
                                                                 const std::string& tenant,
                                                                 const std::string& dataset,
                                                                 int64_t row_bytes) {
  std::lock_guard<std::mutex> lock(feature_mutex_);
  std::vector<FeaturePartition>& partitions = feature_caches_[dataset][shard];
  const uint64_t use = ++feature_uses_;
  for (FeaturePartition& partition : partitions) {
    if (partition.tenant == tenant) {
      partition.last_used = use;
      return partition.cache;
    }
  }
  // Per-tenant partitioning: each tenant gets an equal slice of the shard's
  // feature-cache byte budget, sized in whole feature rows. The partition
  // allocates real backing pages from the current (shard) device and joins
  // its allocator's OOM ladder. A full set gives up its least recently used
  // partition first, so the new one fits inside the budget.
  const int max_partitions = std::max(1, options_.feature_cache_partitions);
  if (static_cast<int>(partitions.size()) >= max_partitions) {
    partitions.erase(std::min_element(partitions.begin(), partitions.end(),
                                      [](const FeaturePartition& a, const FeaturePartition& b) {
                                        return a.last_used < b.last_used;
                                      }));
  }
  const int64_t share = options_.feature_cache_budget_bytes / max_partitions;
  const int64_t capacity = std::max<int64_t>(64, share / std::max<int64_t>(row_bytes, 1));
  auto cache = std::make_shared<feature::HotSetCache>(feature::HotSetCacheOptions{
      .capacity = capacity,
      .admission = options_.feature_admission,
      .entry_bytes = row_bytes,
      .register_pressure_handler = true,
  });
  partitions.push_back({tenant, use, cache});
  return cache;
}

int64_t Server::SavePlans(const std::string& dir) {
  GS_CHECK(plan_cache_ != nullptr) << "SavePlans requires Start()";
  return plan_cache_->SaveAll(dir);
}

void Server::ExecuteAndScatter(Group group) {
  const Clock::time_point dequeued = Clock::now();
  for (auto& pending : group) {
    pending->dequeued = dequeued;
  }
  Pending& leader = *group.front();

  std::ostringstream tag;
  tag << "req=" << leader.id;
  if (group.size() > 1) {
    tag << "+" << group.size() - 1;
  }
  ScopedLogTag log_tag(tag.str());

  // The group is shard-homogeneous because the shard is part of the plan
  // key; executing on a replica changes only which timeline is charged,
  // never the outputs (sessions bind the full graph).
  Execution exec;
  exec.endpoint = FindEndpoint(leader.request.algorithm, leader.request.dataset);
  GS_CHECK(exec.endpoint != nullptr);
  exec.key = leader.key;
  exec.device = exec.key.shard;
  if (options_.num_shards > 1) {
    exec.partition = PartitionFor(exec.endpoint->dataset);
  }

  Attempt(exec, group);
  if (monitor_ != nullptr && exec.runs > 0 && exec.error.empty()) {
    monitor_->ReportSuccess(exec.device);  // may readmit a probed dead device
  }
  GS_LOG(Debug) << "serving: executed group of " << group.size() << " ("
                << (exec.cache_hit ? "plan hit" : "plan miss") << ", "
                << exec.execute_ns / 1000 << " us)"
                << (exec.error.empty() ? "" : " FAILED");

  std::vector<SampleResponse> responses = Scatter(exec, group);
  GatherFeatures(exec, group, responses);
  Record(exec, group, responses);
  for (size_t i = 0; i < group.size(); ++i) {
    group[i]->promise.set_value(std::move(responses[i]));
  }
}

// place: walks the home shard's replica chain in placement order, skipping
// devices the health monitor holds dead (a dead device still gets one probe
// per backoff window); a shard.lost injection at placement marks the device
// dead and moves on. With no live replica the group turns degraded for good
// (Attempt never re-places it): it runs on a fallback device, each member
// cut to its covered seeds.
void Server::Place(Execution& exec, Group& group) {
  const graph::Partition& partition = *exec.partition;
  for (int r = 0; r < partition.num_replicas(); ++r) {
    const int candidate = partition.ReplicaDevice(exec.key.shard, r);
    if (!monitor_->AdmitWork(candidate)) {
      continue;
    }
    fault::ShardScope probe_scope(candidate);
    if (fault::Injected(fault::Site::kShardLost)) {
      monitor_->ReportDeviceLost(candidate);
      continue;
    }
    exec.device = candidate;
    return;
  }
  // No live replica: answer partially from the devices still standing
  // rather than failing the group. The fallback is the lowest-numbered live
  // device, so every worker resolves the same device for the same monitor
  // state and a replayed fault schedule reproduces the same degraded
  // outputs bit-for-bit.
  exec.degraded = true;
  exec.device = -1;
  for (int s = 0; s < options_.num_shards && exec.device < 0; ++s) {
    if (monitor_->Alive(s)) {
      exec.device = s;
    }
  }
  for (auto& pending : group) {
    const tensor::IdArray& seeds = pending->request.seeds;
    const std::vector<int32_t> covered =
        ha::CoveredIds(partition, *monitor_, seeds.data(), seeds.size());
    // Admission rejects empty seed sets, so the share is defined.
    pending->coverage =
        static_cast<double>(covered.size()) / static_cast<double>(seeds.size());
    pending->frontier = tensor::IdArray::FromVector(covered);
  }
}

// One try of Attempt on the placed device: resolves the plan through the
// PlanCache and runs the members as one labeled group. Throws on failure.
void Server::RunOnce(Execution& exec, const std::shared_ptr<const graph::Snapshot>& snapshot,
                     const std::vector<tensor::IdArray>& frontiers,
                     const std::vector<uint64_t>& seeds) {
  OnDevice(exec.device, [&] {
    bool hit = false;
    int64_t build_ns = 0;
    std::shared_ptr<core::SamplerSession> session = plan_cache_->GetOrBuild(
        exec.key,
        [&](std::shared_ptr<core::CompiledPlan> resident) {
          return BuildPlan(*exec.endpoint, exec.key, snapshot, std::move(resident));
        },
        &hit, &build_ns);
    exec.cache_hit = hit;
    exec.compile_ns += build_ns;
    const auto run = [&] {
      exec.outputs.assign(frontiers.size(), {});
      Timer timer;
      session->SampleGrouped(frontiers, seeds, [&exec](int64_t b, std::vector<core::Value>& out) {
        exec.outputs[static_cast<size_t>(b)] = std::move(out);
      });
      exec.execute_ns = timer.ElapsedNanos();
    };
    if (exec.partition == nullptr) {
      run();
      return;
    }
    shard::FrontierExchange exchange(*exec.partition, exec.device, monitor_.get(),
                                     kMaxHedgedExchanges);
    core::HopObserverGuard observer(exchange);
    run();
    for (const shard::HopRecord& h : exchange.hops()) {
      exec.counters.exchange_hops += h.remote_nodes > 0 ? 1 : 0;
      exec.counters.exchange_remote_nodes += h.remote_nodes;
      exec.counters.exchange_bytes += h.bytes;
    }
    exec.counters.hedged_exchanges = exchange.hedges();
  });
}

// attempt: re-places (until degraded), then runs the executing members
// under the recovery ladder; the last failure lands in exec.error/code.
// Transient failures
// (injected kernel faults, watchdog-cancelled batches, UVA transfer errors,
// exchange timeouts past the hedge budget) are retried with exponential
// backoff — results are a pure function of (seeds, seed), so a retry
// returns bit-identical outputs. Resource exhaustion that survived the
// allocator's own ladder gets one retry with shed (halved) fanouts, reusing
// the overload-degradation path. Invalid requests and internal errors fail
// immediately.
void Server::Attempt(Execution& exec, Group& group) {
  int transient_left = std::max(0, options_.max_transient_retries);
  std::chrono::nanoseconds backoff = kRetryBackoff;
  while (true) {
    exec.outputs.clear();
    exec.execute_ns = 0;
    exec.error.clear();
    exec.code = fault::ErrorCode::kOk;
    if (exec.partition != nullptr && !exec.degraded) {
      Place(exec, group);
    }
    std::vector<tensor::IdArray> frontiers;
    std::vector<uint64_t> seeds;
    frontiers.reserve(group.size());
    seeds.reserve(group.size());
    for (const auto& pending : group) {
      if (!pending->frontier.empty()) {
        frontiers.push_back(pending->frontier);
        seeds.push_back(pending->request.seed);
      }
    }
    exec.runs = static_cast<int64_t>(frontiers.size());
    if (exec.runs == 0) {
      return;  // degraded with nothing covered
    }
    if (exec.device < 0) {
      exec.error = "no live device for degraded serving";
      exec.code = fault::ErrorCode::kUnavailable;
      return;
    }
    try {
      RunOnce(exec, group.front()->snapshot, frontiers, seeds);
      return;
    } catch (const std::exception& e) {
      exec.error = e.what();
      exec.code = fault::Classify(e);
    }
    if (exec.code == fault::ErrorCode::kTransient && monitor_ != nullptr) {
      // Feeds the device's suspect state; the retry re-places, so a shard
      // the signals kill gets skipped on the next attempt.
      monitor_->ReportTransient(exec.device);
    }
    if (exec.code == fault::ErrorCode::kTransient && transient_left > 0) {
      --transient_left;
      Count(&ServerStats::transient_retries);
      GS_LOG(Debug) << "serving: transient failure, retrying after " << backoff.count() / 1000
                    << " us: " << exec.error;
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
      continue;
    }
    if (exec.code == fault::ErrorCode::kResourceExhausted && !exec.shed &&
        !exec.key.fanouts.empty()) {
      exec.shed = true;
      exec.key.fanouts = ShedFanouts(exec.key.fanouts);
      Count(&ServerStats::shed_retries);
      GS_LOG(Warning) << "serving: resource exhausted, retrying with shed fanouts: "
                      << exec.error;
      continue;
    }
    return;  // terminal failure
  }
}

// scatter: one response per member; kDegraded plus coverage in degraded
// mode.
std::vector<SampleResponse> Server::Scatter(Execution& exec, Group& group) {
  Timer timer;
  const bool coalesced = exec.runs > 1 && exec.error.empty();
  // Shed-fanout results are degraded regardless of admission-time state.
  const bool degraded = exec.degraded || (exec.shed && exec.error.empty());
  std::vector<SampleResponse> responses(group.size());
  size_t next = 0;  // exec.outputs index of the next executing member
  for (size_t i = 0; i < group.size(); ++i) {
    const Pending& pending = *group[i];
    SampleResponse& response = responses[i];
    response.request_id = pending.id;
    response.degraded = pending.degraded || degraded;
    response.coverage = pending.coverage;
    response.group_size = coalesced ? static_cast<int>(exec.runs) : 1;
    response.stages.queue_wait_ns = ElapsedNs(pending.submitted, pending.dequeued);
    response.stages.compile_ns = exec.compile_ns;
    response.stages.plan_cache_hit = exec.cache_hit;
    response.stages.execute_ns = exec.execute_ns;
    if (pending.frontier.empty()) {
      // Nothing coverable: an honest empty partial (coverage says why),
      // never a request error.
      response.status = Status::kDegraded;
    } else if (!exec.error.empty()) {
      response.status = Status::kFailed;
      response.error = exec.error;
      response.code = exec.code;
    } else {
      response.status = exec.degraded ? Status::kDegraded : Status::kOk;
      response.outputs = std::move(exec.outputs[next++]);
    }
  }
  exec.scatter_ns = timer.ElapsedNanos();
  return responses;
}

// gather features: attaches feature rows to every kOk response.
void Server::GatherFeatures(Execution& exec, const Group& group,
                            std::vector<SampleResponse>& responses) {
  if (!options_.serve_features || exec.degraded || !exec.error.empty()) {
    return;  // no kOk response to gather for
  }
  // The group's own graph: a dynamic group's pinned snapshot, so its rows
  // come from the epoch it sampled, whatever epochs were applied since.
  const std::shared_ptr<const graph::Snapshot>& snapshot = group.front()->snapshot;
  const graph::Graph& graph = snapshot != nullptr ? snapshot->graph() : *exec.endpoint->graph;
  if (!graph.features().defined()) {
    return;  // a feature-less dataset serves bare frontiers
  }
  const feature::FeatureStore store(graph.features());
  // Each response gathers through its tenant's cache partition on the
  // executing device, so backing pages and gather kernels land on that
  // shard. Coalesced members gather from their own scattered outputs, so the
  // rows are identical to being served alone.
  feature::GatherStats gather;
  OnDevice(exec.device, [&] {
    for (size_t i = 0; i < group.size(); ++i) {
      SampleResponse& response = responses[i];
      if (response.status != Status::kOk) {
        continue;
      }
      try {
        const std::shared_ptr<feature::HotSetCache> cache = TenantFeatureCache(
            exec.device, group[i]->request.tenant, exec.endpoint->dataset, store.row_bytes());
        Timer feature_timer;
        const tensor::IdArray ids = FeatureFrontier(response.outputs, group[i]->request.seeds);
        response.features = store.Gather(ids, cache.get(), &gather);
        response.feature_ids = ids;
        response.stages.feature_ns = feature_timer.ElapsedNanos();
        exec.counters.feature_gather_ns += response.stages.feature_ns;
        ++exec.counters.feature_requests;
      } catch (const std::exception& e) {
        // A failed gather (injected transfer fault, or a cache partition
        // the device cannot hold) fails the response — a frontier without
        // the features the caller asked for is not a success — but never
        // the worker.
        response.status = Status::kFailed;
        response.outputs.clear();
        response.features = {};
        response.feature_ids = {};
        response.error = std::string("feature gather failed: ") + e.what();
        response.code = fault::Classify(e);
      }
    }
  });
  exec.counters.feature_rows = gather.rows;
  exec.counters.feature_cache_hits = gather.hits;
  exec.counters.feature_cache_misses = gather.misses;
  exec.counters.feature_gather_bytes = gather.gathered_bytes;
  exec.counters.feature_miss_bytes = gather.miss_bytes;
}

// record: stamps total latency and updates ServerStats once per group.
void Server::Record(const Execution& exec, const Group& group,
                    std::vector<SampleResponse>& responses) {
  // Service-time EMA feeding deadline admission (amortized per request).
  if (exec.runs > 0 && exec.error.empty()) {
    const int64_t per_request =
        (exec.compile_ns + exec.execute_ns) / static_cast<int64_t>(group.size());
    const int64_t previous = ema_service_ns_.load(std::memory_order_relaxed);
    const int64_t next = previous == 0 ? per_request : (7 * previous + per_request) / 8;
    ema_service_ns_.store(next, std::memory_order_relaxed);
  }
  const Clock::time_point done = Clock::now();
  for (size_t i = 0; i < group.size(); ++i) {
    responses[i].stages.scatter_ns = exec.scatter_ns;
    responses[i].stages.total_ns = ElapsedNs(group[i]->submitted, done);
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  // One execution per group that ran; requests_executed also counts the
  // members of a group that failed.
  const bool executed = exec.runs > 0 && exec.error.empty();
  stats_.executions += executed ? 1 : 0;
  stats_.requests_executed += exec.runs;
  if (executed && exec.runs > 1) {
    ++stats_.coalesced_executions;
  }
  if (exec.error.empty() && !exec.degraded && exec.device != exec.key.shard) {
    // Served by a non-primary replica: count one failover per execution,
    // not per coalesced member.
    ++stats_.failovers;
  }
  // Exchange counters come only from the attempt that succeeded, and feature
  // counters only from gathers that did.
  stats_.Add(exec.counters);
  for (size_t i = 0; i < group.size(); ++i) {
    const SampleResponse& response = responses[i];
    CountOutcome(stats_, response, group[i]->request.tenant);
    if (response.status == Status::kFailed || group[i]->frontier.empty()) {
      continue;  // failed, or answered without executing
    }
    if (options_.num_shards > 1) {
      // Attribute to the device that did the work, so failover shows up in
      // the per-shard breakdown instead of crediting the dead shard.
      ++stats_.per_shard_completed[exec.device];
    }
    latency_.Record(response.stages.total_ns);
  }
}

void Server::Count(int64_t ServerStats::*field, int64_t n) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.*field += n;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ServerStats snapshot = stats_;
  if (plan_cache_ != nullptr) {
    const PlanCacheStats cache = plan_cache_->stats();
    snapshot.plan_cache_hits = cache.hits;
    snapshot.plan_cache_misses = cache.misses;
    snapshot.plan_cache_evictions = cache.evictions;
    snapshot.plan_resident_bytes = cache.resident_bytes;
    snapshot.plans_saved = cache.plans_saved;
    snapshot.plans_loaded = cache.plans_loaded;
  }
  if (jit_ != nullptr) {
    const jit::JitStats jit_stats = jit::GlobalJitStats();
    snapshot.jit_regions = jit_stats.regions;
    snapshot.jit_compiled = jit_stats.compiled;
    snapshot.jit_artifact_hits = jit_stats.artifact_hits;
    snapshot.jit_hits = jit_stats.hits;
    snapshot.jit_demotions = jit_stats.demotions;
  }
  snapshot.latency_p50_ns = latency_.Percentile(50);
  snapshot.latency_p95_ns = latency_.Percentile(95);
  snapshot.latency_p99_ns = latency_.Percentile(99);
  snapshot.latency_max_ns = latency_.max_ns();
  return snapshot;
}

}  // namespace gs::serving
