// Serving workloads: an embedded gs::serving::Server (2 workers, V100Sim)
// driven window after window by the benchmark's own load generator: an
// open-loop Poisson phase at a fixed rate, then a closed-loop phase at 16
// outstanding requests that measures capacity.
//
//   sage-pd-serve-feat     GraphSAGE {10, 5} at 600 req/s, 4 tenants,
//                          coalescing, features served through a 1.6 MB
//                          frequency-EMA hot-set cache (about half the
//                          feature table).
//   mixed-pd-serve-mutate  GraphSAGE {10, 5} and DeepWalk 50/50 at 300
//                          req/s on a 2-shard dynamic GraphStore endpoint,
//                          while an ingest thread applies mutation batches.
//
// The open-loop generator times every request from its scheduled send
// time, so a stalled server also charges the requests queued behind the
// stall, and reports how late it sent. Requests that were rejected, expired
// or failed count as missing every latency limit. serving::RunOpenLoop does
// neither: it records server-side latency of OK responses only.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/executor.h"
#include "device/device.h"
#include "dyn/mutation_gen.h"
#include "feature/hot_set_cache.h"
#include "feature/store.h"
#include "graph/datasets.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "gsbench.h"
#include "serving/server.h"
#include "shard/shard.h"

namespace gsbench {
namespace {

using gs::serving::SampleRequest;
using gs::serving::SampleResponse;
using gs::serving::ServerStats;
using gs::serving::Status;

constexpr int kSetups = 3;
constexpr int64_t kSeedsPerRequest = 64;
constexpr int kTenants = 4;
constexpr int kShards = 2;  // mixed-pd-serve-mutate
constexpr int64_t kFeatureCacheBytes = 1'600'000;  // sage-pd-serve-feat
// Half of every request's seeds come from a fixed hot set of this share of
// the train ids, half are uniform over all of them.
constexpr double kHotShare = 0.01;
constexpr double kOpenSeconds = 1.0;
constexpr double kClosedSeconds = 1.0;
constexpr int kClosedOutstanding = 16;
// One served request in this many is replayed solo and compared.
constexpr int64_t kReplayEvery = 100;
// Solo replays on a private device behind model_ns_per_seed, split evenly
// across the workload's algorithms (see ServeRun::ProbeModelNsPerSeed).
constexpr int kProbeRequests = 256;
// Latency charged to a request that never came back OK: longer than any
// window, so it misses every limit and lands above every real sample.
constexpr double kMissedMs = 60'000;
const std::vector<int64_t> kSageFanouts = {10, 5};
constexpr int kWalkLength = gs::algorithms::DeepWalkParams{}.walk_length;

// Streams of the run seed.
constexpr uint64_t kHotSetStream = 1;
constexpr uint64_t kArrivalStream = 2;
constexpr uint64_t kClosedStream = 3;
constexpr uint64_t kProbeStream = 4;
constexpr uint64_t kMutationStream = 5;

struct ServeSpec {
  double rps;
  bool mixed;  // mixed-pd-serve-mutate; otherwise sage-pd-serve-feat
  double slo_ms;
  int mutations_per_window;
};

// One cold set-up: fresh device, graph (or versioned store), and a started
// server that has answered one request per endpoint.
struct ServeSetup {
  std::unique_ptr<gs::device::Device> device;  // outlives everything below
  std::unique_ptr<gs::graph::Graph> graph;     // static endpoint graph
  std::unique_ptr<gs::graph::GraphStore> store;
  std::shared_ptr<const gs::graph::Snapshot> base;  // the store's epoch 0
  std::unique_ptr<gs::serving::Server> server;      // destroyed first

  const gs::graph::Graph& base_graph() const { return graph ? *graph : base->graph(); }
};

std::vector<std::string> Algorithms(const ServeSpec& spec) {
  if (spec.mixed) {
    return {"GraphSAGE", "DeepWalk"};
  }
  return {"GraphSAGE"};
}

std::unique_ptr<ServeSetup> ColdSetup(const ServeSpec& spec, const RunOptions& options,
                                      Tracer& tracer, uint64_t parent, SetupTimes& times) {
  auto s = std::make_unique<ServeSetup>();
  s->device = std::make_unique<gs::device::Device>(gs::device::V100Sim());
  gs::device::DeviceGuard guard(*s->device);

  const Clock::time_point t0 = Clock::now();
  gs::graph::Graph g = gs::graph::MakeDataset("PD", {.scale = DatasetScale(options)});
  if (spec.mixed) {
    s->store = std::make_unique<gs::graph::GraphStore>(std::move(g));
    s->base = s->store->Current();
  } else {
    s->graph = std::make_unique<gs::graph::Graph>(std::move(g));
  }
  const Clock::time_point t1 = Clock::now();
  gs::serving::ServerOptions server_options;
  server_options.num_workers = 2;
  if (spec.mixed) {
    server_options.num_shards = kShards;
    server_options.partition_kind = gs::graph::PartitionKind::kEdgeCut;
  } else {
    server_options.serve_features = true;
    server_options.feature_cache_budget_bytes = kFeatureCacheBytes;
    server_options.feature_admission = gs::feature::Admission::kFrequencyEma;
  }
  s->server = std::make_unique<gs::serving::Server>(server_options);
  for (const std::string& algorithm : Algorithms(spec)) {
    s->server->RegisterEndpoint(
        spec.mixed ? gs::serving::MakeDynamicEndpoint(algorithm, "PD", *s->store)
                   : gs::serving::MakeEndpoint(algorithm, "PD", *s->graph));
  }
  s->server->Start();
  const Clock::time_point t2 = Clock::now();
  // The first request per endpoint compiles and warms its plan.
  double compile_s = 0;
  const gs::tensor::IdArray& train = s->base_graph().train_ids();
  std::vector<int32_t> first(train.data(),
                             train.data() + std::min<int64_t>(kSeedsPerRequest, train.size()));
  for (const std::string& algorithm : Algorithms(spec)) {
    SampleRequest request;
    request.algorithm = algorithm;
    request.dataset = "PD";
    request.seeds = gs::tensor::IdArray::FromVector(first);
    if (algorithm == "GraphSAGE") {
      request.fanouts = kSageFanouts;
    }
    const SampleResponse response = s->server->Submit(std::move(request)).get();
    GS_CHECK(response.status == Status::kOk)
        << "first " << algorithm << " request failed: " << response.error;
    compile_s += static_cast<double>(response.stages.compile_ns) / 1e9;
  }
  const Clock::time_point t3 = Clock::now();
  times["graph.build_s"].push_back(Seconds(t1 - t0));
  times["serving.start_s"].push_back(Seconds(t2 - t1));
  times["plan.compile_s"].push_back(compile_s);
  times["setup_s"].push_back(Seconds(t3 - t0));
  const uint64_t id = tracer.NewId();
  tracer.Record(tracer.NewId(), "setup.graph", t0, t1, id);
  tracer.Record(tracer.NewId(), "setup.server_start", t1, t2, id);
  tracer.Record(tracer.NewId(), "setup.first_requests", t2, t3, id);
  tracer.Record(id, "setup", t0, t3, parent);
  return s;
}

// Seeded request stream: seed sets (half hot, half uniform over the train
// ids), per-request RNG seeds, tenants and, for the mixed workload, the
// algorithm.
class RequestGen {
 public:
  RequestGen(const gs::graph::Graph& g, const ServeSpec& spec, uint64_t seed)
      : train_(g.train_ids().ToVector()), mixed_(spec.mixed) {
    std::vector<int32_t> shuffled = train_;
    gs::Rng rng(DeriveSeed(seed, kHotSetStream));
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
    }
    const size_t hot = std::max<size_t>(1, static_cast<size_t>(kHotShare * shuffled.size()));
    hot_.assign(shuffled.begin(), shuffled.begin() + static_cast<int64_t>(hot));
  }

  // The next request of the traffic mix.
  SampleRequest Next(gs::Rng& rng, int64_t index) const {
    return Next(rng, index, mixed_ && rng.UniformInt(2) == 1 ? "DeepWalk" : "GraphSAGE");
  }

  SampleRequest Next(gs::Rng& rng, int64_t index, const std::string& algorithm) const {
    SampleRequest request;
    request.dataset = "PD";
    request.algorithm = algorithm;
    if (request.algorithm == "GraphSAGE") {
      request.fanouts = kSageFanouts;
    }
    std::vector<int32_t> seeds(static_cast<size_t>(kSeedsPerRequest));
    for (size_t i = 0; i < seeds.size(); ++i) {
      const std::vector<int32_t>& pool = i % 2 == 0 ? hot_ : train_;
      seeds[i] = pool[rng.UniformInt(pool.size())];
    }
    request.seeds = gs::tensor::IdArray::FromVector(seeds);
    request.seed = rng.NextU64();
    request.tenant = "tenant-" + std::to_string(index % kTenants);
    return request;
  }

 private:
  std::vector<int32_t> train_;
  std::vector<int32_t> hot_;
  bool mixed_;
};

// A request in flight, plus what the window needs once it completes.
struct Sent {
  std::future<SampleResponse> response;
  Clock::time_point scheduled;
  Clock::time_point submitted;
  std::optional<SampleRequest> replay;  // kept for the solo-replay check
  bool walk = false;
  int64_t seeds = 0;
};

// Everything measured about one window's open-loop phase.
struct WindowStats {
  std::vector<double> latency_ms;  // from the scheduled send time
  std::vector<double> late_ms;     // generator lateness
  std::vector<double> queue_ms;
  std::vector<double> execute_ms;
  std::vector<double> compile_ms;
  std::vector<double> scatter_ms;
  std::vector<double> feature_ms;
  int64_t within_slo = 0;
  int64_t sent = 0;
  double capacity = 0;  // closed-loop seeds per second
  bool recorded = true;
};

class ServeRun {
 public:
  ServeRun(const ServeSpec& spec, const RunOptions& options, Tracer& tracer, Report& report)
      : spec_(spec), options_(options), tracer_(tracer), report_(report),
        replay_device_(gs::device::V100Sim()) {}

  void Run();

 private:
  // Opens solo-replay sessions (no coalescing, no server) over the base
  // graph, compiled exactly like the server compiles its plans, and for the
  // mixed workload partitions that graph like the server does.
  void OpenReplaySessions();
  std::vector<gs::core::Value> Replay(const SampleRequest& request);
  // Handles one response: counts it, runs the cheap checks and, in the
  // open-loop phase (`window` non-null), records latency and stages.
  // Requests to replay are queued for after the window. Returns whether the
  // response was OK.
  bool Complete(Sent& sent, WindowStats* window);
  // Sends `request` now (closed loop) or at `scheduled` (open loop).
  Sent Send(SampleRequest request, Clock::time_point scheduled, bool replay);
  void CheckWalk(const SampleResponse& response);
  void CheckReplay(const SampleRequest& request, const SampleResponse& response);
  void OpenLoop(int window, WindowStats& stats);
  void ClosedLoop(int window, WindowStats& stats);
  void Ingest(int window, std::vector<double>& apply_ms, std::string& error);
  double OpenSeconds() const { return kOpenSeconds * (options_.smoke ? 0.1 : 1.0); }
  double ProbeModelNsPerSeed(const RequestGen& gen);
  void ReportMetrics(const std::vector<WindowStats>& windows,
                     const ServerStats& before, const ServerStats& after,
                     const std::vector<double>& apply_ms, const std::vector<double>& probes,
                     double model_ns_per_seed);

  const ServeSpec spec_;
  const RunOptions& options_;
  Tracer& tracer_;
  Report& report_;
  gs::device::Device replay_device_;
  std::map<std::string, std::unique_ptr<gs::core::SamplerSession>> replay_sessions_;
  std::unique_ptr<ServeSetup> setup_;  // the last cold set-up, which is measured
  // Mixed workload only. Shares the base graph's arrays, which live on the
  // set-up's device, so it is declared after setup_ and destroyed before it.
  std::optional<gs::graph::Partition> replay_partition_;
  SetupTimes setup_times_;
  std::unique_ptr<RequestGen> gen_;
  std::unique_ptr<gs::dyn::MutationGen> mutations_;
  std::vector<std::pair<SampleRequest, SampleResponse>> to_replay_;
  int64_t sent_total_ = 0;
};

void ServeRun::OpenReplaySessions() {
  gs::device::ThreadDeviceGuard on_replay_device(replay_device_);
  const gs::graph::Graph& g = setup_->base_graph();
  const gs::tensor::IdArray& train = g.train_ids();
  // The server warms every plan on the first 32 train ids.
  std::vector<int32_t> warm(train.data(), train.data() + std::min<int64_t>(32, train.size()));
  for (const std::string& algorithm : Algorithms(spec_)) {
    gs::algorithms::AlgorithmProgram ap =
        algorithm == "GraphSAGE" ? gs::algorithms::GraphSage(g, {.fanouts = kSageFanouts})
                                 : gs::algorithms::MakeAlgorithm(algorithm, g);
    auto plan = std::make_shared<gs::core::CompiledPlan>(std::move(ap.program),
                                                         gs::core::SamplerOptions{}, algorithm);
    auto session =
        std::make_unique<gs::core::SamplerSession>(std::move(plan), g, std::move(ap.tensors));
    session->Warmup(gs::tensor::IdArray::FromVector(warm));
    replay_sessions_[algorithm] = std::move(session);
  }
  if (spec_.mixed) {
    replay_partition_ =
        gs::graph::Partitioner::Build(g, gs::graph::PartitionKind::kEdgeCut, kShards);
  }
}

std::vector<gs::core::Value> ServeRun::Replay(const SampleRequest& request) {
  return replay_sessions_.at(request.algorithm)->SampleSeeded(request.seeds, request.seed);
}

void ServeRun::CheckWalk(const SampleResponse& response) {
  const int64_t n = setup_->base_graph().num_nodes();
  if (static_cast<int>(response.outputs.size()) != kWalkLength) {
    report_.CheckFailed("walk has " + std::to_string(response.outputs.size()) + " steps, expected " +
                        std::to_string(kWalkLength));
    ++report_.failed;
    return;
  }
  std::vector<int32_t> previous;
  for (const gs::core::Value& step : response.outputs) {
    std::vector<int32_t> ids = step.ids.ToVector();
    bool ok = static_cast<int64_t>(ids.size()) == kSeedsPerRequest;
    for (size_t i = 0; ok && i < ids.size(); ++i) {
      // -1 marks a walker stopped at a node without in-edges; it stays
      // stopped.
      ok = ids[i] >= -1 && ids[i] < n && (previous.empty() || previous[i] != -1 || ids[i] == -1);
    }
    if (!ok) {
      report_.CheckFailed("walk step has a bad length or node id");
      ++report_.failed;
      return;
    }
    previous = std::move(ids);
  }
}

void ServeRun::CheckReplay(const SampleRequest& request, const SampleResponse& response) {
  gs::device::ThreadDeviceGuard on_replay_device(replay_device_);
  const std::vector<gs::core::Value> solo = Replay(request);
  bool same = solo.size() == response.outputs.size();
  for (size_t i = 0; same && i < solo.size(); ++i) {
    same = gs::core::BitIdentical(solo[i], response.outputs[i]);
  }
  if (!same) {
    report_.CheckFailed("request " + std::to_string(response.request_id) +
                        " differs from its solo replay");
    ++report_.failed;
    return;
  }
  // Features: the rows of the sampled frontier, exactly the raw table's.
  const gs::tensor::Tensor& table = setup_->base_graph().features();
  const gs::tensor::IdArray& frontier = solo.back().ids;
  bool rows_ok = response.features.defined() && response.feature_ids.defined() &&
                 gs::core::BitIdentical(gs::core::Value::OfIds(response.feature_ids),
                                        gs::core::Value::OfIds(frontier)) &&
                 response.features.rows() == frontier.size() &&
                 response.features.cols() == table.cols();
  for (int64_t i = 0; rows_ok && i < frontier.size(); ++i) {
    const float* want = table.data() + frontier[i] * table.cols();
    rows_ok = std::equal(want, want + table.cols(), response.features.data() + i * table.cols());
  }
  if (!rows_ok) {
    report_.CheckFailed("request " + std::to_string(response.request_id) +
                        " carries wrong feature rows");
    ++report_.failed;
  }
}

Sent ServeRun::Send(SampleRequest request, Clock::time_point scheduled, bool replay) {
  Sent sent;
  sent.scheduled = scheduled;
  sent.seeds = request.seeds.size();
  sent.walk = request.algorithm == "DeepWalk";
  if (replay && !sent.walk) {
    sent.replay = request;
  }
  sent.submitted = Clock::now();
  sent.response = setup_->server->Submit(std::move(request));
  return sent;
}

bool ServeRun::Complete(Sent& sent, WindowStats* window) {
  SampleResponse response = sent.response.get();
  ++report_.attempted;
  const bool ok = response.status == Status::kOk;
  if (!ok) {
    ++report_.failed;
  } else if (sent.walk) {
    CheckWalk(response);
  }
  if (window == nullptr) {
    return ok;  // closed-loop phase: counted and checked, not timed per request
  }
  const Clock::time_point end =
      sent.submitted + std::chrono::nanoseconds(response.stages.total_ns);
  const double latency = ok ? Millis(end - sent.scheduled) : kMissedMs;
  window->latency_ms.push_back(latency);
  window->late_ms.push_back(Millis(sent.submitted - sent.scheduled));
  if (ok && !response.degraded && latency <= spec_.slo_ms) {
    ++window->within_slo;
  }
  if (!ok) {
    return false;
  }
  const gs::serving::StageBreakdown& st = response.stages;
  window->queue_ms.push_back(static_cast<double>(st.queue_wait_ns) / 1e6);
  window->execute_ms.push_back(static_cast<double>(st.execute_ns) / 1e6);
  window->compile_ms.push_back(static_cast<double>(st.compile_ns) / 1e6);
  window->scatter_ms.push_back(static_cast<double>(st.scatter_ns) / 1e6);
  if (response.features.defined()) {
    window->feature_ms.push_back(static_cast<double>(st.feature_ns) / 1e6);
  }
  if (tracer_.recording()) {
    // The request's span tree, rebuilt from its stage breakdown: the server
    // queues, resolves (compiles) the plan, executes, scatters, then
    // gathers features. Every span carries the request id.
    const uint64_t rid = response.request_id;
    const uint64_t root = tracer_.NewId();
    Clock::time_point t = sent.submitted;
    tracer_.Record(tracer_.NewId(), "send_delay", sent.scheduled, t, root, rid);
    const std::pair<const char*, int64_t> stages[] = {{"queue", st.queue_wait_ns},
                                                      {"compile", st.compile_ns},
                                                      {"execute", st.execute_ns},
                                                      {"scatter", st.scatter_ns},
                                                      {"feature", st.feature_ns}};
    for (const auto& [name, ns] : stages) {
      if (ns > 0) {
        const Clock::time_point next = t + std::chrono::nanoseconds(ns);
        tracer_.Record(tracer_.NewId(), name, t, next, root, rid);
        t = next;
      }
    }
    tracer_.Record(root, "request", sent.scheduled, end, 0, rid);
  }
  // Shed responses were sampled with halved fanouts; only full-fidelity
  // ones must match the solo replay.
  if (sent.replay && !response.degraded) {
    to_replay_.emplace_back(std::move(*sent.replay), std::move(response));
  }
  return true;
}

void ServeRun::OpenLoop(int window, WindowStats& stats) {
  gs::Rng rng = gs::Rng(DeriveSeed(options_.seed, kArrivalStream)).Fork(static_cast<uint64_t>(window));
  const double seconds = OpenSeconds();
  // The whole schedule is drawn before the first send, so generating
  // requests never delays one.
  std::vector<std::pair<Clock::duration, SampleRequest>> schedule;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.Uniform()) / spec_.rps;
    if (t >= seconds) {
      break;
    }
    schedule.emplace_back(Duration(t),
                          gen_->Next(rng, sent_total_ + static_cast<int64_t>(schedule.size())));
  }
  std::deque<Sent> inflight;
  const auto drain_ready = [&] {
    while (!inflight.empty() &&
           inflight.front().response.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      Complete(inflight.front(), &stats);
      inflight.pop_front();
    }
  };
  const Clock::time_point origin = Clock::now();
  for (auto& [offset, request] : schedule) {
    drain_ready();
    const Clock::time_point due = origin + offset;
    std::this_thread::sleep_until(due);
    // The mixed workload's replay sessions run over epoch 0, which
    // mutations move requests away from; its walks are checked instead.
    const bool replay = !spec_.mixed && sent_total_ % kReplayEvery == 0;
    ++sent_total_;
    inflight.push_back(Send(std::move(request), due, replay));
  }
  for (Sent& sent : inflight) {
    Complete(sent, &stats);
  }
  stats.sent = static_cast<int64_t>(schedule.size());
}

void ServeRun::ClosedLoop(int window, WindowStats& stats) {
  gs::Rng rng = gs::Rng(DeriveSeed(options_.seed, kClosedStream)).Fork(static_cast<uint64_t>(window));
  const double seconds = kClosedSeconds * (options_.smoke ? 0.2 : 1.0);
  std::deque<Sent> inflight;
  int64_t index = 0;
  const auto send = [&] {
    inflight.push_back(Send(gen_->Next(rng, index++), Clock::now(), /*replay=*/false));
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Duration(seconds);
  for (int i = 0; i < kClosedOutstanding; ++i) {
    send();
  }
  int64_t seeds_done = 0;
  Clock::time_point last_done = start;
  while (Clock::now() < end) {
    Sent& front = inflight.front();
    front.response.wait();
    last_done = Clock::now();
    if (Complete(front, nullptr)) {
      seeds_done += front.seeds;
    }
    inflight.pop_front();
    send();
  }
  for (Sent& sent : inflight) {
    Complete(sent, nullptr);
  }
  stats.capacity = static_cast<double>(seeds_done) / Seconds(last_done - start);
}

void ServeRun::Ingest(int window, std::vector<double>& apply_ms, std::string& error) {
  gs::graph::GraphStore& store = *setup_->store;
  const Clock::duration gap = Duration(OpenSeconds() / (spec_.mutations_per_window + 1));
  const Clock::time_point origin = Clock::now();
  try {
    for (int i = 1; i <= spec_.mutations_per_window; ++i) {
      const gs::graph::MutationBatch batch = mutations_->Next();
      std::this_thread::sleep_until(origin + i * gap);
      const Clock::time_point t0 = Clock::now();
      store.Apply(batch);
      const Clock::time_point t1 = Clock::now();
      apply_ms.push_back(Millis(t1 - t0));
      tracer_.Record(tracer_.NewId(), "apply", t0, t1, 0, 0, /*lane=*/1);
    }
  } catch (const std::exception& e) {
    error = "window " + std::to_string(window) + ": " + e.what();
  }
}

// The server runs its kernels on private worker streams, so the model clock
// is read from a replay of the server's execution path on the replay device
// instead: the mixed workload's requests run as if on their home shard and
// pay the frontier exchange for remote adjacency, like the server's sharded
// path; the feature workload's requests gather their frontier's rows
// through a per-tenant hot-set cache sized like the server's partitions.
// The replay runs over the base graph (the store's epoch 0), single-threaded
// and uncoalesced, so the model clock is a function of the seed alone.
double ServeRun::ProbeModelNsPerSeed(const RequestGen& gen) {
  gs::device::ThreadDeviceGuard on_replay_device(replay_device_);
  std::optional<gs::feature::FeatureStore> features;
  std::map<std::string, std::unique_ptr<gs::feature::HotSetCache>> caches;  // by tenant
  if (!spec_.mixed) {
    features.emplace(setup_->base_graph().features());
  }
  gs::Rng rng(DeriveSeed(options_.seed, kProbeStream));
  int64_t model_ns = 0;
  int64_t seeds = 0;
  const std::vector<std::string> algorithms = Algorithms(spec_);
  for (int i = 0; i < kProbeRequests; ++i) {
    const SampleRequest request = gen.Next(rng, i, algorithms[i % algorithms.size()]);
    const int64_t before = replay_device_.default_stream().counters().model_ns;
    std::vector<gs::core::Value> outputs;
    if (replay_partition_) {
      const int home = replay_partition_->HomeShard(request.seeds.data(), request.seeds.size());
      gs::shard::FrontierExchange exchange(*replay_partition_, home);
      gs::core::HopObserverGuard observe(exchange);
      outputs = Replay(request);
    } else {
      outputs = Replay(request);
    }
    if (features) {
      std::unique_ptr<gs::feature::HotSetCache>& cache = caches[request.tenant];
      if (!cache) {
        const int64_t share =
            kFeatureCacheBytes / gs::serving::ServerOptions{}.feature_cache_partitions;
        cache = std::make_unique<gs::feature::HotSetCache>(gs::feature::HotSetCacheOptions{
            .capacity = std::max<int64_t>(64, share / features->row_bytes()),
            .admission = gs::feature::Admission::kFrequencyEma,
            .entry_bytes = features->row_bytes(),
        });
      }
      features->Gather(outputs.back().ids, cache.get());
    }
    model_ns += replay_device_.default_stream().counters().model_ns - before;
    seeds += request.seeds.size();
  }
  return static_cast<double>(model_ns) / static_cast<double>(seeds);
}

void ServeRun::Run() {
  {
    Span span(tracer_, "setups");
    for (int attempt = 0; attempt < kSetups; ++attempt) {
      setup_.reset();  // stop the previous server, free its device and graph
      setup_ = ColdSetup(spec_, options_, tracer_, span.id(), setup_times_);
      std::printf("  set-up %d: %.3f s\n", attempt, setup_times_["setup_s"].back());
    }
  }
  ServeSetup& setup = *setup_;
  gs::device::DeviceGuard guard(*setup.device);
  OpenReplaySessions();
  gen_ = std::make_unique<RequestGen>(setup.base_graph(), spec_, options_.seed);
  if (spec_.mixed) {
    gs::dyn::MutationGenOptions mutation_options;
    mutation_options.seed = DeriveSeed(options_.seed, kMutationStream);
    mutation_options.num_nodes = setup.base_graph().num_nodes();
    mutation_options.adds_per_batch = 64;
    mutation_options.removes_per_batch = 16;
    mutation_options.weighted = setup.store->weighted();
    mutation_options.skew = 0.8;
    mutations_ = std::make_unique<gs::dyn::MutationGen>(mutation_options);
  }

  std::vector<WindowStats> windows;
  std::vector<double> apply_ms;
  std::vector<double> probes;
  ServerStats before;
  const Clock::time_point deadline = Clock::now() + Duration(options_.seconds);
  // Window 0 warms plans and caches and is discarded. Traced runs leave
  // every other measured window unrecorded to measure the tracing overhead.
  for (int w = 0; w == 0 || windows.empty() || Clock::now() < deadline; ++w) {
    if (w == 1) {
      before = setup.server->stats();
    }
    const bool recorded = !(options_.trace && w % 2 == 0 && w > 0);
    tracer_.set_paused(!recorded);
    const double probe = HostProbeMs();
    Span window_span(tracer_, "window");
    WindowStats window;
    window.recorded = recorded;
    std::vector<double> window_apply_ms;
    std::string ingest_error;
    {
      std::optional<std::jthread> ingest;
      if (spec_.mixed) {
        ingest.emplace([&] { Ingest(w, window_apply_ms, ingest_error); });
      }
      OpenLoop(w, window);
    }
    if (!ingest_error.empty()) {
      report_.CheckFailed("mutation ingest failed: " + ingest_error);
    }
    ClosedLoop(w, window);
    {
      Span check_span(tracer_, "replay_checks", window_span.id());
      for (const auto& [request, response] : to_replay_) {
        CheckReplay(request, response);
      }
      to_replay_.clear();
    }
    std::printf("  window %d: %lld sent, p50 %.3f ms, p99 %.3f ms, %.0f seeds/s closed-loop, "
                "probe %.3f ms%s\n",
                w, static_cast<long long>(window.sent), Median(window.latency_ms),
                Percentile(window.latency_ms, 99), window.capacity, probe,
                w == 0 ? " (warm-up)" : "");
    if (w > 0) {
      windows.push_back(std::move(window));
      apply_ms.insert(apply_ms.end(), window_apply_ms.begin(), window_apply_ms.end());
      probes.push_back(probe);
    }
  }
  tracer_.set_paused(false);
  setup.server->DrainRecompiles();
  const ServerStats after = setup.server->stats();
  const double model_ns_per_seed = ProbeModelNsPerSeed(*gen_);
  ReportMetrics(windows, before, after, apply_ms, probes, model_ns_per_seed);
}

double Frac(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

void ServeRun::ReportMetrics(const std::vector<WindowStats>& windows, const ServerStats& before,
                             const ServerStats& after, const std::vector<double>& apply_ms, const std::vector<double>& probes,
                             double model_ns_per_seed) {
  Report& r = report_;
  const ServeSetup& setup = *setup_;
  for (const auto& [name, seconds] : setup_times_) {
    r.Set(name, *std::min_element(seconds.begin(), seconds.end()));
  }
  r.Set("model_ns_per_seed", model_ns_per_seed);

  WindowStats all;
  std::vector<double> window_p50;
  std::vector<double> capacity;
  std::vector<double> recorded_latency;
  std::vector<double> unrecorded_latency;
  for (const WindowStats& w : windows) {
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.latency_ms, w.latency_ms);
    append(w.recorded ? recorded_latency : unrecorded_latency, w.latency_ms);
    append(all.late_ms, w.late_ms);
    append(all.queue_ms, w.queue_ms);
    append(all.execute_ms, w.execute_ms);
    append(all.compile_ms, w.compile_ms);
    append(all.scatter_ms, w.scatter_ms);
    append(all.feature_ms, w.feature_ms);
    all.within_slo += w.within_slo;
    all.sent += w.sent;
    window_p50.push_back(Median(w.latency_ms));
    capacity.push_back(w.capacity);
  }
  // Wall-clock metrics from the best window: the host's speed drifts in
  // phases of several seconds, and the fastest window is the one least
  // disturbed by it (README.md, "Aggregation").
  r.Set("p50_ms", *std::min_element(window_p50.begin(), window_p50.end()));
  r.Set("seeds_per_s", *std::max_element(capacity.begin(), capacity.end()));
  r.Set("latency.p99_ms", Percentile(all.latency_ms, 99));

  ReportPlanShape(replay_sessions_.at("GraphSAGE")->plan(), r);

  r.Set("serving.queue_ms.p50", Median(all.queue_ms));
  r.Set("serving.queue_ms.p99", Percentile(all.queue_ms, 99));
  r.Set("serving.execute_ms.p50", Median(all.execute_ms));
  r.Set("serving.execute_ms.p99", Percentile(all.execute_ms, 99));
  r.Set("serving.compile_ms.p99", Percentile(all.compile_ms, 99));
  r.Set("serving.scatter_ms.p50", Median(all.scatter_ms));
  r.Set("serving.slo_frac", Frac(all.within_slo, all.sent));
  const int64_t received = after.received - before.received;
  const int64_t completed = after.completed - before.completed;
  const int64_t executed = after.requests_executed - before.requests_executed;
  r.Set("serving.coalescing_ratio",
        static_cast<double>(executed) /
            static_cast<double>(std::max<int64_t>(1, after.executions - before.executions)));
  r.Set("serving.rejected_frac", Frac(after.rejected - before.rejected, received));
  r.Set("serving.shed_frac", Frac(after.degraded - before.degraded, completed));

  r.Set("feature.hit_frac", Frac(after.feature_cache_hits - before.feature_cache_hits,
                                 after.feature_rows - before.feature_rows));
  r.Set("feature.miss_kb_per_req",
        Frac(after.feature_miss_bytes - before.feature_miss_bytes,
             after.feature_requests - before.feature_requests) / 1e3);
  r.Set("feature.gather_ms.p50", Median(all.feature_ms));

  if (spec_.mixed) {
    r.Set("shard.exchange_kb_per_req",
          Frac(after.exchange_bytes - before.exchange_bytes, executed) / 1e3);
    std::vector<double> per_shard;
    // Busiest shard's completions over the mean (1 = balanced).
    double total = 0;
    double busiest = 0;
    for (const auto& [shard, count] : after.per_shard_completed) {
      const auto it = before.per_shard_completed.find(shard);
      const double done =
          static_cast<double>(count - (it != before.per_shard_completed.end() ? it->second : 0));
      total += done;
      busiest = std::max(busiest, done);
    }
    r.Set("shard.imbalance",
          total > 0 ? busiest * static_cast<double>(after.per_shard_completed.size()) / total : 0.0);
    const int64_t epochs = after.graph_epochs - before.graph_epochs;
    r.Set("dyn.apply_ms.p50", Median(apply_ms));
    r.Set("dyn.apply_ms.p99", Percentile(apply_ms, 99));
    r.Set("dyn.segments_rebuilt_per_epoch",
          Frac(after.partition_segments_rebuilt - before.partition_segments_rebuilt, epochs));
    r.Set("dyn.plan_reuses_per_epoch", Frac(after.plan_reuses - before.plan_reuses, epochs));
    r.Set("dyn.recompiles_inline",
          static_cast<double>(after.recompiles_inline - before.recompiles_inline));
    r.Set("dyn.stale_served",
          static_cast<double>(after.stale_plans_served - before.stale_plans_served));
  }
  r.Set("loadgen.late_ms.p99", Percentile(all.late_ms, 99));
  r.Set("device.peak_mb",
        static_cast<double>(setup.device->allocator().stats().peak_bytes_in_use) / 1e6);
  r.Set("host.probe_ms", Median(probes));
  if (!recorded_latency.empty() && !unrecorded_latency.empty()) {
    r.Set("trace.overhead_frac", Median(recorded_latency) / Median(unrecorded_latency) - 1.0);
  }
}

}  // namespace

void RunSagePdServeFeat(const RunOptions& options, Tracer& tracer, Report& report) {
  ServeRun({.rps = 600, .mixed = false, .slo_ms = 10, .mutations_per_window = 0}, options, tracer,
           report)
      .Run();
}

void RunMixedPdServeMutate(const RunOptions& options, Tracer& tracer, Report& report) {
  ServeRun({.rps = 300, .mixed = true, .slo_ms = 50, .mutations_per_window = 10}, options, tracer,
           report)
      .Run();
}

}  // namespace gsbench
