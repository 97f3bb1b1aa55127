// Tests for the serving subsystem (src/serving/): plan cache behaviour
// (hit << compile, LRU eviction under a byte budget, allocator attribution),
// bit-identical request coalescing, deadline handling, overload rejection
// and fanout shedding, fair queueing, and the observability surfaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "common/timer.h"
#include "core/engine.h"
#include "device/device.h"
#include "fault/status.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "serving/loadgen.h"
#include "serving/plan_cache.h"
#include "serving/request.h"
#include "serving/server.h"
#include "serving/stats.h"
#include "tests/testing.h"

namespace gs::serving {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

graph::Graph ServingGraph() { return testing::SmallRmat(400, 4000, 11); }

tensor::IdArray Seeds(std::vector<int32_t> ids) {
  return tensor::IdArray::FromVector(ids);
}

// Compiles a fresh plan, or adopts `plan` (a cache's resident plan) when set.
std::shared_ptr<core::SamplerSession> BuildSagePlan(
    const graph::Graph& g, std::vector<int64_t> fanouts,
    std::shared_ptr<core::CompiledPlan> plan = nullptr) {
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = fanouts});
  if (plan == nullptr) {
    core::SamplerOptions options;
    options.super_batch = 1;
    plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), options);
  }
  auto session = std::make_shared<core::SamplerSession>(std::move(plan), g,
                                                        std::move(ap.tensors));
  session->Warmup(Seeds({0, 1, 2, 3}));
  return session;
}

// FastGCN pre-computes its degree-based sampling probabilities, so unlike
// GraphSAGE its plans pin device memory — what the cache budget is about.
std::shared_ptr<core::SamplerSession> BuildFastGcnPlan(const graph::Graph& g,
                                                       int64_t layer_width) {
  algorithms::AlgorithmProgram ap =
      algorithms::FastGcn(g, {.num_layers = 2, .layer_width = layer_width});
  core::SamplerOptions options;
  options.super_batch = 1;
  auto plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), options);
  auto session = std::make_shared<core::SamplerSession>(std::move(plan), g,
                                                        std::move(ap.tensors));
  session->Warmup(Seeds({0, 1, 2, 3}));
  return session;
}

// ------------------------------------------------------- bit-identity

// Runs `frontiers` as one labeled group, as the server does, and collects
// each member's outputs.
std::vector<std::vector<core::Value>> Grouped(const core::SamplerSession& session,
                                              const std::vector<tensor::IdArray>& frontiers,
                                              const std::vector<uint64_t>& seeds) {
  std::vector<std::vector<core::Value>> outputs(frontiers.size());
  session.SampleGrouped(frontiers, seeds, [&outputs](int64_t b, std::vector<core::Value>& out) {
    outputs[static_cast<size_t>(b)] = std::move(out);
  });
  return outputs;
}

// The core coalescing guarantee: every member of a grouped execution gets
// results bit-identical to being served alone with the same (seeds, seed).
TEST(Coalescer, GroupedMatchesSoloBitIdentical) {
  graph::Graph g = ServingGraph();
  auto plan = BuildSagePlan(g, {4, 3});
  ASSERT_TRUE(plan->Coalescable());

  std::vector<tensor::IdArray> frontiers = {Seeds({5, 9, 17}), Seeds({1, 2, 3, 4}),
                                            Seeds({42})};
  std::vector<uint64_t> seeds = {7, 999, 31337};

  std::vector<std::vector<core::Value>> solo;
  for (size_t i = 0; i < frontiers.size(); ++i) {
    solo.push_back(plan->SampleSeeded(frontiers[i], seeds[i]));
  }
  const std::vector<std::vector<core::Value>> grouped = Grouped(*plan, frontiers, seeds);
  ASSERT_EQ(grouped.size(), frontiers.size());
  for (size_t i = 0; i < frontiers.size(); ++i) {
    testing::ExpectBitIdentical(grouped[i], solo[i], "member " + std::to_string(i));
  }
}

// Order independence: a member's results don't depend on who shares the
// super-batch or in what position.
TEST(Coalescer, MemberResultsIndependentOfGroupComposition) {
  graph::Graph g = ServingGraph();
  auto plan = BuildSagePlan(g, {5});

  tensor::IdArray target = Seeds({10, 20, 30});
  const uint64_t seed = 12345;
  std::vector<core::Value> solo = plan->SampleSeeded(target, seed);

  const auto first = Grouped(*plan, {target, Seeds({1, 2})}, {seed, 1});
  const auto last = Grouped(*plan, {Seeds({7}), Seeds({8, 9}), target}, {2, 3, seed});
  testing::ExpectBitIdentical(first[0], solo, "first of two");
  testing::ExpectBitIdentical(last[2], solo, "last of three");
}

// Walk plans coalesce like every other plan: a multi-member DeepWalk group
// runs once (one fused walk kernel, as a solo request does), and every
// member is bit-identical to its solo run, -1 dead-end markers in place.
TEST(Coalescer, WalkPlansCoalesceBitIdentically) {
  graph::Graph g = ServingGraph();
  constexpr int kSteps = 40;
  algorithms::AlgorithmProgram ap = algorithms::DeepWalk(g, {.walk_length = kSteps});
  core::SamplerOptions options;
  auto plan = std::make_shared<core::SamplerSession>(std::move(ap.program), g,
                                                     std::move(ap.tensors), options);
  plan->Warmup(Seeds({0, 1, 2, 3}));
  ASSERT_TRUE(plan->Coalescable());

  std::vector<int32_t> low(48);
  std::vector<int32_t> high(48);
  std::iota(low.begin(), low.end(), 0);
  std::iota(high.begin(), high.end(), 200);
  const std::vector<tensor::IdArray> frontiers = {Seeds(low), Seeds({7, 8}), Seeds(high)};
  const std::vector<uint64_t> seeds = {99, 5, 31337};

  device::Stream& stream = device::Current().stream();
  const int64_t before = stream.counters().kernels_launched;
  const std::vector<std::vector<core::Value>> group = Grouped(*plan, frontiers, seeds);
  EXPECT_EQ(stream.counters().kernels_launched - before, 1);

  int64_t dead = 0;
  for (size_t i = 0; i < frontiers.size(); ++i) {
    const std::vector<core::Value> solo = plan->SampleSeeded(frontiers[i], seeds[i]);
    ASSERT_EQ(group[i].size(), solo.size());
    for (size_t step = 0; step < solo.size(); ++step) {
      EXPECT_TRUE(core::BitIdentical(group[i][step], solo[step]))
          << "member " << i << " step " << step;
      const tensor::IdArray& ids = group[i][step].ids;
      dead += std::count(ids.data(), ids.data() + ids.size(), -1);
    }
  }
  EXPECT_GT(dead, 0) << "the walks should hit dead ends";
}

// A seed outside [0, n) would alias a node of a neighbouring member once
// labeled b * n + v: 305 in member 0 is node 5 of member 1, and -1 in
// member 1 is node n - 1 of member 0. A group holding one is rejected with
// a typed error naming the member and the seed, before anything runs.
TEST(Coalescer, OutOfRangeSeedsRejectTheGroup) {
  graph::Graph g = testing::SmallRmat(300, 3000, 9);
  auto sage = BuildSagePlan(g, {5});
  algorithms::AlgorithmProgram ap = algorithms::DeepWalk(g, {.walk_length = 4});
  auto walk_plan =
      std::make_shared<core::CompiledPlan>(std::move(ap.program), core::SamplerOptions{});
  core::SamplerSession walk(walk_plan, g, std::move(ap.tensors));
  walk.Warmup(Seeds({0, 1, 2, 3}));

  const std::vector<std::pair<std::vector<tensor::IdArray>, std::string>> groups = {
      {{Seeds({10, 305, 20}), Seeds({7, 8, 9})}, "member 0 seed 305"},
      {{Seeds({7, 8, 9}), Seeds({-1})}, "member 1 seed -1"},
  };
  for (const auto& [group, what] : groups) {
    for (const core::SamplerSession* session : {sage.get(), &walk}) {
      try {
        session->SampleGrouped(group, {1, 2}, nullptr);
        ADD_FAILURE() << session->plan().label() << ": " << what << " was not rejected";
      } catch (const fault::InvalidRequestError& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
      }
    }
  }
}

// Labels b * n + v must fit int32. On a 2^21-node graph 1,024 one-seed
// members label up to 2^31 - 1 and run; a 1,025th member's labels would
// wrap (its first step came back -1 where a solo run walks to node 6), so
// that group is rejected before labeling.
TEST(Coalescer, GroupsWhoseLabelsOverflowInt32AreRejected) {
  constexpr int64_t kNodes = int64_t{1} << 21;
  const graph::Graph g = graph::Graph::FromEdges("wide", kNodes, {{6, 5}});
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("DeepWalk", g);
  auto plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), core::SamplerOptions{});
  core::SamplerSession session(plan, g, std::move(ap.tensors));
  session.Warmup(Seeds({5}));
  ASSERT_EQ(session.SampleSeeded(Seeds({5}), 1)[0].ids[0], 6);

  std::vector<tensor::IdArray> group(1024, Seeds({5}));
  std::vector<uint64_t> seeds(group.size(), 1);
  int64_t members = 0;
  session.SampleGrouped(group, seeds, [&members](int64_t b, std::vector<core::Value>& outputs) {
    EXPECT_EQ(outputs[0].ids[0], 6) << "member " << b;
    ++members;
  });
  EXPECT_EQ(members, 1024);

  group.push_back(Seeds({5}));
  seeds.push_back(1);
  EXPECT_THROW(session.SampleGrouped(group, seeds, nullptr), fault::InvalidRequestError);
}

// --------------------------------------------------------- plan cache

// Regression for dynamic graph keying (gs::dyn): the snapshot epoch/digest
// is part of the canonical form (so a session is never served at another
// epoch and coalescing never crosses epochs), the compile key strips it (so
// the cache's entries are epoch-independent), static keys are byte-for-byte
// unchanged, and Parse round-trips every variant — including composed
// shard + graph suffixes.
TEST(PlanKeyTest, GraphVersionCanonicalFormAndParseRoundTrip) {
  PlanKey key{"GraphSAGE", "PD", "v100", "cfg123", {10, 5}};
  const std::string static_canonical = key.Canonical();
  EXPECT_EQ(key.CompileKey(), static_canonical);
  EXPECT_EQ(static_canonical.find("|g"), std::string::npos);

  PlanKey dyn = key;
  dyn.dynamic = true;
  dyn.graph_epoch = 7;
  dyn.graph_digest = 0xDEADBEEFCAFEULL;
  EXPECT_NE(dyn.Canonical(), static_canonical);
  EXPECT_EQ(dyn.CompileKey(), static_canonical);

  PlanKey next_epoch = dyn;
  next_epoch.graph_epoch = 8;
  next_epoch.graph_digest = 0x1234;
  EXPECT_NE(next_epoch.Canonical(), dyn.Canonical());
  EXPECT_EQ(next_epoch.CompileKey(), dyn.CompileKey());

  const PlanKey parsed = PlanKey::Parse(dyn.Canonical());
  EXPECT_TRUE(parsed.dynamic);
  EXPECT_EQ(parsed.graph_epoch, 7u);
  EXPECT_EQ(parsed.graph_digest, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(parsed.Canonical(), dyn.Canonical());

  const PlanKey parsed_static = PlanKey::Parse(static_canonical);
  EXPECT_FALSE(parsed_static.dynamic);
  EXPECT_EQ(parsed_static.Canonical(), static_canonical);

  PlanKey sharded = dyn;
  sharded.shard = 3;
  const PlanKey parsed_sharded = PlanKey::Parse(sharded.Canonical());
  EXPECT_EQ(parsed_sharded.shard, 3);
  EXPECT_TRUE(parsed_sharded.dynamic);
  EXPECT_EQ(parsed_sharded.graph_digest, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(parsed_sharded.Canonical(), sharded.Canonical());
}

// One entry per compile key: a new epoch's session replaces the old
// epoch's, and a request pinned to an older epoch builds over the resident
// plan without being cached.
TEST(PlanCache, GraphEpochsAreDistinctCacheKeys) {
  graph::Graph g = ServingGraph();
  PlanCache cache(int64_t{64} * 1024 * 1024, nullptr);
  PlanKey e7{"GraphSAGE", "rmat", "dev", "cfg", {4, 4}};
  e7.dynamic = true;
  e7.graph_epoch = 7;
  e7.graph_digest = 0xABC;
  PlanKey e8 = e7;
  e8.graph_epoch = 8;
  e8.graph_digest = 0xDEF;

  auto s7 = cache.GetOrBuild(e7, [&](std::shared_ptr<core::CompiledPlan> resident) {
    EXPECT_EQ(resident, nullptr) << "a cold miss has no resident plan";
    return BuildSagePlan(g, {4, 4});
  });
  bool hit = true;
  auto s8 = cache.GetOrBuild(e8, [&](std::shared_ptr<core::CompiledPlan> resident) {
    EXPECT_EQ(resident, s7->plan_ptr());
    return BuildSagePlan(g, {4, 4}, resident);
  }, &hit);
  EXPECT_FALSE(hit) << "a new epoch must not hit the old epoch's session";
  EXPECT_EQ(cache.stats().entries, 1) << "epoch 8 must replace epoch 7";

  // A later epoch-7 request misses and builds over the resident plan; its
  // session is not cached, so epoch 8 stays resident.
  auto late = cache.GetOrBuild(e7, [&](std::shared_ptr<core::CompiledPlan> resident) {
    EXPECT_EQ(resident, s8->plan_ptr());
    return BuildSagePlan(g, {4, 4}, resident);
  }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(late->plan_ptr(), s8->plan_ptr());
  auto again = cache.GetOrBuild(e8, [&](auto) -> std::shared_ptr<core::SamplerSession> {
    ADD_FAILURE() << "epoch 8 must stay resident";
    return nullptr;
  }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again, s8);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 1);
}

// Insert (the replanner's publish hook) replaces an existing entry without
// counting a hit or a miss, and retires the replaced entry's accounting.
TEST(PlanCache, InsertPublishesAndReplacesWithoutHitOrMiss) {
  graph::Graph g = ServingGraph();
  PlanCache cache(int64_t{64} * 1024 * 1024, nullptr);
  PlanKey key{"GraphSAGE", "rmat", "dev", "cfg", {4, 4}};
  key.dynamic = true;
  key.graph_epoch = 3;
  key.graph_digest = 0x33;

  cache.Insert(key, BuildSagePlan(g, {4, 4}));
  cache.Insert(key, BuildSagePlan(g, {4, 4}));  // replace, not accumulate
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);

  bool hit = false;
  cache.GetOrBuild(key, [&](auto) -> std::shared_ptr<core::SamplerSession> {
    ADD_FAILURE() << "published session must be resident";
    return nullptr;
  }, &hit);
  EXPECT_TRUE(hit);
}

TEST(PlanCache, HitIsMuchCheaperThanCompile) {
  graph::Graph g = ServingGraph();
  PlanCache cache(int64_t{64} * 1024 * 1024, nullptr);
  PlanKey key{"FastGCN", "rmat", "dev", "cfg", {32, 32}};

  bool hit = true;
  int64_t compile_ns = 0;
  auto plan =
      cache.GetOrBuild(key, [&](auto) { return BuildFastGcnPlan(g, 32); }, &hit, &compile_ns);
  EXPECT_FALSE(hit);
  EXPECT_GT(compile_ns, 0);

  bool hit2 = false;
  int64_t compile2 = -1;
  Timer lookup;
  auto plan2 = cache.GetOrBuild(key, [&](auto) -> std::shared_ptr<core::SamplerSession> {
    ADD_FAILURE() << "factory must not run on a hit";
    return nullptr;
  }, &hit2, &compile2);
  const int64_t lookup_ns = lookup.ElapsedNanos();
  EXPECT_TRUE(hit2);
  EXPECT_EQ(compile2, 0);
  EXPECT_EQ(plan.get(), plan2.get());
  // A cache hit must be orders of magnitude cheaper than compiling; allow a
  // generous 10x margin for noisy CI machines.
  EXPECT_LT(lookup_ns * 10, compile_ns);

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_GT(s.resident_bytes, 0);
}

TEST(PlanCache, EvictsLeastRecentlyUsedUnderBudget) {
  graph::Graph g = ServingGraph();
  // Budget of one byte: every new plan evicts the previous one (the cache
  // always keeps the entry it is about to return).
  PlanCache cache(1, nullptr);
  PlanKey a{"FastGCN", "rmat", "dev", "cfg", {16, 16}};
  PlanKey b{"FastGCN", "rmat", "dev", "cfg", {24, 24}};

  auto plan_a = cache.GetOrBuild(a, [&](auto) { return BuildFastGcnPlan(g, 16); });
  auto plan_b = cache.GetOrBuild(b, [&](auto) { return BuildFastGcnPlan(g, 24); });
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.evictions, 1);

  // plan_a was evicted: asking again rebuilds.
  bool hit = true;
  cache.GetOrBuild(a, [&](auto) { return BuildFastGcnPlan(g, 16); }, &hit);
  EXPECT_FALSE(hit);
  // The evicted-but-held shared_ptr stays usable.
  EXPECT_NO_THROW(plan_b->SampleSeeded(Seeds({1, 2}), 5));
}

TEST(PlanCache, MirrorsResidentBytesIntoAllocatorReserved) {
  graph::Graph g = ServingGraph();
  device::CachingAllocator& allocator = device::Current().allocator();
  const int64_t reserved_before = allocator.stats().bytes_reserved;
  {
    PlanCache cache(int64_t{64} * 1024 * 1024, &allocator);
    PlanKey key{"FastGCN", "rmat", "dev", "cfg", {32, 32}};
    cache.GetOrBuild(key, [&](auto) { return BuildFastGcnPlan(g, 32); });
    const int64_t reserved = allocator.stats().bytes_reserved - reserved_before;
    EXPECT_EQ(reserved, cache.stats().resident_bytes);
    EXPECT_GT(reserved, 0);
  }
  // Destroying the cache releases its attribution.
  EXPECT_EQ(allocator.stats().bytes_reserved, reserved_before);
}

// -------------------------------------------------------------- server

ServerOptions SmallServer(int workers = 2) {
  ServerOptions o;
  o.num_workers = workers;
  o.queue_capacity = 32;
  o.coalesce_max = 8;
  return o;
}

TEST(Server, ServesRequestsAndReportsStages) {
  graph::Graph g = ServingGraph();
  Server server(SmallServer());
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();

  SampleRequest req;
  req.algorithm = "GraphSAGE";
  req.dataset = "rmat";
  req.seeds = Seeds({1, 2, 3});
  req.seed = 7;
  req.fanouts = {4, 3};
  SampleResponse first = server.Submit(req).get();
  ASSERT_EQ(first.status, Status::kOk) << first.error;
  EXPECT_FALSE(first.stages.plan_cache_hit);
  EXPECT_GT(first.stages.compile_ns, 0);
  EXPECT_GT(first.stages.execute_ns, 0);
  EXPECT_GT(first.stages.total_ns, 0);
  EXPECT_FALSE(first.outputs.empty());

  SampleResponse second = server.Submit(req).get();
  ASSERT_EQ(second.status, Status::kOk) << second.error;
  EXPECT_TRUE(second.stages.plan_cache_hit);
  EXPECT_EQ(second.stages.compile_ns, 0);
  // Identical request -> bit-identical response, plan cache or not.
  testing::ExpectBitIdentical(first.outputs, second.outputs, "plan cache hit vs miss");

  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.plan_cache_hits, 1);
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_GT(stats.latency_p50_ns, 0);
  EXPECT_EQ(stats.per_tenant_completed.at("default"), 2);
  EXPECT_FALSE(stats.ToString().empty());
}

// Every registry algorithm can be served, HetGNN's relations included: one
// endpoint per Table-2 name on an unsharded and on a 2-shard server, each
// response at the algorithm's default fanouts bit-identical to the
// single-device reference.
TEST(Server, ServesEveryTable2Algorithm) {
  graph::Graph g = ServingGraph();
  const tensor::IdArray seeds = Seeds({5, 17, 42, 101, 250});
  for (const int shards : {1, 2}) {
    Server server(testing::ShardedOptions(shards));
    for (const std::string& algorithm : algorithms::AllAlgorithmNames()) {
      server.RegisterEndpoint(MakeEndpoint(algorithm, "small", g));
    }
    server.Start();
    for (const std::string& algorithm : algorithms::AllAlgorithmNames()) {
      const std::string where = algorithm + " x" + std::to_string(shards);
      const SampleResponse response =
          server.Submit(testing::DefaultRequest(algorithm, seeds, 77)).get();
      if (response.status != Status::kOk) {
        ADD_FAILURE() << where << ": " << response.error;
        continue;
      }
      testing::ExpectBitIdentical(response.outputs,
                                  testing::ReferenceSample(algorithm, g, seeds, 77), where);
    }
    server.Stop();
  }
}

TEST(Server, UnknownEndpointAndEmptySeedsFailFast) {
  graph::Graph g = ServingGraph();
  Server server(SmallServer());
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();

  SampleRequest bad;
  bad.algorithm = "NoSuchAlgorithm";
  bad.dataset = "rmat";
  bad.seeds = Seeds({1});
  SampleResponse r1 = server.Submit(bad).get();
  EXPECT_EQ(r1.status, Status::kFailed);
  EXPECT_NE(r1.error.find("unknown endpoint"), std::string::npos);

  SampleRequest empty;
  empty.algorithm = "GraphSAGE";
  empty.dataset = "rmat";
  SampleResponse r2 = server.Submit(empty).get();
  EXPECT_EQ(r2.status, Status::kFailed);
  server.Stop();
}

// A request with a seed outside [0, n) fails at admission as an invalid
// request, on static endpoints and against the pinned snapshot of dynamic
// ones, so it never joins a group: a valid request queued beside it is
// bit-identical to its solo replay.
TEST(Server, OutOfRangeSeedsFailAtAdmission) {
  graph::Graph g = testing::SmallRmat(300, 3000, 9);
  graph::GraphStore store(testing::SmallRmat(300, 3000, 9));
  Server server(SmallServer(/*workers=*/1));
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.RegisterEndpoint(MakeDynamicEndpoint("GraphSAGE", "dyn", store));
  server.Start();

  auto make = [](const std::string& dataset, std::vector<int32_t> ids, uint64_t seed) {
    SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = dataset;
    req.seeds = Seeds(std::move(ids));
    req.seed = seed;
    req.fanouts = {5};
    return req;
  };
  // The first submission occupies the worker with the plan compile; the
  // rest queue behind it, where compatible requests coalesce.
  std::future<SampleResponse> first = server.Submit(make("rmat", {0, 1}, 1));
  std::future<SampleResponse> victim = server.Submit(make("rmat", {7, 8, 9}, 3));
  std::vector<std::pair<std::future<SampleResponse>, std::string>> bad;
  bad.emplace_back(server.Submit(make("rmat", {10, 305, 20}, 2)), "seed 305");
  bad.emplace_back(server.Submit(make("rmat", {-1}, 4)), "seed -1");
  bad.emplace_back(server.Submit(make("dyn", {300}, 5)), "seed 300");
  for (auto& [future, what] : bad) {
    const SampleResponse r = future.get();
    EXPECT_EQ(r.status, Status::kFailed) << what;
    EXPECT_EQ(r.code, fault::ErrorCode::kInvalidRequest) << what;
    EXPECT_NE(r.error.find(what), std::string::npos) << r.error;
  }
  ASSERT_EQ(first.get().status, Status::kOk);
  const SampleResponse grouped = victim.get();
  ASSERT_EQ(grouped.status, Status::kOk) << grouped.error;
  const SampleResponse replay = server.Submit(make("rmat", {7, 8, 9}, 3)).get();
  ASSERT_EQ(replay.status, Status::kOk) << replay.error;
  EXPECT_EQ(replay.group_size, 1);
  testing::ExpectBitIdentical(grouped.outputs, replay.outputs, "victim vs solo replay");
  server.Stop();
}

// On a graph of N nodes a group's labels b * N + v fit int32 only up to
// 2^31 / N members, so the worker stops growing a group there even when
// coalesce_max allows more. On a 2^21-node graph that is 1,024 members. The
// first request holds the worker in its plan compile until 1,100 more are
// queued; they then all succeed, each as its solo run, in groups of at most
// 1,024 instead of one group that fails.
TEST(Server, GroupsStopGrowingBeforeTheirLabelsOverflowInt32) {
  constexpr int64_t kNodes = int64_t{1} << 21;
  const graph::Graph g = graph::Graph::FromEdges("wide", kNodes, {{6, 5}});
  ServerOptions options = SmallServer(/*workers=*/1);
  options.queue_capacity = 2048;
  options.coalesce_max = 2048;
  Server server(options);
  // The endpoint's program factory runs on the worker during the first
  // plan compile; it signals `compiling` and waits for `release`.
  std::promise<void> compiling;
  std::promise<void> release;
  std::once_flag signalled;
  Endpoint endpoint = MakeEndpoint("DeepWalk", "wide", g);
  endpoint.factory = [trace = endpoint.factory, &compiling, &signalled,
                      released = release.get_future().share()](
                         const graph::Graph& graph, const std::vector<int64_t>& fanouts) {
    std::call_once(signalled, [&compiling] { compiling.set_value(); });
    released.wait();
    return trace(graph, fanouts);
  };
  server.RegisterEndpoint(std::move(endpoint));
  server.Start();

  auto submit = [&server](int i) {
    SampleRequest req;
    req.algorithm = "DeepWalk";
    req.dataset = "wide";
    req.seeds = Seeds({5});
    req.seed = static_cast<uint64_t>(i);
    return server.Submit(std::move(req));
  };
  std::vector<std::future<SampleResponse>> futures;
  futures.push_back(submit(0));
  compiling.get_future().wait();
  for (int i = 1; i <= 1100; ++i) {
    futures.push_back(submit(i));
  }
  release.set_value();

  std::vector<int> group_sizes;
  for (auto& future : futures) {
    const SampleResponse r = future.get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.outputs[0].ids[0], 6);  // the only step a walk from node 5 can take
    group_sizes.push_back(r.group_size);
  }
  server.Stop();
  EXPECT_EQ(group_sizes.front(), 1);
  EXPECT_EQ(*std::max_element(group_sizes.begin(), group_sizes.end()), 1024);
}

// Two compatible requests submitted while the worker is busy compiling the
// plan coalesce into one super-batch execution — and each still gets results
// bit-identical to a solo run.
TEST(Server, CoalescesCompatibleRequestsBitIdentically) {
  graph::Graph g = ServingGraph();
  auto reference = BuildSagePlan(g, {4, 3});

  Server server(SmallServer(/*workers=*/1));
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();

  auto make = [&](std::vector<int32_t> ids, uint64_t seed, const std::string& tenant) {
    SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = "rmat";
    req.seeds = Seeds(std::move(ids));
    req.seed = seed;
    req.fanouts = {4, 3};
    req.tenant = tenant;
    return req;
  };

  // The first submission occupies the single worker with the plan compile;
  // the rest queue up behind it and coalesce.
  std::vector<std::future<SampleResponse>> futures;
  futures.push_back(server.Submit(make({0, 1}, 1, "a")));
  std::vector<std::pair<std::vector<int32_t>, uint64_t>> tail = {
      {{5, 9, 17}, 7}, {{1, 2, 3, 4}, 999}, {{42}, 31337}, {{8, 8, 8}, 4}};
  for (size_t i = 0; i < tail.size(); ++i) {
    futures.push_back(
        server.Submit(make(tail[i].first, tail[i].second, i % 2 == 0 ? "a" : "b")));
  }

  std::vector<SampleResponse> responses;
  for (auto& f : futures) {
    responses.push_back(f.get());
  }
  server.Stop();

  int coalesced = 0;
  for (auto& r : responses) {
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    coalesced += r.group_size > 1 ? 1 : 0;
  }
  // Every tail response must match the solo reference exactly.
  for (size_t i = 0; i < tail.size(); ++i) {
    std::vector<core::Value> solo =
        reference->SampleSeeded(Seeds(std::move(tail[i].first)), tail[i].second);
    testing::ExpectBitIdentical(responses[i + 1].outputs, solo, "tail " + std::to_string(i));
  }
  // The compile window makes coalescing all but certain; stats must agree
  // with the per-response group sizes.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.requests_executed, 5);
  if (coalesced > 0) {
    EXPECT_GT(stats.coalesced_executions, 0);
    EXPECT_GT(stats.CoalescingRatio(), 1.0);
  }
}

// A live walk endpoint coalesces: requests queued behind the plan compile
// share one execution, each bit-identical to its solo run.
TEST(Server, CoalescesWalkRequests) {
  graph::Graph g = ServingGraph();
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("DeepWalk", g);
  core::SamplerOptions options;
  options.super_batch = 1;
  core::SamplerSession reference(std::move(ap.program), g, std::move(ap.tensors), options);
  reference.Warmup(Seeds({0, 1, 2, 3}));

  Server server(SmallServer(/*workers=*/1));
  server.RegisterEndpoint(MakeEndpoint("DeepWalk", "rmat", g));
  server.Start();
  std::vector<SampleRequest> requests;
  std::vector<std::future<SampleResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    SampleRequest req;
    req.algorithm = "DeepWalk";
    req.dataset = "rmat";
    req.seeds = Seeds({i, 10 * i + 1, 10 * i + 2});
    req.seed = static_cast<uint64_t>(100 + i);
    requests.push_back(req);
    futures.push_back(server.Submit(std::move(req)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    SampleResponse r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    testing::ExpectBitIdentical(r.outputs,
                                reference.SampleSeeded(requests[i].seeds, requests[i].seed),
                                "request " + std::to_string(i));
  }
  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.coalesced_executions, 0);
  EXPECT_GT(stats.CoalescingRatio(), 1.0);
}

// Requests that expire while queued complete as kDeadlineExceeded without
// executing.
TEST(Server, QueuedRequestsPastDeadlineAreExpiredNotExecuted) {
  graph::Graph g = ServingGraph();
  Server server(SmallServer(/*workers=*/1));
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.RegisterEndpoint(MakeEndpoint("ShaDow", "rmat", g));
  server.Start();

  // Blocker: compiles the GraphSAGE plan on the only worker (milliseconds).
  SampleRequest blocker;
  blocker.algorithm = "GraphSAGE";
  blocker.dataset = "rmat";
  blocker.seeds = Seeds({1, 2, 3});
  auto blocked = server.Submit(blocker);

  // Expires while the blocker compiles. Different algorithm => different
  // plan key, so it can't ride along with the blocker's execution. The
  // service-time EMA is still zero, so deadline admission lets it in.
  SampleRequest doomed;
  doomed.algorithm = "ShaDow";
  doomed.dataset = "rmat";
  doomed.seeds = Seeds({4});
  doomed.deadline = nanoseconds(1);
  SampleResponse expired = server.Submit(doomed).get();
  EXPECT_EQ(expired.status, Status::kDeadlineExceeded);
  EXPECT_TRUE(expired.outputs.empty());

  EXPECT_EQ(blocked.get().status, Status::kOk);
  server.Stop();
  EXPECT_EQ(server.stats().deadline_exceeded, 1);
}

// Once a service-time estimate exists, infeasible deadlines are rejected at
// admission with a retry-after hint.
TEST(Server, DeadlineAdmissionRejectsInfeasibleRequests) {
  graph::Graph g = ServingGraph();
  Server server(SmallServer());
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();

  SampleRequest req;
  req.algorithm = "GraphSAGE";
  req.dataset = "rmat";
  req.seeds = Seeds({1, 2, 3});
  ASSERT_EQ(server.Submit(req).get().status, Status::kOk);  // seeds the EMA

  req.deadline = nanoseconds(1);
  SampleResponse rejected = server.Submit(req).get();
  EXPECT_EQ(rejected.status, Status::kRejected);
  EXPECT_GT(rejected.retry_after.count(), 0);
  server.Stop();
  EXPECT_GE(server.stats().rejected, 1);
}

// Overload: a tiny queue forces rejections; occupancy beyond the shed
// threshold degrades admitted requests' fanouts instead of rejecting them.
TEST(Server, OverloadRejectsAndShedsFanouts) {
  graph::Graph g = ServingGraph();
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  options.coalesce_max = 1;  // no merging: keep the queue full
  options.shed_occupancy = 0.5;
  Server server(options);
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();

  std::vector<std::future<SampleResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = "rmat";
    req.seeds = Seeds({static_cast<int32_t>(i % 100)});
    req.seed = static_cast<uint64_t>(i);
    req.fanouts = {8, 8};
    futures.push_back(server.Submit(std::move(req)));
  }
  int ok = 0, rejected = 0, degraded = 0;
  for (auto& f : futures) {
    SampleResponse r = f.get();
    if (r.status == Status::kOk) {
      ++ok;
      degraded += r.degraded ? 1 : 0;
    } else if (r.status == Status::kRejected) {
      ++rejected;
      EXPECT_GT(r.retry_after.count(), 0);
    }
  }
  server.Stop();

  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0) << "64 instant submissions into a 4-deep queue must overflow";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.received, 64);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.degraded, degraded);
  // Shedding kicks in at occupancy 2 of 4; with a single worker stuck on the
  // first compile the backlog is guaranteed to cross it.
  EXPECT_GT(degraded, 0);
}

TEST(Server, StopFailsNothingAndRejectsLateSubmissions) {
  graph::Graph g = ServingGraph();
  Server server(SmallServer());
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();
  SampleRequest req;
  req.algorithm = "GraphSAGE";
  req.dataset = "rmat";
  req.seeds = Seeds({1});
  auto pending = server.Submit(req);
  server.Stop();
  // The in-flight request drained gracefully.
  EXPECT_EQ(pending.get().status, Status::kOk);
  // Post-stop submissions fail immediately.
  EXPECT_EQ(server.Submit(req).get().status, Status::kFailed);
}

// Stop() racing four submitting clients: every request is answered by the
// time Stop() returns (admitted ones by a worker, late ones at once), and
// each is counted under exactly one outcome.
TEST(Server, StopRacingSubmittersAnswersEveryRequest) {
  graph::Graph g = ServingGraph();
  ServerOptions options = SmallServer(/*workers=*/2);
  options.queue_capacity = 8;
  Server server(options);
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 100;
  std::atomic<int> submitted{0};
  std::vector<std::vector<std::future<SampleResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        SampleRequest req;
        req.algorithm = "GraphSAGE";
        req.dataset = "rmat";
        req.seeds = Seeds({static_cast<int32_t>((c * kPerClient + i) % 400)});
        req.seed = static_cast<uint64_t>(c * kPerClient + i);
        req.fanouts = {4, 3};
        futures[static_cast<size_t>(c)].push_back(server.Submit(std::move(req)));
        submitted.fetch_add(1);
      }
    });
  }
  while (submitted.load() < kPerClient) {
    std::this_thread::yield();
  }
  server.Stop();
  for (std::thread& client : clients) {
    client.join();
  }

  for (auto& client_futures : futures) {
    for (std::future<SampleResponse>& future : client_futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready)
          << "a request was still unanswered after Stop() returned";
      future.get();
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.received, kClients * kPerClient);
  EXPECT_EQ(stats.received,
            stats.completed + stats.failed + stats.rejected + stats.deadline_exceeded);
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(stats.worker_exceptions, 0);
}

// ------------------------------------------------------------- stats

TEST(LatencyHistogramTest, PercentilesAreMonotonicAndBounded) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(99), 0);
  for (int64_t v : {100, 200, 400, 800, 1600, 3200, 1000000}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 7);
  EXPECT_EQ(h.max_ns(), 1000000);
  const int64_t p50 = h.Percentile(50);
  const int64_t p95 = h.Percentile(95);
  const int64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_ns());
  EXPECT_GT(p50, 0);
}

TEST(LatencyHistogramTest, InterpolatesWithinBucket) {
  // Regression: reading out the bucket's upper bound overstated p50/p95 by
  // up to 2x. 512 samples uniformly covering [512, 1024) all land in the
  // [2^9, 2^10) bucket; the interpolated median must sit near the middle of
  // the bucket, not at its top edge.
  LatencyHistogram h;
  for (int64_t v = 512; v < 1024; ++v) {
    h.Record(v);
  }
  const int64_t p50 = h.Percentile(50);
  EXPECT_GE(p50, 700);
  EXPECT_LE(p50, 836);  // true median 767; allow half-bucket-step slack
  EXPECT_LT(p50, 1023);  // strictly below the old upper-bound readout
  // p = 0 resolves to the lower edge of the first occupied bucket.
  EXPECT_EQ(h.Percentile(0), 512);
  // p = 100 caps at the observed maximum rather than the bucket top.
  EXPECT_EQ(h.Percentile(100), 1023);
}

// Regression: a sharded server must report every shard in
// per_shard_completed — including shards that completed zero requests —
// and its latency percentiles must reflect the completions alone.
// Locality routing concentrates load, so idle shards are the common case,
// not a corner.
TEST(ServerStatsTest, ZeroCompletionShardsReportCleanly) {
  graph::Graph g = ServingGraph();
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  Server server(options);
  server.RegisterEndpoint(MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();

  SampleRequest request;
  request.algorithm = "GraphSAGE";
  request.dataset = "rmat";
  request.seeds = Seeds({1, 2, 3, 4, 5, 6, 7, 8});
  request.seed = 42;
  request.fanouts = {4, 3};
  SampleResponse response = server.Submit(std::move(request)).get();
  EXPECT_EQ(response.status, Status::kOk);
  server.Stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  // Every shard is present, idle ones at zero.
  ASSERT_EQ(stats.per_shard_completed.size(), 4u);
  int64_t total = 0;
  for (const auto& [shard, completed] : stats.per_shard_completed) {
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    total += completed;
  }
  EXPECT_EQ(total, 1);
  // The percentile report reflects the one completion; the three idle
  // shards must not zero out max or skew p99.
  EXPECT_GT(stats.latency_p50_ns, 0);
  EXPECT_GT(stats.latency_max_ns, 0);
  EXPECT_LE(stats.latency_p99_ns, stats.latency_max_ns);
}

// Regression: the last occupied bucket must interpolate toward the observed
// maximum, not its 2^(i+1) edge. Extrapolating to the power-of-two edge and
// then clamping flattened every quantile that landed past the maximum's
// position onto max_ns itself — a 10/90 split of 513ns and 520ns samples
// (all in the [512, 1024) bucket) read p50 == p99 == 520.
TEST(LatencyHistogramTest, TopBucketInterpolatesTowardObservedMax) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) {
    h.Record(513);
  }
  for (int i = 0; i < 90; ++i) {
    h.Record(520);
  }
  const int64_t p50 = h.Percentile(50);
  const int64_t p99 = h.Percentile(99);
  EXPECT_GE(p50, 512);
  EXPECT_LT(p50, 520);  // previously clamped: p50 == p99 == 520
  EXPECT_LT(p50, p99);  // quantiles spread across [512, 520] again
  EXPECT_LE(p99, 520);

  // Only the top bucket's upper edge is replaced by the max; lower buckets
  // keep their power-of-two edges.
  LatencyHistogram two;
  two.Record(600);
  two.Record(5000);
  EXPECT_EQ(two.Percentile(100), 5000);
  EXPECT_GE(two.Percentile(75), 4096);
  EXPECT_LT(two.Percentile(75), 5000);
}

TEST(LatencyHistogramTest, SingleSampleAllPercentiles) {
  LatencyHistogram h;
  h.Record(700);
  // Every quantile of a single observation is that observation (capped at
  // max_ns); interpolation must not push past what was recorded.
  EXPECT_LE(h.Percentile(50), 700);
  EXPECT_EQ(h.Percentile(100), 700);
  EXPECT_GE(h.Percentile(50), 512);
}

TEST(ServerStatsTest, CoalescingRatio) {
  ServerStats s;
  EXPECT_EQ(s.CoalescingRatio(), 0.0);
  s.executions = 4;
  s.requests_executed = 10;
  EXPECT_DOUBLE_EQ(s.CoalescingRatio(), 2.5);
}

// Every scalar counter is declared once, as a GS_SERVER_STATS entry, and the
// reports walk that list: each field appears exactly once under its own name
// in ToString and ToJson, and Add folds every one of them.
TEST(ServerStatsTest, EveryReportWalksTheFieldList) {
  ServerStats stats;
  std::vector<std::pair<std::string, int64_t>> fields;
  int64_t next = 1001;  // distinct, same width: no value prefixes another
#define GS_TEST_SET_FIELD(name) \
  stats.name = next++;          \
  fields.emplace_back(#name, stats.name);
  GS_SERVER_STATS(GS_TEST_SET_FIELD)
#undef GS_TEST_SET_FIELD
  stats.per_shard_completed[2] = 5;
  stats.per_tenant_completed["a\"b\\c"] = 7;

  std::vector<std::string> words;
  std::istringstream text(stats.ToString());
  for (std::string word; text >> word;) {
    words.push_back(word);
  }
  const std::string json = stats.ToJson();
  const auto occurrences = [&json](const std::string& needle) {
    int count = 0;
    for (size_t at = json.find(needle); at != std::string::npos; at = json.find(needle, at + 1)) {
      ++count;
    }
    return count;
  };
  for (const auto& [name, value] : fields) {
    const std::string v = std::to_string(value);
    EXPECT_EQ(std::count(words.begin(), words.end(), name + "=" + v), 1) << name;
    EXPECT_EQ(occurrences("\"" + name + "\":" + v + ","), 1) << name;
  }
  EXPECT_EQ(occurrences(R"("per_shard_completed":{"2":5})"), 1) << json;
  EXPECT_EQ(occurrences(R"("per_tenant_completed":{"a\"b\\c":7})"), 1) << json;
  EXPECT_EQ(occurrences(R"("per_tenant_failed":{})"), 1) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  ServerStats doubled = stats;
  doubled.Add(stats);
#define GS_TEST_EXPECT_DOUBLED(name) EXPECT_EQ(doubled.name, 2 * stats.name) << #name;
  GS_SERVER_STATS(GS_TEST_EXPECT_DOUBLED)
#undef GS_TEST_EXPECT_DOUBLED
}

TEST(RequestTest, StatusNames) {
  EXPECT_STREQ(StatusName(Status::kOk), "OK");
  EXPECT_STREQ(StatusName(Status::kRejected), "REJECTED");
  EXPECT_STREQ(StatusName(Status::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusName(Status::kFailed), "FAILED");
  EXPECT_STREQ(StatusName(Status::kDegraded), "DEGRADED");
}

}  // namespace
}  // namespace gs::serving
