// JIT tier (gs::jit): region extraction and ranking, emitted-source
// structure, kernel-cache compile/load/memoize/corruption recovery, the
// all-algorithm JIT-vs-interpreter bit-identity oracle (single-device,
// sharded serving, and mutated-epoch snapshots), artifact warm restarts,
// and the jit.compile fault-demotion ladder (a demotion is never a failed
// request).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/executor.h"
#include "core/ir.h"
#include "core/plan.h"
#include "device/device.h"
#include "fault/fault.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "jit/emitter.h"
#include "jit/jit.h"
#include "jit/kernel_cache.h"
#include "jit/region.h"
#include "serving/request.h"
#include "serving/server.h"
#include "tests/testing.h"

namespace gs {
namespace {

using core::CompiledPlan;
using core::SamplerOptions;
using core::SamplerSession;
using core::Value;
using jit::CodeEmitter;
using jit::JitEngine;
using jit::JitEngineOptions;
using jit::KernelCache;
using jit::KernelCacheOptions;
using jit::Region;
using jit::RegionExtractor;
using tensor::IdArray;
using testing::ExpectBitIdentical;

graph::Graph JitGraph() { return testing::SmallRmat(300, 3000, 41); }

IdArray Seeds(std::vector<int32_t> ids) { return IdArray::FromVector(ids); }

std::string ScratchDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "gs_jit_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

JitEngineOptions EngineOptions(const std::string& dir) {
  JitEngineOptions options;
  options.artifact_dir = dir;
  return options;
}

KernelCacheOptions CacheOptions(const std::string& dir) {
  KernelCacheOptions options;
  options.artifact_dir = dir;
  return options;
}

SamplerOptions Optimized(uint64_t seed = 0xD1FF) {
  SamplerOptions opts;
  opts.enable_fusion = true;
  opts.enable_preprocessing = true;
  opts.enable_layout_selection = true;
  opts.seed = seed;
  return opts;
}

std::shared_ptr<CompiledPlan> Compile(const std::string& name, const graph::Graph& g,
                                      SamplerOptions options,
                                      std::map<std::string, tensor::Tensor>* tensors) {
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
  if (ap.updates_model) {
    options.super_batch = 1;
  }
  *tensors = std::move(ap.tensors);
  return std::make_shared<CompiledPlan>(std::move(ap.program), options, name);
}

// Builds a warmed session over `plan`, optionally with a JIT table attached
// (the serving order: Warmup — which calibrates the plan and finalizes its
// digest — then the table).
std::shared_ptr<SamplerSession> MakeSession(
    std::shared_ptr<CompiledPlan> plan, const graph::Graph& g,
    std::map<std::string, tensor::Tensor> tensors,
    std::shared_ptr<const core::FusedKernelTable> table = nullptr) {
  auto session = std::make_shared<SamplerSession>(std::move(plan), g, std::move(tensors));
  if (session->plan().label() == "HetGNN") {
    session->BindGraph("rel0", &g.adj());
    session->BindGraph("rel1", &g.adj());
  }
  session->Warmup(Seeds({0, 1, 2, 3}));
  session->SetJitTable(std::move(table));
  return session;
}

// ------------------------------------------------------- region extraction

TEST(RegionExtraction, RanksFollowTopoOrderAndFeedersAreRecorded) {
  graph::Graph g = JitGraph();
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  const std::vector<Region> regions = RegionExtractor::Extract(plan->program());
  ASSERT_FALSE(regions.empty()) << "fusion on: GraphSAGE must contain fused regions";
  for (size_t i = 0; i < regions.size(); ++i) {
    const Region& r = regions[i];
    EXPECT_EQ(r.rank, static_cast<int>(i)) << "ranks are dense and ordered";
    if (i > 0) {
      EXPECT_GT(r.node_id, regions[i - 1].node_id) << "topo order";
    }
    EXPECT_TRUE(r.kind == core::OpKind::kFusedSliceSample ||
                r.kind == core::OpKind::kFusedEdgeMap ||
                r.kind == core::OpKind::kFusedEdgeMapReduce);
    if (r.kind == core::OpKind::kFusedSliceSample) {
      EXPECT_GT(r.k, 0);
    }
    EXPECT_FALSE(r.Signature().empty());
    EXPECT_NE(r.Signature().find("r" + std::to_string(r.rank)), std::string::npos);
  }

  // Fusion off: no fused nodes, no regions, and TableFor returns nullptr.
  SamplerOptions unfused = Optimized();
  unfused.enable_fusion = false;
  std::map<std::string, tensor::Tensor> t2;
  auto plain = Compile("GraphSAGE", g, unfused, &t2);
  EXPECT_TRUE(RegionExtractor::Extract(plain->program()).empty());
  JitEngine engine(EngineOptions(ScratchDir("noregions")));
  EXPECT_EQ(engine.TableFor(*plain), nullptr);
}

TEST(RegionExtraction, RanksAreStableAcrossRecompilation) {
  // The rank is half of the artifact key, so re-deriving the same plan in
  // another process must produce identical (rank, signature) lists.
  graph::Graph g = JitGraph();
  std::map<std::string, tensor::Tensor> t1;
  std::map<std::string, tensor::Tensor> t2;
  auto a = Compile("LADIES", g, Optimized(), &t1);
  auto b = Compile("LADIES", g, Optimized(), &t2);
  ASSERT_EQ(a->Digest(), b->Digest());
  const std::vector<Region> ra = RegionExtractor::Extract(a->program());
  const std::vector<Region> rb = RegionExtractor::Extract(b->program());
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].Signature(), rb[i].Signature());
  }
}

// ---------------------------------------------------------------- emitter

TEST(Emitter, EmitsKeyedSelfContainedSource) {
  graph::Graph g = JitGraph();
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  const std::vector<Region> regions = RegionExtractor::Extract(plan->program());
  ASSERT_FALSE(regions.empty());
  for (const Region& r : regions) {
    if (!CodeEmitter::CanEmit(r)) {
      continue;
    }
    const std::string key = plan->DigestHex() + "-r" + std::to_string(r.rank);
    const std::string source = CodeEmitter::Emit(r, key);
    EXPECT_NE(source.find("gs_jit_key"), std::string::npos);
    EXPECT_NE(source.find("gs_jit_run"), std::string::npos);
    EXPECT_NE(source.find(key), std::string::npos) << "key embedded verbatim";
    // Self-contained: no repo headers on the include path.
    EXPECT_EQ(source.find("#include \""), std::string::npos);
  }
}

TEST(Emitter, DeclinesUnsupportedFanouts) {
  Region r;
  r.kind = core::OpKind::kFusedSliceSample;
  r.k = 0;  // the interpreter rejects it too (GS_CHECK_GT)
  EXPECT_FALSE(CodeEmitter::CanEmit(r));
  r.k = 1 << 20;  // beyond the stack-scratch cap: demote, don't emit
  EXPECT_FALSE(CodeEmitter::CanEmit(r));
  r.k = 8;
  EXPECT_TRUE(CodeEmitter::CanEmit(r));
}

// ------------------------------------------------------------ kernel cache

TEST(KernelCacheTest, CompilesMemoizesAndReloadsPersistedArtifacts) {
  graph::Graph g = JitGraph();
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  const std::vector<Region> regions = RegionExtractor::Extract(plan->program());
  ASSERT_FALSE(regions.empty());
  const Region& r = regions.front();
  ASSERT_TRUE(CodeEmitter::CanEmit(r));
  const std::string key = plan->DigestHex() + "-r" + std::to_string(r.rank);
  const std::string source = CodeEmitter::Emit(r, key);
  const std::string dir = ScratchDir("cache");

  KernelCache cache(CacheOptions(dir));
  std::string error;
  bool from_artifact = true;
  void* entry = cache.LoadOrCompile(key, source, &error, &from_artifact);
  ASSERT_NE(entry, nullptr) << error;
  EXPECT_FALSE(from_artifact);
  EXPECT_EQ(cache.counters().compiles, 1);
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + key + ".so"));

  // Memoized: the second resolution does not touch the toolchain.
  EXPECT_EQ(cache.LoadOrCompile(key, source, &error), entry);
  EXPECT_EQ(cache.counters().compiles, 1);

  // A fresh cache over the same directory dlopens the persisted .so.
  KernelCache warm(CacheOptions(dir));
  from_artifact = false;
  ASSERT_NE(warm.LoadOrCompile(key, source, &error, &from_artifact), nullptr) << error;
  EXPECT_TRUE(from_artifact);
  EXPECT_EQ(warm.counters().compiles, 0);
  EXPECT_EQ(warm.counters().artifact_hits, 1);

  // A corrupted artifact fails dlopen verification, is discarded, and is
  // rebuilt from source once. The corrupt file must use a key this process
  // has never dlopened: glibc caches handles per path, so corruption of an
  // already-loaded artifact is unobservable in-process (and harmless — the
  // verified mapping stays live). On disk, corruption is only ever seen at
  // first load, which is what this models.
  const std::string corrupt_key = "corrupt-r" + std::to_string(r.rank);
  const std::string corrupt_source = CodeEmitter::Emit(r, corrupt_key);
  std::ofstream(dir + "/" + corrupt_key + ".so") << "not an object";
  KernelCache recover(CacheOptions(dir));
  from_artifact = true;
  ASSERT_NE(recover.LoadOrCompile(corrupt_key, corrupt_source, &error, &from_artifact),
            nullptr)
      << error;
  EXPECT_FALSE(from_artifact);
  EXPECT_EQ(recover.counters().compiles, 1);
}

TEST(KernelCacheTest, BadSourceResolvesToInterpretNotThrow) {
  KernelCache cache(CacheOptions(ScratchDir("badsrc")));
  std::string error;
  EXPECT_EQ(cache.LoadOrCompile("bad-r0", "this is not C++;", &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.counters().failures, 1);
  // The failure is memoized: no second compiler invocation.
  EXPECT_EQ(cache.LoadOrCompile("bad-r0", "this is not C++;", &error), nullptr);
  EXPECT_EQ(cache.counters().failures, 1);
}

// ------------------------------------------------- bit-identity (oracle)

// The acceptance oracle: for every Table-2 algorithm, sampling with the JIT
// jump table attached is bit-identical to pure interpretation — same seeds,
// same draws, same floats.
TEST(JitOracle, AllAlgorithmsBitIdenticalToInterpreter) {
  graph::Graph g = JitGraph();
  JitEngine engine(EngineOptions(ScratchDir("oracle")));
  jit::ResetGlobalJitStats();
  int jitted_algorithms = 0;
  for (const std::string& algo : algorithms::AllAlgorithmNames()) {
    std::map<std::string, tensor::Tensor> tensors;
    auto plan = Compile(algo, g, Optimized(), &tensors);
    std::shared_ptr<const core::FusedKernelTable> table = engine.TableFor(*plan);
    auto interp = MakeSession(plan, g, tensors, nullptr);
    auto jitted = MakeSession(plan, g, tensors, table);
    if (table != nullptr) {
      ++jitted_algorithms;
    }
    const IdArray frontier = Seeds({5, 17, 2, 42, 8, 13, 99, 1});
    for (const uint64_t seed : {uint64_t{1}, uint64_t{0xBEEF}, uint64_t{777}}) {
      ExpectBitIdentical(interp->SampleSeeded(frontier, seed),
                         jitted->SampleSeeded(frontier, seed), algo);
    }
  }
  EXPECT_GT(jitted_algorithms, 0) << "at least the fused samplers must have tables";
  const jit::JitStats stats = jit::GlobalJitStats();
  EXPECT_GT(stats.regions, 0);
  EXPECT_GT(stats.compiled, 0);
  EXPECT_GT(stats.hits, 0) << "native kernels must actually serve fused ops";
}

// Sharded serving: a 4-shard server with --jit answers bit-identically to
// the same server without it, and no request fails.
TEST(JitOracle, ShardedServingBitIdentical) {
  graph::Graph g = JitGraph();
  // The server's shard devices own the response memory, so each server must
  // stay alive until the comparison is done (same idiom as test_shard.cc).
  auto serve_once = [&](bool jit, int num_shards) {
    serving::ServerOptions options;
    options.num_workers = 2;
    options.num_shards = num_shards;
    options.jit = jit;
    auto server = std::make_unique<serving::Server>(options);
    server->RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
    server->RegisterEndpoint(serving::MakeEndpoint("LADIES", "rmat", g));
    std::vector<std::vector<Value>> outputs;
    server->Start();
    for (const std::string algo : {"GraphSAGE", "LADIES"}) {
      serving::SampleRequest req;
      req.algorithm = algo;
      req.dataset = "rmat";
      req.seeds = Seeds({1, 2, 3, 4, 5, 6, 7, 8});
      req.seed = 4242;
      req.fanouts = {4, 3};
      serving::SampleResponse r = server->Submit(std::move(req)).get();
      EXPECT_EQ(r.status, serving::Status::kOk) << algo << ": " << r.error;
      outputs.push_back(std::move(r.outputs));
    }
    EXPECT_EQ(server->stats().failed, 0);
    return std::make_pair(std::move(server), std::move(outputs));
  };
  jit::ResetGlobalJitStats();
  for (const int num_shards : {1, 4}) {
    auto [interp_server, interp] = serve_once(false, num_shards);
    auto [jit_server, jitted] = serve_once(true, num_shards);
    ASSERT_EQ(interp.size(), jitted.size());
    for (size_t i = 0; i < interp.size(); ++i) {
      ExpectBitIdentical(interp[i], jitted[i], "shards=" + std::to_string(num_shards) +
                                                   " request " + std::to_string(i));
    }
    interp_server->Stop();
    jit_server->Stop();
  }
  EXPECT_GT(jit::GlobalJitStats().hits, 0);
}

// Dynamic graphs: after online mutations, sessions over the mutated
// snapshot sample identically with and without the JIT.
TEST(JitOracle, MutatedEpochSnapshotBitIdentical) {
  graph::GraphStore store(JitGraph());
  graph::MutationBatch batch;
  for (int32_t i = 0; i < 40; ++i) {
    batch.add_edges.push_back({i * 3 % 300, (i * 7 + 1) % 300, 0.5f + 0.01f * i});
  }
  batch.remove_edges.push_back({1, 0});
  const std::shared_ptr<const graph::Snapshot> snap = store.Apply(batch);
  ASSERT_GT(snap->epoch(), 0u);

  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", snap->graph());
  auto plan = std::make_shared<CompiledPlan>(std::move(ap.program), Optimized(), "GraphSAGE");
  JitEngine engine(EngineOptions(ScratchDir("dynepoch")));
  std::shared_ptr<const core::FusedKernelTable> table = engine.TableFor(*plan);
  ASSERT_NE(table, nullptr);

  SamplerSession interp(plan, snap, ap.tensors);
  SamplerSession jitted(plan, snap, ap.tensors);
  jitted.SetJitTable(table);
  interp.Warmup(Seeds({0, 1, 2, 3}));
  jitted.Warmup(Seeds({0, 1, 2, 3}));
  const IdArray frontier = Seeds({2, 290, 7, 150, 33});
  for (const uint64_t seed : {uint64_t{3}, uint64_t{0xD00D}}) {
    ExpectBitIdentical(interp.SampleSeeded(frontier, seed),
                       jitted.SampleSeeded(frontier, seed), "mutated epoch");
  }
}

// Every one-segment run consults the jump table: a one-member seeded
// GraphSAGE request runs the native slice-sample once per
// fused_slice_sample node and matches the interpreter bit for bit. A
// coalesced group of three interprets (the compiled kernel draws from one
// stream), and each member still matches its solo response.
TEST(JitOracle, OneMemberRequestsRunTheNativeSliceSample) {
  graph::Graph g = JitGraph();
  JitEngine engine(EngineOptions(ScratchDir("onemember")));
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  std::shared_ptr<const core::FusedKernelTable> table = engine.TableFor(*plan);
  ASSERT_NE(table, nullptr);
  const auto& nodes = plan->program().nodes();
  ASSERT_EQ(std::count_if(nodes.begin(), nodes.end(),
                          [](const core::Node& n) {
                            return n.kind == core::OpKind::kFusedSliceSample;
                          }),
            2);
  auto interp = MakeSession(plan, g, tensors, nullptr);
  auto jitted = MakeSession(plan, g, tensors, table);

  const IdArray frontier = Seeds({5, 17, 2, 42, 8});
  int64_t hits = jit::GlobalJitStats().hits;
  const std::vector<Value> native = jitted->SampleSeeded(frontier, 9);
  EXPECT_EQ(jit::GlobalJitStats().hits - hits, 2);
  ExpectBitIdentical(interp->SampleSeeded(frontier, 9), native, "one member");

  const std::vector<IdArray> group = {frontier, Seeds({1, 2, 3}), Seeds({99})};
  const std::vector<uint64_t> seeds = {9, 10, 11};
  std::vector<std::vector<Value>> grouped(group.size());
  hits = jit::GlobalJitStats().hits;
  jitted->SampleGrouped(group, seeds, [&grouped](int64_t b, std::vector<Value>& outputs) {
    grouped[static_cast<size_t>(b)] = std::move(outputs);
  });
  EXPECT_EQ(jit::GlobalJitStats().hits, hits);
  for (size_t b = 0; b < group.size(); ++b) {
    ExpectBitIdentical(grouped[b], jitted->SampleSeeded(group[b], seeds[b]),
                       "member " + std::to_string(b));
  }
}

// The native slice-sample returns a marked sample's node set from its own
// launch and charges what the interpreter charges, so a GraphSAGE request
// costs the same kernels, bytes and model clock either way: one launch per
// layer, its row_ids included.
TEST(JitOracle, NativeSliceSampleChargesTheInterpretersCosts) {
  device::Device v100(device::V100Sim());
  device::DeviceGuard guard(v100);
  graph::Graph g = JitGraph();
  JitEngine engine(EngineOptions(ScratchDir("costs")));
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  std::shared_ptr<const core::FusedKernelTable> table = engine.TableFor(*plan);
  ASSERT_NE(table, nullptr);
  auto interp = MakeSession(plan, g, tensors, nullptr);
  auto jitted = MakeSession(plan, g, tensors, table);
  auto cost = [&v100](const SamplerSession& session, std::vector<Value>* out) {
    const device::StreamCounters before = v100.stream().counters();
    *out = session.SampleSeeded(Seeds({5, 17, 2, 42, 8}), 9);
    const device::StreamCounters after = v100.stream().counters();
    return std::vector<int64_t>{after.kernels_launched - before.kernels_launched,
                                after.hbm_bytes - before.hbm_bytes,
                                after.model_ns - before.model_ns};
  };
  std::vector<Value> want;
  std::vector<Value> got;
  const std::vector<int64_t> interp_cost = cost(*interp, &want);
  const int64_t hits = jit::GlobalJitStats().hits;
  EXPECT_EQ(cost(*jitted, &got), interp_cost);
  EXPECT_EQ(jit::GlobalJitStats().hits - hits, 2);
  EXPECT_EQ(interp_cost[0], 2);
  ExpectBitIdentical(want, got, "native node sets");
}

// ------------------------------------------------------- demotion ladder

// A forced jit.compile fault demotes every region to the interpreter; the
// engine still returns a (fully declining) table, sampling still works, and
// a serving request never fails because of it.
TEST(JitFault, CompileFaultDemotesWithZeroFailedRequests) {
  graph::Graph g = JitGraph();
  fault::FaultPlan fault_plan;
  fault_plan.site(fault::Site::kJitCompile).after = 0;  // every probe fires
  fault::FaultScope scope(fault_plan);
  jit::ResetGlobalJitStats();

  // Engine level: all regions demote, none compile.
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  JitEngine engine(EngineOptions(ScratchDir("faulted")));
  std::shared_ptr<const core::FusedKernelTable> table = engine.TableFor(*plan);
  jit::JitStats stats = jit::GlobalJitStats();
  EXPECT_GT(stats.regions, 0);
  EXPECT_EQ(stats.compiled, 0);
  EXPECT_EQ(stats.demotions, stats.regions);

  // Session level: the demoted table declines and the interpreter serves.
  auto interp = MakeSession(plan, g, tensors, nullptr);
  auto demoted = MakeSession(plan, g, tensors, table);
  const IdArray frontier = Seeds({4, 9, 16, 25});
  ExpectBitIdentical(interp->SampleSeeded(frontier, 11),
                     demoted->SampleSeeded(frontier, 11), "demoted table");

  // Serving level: --jit under a permanent compile fault serves everything.
  serving::ServerOptions options;
  options.num_workers = 2;
  options.jit = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
  server.Start();
  for (int i = 0; i < 8; ++i) {
    serving::SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = "rmat";
    req.seeds = Seeds({1 + i, 2 + i, 3 + i});
    req.seed = 100 + i;
    EXPECT_EQ(server.Submit(std::move(req)).get().status, serving::Status::kOk);
  }
  server.Stop();
  const serving::ServerStats sstats = server.stats();
  EXPECT_EQ(sstats.failed, 0);
  EXPECT_EQ(sstats.completed, 8);
  EXPECT_GT(sstats.jit_demotions, 0);
  EXPECT_EQ(sstats.jit_compiled, 0);
}

// -------------------------------------------------------- warm restarts

TEST(JitEngineTest, WarmRestartReloadsArtifactsWithoutRecompiling) {
  graph::Graph g = JitGraph();
  const std::string dir = ScratchDir("restart");
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  // Calibrate first: warmup mutates the plan's calibration state, which is
  // part of Digest() — artifact keys are only stable once that has happened
  // (serving attaches post-warmup for the same reason).
  auto interp = MakeSession(plan, g, tensors, nullptr);

  JitEngine cold(EngineOptions(dir));
  ASSERT_NE(cold.TableFor(*plan), nullptr);
  EXPECT_GT(cold.cache_counters().compiles, 0);
  EXPECT_EQ(cold.cache_counters().artifact_hits, 0);

  // Restart: a new engine (new process, same plan_dir) loads the persisted
  // .so files and never invokes the compiler.
  jit::ResetGlobalJitStats();
  JitEngine warm(EngineOptions(dir));
  std::shared_ptr<const core::FusedKernelTable> table = warm.TableFor(*plan);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(warm.cache_counters().compiles, 0);
  EXPECT_GT(warm.cache_counters().artifact_hits, 0);
  EXPECT_GT(jit::GlobalJitStats().artifact_hits, 0);

  // The reloaded kernels still match the interpreter.
  auto jitted = MakeSession(plan, g, tensors, table);
  const IdArray frontier = Seeds({3, 33, 133});
  ExpectBitIdentical(interp->SampleSeeded(frontier, 5),
                     jitted->SampleSeeded(frontier, 5), "warm restart");

  // TableFor memoizes per plan digest: same table object back.
  EXPECT_EQ(warm.TableFor(*plan).get(), table.get());
}

TEST(JitEngineTest, DisableEnvKillsTheJit) {
  graph::Graph g = JitGraph();
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = Compile("GraphSAGE", g, Optimized(), &tensors);
  ::setenv("GS_JIT_DISABLE", "1", 1);
  JitEngine engine(EngineOptions(ScratchDir("disabled")));
  EXPECT_EQ(engine.TableFor(*plan), nullptr);
  ::unsetenv("GS_JIT_DISABLE");
}

// Serving: a warm-restarted --jit server reports artifact hits and answers
// bit-identically to its cold run.
TEST(JitServing, WarmRestartServesFromPersistedKernels) {
  graph::Graph g = JitGraph();
  const std::string dir = ScratchDir("servewarm");
  serving::SampleRequest req;
  req.algorithm = "GraphSAGE";
  req.dataset = "rmat";
  req.seeds = Seeds({3, 1, 4, 1, 5});
  req.seed = 2718;

  std::vector<Value> cold_outputs;
  {
    jit::ResetGlobalJitStats();
    serving::ServerOptions options;
    options.num_workers = 1;
    options.plan_dir = dir;
    options.jit = true;
    serving::Server server(options);
    server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
    server.Start();
    serving::SampleResponse r = server.Submit(req).get();
    ASSERT_EQ(r.status, serving::Status::kOk) << r.error;
    cold_outputs = std::move(r.outputs);
    server.Stop();
    const serving::ServerStats stats = server.stats();
    EXPECT_GT(stats.jit_regions, 0);
    EXPECT_GT(stats.jit_compiled, 0);
    EXPECT_NE(stats.ToString().find("jit_regions="), std::string::npos);
  }

  jit::ResetGlobalJitStats();
  serving::ServerOptions options;
  options.num_workers = 1;
  options.plan_dir = dir;
  options.jit = true;
  serving::Server restarted(options);
  restarted.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
  restarted.Start();
  serving::SampleResponse warm = restarted.Submit(req).get();
  ASSERT_EQ(warm.status, serving::Status::kOk) << warm.error;
  ExpectBitIdentical(cold_outputs, warm.outputs, "jit warm restart");
  restarted.Stop();
  const serving::ServerStats stats = restarted.stats();
  EXPECT_GT(stats.jit_artifact_hits, 0) << "persisted kernels must be reused";
}

}  // namespace
}  // namespace gs
