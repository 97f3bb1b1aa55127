// Tests for the plan layer (core/pass_manager.h, core/plan.h): per-pass
// instrumentation, Verify() at every pass boundary, the serialized-plan
// golden round-trip across all Table-2 algorithms (loaded plans must sample
// bit-identically and skip passes + calibration), digest integrity, the
// post-Warmup rebinding contract, the PassConfigDigest completeness
// regression, and plan-cache / live-server warm restarts.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "core/engine.h"
#include "core/pass_manager.h"
#include "core/plan.h"
#include "device/device.h"
#include "graph/graph.h"
#include "serving/plan_cache.h"
#include "serving/request.h"
#include "serving/server.h"
#include "tests/testing.h"

namespace gs {
namespace {

using core::CompiledPlan;
using core::SamplerOptions;
using core::SamplerSession;
using core::Value;
using tensor::IdArray;
using testing::ExpectBitIdentical;

graph::Graph PlanGraph() { return testing::SmallRmat(400, 4000, 23); }

IdArray Seeds(std::vector<int32_t> ids) { return IdArray::FromVector(ids); }

// Fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "gs_plan_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Builds (plan, session) for a Table-2 algorithm, handling HetGNN's extra
// relation graphs, and warms the session up.
std::shared_ptr<SamplerSession> MakeSession(std::shared_ptr<CompiledPlan> plan,
                                            const graph::Graph& g,
                                            std::map<std::string, tensor::Tensor> tensors = {}) {
  auto session = std::make_shared<SamplerSession>(std::move(plan), g, std::move(tensors));
  if (session->plan().label() == "HetGNN") {
    session->BindGraph("rel0", &g.adj());
    session->BindGraph("rel1", &g.adj());
  }
  session->Warmup(Seeds({0, 1, 2, 3}));
  return session;
}

std::shared_ptr<CompiledPlan> CompileAlgorithm(const std::string& name, const graph::Graph& g,
                                               SamplerOptions options,
                                               std::map<std::string, tensor::Tensor>* tensors) {
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
  if (ap.updates_model) {
    options.super_batch = 1;
  }
  *tensors = std::move(ap.tensors);
  return std::make_shared<CompiledPlan>(std::move(ap.program), options, name);
}

// ------------------------------------------------------- pass manager

TEST(PassManager, RecordsPerPassStatsInPipelineOrder) {
  graph::Graph g = PlanGraph();
  SamplerOptions options;
  core::PassManager pipeline = core::StandardPassPipeline(options);
  // The unconditional tail (cse, dce, mark-invariant) is always registered.
  const std::vector<std::string> names = pipeline.names();
  ASSERT_GE(names.size(), 3u);
  std::set<std::string> name_set(names.begin(), names.end());
  EXPECT_TRUE(name_set.count("cse"));
  EXPECT_TRUE(name_set.count("dce"));
  EXPECT_TRUE(name_set.count("mark-invariant"));
  EXPECT_TRUE(name_set.count("fuse-extract-select"));
  EXPECT_TRUE(name_set.count("fuse-walks"));

  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", g);
  const size_t before = ap.program.size();
  core::PassManagerOptions run_options;
  run_options.verify = true;
  std::vector<core::PassStats> stats;
  pipeline.Run(ap.program, run_options, &stats);
  ASSERT_EQ(stats.size(), names.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].name, names[i]);
    EXPECT_TRUE(stats[i].verified) << names[i];
    EXPECT_GE(stats[i].wall_ns, 0) << names[i];
    EXPECT_GE(stats[i].nodes_before, stats[i].nodes_after) << names[i] << " grew the program";
  }
  EXPECT_EQ(stats.front().nodes_before, static_cast<int64_t>(before));
  ap.program.Verify();
}

// Verify() must hold after every individual pass on every algorithm — the
// invariant that makes the pipeline safely re-orderable and debuggable.
TEST(PassManager, EveryPassPreservesVerifyOnAllAlgorithms) {
  graph::Graph g = PlanGraph();
  for (const std::string& name : algorithms::AllAlgorithmNames()) {
    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
    core::PassManager pipeline = core::StandardPassPipeline({});
    core::PassManagerOptions run_options;
    run_options.verify = true;
    std::vector<core::PassStats> stats;
    pipeline.Run(ap.program, run_options, &stats);
    for (const core::PassStats& s : stats) {
      EXPECT_TRUE(s.verified) << name << " pass " << s.name;
    }
  }
}

TEST(CompiledPlan, ReportFoldsPassStats) {
  graph::Graph g = PlanGraph();
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = CompileAlgorithm("GraphSAGE", g, {}, &tensors);
  const core::OptimizationReport report = plan->report();
  ASSERT_FALSE(report.passes.empty());
  int64_t total_rewrites = 0;
  for (const core::PassStats& s : report.passes) {
    total_rewrites += s.rewrites;
  }
  // The fused GraphSAGE program must have seen at least one rewrite, and the
  // roll-up counters must be consistent with the per-pass records.
  EXPECT_GT(total_rewrites, 0);
  EXPECT_GE(total_rewrites, report.extract_select_fusions + report.cse_merged);
  EXPECT_NE(report.ToString().find("passes:"), std::string::npos);
}

// ---------------------------------------------------- golden round-trip

// The tentpole guarantee: for every algorithm, a serialized plan reloads
// into a session whose samples are bit-identical to the original, without
// re-running passes or calibration.
TEST(PlanRoundTrip, AllAlgorithmsBitIdenticalAfterReload) {
  graph::Graph g = PlanGraph();
  const std::vector<std::pair<IdArray, uint64_t>> probes = {
      {Seeds({0, 1, 2, 3, 4, 5, 6, 7}), 7}, {Seeds({11, 23, 42}), 31337}};
  for (const std::string& name : algorithms::AllAlgorithmNames()) {
    SCOPED_TRACE(name);
    std::map<std::string, tensor::Tensor> tensors;
    auto plan = CompileAlgorithm(name, g, {}, &tensors);
    auto original = MakeSession(plan, g, tensors);
    ASSERT_TRUE(plan->calibrated());
    ASSERT_TRUE(plan->frozen());

    const std::string text = plan->Serialize();
    std::shared_ptr<CompiledPlan> loaded = CompiledPlan::Deserialize(text);
    EXPECT_TRUE(loaded->restored());
    EXPECT_TRUE(loaded->calibrated());
    EXPECT_TRUE(loaded->frozen()) << "calibrated plans must arrive frozen";
    EXPECT_EQ(loaded->Digest(), plan->Digest());
    EXPECT_EQ(loaded->label(), name);
    // Reserialization is stable: the artifact's semantic payload is
    // canonical, so serialize(load(x)) has the digest of x.
    std::shared_ptr<CompiledPlan> twice = CompiledPlan::Deserialize(loaded->Serialize());
    EXPECT_EQ(twice->Digest(), plan->Digest());

    auto reloaded = MakeSession(loaded, g, tensors);
    for (const auto& [frontier, seed] : probes) {
      ExpectBitIdentical(original->SampleSeeded(frontier, seed),
                         reloaded->SampleSeeded(frontier, seed), name);
    }
  }
}

TEST(PlanRoundTrip, LoadedPlanPreservesOptionsAndTuning) {
  graph::Graph g = PlanGraph();
  std::map<std::string, tensor::Tensor> tensors;
  SamplerOptions options;
  options.super_batch = 0;  // auto-tune
  options.seed = 0xFEED;
  options.calibration_batches = 2;
  auto plan = CompileAlgorithm("GraphSAGE", g, options, &tensors);
  {
    SamplerSession session(plan, g, tensors);
    // BatchProducer triggers auto-tuning and writes the result through to
    // the (not yet frozen) plan.
    core::BatchProducer producer(session, g.train_ids(), 16);
    core::EpochBatch batch;
    ASSERT_TRUE(producer.Next(&batch));
  }
  ASSERT_GT(plan->tuned_super_batch(), 0);

  std::shared_ptr<CompiledPlan> loaded = CompiledPlan::Deserialize(plan->Serialize());
  EXPECT_EQ(loaded->tuned_super_batch(), plan->tuned_super_batch());
  EXPECT_EQ(loaded->options().seed, options.seed);
  EXPECT_EQ(loaded->options().super_batch, 0);
  EXPECT_EQ(loaded->options().calibration_batches, 2);
  EXPECT_EQ(loaded->program().size(), plan->program().size());
}

TEST(PlanRoundTrip, TamperedArtifactIsRejected) {
  graph::Graph g = PlanGraph();
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = CompileAlgorithm("FastGCN", g, {}, &tensors);
  MakeSession(plan, g, tensors);
  std::string text = plan->Serialize();

  // Flip a semantic byte (the options line) without updating the digest.
  const size_t pos = text.find("fusion=1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 7] = '0';
  EXPECT_THROW({ (void)CompiledPlan::Deserialize(text); }, Error);

  EXPECT_THROW({ (void)CompiledPlan::Deserialize("gsplan 999\n"); }, Error);
  EXPECT_THROW({ (void)CompiledPlan::Deserialize(""); }, Error);
}

TEST(PlanRoundTrip, FileHelpersRoundTrip) {
  graph::Graph g = PlanGraph();
  const std::string dir = ScratchDir("file");
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = CompileAlgorithm("LADIES", g, {}, &tensors);
  MakeSession(plan, g, tensors);

  const std::string path = dir + "/ladies.plan";
  core::SavePlanFile(*plan, path);
  std::shared_ptr<CompiledPlan> loaded = core::LoadPlanFile(path);
  EXPECT_EQ(loaded->Digest(), plan->Digest());
  EXPECT_THROW({ (void)core::LoadPlanFile(dir + "/missing.plan"); }, Error);
}

// ------------------------------------------- untrusted walk artifacts

// Re-signs a hand-edited artifact: recomputes the FNV-1a digest over the
// digest-covered lines (everything but the header, the digest line and the
// informational report/pass/validity trailer), so the load gets past the
// integrity check and reaches Program::Verify.
std::string Resign(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::string line;
  std::getline(in, header);
  std::getline(in, line);  // the stale digest
  std::string body;
  std::string trailer;
  while (std::getline(in, line)) {
    const std::string tag = line.substr(0, line.find(' '));
    std::string& part = tag == "report" || tag == "pass" || tag == "validity" ? trailer : body;
    part += line + "\n";
  }
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : body) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(h));
  return header + "\ndigest " + digest + "\n" + body + trailer;
}

// Replaces the first `from` in node `id`'s line with `to`, then re-signs.
std::string EditNode(const std::string& text, int id, const std::string& from,
                     const std::string& to) {
  const std::string prefix = "\nnode id=" + std::to_string(id) + " ";
  const size_t begin = text.find(prefix);
  EXPECT_NE(begin, std::string::npos) << "no node " << id;
  const size_t end = text.find('\n', begin + 1);
  std::string node_line = text.substr(begin, end - begin);
  const size_t at = node_line.find(from);
  EXPECT_NE(at, std::string::npos) << "node " << id << " has no '" << from << "'";
  node_line.replace(at, from.size(), to);
  return Resign(text.substr(0, begin) + node_line + text.substr(end));
}

// A fused DeepWalk plan of 3 steps: %2 = fused_walk(%0, %1) k=3 and its
// rows %3..%5.
std::string FusedWalkArtifact() {
  graph::Graph g = PlanGraph();
  algorithms::AlgorithmProgram ap = algorithms::DeepWalk(g, {.walk_length = 3});
  CompiledPlan plan(std::move(ap.program), SamplerOptions{}, "DeepWalk");
  const core::Program& p = plan.program();
  EXPECT_EQ(p.node(2).kind, core::OpKind::kFusedWalk);
  EXPECT_EQ(p.node(3).kind, core::OpKind::kWalkPathStep);
  return plan.Serialize();
}

TEST(UntrustedPlan, FusedWalkArtifactRoundTrips) {
  const std::string text = FusedWalkArtifact();
  EXPECT_NE(text.find(" step=walk_step\n"), std::string::npos);
  std::shared_ptr<CompiledPlan> loaded = CompiledPlan::Deserialize(Resign(text));
  EXPECT_EQ(loaded->program().node(2).attrs.step_kind, core::OpKind::kWalkStep);
  EXPECT_EQ(loaded->program().node(2).attrs.k, 3);
  EXPECT_EQ(loaded->program().node(5).attrs.k, 2);
}

TEST(UntrustedPlan, FusedWalkDefectsAreTypedErrors) {
  const std::string text = FusedWalkArtifact();
  const std::vector<std::pair<std::string, std::string>> defects = {
      {"step count 0", EditNode(text, 2, " k=3 ", " k=0 ")},
      {"negative step count", EditNode(text, 2, " k=3 ", " k=-2 ")},
      {"step count past the cap",
       EditNode(text, 2, " k=3 ", " k=" + std::to_string(core::kMaxFusedWalkSteps + 1) + " ")},
      {"step count whose path overflows int64",
       EditNode(text, 2, " k=3 ", " k=4611686018427387904 ")},
      {"non-walk step kind", EditNode(text, 2, "step=walk_step", "step=slice_cols")},
      {"unknown step kind", EditNode(text, 2, "step=walk_step", "step=teleport")},
      {"missing step kind", EditNode(text, 2, " step=walk_step", "")},
      {"arity of the step kind", EditNode(text, 2, "step=walk_step", "step=node2vec_step")},
      {"projection of the frontier", EditNode(text, 3, " in=2 ", " in=1 ")},
      {"projection of the graph", EditNode(text, 3, " in=2 ", " in=0 ")},
      {"row past the last step", EditNode(text, 5, " k=2 ", " k=3 ")},
      {"negative row", EditNode(text, 3, " k=0 ", " k=-1 ")},
  };
  for (const auto& [defect, artifact] : defects) {
    EXPECT_THROW({ (void)CompiledPlan::Deserialize(artifact); }, Error) << defect;
  }
}

TEST(UntrustedPlan, WalkAtTheStepCapLoadsAndRuns) {
  // The largest step count Verify accepts loads and runs, with walkers and
  // without; the projections still read the first three rows.
  graph::Graph g = PlanGraph();
  const std::string text = EditNode(FusedWalkArtifact(), 2, " k=3 ",
                                    " k=" + std::to_string(core::kMaxFusedWalkSteps) + " ");
  SamplerSession session(CompiledPlan::Deserialize(text), g, {});
  session.Warmup(Seeds({1, 2, 3, 4}));
  for (const IdArray& frontier : {Seeds({1, 2}), Seeds({})}) {
    const std::vector<Value> out = session.SampleSeeded(frontier, 7);
    ASSERT_EQ(out.size(), 3u);
    for (const Value& v : out) {
      EXPECT_EQ(v.ids.size(), frontier.size());
    }
  }
}

// ------------------------------------------------- session binding contract

TEST(SamplerSession, RebindingAfterWarmupIsAnError) {
  graph::Graph g = PlanGraph();
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("FastGCN", g);
  auto plan = std::make_shared<CompiledPlan>(std::move(ap.program), SamplerOptions{}, "FastGCN");
  SamplerSession session(plan, g, ap.tensors);

  // Rebinding before Warmup is allowed (that is how HetGNN attaches its
  // relation graphs)...
  session.BindGraph("unused_rel", &g.adj());
  session.Warmup(Seeds({0, 1, 2, 3}));
  // ...but after Warmup the session is in the concurrent serving phase and
  // any rebind is a hard error, not a silent race.
  tensor::Tensor replacement = tensor::Tensor::Zeros({g.num_nodes()});
  EXPECT_THROW(session.BindTensor("probs", replacement), Error);
  EXPECT_THROW(session.BindGraph("rel0", &g.adj()), Error);
}

TEST(SamplerSession, SharedPlanServesMultipleSessions) {
  graph::Graph g = PlanGraph();
  std::map<std::string, tensor::Tensor> tensors;
  auto plan = CompileAlgorithm("GraphSAGE", g, {}, &tensors);
  auto a = MakeSession(plan, g, tensors);
  auto b = MakeSession(plan, g, tensors);  // second session, same frozen plan
  ExpectBitIdentical(a->SampleSeeded(Seeds({5, 6, 7}), 99),
                     b->SampleSeeded(Seeds({5, 6, 7}), 99), "shared plan");
}

// --------------------------------------------- PassConfigDigest regression

// Every SamplerOptions field that can change the compiled artifact must
// change the digest (a stale-cache bug otherwise); the instrumentation-only
// flags must not (they would needlessly split the cache).
TEST(PassConfigDigest, CoversEveryArtifactAffectingField) {
  const SamplerOptions base;
  const std::string d0 = serving::PassConfigDigest(base);

  std::vector<std::pair<std::string, SamplerOptions>> variants;
  auto add = [&](const std::string& field, auto mutate) {
    SamplerOptions o = base;
    mutate(o);
    variants.emplace_back(field, o);
  };
  add("enable_fusion", [](SamplerOptions& o) { o.enable_fusion = false; });
  add("fuse_extract_select", [](SamplerOptions& o) { o.fuse_extract_select = false; });
  add("fuse_edge_maps", [](SamplerOptions& o) { o.fuse_edge_maps = false; });
  add("rewrite_sddmm", [](SamplerOptions& o) { o.rewrite_sddmm = false; });
  add("enable_preprocessing", [](SamplerOptions& o) { o.enable_preprocessing = false; });
  add("enable_layout_selection", [](SamplerOptions& o) { o.enable_layout_selection = false; });
  add("greedy_when_layout_disabled",
      [](SamplerOptions& o) { o.greedy_when_layout_disabled = false; });
  add("super_batch", [](SamplerOptions& o) { o.super_batch = 4; });
  add("memory_budget_bytes", [](SamplerOptions& o) { o.memory_budget_bytes /= 2; });
  add("calibration_batches", [](SamplerOptions& o) { o.calibration_batches = 3; });
  add("seed", [](SamplerOptions& o) { o.seed = 1; });

  std::set<std::string> digests = {d0};
  for (const auto& [field, options] : variants) {
    const std::string d = serving::PassConfigDigest(options);
    EXPECT_NE(d, d0) << "flipping " << field << " must change the pass-config digest";
    EXPECT_TRUE(digests.insert(d).second) << field << " collided with another variant";
  }

  // Instrumentation-only knobs cannot affect the artifact.
  SamplerOptions instrumented = base;
  instrumented.verify_passes = true;
  instrumented.dump_ir_after_passes = true;
  EXPECT_EQ(serving::PassConfigDigest(instrumented), d0);
}

// ------------------------------------------------ plan cache persistence

TEST(PlanCachePersistence, SaveAllLoadFromRoundTrip) {
  graph::Graph g = PlanGraph();
  const std::string dir = ScratchDir("cache");
  const SamplerOptions options;  // endpoint-equivalent config
  const std::string cfg = serving::PassConfigDigest(options);

  auto build = [&](const std::string& algorithm) {
    std::map<std::string, tensor::Tensor> tensors;
    SamplerOptions o = options;
    o.super_batch = 1;
    auto plan = CompileAlgorithm(algorithm, g, o, &tensors);
    return MakeSession(plan, g, tensors);
  };

  uint64_t fastgcn_digest = 0;
  {
    serving::PlanCache cache(int64_t{64} * 1024 * 1024, nullptr);
    auto s1 = cache.GetOrBuild({"FastGCN", "rmat", "dev", cfg, {32, 32}},
                               [&] { return build("FastGCN"); });
    cache.GetOrBuild({"LADIES", "rmat", "dev", cfg, {64}}, [&] { return build("LADIES"); });
    fastgcn_digest = s1->plan().Digest();
    EXPECT_EQ(cache.SaveAll(dir), 2);
    EXPECT_EQ(cache.stats().plans_saved, 2);
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/index.txt"));

  serving::PlanCache warm(int64_t{64} * 1024 * 1024, nullptr);
  int64_t activations = 0;
  const int64_t loaded = warm.LoadFrom(
      dir, [&](const serving::PlanKey& key, std::shared_ptr<CompiledPlan> plan)
               -> std::shared_ptr<SamplerSession> {
        ++activations;
        EXPECT_TRUE(plan->restored());
        EXPECT_EQ(key.pass_config, cfg);
        std::map<std::string, tensor::Tensor> tensors;
        algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(key.algorithm, g);
        return MakeSession(std::move(plan), g, ap.tensors);
      });
  EXPECT_EQ(loaded, 2);
  EXPECT_EQ(activations, 2);
  const serving::PlanCacheStats stats = warm.stats();
  EXPECT_EQ(stats.plans_loaded, 2);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.misses, 0) << "warm-start loads must not count as misses";
  EXPECT_EQ(stats.hits, 0);

  // The warm cache serves both keys without invoking the factory, and the
  // restored FastGCN plan is the very artifact that was saved.
  bool hit = false;
  auto s = warm.GetOrBuild({"FastGCN", "rmat", "dev", cfg, {32, 32}},
                           [&]() -> std::shared_ptr<SamplerSession> {
                             ADD_FAILURE() << "factory must not run on a warm start";
                             return nullptr;
                           },
                           &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(s->plan().restored());
  EXPECT_EQ(s->plan().Digest(), fastgcn_digest);
}

TEST(PlanCachePersistence, CorruptArtifactsAreSkippedNotFatal) {
  graph::Graph g = PlanGraph();
  const std::string dir = ScratchDir("corrupt");
  const std::string cfg = serving::PassConfigDigest({});
  {
    serving::PlanCache cache(int64_t{64} * 1024 * 1024, nullptr);
    std::map<std::string, tensor::Tensor> tensors;
    SamplerOptions o;
    o.super_batch = 1;
    auto plan = CompileAlgorithm("GraphSAGE", g, o, &tensors);
    cache.GetOrBuild({"GraphSAGE", "rmat", "dev", cfg, {}},
                     [&] { return MakeSession(plan, g, tensors); });
    ASSERT_EQ(cache.SaveAll(dir), 1);
  }
  // Truncate the artifact; the index still points at it.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".plan") {
      std::ofstream(entry.path(), std::ios::trunc) << "gsplan 1\n";
    }
  }
  serving::PlanCache warm(int64_t{64} * 1024 * 1024, nullptr);
  const int64_t loaded = warm.LoadFrom(
      dir, [&](const serving::PlanKey&, std::shared_ptr<CompiledPlan>) {
        return std::shared_ptr<SamplerSession>(nullptr);
      });
  EXPECT_EQ(loaded, 0);
  EXPECT_EQ(warm.stats().entries, 0);

  // A directory with no index is a clean cold start.
  serving::PlanCache cold(int64_t{64} * 1024 * 1024, nullptr);
  EXPECT_EQ(cold.LoadFrom(ScratchDir("empty"),
                          [](const serving::PlanKey&, std::shared_ptr<CompiledPlan>) {
                            return std::shared_ptr<SamplerSession>(nullptr);
                          }),
            0);
}

// ---------------------------------------------- live-server warm restart

// The acceptance test: a restarted server pointed at a persisted plan
// directory answers its first request from the warm cache — zero plan-cache
// misses, outputs bit-identical to the cold server's.
TEST(ServerWarmRestart, FirstRequestSkipsCompileAndMatchesBitIdentically) {
  graph::Graph g = PlanGraph();
  const std::string dir = ScratchDir("server");

  serving::SampleRequest req;
  req.algorithm = "GraphSAGE";
  req.dataset = "rmat";
  req.seeds = Seeds({3, 1, 4, 1, 5});
  req.seed = 2718;

  std::vector<Value> cold_outputs;
  {
    serving::ServerOptions options;
    options.num_workers = 1;
    options.plan_dir = dir;
    serving::Server server(options);
    server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
    server.Start();
    serving::SampleResponse r = server.Submit(req).get();
    ASSERT_EQ(r.status, serving::Status::kOk) << r.error;
    EXPECT_FALSE(r.stages.plan_cache_hit);
    cold_outputs = std::move(r.outputs);
    server.Stop();  // persists resident plans into plan_dir
    EXPECT_GE(server.stats().plans_saved, 1);
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/index.txt"));

  serving::ServerOptions options;
  options.num_workers = 1;
  options.plan_dir = dir;
  serving::Server restarted(options);
  restarted.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
  restarted.Start();  // warm-starts from plan_dir
  serving::SampleResponse warm = restarted.Submit(req).get();
  ASSERT_EQ(warm.status, serving::Status::kOk) << warm.error;
  EXPECT_TRUE(warm.stages.plan_cache_hit)
      << "first request after a warm restart must hit the persisted plan";
  EXPECT_EQ(warm.stages.compile_ns, 0);
  ExpectBitIdentical(cold_outputs, warm.outputs, "warm restart");

  const serving::ServerStats stats = restarted.stats();
  EXPECT_EQ(stats.plan_cache_misses, 0);
  EXPECT_GE(stats.plan_cache_hits, 1);
  EXPECT_GE(stats.plans_loaded, 1);
  restarted.Stop();
}

// Stale artifacts (different pass config) must not be activated: the
// restarted server recompiles rather than serving a mismatched plan.
TEST(ServerWarmRestart, StalePassConfigIsIgnored) {
  graph::Graph g = PlanGraph();
  const std::string dir = ScratchDir("stale");
  {
    serving::ServerOptions options;
    options.num_workers = 1;
    options.plan_dir = dir;
    serving::Server server(options);
    server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
    server.Start();
    serving::SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = "rmat";
    req.seeds = Seeds({1, 2});
    ASSERT_EQ(server.Submit(req).get().status, serving::Status::kOk);
    server.Stop();
  }

  core::SamplerOptions changed;
  changed.enable_fusion = false;  // different pass config digest
  serving::ServerOptions options;
  options.num_workers = 1;
  options.plan_dir = dir;
  serving::Server restarted(options);
  restarted.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g, changed));
  restarted.Start();
  EXPECT_EQ(restarted.stats().plans_loaded, 0);
  serving::SampleRequest req;
  req.algorithm = "GraphSAGE";
  req.dataset = "rmat";
  req.seeds = Seeds({1, 2});
  serving::SampleResponse r = restarted.Submit(req).get();
  ASSERT_EQ(r.status, serving::Status::kOk) << r.error;
  EXPECT_FALSE(r.stages.plan_cache_hit);
  restarted.Stop();
}

// Regression: one corrupted artifact (or malformed index line) in plan_dir
// must cost exactly that plan, never the warm start. The digest-mismatch
// GS_CHECK inside Deserialize used to unwind out of Server::Start's
// warm-start block, abandoning every remaining valid artifact; a malformed
// index line threw before any artifact was even opened.
TEST(ServerWarmRestart, CorruptedArtifactIsSkippedNotFatal) {
  graph::Graph g = PlanGraph();
  const std::string dir = ScratchDir("skipcorrupt");
  {
    serving::ServerOptions options;
    options.num_workers = 1;
    options.plan_dir = dir;
    serving::Server server(options);
    server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
    server.RegisterEndpoint(serving::MakeEndpoint("ShaDow", "rmat", g));
    server.Start();
    for (const std::string algorithm : {"GraphSAGE", "ShaDow"}) {
      serving::SampleRequest req;
      req.algorithm = algorithm;
      req.dataset = "rmat";
      req.seeds = Seeds({1, 2, 3});
      ASSERT_EQ(server.Submit(req).get().status, serving::Status::kOk);
    }
    server.Stop();
    ASSERT_GE(server.stats().plans_saved, 2);
  }

  // Corrupt one artifact so its body no longer matches the stored digest:
  // flip a hex digit in the "digest <hex>" header. The file still parses,
  // so the failure is specifically Deserialize's digest check.
  bool corrupted = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".plan" || corrupted) {
      continue;
    }
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t pos = text.find("digest ");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 7] = text[pos + 7] == '0' ? '1' : '0';
    std::ofstream(entry.path(), std::ios::trunc) << text;
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);
  // And damage the index itself: a line with no separator and a line with an
  // empty canonical key, both of which used to abort the whole load.
  std::ofstream(dir + "/index.txt", std::ios::app) << "nospacetoken\ndeadbeef \n";

  serving::ServerOptions options;
  options.num_workers = 1;
  options.plan_dir = dir;
  serving::Server restarted(options);
  restarted.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g));
  restarted.RegisterEndpoint(serving::MakeEndpoint("ShaDow", "rmat", g));
  restarted.Start();  // must not throw
  // Exactly the intact artifact warm-started; the corrupted one was skipped.
  EXPECT_EQ(restarted.stats().plans_loaded, 1);
  // Both endpoints still serve: one from the warm plan, one recompiled.
  for (const std::string algorithm : {"GraphSAGE", "ShaDow"}) {
    serving::SampleRequest req;
    req.algorithm = algorithm;
    req.dataset = "rmat";
    req.seeds = Seeds({1, 2, 3});
    serving::SampleResponse r = restarted.Submit(req).get();
    EXPECT_EQ(r.status, serving::Status::kOk) << algorithm << ": " << r.error;
  }
  restarted.Stop();
}

}  // namespace
}  // namespace gs
