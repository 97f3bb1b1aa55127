// Command-line driver: run any of the 15 sampling algorithms on a built-in
// dataset analogue or a graph snapshot, with the optimization pipeline
// configurable from flags. Prints per-epoch simulated time and device
// counters.
//
// Usage:
//   gsampler_cli --algorithm GraphSAGE --dataset PD --batch 512 --epochs 2
//   gsampler_cli --algorithm LADIES --dataset PP --profile t4 --no-layout
//   gsampler_cli --list
//
// Flags:
//   --algorithm NAME   Table-2 algorithm name (default GraphSAGE)
//   --dataset D        LJ | PD | PP | FS, or a path to a .gsg snapshot
//   --scale S          dataset scale factor (default 0.5)
//   --batch N          mini-batch size (default 512)
//   --epochs N         sampling epochs to run (default 1)
//   --profile P        v100 | t4 (default v100)
//   --super-batch N    fixed super-batch size; 0 = auto (default 0)
//   --pipeline-depth N prefetch-queue depth for the pipelined epoch loop;
//                      0 = synchronous legacy path (default 0)
//   --no-fusion --no-preprocess --no-layout   disable individual passes
//   --print-ir         dump the compiled program
//   --save-plan PATH   persist the compiled (calibrated) plan artifact after
//                      the run, for later --load-plan / --verify-plan
//   --load-plan PATH   skip the pass pipeline and calibration: restore the
//                      plan from a saved artifact (its baked-in options
//                      override the pass flags above) and only re-bind
//                      tensors + re-run pre-computation
//   --verify-plan      round-trip self-check: compile, serialize, reload,
//                      and require bit-identical samples from the restored
//                      plan (non-zero exit on any divergence); combine with
//                      --save-plan to persist the verified artifact
//   --verify-passes    run Program::Verify() after every optimization pass
//                      (always on in debug builds; also via GS_VERIFY_PASSES)
//   --dump-ir          log the IR after each pass
//   --list             list algorithms and datasets, then exit
//   --json             emit a single-line JSON run summary on stdout instead
//                      of the human-readable report. In epoch mode its
//                      counters (simulated_ms, model_ns, kernels, sm_pct,
//                      pcie_mb) cover the epochs, so each is the sum of the
//                      epoch lines, and super_batch is the group size the
//                      epochs ran at. In serve mode the
//                      client's outcome and latency keys sit at the top
//                      level and every server counter under `server`
//                      (ServerStats::ToJson)
//   --serve            embedded-server mode: register the algorithm as a
//                      serving endpoint and drive it with an open-loop
//                      Poisson client (see --requests / --rps / --workers)
//   --requests N       serve mode: requests to submit (default 200)
//   --rps R            serve mode: offered load in requests/sec (default 500)
//   --workers N        serve mode: server worker threads (default 2)
//   --features         serve mode: attach gathered feature rows to every
//                      response (per-tenant hot-set cache, gs::feature);
//                      cache hit rate + gather bytes land in the report
//                      and under the --json `server` object
//   --fault-plan SPEC  gs::fault injection schedule for the whole run, e.g.
//                      "kernel.transient:p=0.001;alloc.oom:occ=5". Injector
//                      probe/injection counts are printed to stderr on exit.
//   --fault-seed S     seed for the fault plan's deterministic draws
//                      (default 0; same plan + seed => same fault sequence)
//   --mutate-stream N  serve mode: register the dataset as a versioned
//                      GraphStore endpoint (gs::dyn) and apply N seeded
//                      MutationBatches from an ingest thread while the load
//                      generator runs — plan reuse / stale-serving /
//                      recompile counters land in the report and JSON
//   --mutate-seed S    seed for the mutation stream (default 0x5EED)
//   --jit              JIT-compile fused IR regions to native code (gs::jit).
//                      Epoch/verify modes attach the compiled jump table to
//                      the session after warmup; serve mode sets
//                      ServerOptions::jit so every cached plan gets one.
//                      Region/compile/demotion counters land in the report
//                      and under the --json `server` object (serve mode)
//                      or in the jit_* keys (epoch mode)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "core/engine.h"
#include "core/plan.h"
#include "device/stream.h"
#include "dyn/mutation_gen.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/store.h"
#include "fault/fault.h"
#include "jit/jit.h"
#include "pipeline/executor.h"
#include "serving/loadgen.h"
#include "serving/server.h"

namespace {

// The counters one stream accrued between two of its snapshots.
gs::device::StreamCounters Since(const gs::device::StreamCounters& before,
                                 const gs::device::StreamCounters& after) {
  gs::device::StreamCounters d;
  d.kernels_launched = after.kernels_launched - before.kernels_launched;
  d.virtual_ns = after.virtual_ns - before.virtual_ns;
  d.model_ns = after.model_ns - before.model_ns;
  d.pcie_bytes = after.pcie_bytes - before.pcie_bytes;
  d.occupancy_ns = after.occupancy_ns - before.occupancy_ns;
  return d;
}

struct Args {
  std::string algorithm = "GraphSAGE";
  std::string dataset = "PD";
  double scale = 0.5;
  int64_t batch = 512;
  int epochs = 1;
  std::string profile = "v100";
  int super_batch = 0;
  int pipeline_depth = 0;
  bool fusion = true;
  bool preprocess = true;
  bool layout = true;
  bool print_ir = false;
  std::string save_plan;
  std::string load_plan;
  bool verify_plan = false;
  bool verify_passes = false;
  bool dump_ir = false;
  bool list = false;
  bool json = false;
  bool serve = false;
  bool serve_features = false;
  int64_t requests = 200;
  double rps = 500.0;
  int workers = 2;
  std::string fault_plan;
  uint64_t fault_seed = 0;
  int64_t mutate_stream = 0;
  uint64_t mutate_seed = 0x5EED;
  bool jit = false;
};

Args Parse(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> const char* {
    GS_CHECK(i + 1 < argc) << argv[i] << " needs a value";
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--algorithm") {
      args.algorithm = value(i);
    } else if (flag == "--dataset") {
      args.dataset = value(i);
    } else if (flag == "--scale") {
      args.scale = std::atof(value(i));
    } else if (flag == "--batch") {
      args.batch = std::atoll(value(i));
    } else if (flag == "--epochs") {
      args.epochs = std::atoi(value(i));
    } else if (flag == "--profile") {
      args.profile = value(i);
    } else if (flag == "--super-batch") {
      args.super_batch = std::atoi(value(i));
    } else if (flag == "--pipeline-depth") {
      args.pipeline_depth = std::atoi(value(i));
      GS_CHECK(args.pipeline_depth >= 0) << "--pipeline-depth must be >= 0";
    } else if (flag == "--no-fusion") {
      args.fusion = false;
    } else if (flag == "--no-preprocess") {
      args.preprocess = false;
    } else if (flag == "--no-layout") {
      args.layout = false;
    } else if (flag == "--print-ir") {
      args.print_ir = true;
    } else if (flag == "--save-plan") {
      args.save_plan = value(i);
    } else if (flag == "--load-plan") {
      args.load_plan = value(i);
    } else if (flag == "--verify-plan") {
      args.verify_plan = true;
    } else if (flag == "--verify-passes") {
      args.verify_passes = true;
    } else if (flag == "--dump-ir") {
      args.dump_ir = true;
    } else if (flag == "--list") {
      args.list = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--serve") {
      args.serve = true;
    } else if (flag == "--features") {
      args.serve_features = true;
    } else if (flag == "--requests") {
      args.requests = std::atoll(value(i));
      GS_CHECK(args.requests > 0) << "--requests must be > 0";
    } else if (flag == "--rps") {
      args.rps = std::atof(value(i));
      GS_CHECK(args.rps > 0) << "--rps must be > 0";
    } else if (flag == "--workers") {
      args.workers = std::atoi(value(i));
      GS_CHECK(args.workers > 0) << "--workers must be > 0";
    } else if (flag == "--fault-plan") {
      args.fault_plan = value(i);
    } else if (flag == "--fault-seed") {
      args.fault_seed = static_cast<uint64_t>(std::atoll(value(i)));
    } else if (flag == "--mutate-stream") {
      args.mutate_stream = std::atoll(value(i));
      GS_CHECK(args.mutate_stream > 0) << "--mutate-stream must be > 0";
    } else if (flag == "--mutate-seed") {
      args.mutate_seed = static_cast<uint64_t>(std::atoll(value(i)));
    } else if (flag == "--jit") {
      args.jit = true;
    } else {
      GS_CHECK(false) << "unknown flag: " << flag << " (see the header of tools/gsampler_cli.cc)";
    }
  }
  return args;
}

// Serve mode: the CLI's algorithm/dataset pair becomes a serving endpoint
// driven by the open-loop Poisson client. Returns the process exit code.
int RunServe(const Args& args, gs::graph::Graph& g) {
  namespace serving = gs::serving;
  serving::ServerOptions options;
  options.num_workers = args.workers;
  options.serve_features = args.serve_features;
  options.jit = args.jit;
  serving::Server server(options);
  // --mutate-stream: the dataset becomes a versioned GraphStore endpoint;
  // requests pin their admission-time snapshot while an ingest thread
  // applies mutation epochs under the serving load.
  std::unique_ptr<gs::graph::GraphStore> store;
  if (args.mutate_stream > 0) {
    store = std::make_unique<gs::graph::GraphStore>(g);
    server.RegisterEndpoint(serving::MakeDynamicEndpoint(args.algorithm, args.dataset, *store));
  } else {
    server.RegisterEndpoint(serving::MakeEndpoint(args.algorithm, args.dataset, g));
  }
  server.Start();

  std::thread ingest;
  if (store != nullptr) {
    ingest = std::thread([&] {
      gs::dyn::MutationGenOptions gen_opts;
      gen_opts.seed = args.mutate_seed;
      gen_opts.num_nodes = g.num_nodes();
      gen_opts.adds_per_batch = 64;
      gen_opts.removes_per_batch = 16;
      if (g.features().defined()) {
        gen_opts.feature_updates_per_batch = 8;
        gen_opts.feature_dim = g.features().cols();
      }
      gen_opts.weighted = store->weighted();
      gen_opts.skew = 0.8;
      gs::dyn::MutationGen gen(gen_opts);
      // Pace the batches across the expected run so mutation epochs
      // interleave with serving instead of front-loading before admission.
      const auto gap = std::chrono::microseconds(static_cast<int64_t>(
          1e6 * static_cast<double>(args.requests) / args.rps /
          static_cast<double>(args.mutate_stream + 1)));
      for (int64_t b = 0; b < args.mutate_stream; ++b) {
        std::this_thread::sleep_for(gap);
        store->Apply(gen.Next());
      }
    });
  }

  serving::LoadGenOptions load;
  load.algorithm = args.algorithm;
  load.dataset = args.dataset;
  load.num_requests = args.requests;
  load.offered_rps = args.rps;
  load.batch_size = args.batch;
  const serving::LoadGenReport report = RunOpenLoop(server, g, load);
  if (ingest.joinable()) {
    ingest.join();
  }
  server.DrainRecompiles();
  server.Stop();
  const serving::ServerStats stats = server.stats();

  if (args.json) {
    std::printf(
        "{\"mode\":\"serve\",\"algorithm\":\"%s\",\"dataset\":\"%s\","
        "\"requests\":%lld,\"ok\":%lld,\"rejected\":%lld,\"deadline_exceeded\":%lld,"
        "\"failed\":%lld,\"degraded\":%lld,\"coalesced\":%lld,\"achieved_rps\":%.1f,"
        "\"p50_us\":%lld,\"p95_us\":%lld,\"p99_us\":%lld,\"server\":%s}\n",
        args.algorithm.c_str(), args.dataset.c_str(),
        static_cast<long long>(report.submitted), static_cast<long long>(report.ok),
        static_cast<long long>(report.rejected),
        static_cast<long long>(report.deadline_exceeded),
        static_cast<long long>(report.failed), static_cast<long long>(report.degraded),
        static_cast<long long>(report.coalesced), report.achieved_rps,
        static_cast<long long>(report.p50_ns / 1000),
        static_cast<long long>(report.p95_ns / 1000),
        static_cast<long long>(report.p99_ns / 1000), stats.ToJson().c_str());
  } else {
    std::printf("%s\n%s\n", report.ToString().c_str(), stats.ToString().c_str());
  }
  return report.failed == 0 ? 0 : 1;
}

// --jit: one engine for the whole run. Default options put artifacts in a
// temp directory keyed by plan digest, so every session in this process (and
// a later --load-plan run over the same artifacts) shares compiled kernels.
gs::jit::JitEngine& CliJitEngine() {
  static gs::jit::JitEngine engine;
  return engine;
}

// Shared session construction over a plan: re-traces the algorithm for its
// tensor bindings, attaches HetGNN's relation graphs, and warms up.
std::shared_ptr<gs::core::SamplerSession> OpenSession(
    const Args& args, const gs::graph::Graph& g, std::shared_ptr<gs::core::CompiledPlan> plan,
    const gs::tensor::IdArray& warmup) {
  namespace core = gs::core;
  gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(args.algorithm, g);
  auto session = std::make_shared<core::SamplerSession>(std::move(plan), g, std::move(ap.tensors));
  if (args.algorithm == "HetGNN") {
    session->BindGraph("rel0", &g.adj());
    session->BindGraph("rel1", &g.adj());
  }
  session->Warmup(warmup);
  if (args.jit) {
    // After Warmup: calibration is part of the plan digest the kernel
    // artifacts are keyed by, so attaching earlier would defeat artifact
    // reuse across restarts.
    session->SetJitTable(CliJitEngine().TableFor(session->plan()));
  }
  return session;
}

// Verify-plan mode: compile -> warm up -> serialize -> reload -> require a
// stable digest and bit-identical samples from the restored plan. Returns
// the process exit code (non-zero on any divergence).
int RunVerifyPlan(const Args& args, gs::graph::Graph& g, gs::core::SamplerOptions options) {
  namespace core = gs::core;
  gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(args.algorithm, g);
  if (ap.updates_model) {
    options.super_batch = 1;
  }
  auto plan =
      std::make_shared<core::CompiledPlan>(std::move(ap.program), options, args.algorithm);

  std::vector<int32_t> ids;
  for (int32_t v = 0; v < std::min<int64_t>(g.num_nodes(), 8); ++v) {
    ids.push_back(v);
  }
  const gs::tensor::IdArray warmup = gs::tensor::IdArray::FromVector(ids);
  auto original = OpenSession(args, g, plan, warmup);

  const std::string text = plan->Serialize();
  std::shared_ptr<core::CompiledPlan> loaded = core::CompiledPlan::Deserialize(text);
  if (loaded->Digest() != plan->Digest() || !loaded->restored() || !loaded->calibrated()) {
    std::fprintf(stderr, "verify-plan %s: reload state mismatch\n", args.algorithm.c_str());
    return 1;
  }
  if (loaded->Serialize() != text) {
    std::fprintf(stderr, "verify-plan %s: reserialization is not stable\n",
                 args.algorithm.c_str());
    return 1;
  }
  auto restored = OpenSession(args, g, loaded, warmup);

  const std::vector<std::pair<std::vector<int32_t>, uint64_t>> probes = {
      {{0, 1, 2, 3}, 7}, {{5, 3, 1}, 31337}, {{2}, 0}};
  for (const auto& [frontier, seed] : probes) {
    const gs::tensor::IdArray f = gs::tensor::IdArray::FromVector(frontier);
    const std::vector<core::Value> a = original->SampleSeeded(f, seed);
    const std::vector<core::Value> b = restored->SampleSeeded(f, seed);
    if (a.size() != b.size()) {
      std::fprintf(stderr, "verify-plan %s: output arity diverged\n", args.algorithm.c_str());
      return 1;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (!core::BitIdentical(a[i], b[i])) {
        std::fprintf(stderr, "verify-plan %s: output %zu diverged (seed %llu)\n",
                     args.algorithm.c_str(), i, static_cast<unsigned long long>(seed));
        return 1;
      }
    }
  }
  if (!args.save_plan.empty()) {
    core::SavePlanFile(*plan, args.save_plan);
  }
  std::printf("verify-plan %s: ok (digest %016llx, %zu passes, %zu probes bit-identical)\n",
              args.algorithm.c_str(), static_cast<unsigned long long>(plan->Digest()),
              plan->report().passes.size(), probes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gs;
  try {
    const Args args = Parse(argc, argv);
    if (args.list) {
      std::printf("algorithms:");
      for (const std::string& name : algorithms::AllAlgorithmNames()) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\ndatasets: LJ PD PP FS (or a path to a .gsg snapshot)\n");
      return 0;
    }

    // Install the fault plan (if any) for the entire run: sampling, serving,
    // and pipelined paths all probe the same process-global injector.
    std::unique_ptr<fault::FaultScope> fault_scope;
    if (!args.fault_plan.empty()) {
      fault::FaultPlan plan = fault::FaultPlan::Parse(args.fault_plan, args.fault_seed);
      fault_scope = std::make_unique<fault::FaultScope>(std::move(plan));
      std::fprintf(stderr, "fault plan: %s\n",
                   fault_scope->injector().plan().ToString().c_str());
    }

    device::Device dev(args.profile == "t4" ? device::T4Sim() : device::V100Sim());
    device::DeviceGuard guard(dev);

    graph::Graph g;
    const bool builtin = args.dataset.size() == 2;
    if (builtin) {
      g = graph::MakeDataset(args.dataset, {.scale = args.scale, .weighted = true});
    } else {
      g = graph::LoadBinary(args.dataset);
    }
    if (!args.json) {
      std::printf("graph %s: %lld nodes, %lld edges%s\n", g.name().c_str(),
                  static_cast<long long>(g.num_nodes()),
                  static_cast<long long>(g.num_edges()), g.uva() ? " (UVA)" : "");
    }

    // Per-site probe/injection counts, printed on every exit path so fault
    // runs are auditable (same plan + seed must reproduce these numbers).
    auto report_faults = [&]() {
      if (fault_scope == nullptr) {
        return;
      }
      std::fprintf(stderr, "fault injector:");
      for (int s = 0; s < fault::kNumSites; ++s) {
        const fault::Site site = static_cast<fault::Site>(s);
        const fault::SiteCounters c = fault_scope->injector().counters(site);
        std::fprintf(stderr, " %s=%lld/%lld", fault::SiteName(site),
                     static_cast<long long>(c.injected), static_cast<long long>(c.probes));
      }
      std::fprintf(stderr, " (injected/probes)\n");
    };

    GS_CHECK(args.mutate_stream == 0 || args.serve)
        << "--mutate-stream requires --serve (mutations target a serving endpoint)";
    if (args.serve) {
      const int code = RunServe(args, g);
      report_faults();
      return code;
    }

    core::SamplerOptions options;
    options.enable_fusion = args.fusion;
    options.enable_preprocessing = args.preprocess;
    options.enable_layout_selection = args.layout;
    options.verify_passes = args.verify_passes;
    options.dump_ir_after_passes = args.dump_ir;

    if (args.verify_plan) {
      const int code = RunVerifyPlan(args, g, options);
      report_faults();
      return code;
    }

    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(args.algorithm, g);
    options.super_batch = ap.updates_model ? 1 : args.super_batch;
    std::shared_ptr<core::CompiledPlan> plan;
    if (!args.load_plan.empty()) {
      // Ahead-of-time path: the artifact carries the optimized program and
      // its calibration, so this run skips passes AND calibration; only
      // tensor re-binding and pre-computation remain.
      plan = core::LoadPlanFile(args.load_plan);
      if (!args.json) {
        std::printf("loaded plan %s (label %s, digest %016llx): passes + calibration skipped\n",
                    args.load_plan.c_str(), plan->label().c_str(),
                    static_cast<unsigned long long>(plan->Digest()));
      }
    } else {
      plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), options,
                                                  args.algorithm);
    }
    core::CompiledSampler sampler(plan, g, std::move(ap.tensors));
    if (args.algorithm == "HetGNN") {
      sampler.BindGraph("rel0", &g.adj());
      sampler.BindGraph("rel1", &g.adj());
    }
    if (args.jit) {
      // Warmup first: calibration is folded into the plan digest the JIT
      // keys its artifacts by, so attaching before it would compile kernels
      // under a digest the calibrated plan no longer carries.
      std::vector<int32_t> warm;
      for (int32_t v = 0; v < std::min<int64_t>(g.num_nodes(), 8); ++v) {
        warm.push_back(v);
      }
      sampler.Warmup(tensor::IdArray::FromVector(warm));
      sampler.session().SetJitTable(CliJitEngine().TableFor(sampler.plan()));
    }

    // Pipelined mode: a 2-stage prefetch pipeline per epoch — the sample
    // stage pulls batches from a BatchProducer, the consume stage walks the
    // outputs (the stand-in for feature extraction + training here). Depth 0
    // keeps the legacy synchronous SampleEpoch path.
    std::unique_ptr<pipeline::Executor> pipe;
    core::BatchProducer* producer = nullptr;
    std::vector<core::EpochBatch> slots;
    if (args.pipeline_depth > 0) {
      slots.resize(static_cast<size_t>(args.pipeline_depth) + 2);
      std::vector<pipeline::Stage> stages;
      stages.push_back({"sample", [&](int64_t i) {
                          GS_CHECK(producer->Next(&slots[static_cast<size_t>(i) % slots.size()]))
                              << "producer exhausted early";
                        }});
      stages.push_back({"consume", [&](int64_t i) {
                          core::EpochBatch& b = slots[static_cast<size_t>(i) % slots.size()];
                          for (core::Value& v : b.outputs) {
                            (void)v;  // a real consumer would train here
                          }
                          b = core::EpochBatch{};
                        }});
      pipe = std::make_unique<pipeline::Executor>(std::move(stages),
                                                  pipeline::Options{args.pipeline_depth});
    }

    int64_t total_batches = 0;
    int group_size = 1;
    const device::StreamCounters run_start = dev.stream().counters();
    for (int epoch = 0; epoch < args.epochs; ++epoch) {
      const device::StreamCounters before = dev.stream().counters();
      // The first epoch also calibrates the plan and auto-tunes the group
      // size, as SampleEpoch does.
      core::BatchProducer epoch_producer(sampler, g.train_ids(), args.batch);
      group_size = epoch_producer.group_size();
      if (pipe != nullptr) {
        producer = &epoch_producer;
        pipe->Run(epoch_producer.num_batches());
        producer = nullptr;
      } else {
        core::EpochBatch batch;
        while (epoch_producer.Next(&batch)) {
        }
      }
      const int64_t batches = epoch_producer.num_batches();
      total_batches += batches;
      const device::StreamCounters delta = Since(before, dev.stream().counters());
      if (!args.json) {
        std::printf("epoch %d: %.2f ms simulated, model %.2f ms, %lld mini-batches, "
                    "%lld kernels, SM %.1f%%, PCIe %.1f MB\n",
                    epoch + 1, static_cast<double>(delta.virtual_ns) / 1e6,
                    static_cast<double>(delta.model_ns) / 1e6, static_cast<long long>(batches),
                    static_cast<long long>(delta.kernels_launched), delta.SmUtilizationPercent(),
                    static_cast<double>(delta.pcie_bytes) / 1e6);
      }
    }
    const device::StreamCounters totals = Since(run_start, dev.stream().counters());
    char jit_tail[192] = "";
    if (args.jit) {
      const jit::JitStats js = jit::GlobalJitStats();
      std::snprintf(jit_tail, sizeof(jit_tail),
                    ",\"jit_regions\":%lld,\"jit_compiled\":%lld,"
                    "\"jit_artifact_hits\":%lld,\"jit_hits\":%lld,\"jit_demotions\":%lld",
                    static_cast<long long>(js.regions), static_cast<long long>(js.compiled),
                    static_cast<long long>(js.artifact_hits), static_cast<long long>(js.hits),
                    static_cast<long long>(js.demotions));
    }
    if (args.json) {
      std::printf(
          "{\"mode\":\"epoch\",\"algorithm\":\"%s\",\"dataset\":\"%s\","
          "\"nodes\":%lld,\"edges\":%lld,\"epochs\":%d,\"batches\":%lld,"
          "\"simulated_ms\":%.2f,\"model_ns\":%lld,\"kernels\":%lld,\"sm_pct\":%.1f,"
          "\"pcie_mb\":%.1f,\"super_batch\":%d%s}\n",
          args.algorithm.c_str(), args.dataset.c_str(),
          static_cast<long long>(g.num_nodes()), static_cast<long long>(g.num_edges()),
          args.epochs, static_cast<long long>(total_batches),
          static_cast<double>(totals.virtual_ns) / 1e6, static_cast<long long>(totals.model_ns),
          static_cast<long long>(totals.kernels_launched), totals.SmUtilizationPercent(),
          static_cast<double>(totals.pcie_bytes) / 1e6, group_size, jit_tail);
    } else {
      if (pipe != nullptr) {
        std::printf("%s", pipe->metrics().ToString().c_str());
      }
      if (sampler.effective_super_batch() > 0) {
        std::printf("auto-tuned super-batch size: %d\n", sampler.effective_super_batch());
      }
      if (args.jit) {
        const jit::JitStats js = jit::GlobalJitStats();
        std::printf("jit: %lld regions, %lld compiled (%lld from artifacts), "
                    "%lld native hits, %lld demotions\n",
                    static_cast<long long>(js.regions), static_cast<long long>(js.compiled),
                    static_cast<long long>(js.artifact_hits), static_cast<long long>(js.hits),
                    static_cast<long long>(js.demotions));
      }
      if (args.print_ir) {
        std::printf("\n%s", sampler.DebugString().c_str());
      }
    }
    if (!args.save_plan.empty()) {
      core::SavePlanFile(*plan, args.save_plan);
      if (!args.json) {
        std::printf("saved plan to %s (digest %016llx)\n", args.save_plan.c_str(),
                    static_cast<unsigned long long>(plan->Digest()));
      }
    }
    report_faults();
  } catch (const gs::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
