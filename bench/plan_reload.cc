// Plan-reload benchmark: what ahead-of-time plan artifacts actually buy.
//
// Part 1 — per algorithm: wall time to stand up a ready-to-sample session
// cold (trace + pass pipeline + layout calibration + warmup) vs from a
// serialized plan (deserialize + re-bind + warmup; passes and calibration
// skipped). The reload path's savings grow with pass-pipeline and
// calibration cost, so it is the ahead-of-time compilation story in one
// number per algorithm.
//
// Part 2 — serving cold start: first-request latency and overall p95 of a
// freshly started server, with and without a persisted plan directory
// (ServerOptions::plan_dir). The warm-started server must answer its first
// request from the plan cache (compile_ns == 0).
//
// Output: one single-line JSON record per cell on stdout (standard bench
// harness convention), human-readable summary on stderr.
//
// Usage: plan_reload [--scale=0.1] [--requests=50]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/plan.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "serving/request.h"
#include "serving/server.h"

namespace {

struct Sweep {
  double scale = 0.1;
  int64_t requests = 50;
};

std::shared_ptr<gs::core::SamplerSession> OpenSession(const std::string& algorithm,
                                                      const gs::graph::Graph& g,
                                                      std::shared_ptr<gs::core::CompiledPlan> plan) {
  gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(algorithm, g);
  auto session = std::make_shared<gs::core::SamplerSession>(std::move(plan), g,
                                                           std::move(ap.tensors),
                                                           std::move(ap.relations));
  session->Warmup(gs::tensor::IdArray::FromVector({0, 1, 2, 3, 4, 5, 6, 7}));
  return session;
}

// One algorithm: cold session stand-up vs reload from a serialized artifact.
void RunReloadCell(const std::string& algorithm, const gs::graph::Graph& g) {
  gs::Timer cold_timer;
  gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(algorithm, g);
  gs::core::SamplerOptions options;
  if (ap.updates_model) {
    options.super_batch = 1;
  }
  auto plan = std::make_shared<gs::core::CompiledPlan>(std::move(ap.program), options, algorithm);
  auto cold = OpenSession(algorithm, g, plan);
  const int64_t cold_ns = cold_timer.ElapsedNanos();

  const std::string text = plan->Serialize();
  gs::Timer reload_timer;
  std::shared_ptr<gs::core::CompiledPlan> loaded = gs::core::CompiledPlan::Deserialize(text);
  auto warm = OpenSession(algorithm, g, loaded);
  const int64_t reload_ns = reload_timer.ElapsedNanos();

  const double speedup =
      reload_ns > 0 ? static_cast<double>(cold_ns) / static_cast<double>(reload_ns) : 0.0;
  std::printf(
      "{\"bench\":\"plan_reload\",\"algorithm\":\"%s\",\"artifact_bytes\":%lld,"
      "\"cold_us\":%lld,\"reload_us\":%lld,\"speedup\":%.2f}\n",
      algorithm.c_str(), static_cast<long long>(text.size()),
      static_cast<long long>(cold_ns / 1000), static_cast<long long>(reload_ns / 1000), speedup);
  std::fprintf(stderr, "%12s | %9lld %9lld | %6.2fx | %7lld B\n", algorithm.c_str(),
               static_cast<long long>(cold_ns / 1000), static_cast<long long>(reload_ns / 1000),
               speedup, static_cast<long long>(text.size()));
}

// One serving cell: start a server (optionally against a persisted plan
// dir), submit `requests` sequential requests, report first-request latency
// + compile time and the overall p95.
void RunServingCell(const gs::graph::Graph& g, const Sweep& sweep, const std::string& plan_dir,
                    bool warm_start) {
  gs::serving::ServerOptions options;
  options.num_workers = 2;
  if (warm_start) {
    options.plan_dir = plan_dir;
  }
  gs::serving::Server server(options);
  server.RegisterEndpoint(gs::serving::MakeEndpoint("GraphSAGE", "PD", g));
  server.Start();

  std::vector<int64_t> latencies;
  int64_t first_us = 0;
  int64_t first_compile_us = 0;
  bool first_hit = false;
  for (int64_t i = 0; i < sweep.requests; ++i) {
    gs::serving::SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = "PD";
    req.seeds = gs::tensor::IdArray::FromVector(
        {static_cast<int32_t>(i % g.num_nodes()), static_cast<int32_t>((i * 7 + 1) % g.num_nodes())});
    req.seed = static_cast<uint64_t>(i);
    gs::Timer timer;
    gs::serving::SampleResponse r = server.Submit(req).get();
    const int64_t us = timer.ElapsedNanos() / 1000;
    if (r.status != gs::serving::Status::kOk) {
      std::fprintf(stderr, "plan_reload: request %lld failed: %s\n", static_cast<long long>(i),
                   r.error.c_str());
      continue;
    }
    latencies.push_back(us);
    if (i == 0) {
      first_us = us;
      first_compile_us = r.stages.compile_ns / 1000;
      first_hit = r.stages.plan_cache_hit;
    }
  }
  // Persist the plans for the warm-start cell that follows the cold one.
  server.SavePlans(plan_dir);
  server.Stop();
  const gs::serving::ServerStats stats = server.stats();

  std::sort(latencies.begin(), latencies.end());
  const int64_t p95 =
      latencies.empty() ? 0 : latencies[latencies.size() - 1 - latencies.size() / 20];
  std::printf(
      "{\"bench\":\"plan_reload_serving\",\"warm_start\":%d,\"requests\":%lld,"
      "\"first_request_us\":%lld,\"first_compile_us\":%lld,\"first_hit\":%d,"
      "\"p95_us\":%lld,\"plan_misses\":%lld,\"plans_loaded\":%lld}\n",
      warm_start ? 1 : 0, static_cast<long long>(sweep.requests),
      static_cast<long long>(first_us), static_cast<long long>(first_compile_us),
      first_hit ? 1 : 0, static_cast<long long>(p95),
      static_cast<long long>(stats.plan_cache_misses),
      static_cast<long long>(stats.plans_loaded));
  std::fprintf(stderr, "%12s | first %7lld us (compile %7lld us, hit=%d) | p95 %7lld us\n",
               warm_start ? "warm-start" : "cold-start", static_cast<long long>(first_us),
               static_cast<long long>(first_compile_us), first_hit ? 1 : 0,
               static_cast<long long>(p95));
}

}  // namespace

int main(int argc, char** argv) {
  Sweep sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      sweep.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      sweep.requests = std::atoll(argv[i] + 11);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  gs::device::Device dev(gs::device::V100Sim());
  gs::device::DeviceGuard guard(dev);
  gs::graph::Graph g = gs::graph::MakeDataset("PD", {.scale = sweep.scale, .weighted = true});
  std::fprintf(stderr, "plan_reload: PD-sim scale=%.3f nodes=%lld edges=%lld\n", sweep.scale,
               static_cast<long long>(g.num_nodes()), static_cast<long long>(g.num_edges()));

  std::fprintf(stderr, "%12s | %9s %9s | %7s | %9s\n", "algorithm", "cold(us)", "reload(us)",
               "speedup", "artifact");
  for (const std::string& algorithm : gs::algorithms::AllAlgorithmNames()) {
    RunReloadCell(algorithm, g);
  }

  const std::string plan_dir =
      (std::filesystem::temp_directory_path() / "gs_plan_reload_bench").string();
  std::filesystem::remove_all(plan_dir);
  std::fprintf(stderr, "\nserving cold start (GraphSAGE x PD, %lld sequential requests):\n",
               static_cast<long long>(sweep.requests));
  RunServingCell(g, sweep, plan_dir, /*warm_start=*/false);  // persists plans
  RunServingCell(g, sweep, plan_dir, /*warm_start=*/true);
  std::filesystem::remove_all(plan_dir);

  std::fprintf(stderr,
               "\nExpectation: reload skips passes + calibration, so it beats cold compile\n"
               "on every algorithm, and the warm-started server's first request hits the\n"
               "plan cache with zero compile time.\n");
  return 0;
}
