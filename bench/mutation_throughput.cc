// Mutation-ingest vs serving throughput sweep (gs::dyn).
//
// A versioned GraphStore endpoint is driven by the open-loop Poisson client
// at a fixed offered load while an ingest thread applies seeded
// MutationBatches at a swept rate. Each cell reports serving goodput, p95
// latency, and the plan-layer cost of the mutation epochs: how many requests
// reused a still-valid frozen plan, how many were served by a stale (drifted)
// plan while the replanner recompiled in the background, and how many paid a
// full inline compile on the serving path. Every mutation rate runs twice —
// background recompilation on and off — so the cost of losing the replanner
// (drifted epochs compile inline, on the serving path) is a column, not an
// anecdote.
//
// The headline claims this reproduces: mutation epochs do not fail requests
// (admission pins a snapshot; readers never see a half-applied batch), and
// with background recompilation on, p95 stays near the mutation-free
// baseline because invalidated plans keep serving while fresh ones compile
// off the serving path.
//
// Output: one JSON object per line ("jsonl"): first a header line, then one
// line per cell — trivially machine-parseable without a JSON library. A
// cell's plan-layer counters are in its "server" object (ServerStats::ToJson).
//
// Usage: mutation_throughput [--scale=0.05] [--requests=300] [--workers=4]
//                            [--rps=1500] [--rates=0,4,16]

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dyn/mutation_gen.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "serving/loadgen.h"
#include "serving/server.h"

namespace {

struct Sweep {
  double scale = 0.05;
  int64_t requests = 300;
  int workers = 4;
  double rps = 1500.0;
  std::vector<int64_t> rates = {0, 4, 16};  // mutation batches per run
};

struct Cell {
  int64_t mutations = 0;
  bool background = true;
  gs::serving::LoadGenReport report;
  gs::serving::ServerStats stats;
};

Cell RunCell(const gs::graph::Graph& graph, int64_t mutations, bool background,
             const Sweep& sweep) {
  gs::serving::ServerOptions options;
  options.num_workers = sweep.workers;
  options.queue_capacity = 64;
  options.coalesce_max = 8;
  options.background_recompile = background;
  gs::serving::Server server(options);
  gs::graph::GraphStore store(graph);
  server.RegisterEndpoint(gs::serving::MakeDynamicEndpoint("GraphSAGE", "PD", store));
  server.Start();

  std::thread ingest;
  if (mutations > 0) {
    ingest = std::thread([&] {
      gs::dyn::MutationGenOptions gen_opts;
      gen_opts.seed = 0x5EED ^ static_cast<uint64_t>(mutations);
      gen_opts.num_nodes = graph.num_nodes();
      gen_opts.adds_per_batch = 128;
      gen_opts.removes_per_batch = 32;
      gen_opts.weighted = store.weighted();
      gen_opts.skew = 0.8;
      gs::dyn::MutationGen gen(gen_opts);
      // Pace the stream across the expected run so epochs interleave with
      // serving instead of front-loading before admission.
      const auto gap = std::chrono::microseconds(static_cast<int64_t>(
          1e6 * static_cast<double>(sweep.requests) / sweep.rps /
          static_cast<double>(mutations + 1)));
      for (int64_t b = 0; b < mutations; ++b) {
        std::this_thread::sleep_for(gap);
        store.Apply(gen.Next());
      }
    });
  }

  gs::serving::LoadGenOptions load;
  load.algorithm = "GraphSAGE";
  load.dataset = "PD";
  load.num_requests = sweep.requests;
  load.offered_rps = sweep.rps;
  load.batch_size = 64;
  load.num_tenants = 4;
  load.fanouts = {10, 5};
  Cell cell;
  cell.mutations = mutations;
  cell.background = background;
  cell.report = RunOpenLoop(server, graph, load);
  if (ingest.joinable()) {
    ingest.join();
  }
  server.DrainRecompiles();
  server.Stop();
  cell.stats = server.stats();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  Sweep sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      sweep.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      sweep.requests = std::atoll(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      sweep.workers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--rps=", 6) == 0) {
      sweep.rps = std::atof(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--rates=", 8) == 0) {
      sweep.rates.clear();
      const char* p = argv[i] + 8;
      while (*p != '\0') {
        sweep.rates.push_back(std::atoll(p));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) {
          break;
        }
        p = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  gs::graph::Graph graph = gs::graph::MakeDataset("PD", {.scale = sweep.scale});
  std::printf("{\"bench\":\"mutation_throughput\",\"scale\":%.3f,\"nodes\":%lld,"
              "\"requests\":%lld,\"workers\":%d,\"offered_rps\":%.0f}\n",
              sweep.scale, static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(sweep.requests), sweep.workers, sweep.rps);

  int failed_total = 0;
  for (int64_t mutations : sweep.rates) {
    for (bool background : {true, false}) {
      if (mutations == 0 && !background) {
        continue;  // no epochs => the replanner is irrelevant; skip the dup
      }
      const Cell cell = RunCell(graph, mutations, background, sweep);
      failed_total += static_cast<int>(cell.report.failed);
      std::printf(
          "{\"mutations\":%lld,\"background_recompile\":%s,"
          "\"goodput_rps\":%.1f,\"ok\":%lld,\"rejected\":%lld,\"failed\":%lld,"
          "\"p50_us\":%lld,\"p95_us\":%lld,\"p99_us\":%lld,\"server\":%s}\n",
          static_cast<long long>(mutations), background ? "true" : "false",
          cell.report.achieved_rps, static_cast<long long>(cell.report.ok),
          static_cast<long long>(cell.report.rejected),
          static_cast<long long>(cell.report.failed),
          static_cast<long long>(cell.report.p50_ns / 1000),
          static_cast<long long>(cell.report.p95_ns / 1000),
          static_cast<long long>(cell.report.p99_ns / 1000), cell.stats.ToJson().c_str());
    }
  }
  // Mutation epochs must never fail a request — admission pins a snapshot
  // and stale-but-valid plans keep serving during recompilation.
  return failed_total == 0 ? 0 : 1;
}
