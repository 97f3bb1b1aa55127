// Serving throughput/latency sweep: offered load x coalescing on PD-sim.
//
// Unlike the paper-reproduction benches (which measure the simulated device
// clock), serving is judged on wall-clock behaviour under concurrency: an
// open-loop Poisson client sweeps offered load with coalescing on and off,
// reporting goodput, rejection rate, coalescing ratio, and p50/p95 latency.
// The headline claims this reproduces: request coalescing lifts sustainable
// throughput and cuts p95 latency at high offered load, and the plan cache
// amortizes compilation (misses stay O(distinct plan keys)).
//
// Sharded capacity mode (--shards=N, gs::shard): one host cannot show
// multi-device scaling on wall clock, so the shard sweep is judged on the
// deterministic model clock instead — each shard owns its own device and
// model-clock counter, requests route to their seed frontier's home shard
// as the sharded server routes them, and capacity is requests / max-shard
// model-clock advance. Cross-shard adjacency is charged at the profile's
// interconnect rate, so the per-hop exchange-bytes table and the higher
// per-request latency are part of the report. Every column is a pure
// function of the flags: two runs print the same table.
//
// Feature serving (--features, gs::feature): every response additionally
// carries the gathered feature rows for its result frontier, pulled through
// per-tenant hot-set cache partitions; the report then includes the
// aggregate cache hit rate and gather/miss byte counts. Every --json cell
// carries the server's counters (ServerStats::ToJson) under "server".
//
// Usage: serving_throughput [--scale=0.05] [--requests=400] [--workers=4]
//                           [--shards=4] [--features] [--json]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/executor.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "serving/loadgen.h"
#include "serving/server.h"
#include "shard/shard.h"

namespace {

struct Sweep {
  double scale = 0.05;
  int64_t requests = 400;
  int workers = 4;
  int shards = 0;  // 0 = wall-clock sweep (default); N = shard capacity mode
  bool features = false;  // gather feature rows per response (gs::feature)
  bool json = false;      // machine-readable cell dump instead of the table
};

gs::serving::LoadGenReport RunCell(const gs::graph::Graph& graph, double rps, bool coalesce,
                                   const Sweep& sweep, gs::serving::ServerStats* stats_out) {
  gs::serving::ServerOptions options;
  options.num_workers = sweep.workers;
  options.queue_capacity = 64;
  options.coalesce_max = 8;
  options.enable_coalescing = coalesce;
  options.serve_features = sweep.features;
  gs::serving::Server server(options);
  server.RegisterEndpoint(gs::serving::MakeEndpoint("GraphSAGE", "PD", graph));
  server.Start();

  gs::serving::LoadGenOptions load;
  load.algorithm = "GraphSAGE";
  load.dataset = "PD";
  load.num_requests = sweep.requests;
  load.offered_rps = rps;
  load.batch_size = 64;
  load.num_tenants = 4;
  load.fanouts = {10, 5};
  const gs::serving::LoadGenReport report = RunOpenLoop(server, graph, load);
  server.Stop();
  *stats_out = server.stats();
  return report;
}

struct ShardCell {
  int shards = 1;
  double capacity_rps = 0;  // requests per model-clock second
  int64_t p50_ns = 0;       // per-request model-clock service latency
  int64_t p95_ns = 0;
  int64_t exchange_bytes = 0;
  int64_t exchange_ns = 0;
  // Summed over requests per hop index (hop 0 = the seeds, hop 1 = their
  // neighbors, ...).
  std::vector<gs::shard::HopRecord> per_hop;
};

// Closed-loop capacity on the model clock (StreamCounters::model_ns, which
// charges per work item instead of measured host time, so a sweep
// reproduces exactly), on the pieces the sharded server executes with: one
// device per shard and one session per shard over one compiled plan. Every
// request runs on its home shard's device under a FrontierExchange; its
// service time is that shard's model-clock advance, and capacity divides
// the request count by the busiest shard's.
ShardCell RunShardCell(const gs::graph::Graph& graph, int shards, const Sweep& sweep) {
  const gs::graph::Partition partition = gs::graph::Partitioner::EdgeCut(graph, shards);
  std::vector<std::vector<int32_t>> owned(static_cast<size_t>(shards));  // ascending ids
  for (int32_t v = 0; v < graph.num_nodes(); ++v) {
    owned[static_cast<size_t>(partition.OwnerOf(v))].push_back(v);
  }
  gs::algorithms::AlgorithmProgram algorithm =
      gs::algorithms::GraphSage(graph, {.fanouts = {10, 5}});
  auto plan = std::make_shared<gs::core::CompiledPlan>(std::move(algorithm.program),
                                                       gs::core::SamplerOptions{});
  const gs::tensor::IdArray warmup = gs::core::WarmupFrontier(graph);
  std::vector<std::unique_ptr<gs::device::Device>> devices;
  // Declared after devices: each session's values live on its shard's
  // allocator, so the sessions are destroyed first.
  std::vector<std::unique_ptr<gs::core::SamplerSession>> sessions;
  for (int s = 0; s < shards; ++s) {
    devices.push_back(std::make_unique<gs::device::Device>(gs::device::V100Sim()));
    // Warmed in turn under the shard's device: shard 0 calibrates and
    // freezes the shared plan, later shards adopt it.
    gs::device::ThreadDeviceGuard guard(*devices.back());
    sessions.push_back(std::make_unique<gs::core::SamplerSession>(plan, graph, algorithm.tensors));
    sessions.back()->Warmup(warmup);
  }
  auto timeline_ns = [&](int s) {
    return devices[static_cast<size_t>(s)]->default_stream().counters().model_ns;
  };

  ShardCell cell;
  cell.shards = shards;
  const int64_t batch = 64;
  std::vector<int64_t> start_ns(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    start_ns[static_cast<size_t>(s)] = timeline_ns(s);
  }
  std::vector<int64_t> latencies;
  latencies.reserve(static_cast<size_t>(sweep.requests));
  // Tenant batches have locality: tenants are spread evenly over the shards
  // and each request draws its seeds from a contiguous window of its
  // tenant's shard's owned nodes, so the plurality vote routes it home
  // (uniform batches would all vote for whichever shard owns the most
  // nodes, starving the rest).
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int64_t r = 0; r < sweep.requests; ++r) {
    const std::vector<int32_t>& local = owned[static_cast<size_t>(r % shards)];
    const int64_t pool = static_cast<int64_t>(local.size());
    const int64_t window = std::min<int64_t>(pool, 128);
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const int64_t start = static_cast<int64_t>((rng >> 33) % static_cast<uint64_t>(pool));
    std::vector<int32_t> seeds(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const int64_t offset =
          (start + static_cast<int64_t>((rng >> 33) % static_cast<uint64_t>(window))) % pool;
      seeds[static_cast<size_t>(i)] = local[static_cast<size_t>(offset)];
    }
    const gs::tensor::IdArray frontier = gs::tensor::IdArray::FromVector(seeds);
    const int shard = partition.HomeShard(frontier.data(), frontier.size());
    const int64_t before = timeline_ns(shard);
    gs::device::ThreadDeviceGuard guard(*devices[static_cast<size_t>(shard)]);
    gs::shard::FrontierExchange exchange(partition, shard);
    gs::core::HopObserverGuard observer(exchange);
    sessions[static_cast<size_t>(shard)]->SampleSeeded(frontier, static_cast<uint64_t>(r));
    latencies.push_back(timeline_ns(shard) - before);
    if (cell.per_hop.size() < exchange.hops().size()) {
      cell.per_hop.resize(exchange.hops().size());
    }
    for (size_t h = 0; h < exchange.hops().size(); ++h) {
      const gs::shard::HopRecord& hop = exchange.hops()[h];
      gs::shard::HopRecord& sum = cell.per_hop[h];
      sum.hop = hop.hop;
      sum.frontier_nodes += hop.frontier_nodes;
      sum.remote_nodes += hop.remote_nodes;
      sum.bytes += hop.bytes;
      sum.exchange_ns += hop.exchange_ns;
      cell.exchange_bytes += hop.bytes;
      cell.exchange_ns += hop.exchange_ns;
    }
  }

  int64_t busiest_ns = 0;
  for (int s = 0; s < shards; ++s) {
    busiest_ns = std::max(busiest_ns, timeline_ns(s) - start_ns[static_cast<size_t>(s)]);
  }
  std::sort(latencies.begin(), latencies.end());
  cell.capacity_rps = busiest_ns > 0
                          ? static_cast<double>(sweep.requests) * 1e9 / static_cast<double>(busiest_ns)
                          : 0;
  cell.p50_ns = latencies[latencies.size() / 2];
  cell.p95_ns = latencies[latencies.size() * 95 / 100];
  return cell;
}

int RunShardSweep(const gs::graph::Graph& graph, const Sweep& sweep) {
  std::printf(
      "shard capacity (model clock): PD-sim nodes=%lld, %lld requests, edge-cut partition\n\n",
      static_cast<long long>(graph.num_nodes()), static_cast<long long>(sweep.requests));
  std::printf("%7s | %14s %8s | %9s %9s | %12s %10s\n", "shards", "capacity(r/s)", "speedup",
              "p50(us)", "p95(us)", "exch(bytes)", "exch(us)");

  std::vector<int> counts;
  for (int s = 1; s <= sweep.shards; s *= 2) {
    counts.push_back(s);
  }
  if (counts.back() != sweep.shards) {
    counts.push_back(sweep.shards);
  }
  double base_capacity = 0;
  ShardCell last;
  for (int s : counts) {
    const ShardCell cell = RunShardCell(graph, s, sweep);
    if (s == 1) {
      base_capacity = cell.capacity_rps;
    }
    std::printf("%7d | %14.0f %7.2fx | %9lld %9lld | %12lld %10lld\n", s, cell.capacity_rps,
                base_capacity > 0 ? cell.capacity_rps / base_capacity : 0.0,
                static_cast<long long>(cell.p50_ns / 1000),
                static_cast<long long>(cell.p95_ns / 1000),
                static_cast<long long>(cell.exchange_bytes),
                static_cast<long long>(cell.exchange_ns / 1000));
    last = cell;
  }

  std::printf("\nper-hop exchange at %d shards (all requests):\n", last.shards);
  std::printf("%5s | %15s %13s %13s %11s\n", "hop", "frontier_nodes", "remote_nodes", "bytes",
              "exch(us)");
  for (const gs::shard::HopRecord& hop : last.per_hop) {
    std::printf("%5d | %15lld %13lld %13lld %11lld\n", hop.hop,
                static_cast<long long>(hop.frontier_nodes),
                static_cast<long long>(hop.remote_nodes), static_cast<long long>(hop.bytes),
                static_cast<long long>(hop.exchange_ns / 1000));
  }
  std::printf(
      "\nExpectation: capacity grows with the shard count, bounded by the busiest\n"
      "shard (every shard samples on its own timeline); the exchange charge\n"
      "(exch(us)) is the only per-request overhead sharding adds, and it is the\n"
      "rise of p50/p95 over the single-shard row.\n");
  return 0;
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
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      sweep.shards = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--features") == 0) {
      sweep.features = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      sweep.json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  gs::graph::Graph graph = gs::graph::MakeDataset("PD", {.scale = sweep.scale});
  if (sweep.shards > 0) {
    return RunShardSweep(graph, sweep);
  }
  if (sweep.json) {
    std::printf("{\"bench\": \"serving_throughput\", \"scale\": %.3f, \"requests\": %lld,\n"
                " \"workers\": %d, \"features\": %s, \"cells\": [\n",
                sweep.scale, static_cast<long long>(sweep.requests), sweep.workers,
                sweep.features ? "true" : "false");
  } else {
    std::printf("serving_throughput: PD-sim scale=%.3f nodes=%lld, %lld requests, %d workers\n\n",
                sweep.scale, static_cast<long long>(graph.num_nodes()),
                static_cast<long long>(sweep.requests), sweep.workers);
    std::printf("%10s %10s | %9s %8s %8s %8s | %9s %9s", "offered", "coalesce", "goodput",
                "ok", "rejected", "ratio", "p50(us)", "p95(us)");
    if (sweep.features) {
      std::printf(" | %9s %10s %8s", "feat_hit", "gather_mb", "feat_us");
    }
    std::printf("\n");
  }

  const std::vector<double> loads = {200, 1000, 4000};
  bool first_cell = true;
  for (double rps : loads) {
    for (bool coalesce : {false, true}) {
      gs::serving::ServerStats stats;
      const gs::serving::LoadGenReport report = RunCell(graph, rps, coalesce, sweep, &stats);
      if (sweep.json) {
        std::printf("%s  {\"offered_rps\": %.0f, \"coalesce\": %s, \"goodput_rps\": %.1f,\n"
                    "   \"ok\": %lld, \"rejected\": %lld, \"p50_us\": %lld, \"p95_us\": %lld,\n"
                    "   \"server\": %s}",
                    first_cell ? "" : ",\n", rps, coalesce ? "true" : "false",
                    report.achieved_rps, static_cast<long long>(report.ok),
                    static_cast<long long>(report.rejected),
                    static_cast<long long>(report.p50_ns / 1000),
                    static_cast<long long>(report.p95_ns / 1000), stats.ToJson().c_str());
        first_cell = false;
      } else {
        std::printf("%10.0f %10s | %9.0f %8lld %8lld %8.2f | %9lld %9lld", rps,
                    coalesce ? "on" : "off", report.achieved_rps,
                    static_cast<long long>(report.ok), static_cast<long long>(report.rejected),
                    stats.CoalescingRatio(), static_cast<long long>(report.p50_ns / 1000),
                    static_cast<long long>(report.p95_ns / 1000));
        if (sweep.features) {
          std::printf(" | %8.1f%% %10.2f %8lld", 100.0 * stats.FeatureHitRate(),
                      static_cast<double>(stats.feature_gather_bytes) / 1e6,
                      static_cast<long long>(stats.feature_gather_ns / 1000));
        }
        std::printf("\n");
      }
    }
  }
  if (sweep.json) {
    std::printf("\n]}\n");
  } else {
    std::printf(
        "\nExpectation: at high offered load, coalesce=on sustains more goodput with a\n"
        "lower p95 than coalesce=off; the coalescing ratio rises with offered load.\n");
  }
  return 0;
}
