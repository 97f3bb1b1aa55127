// Synthetic open-loop load generator for gs::serving::Server.
//
// Submits requests at Poisson arrival times (open loop: arrivals don't wait
// for completions, so overload actually overloads the server) across a
// configurable number of tenants, then waits for every response and reports
// client-observed outcomes and latency percentiles. Used by the CLI's
// --serve mode and bench/serving_throughput.

#ifndef GSAMPLER_SERVING_LOADGEN_H_
#define GSAMPLER_SERVING_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "serving/server.h"

namespace gs::serving {

struct LoadGenOptions {
  std::string algorithm = "GraphSAGE";
  std::string dataset;
  int64_t num_requests = 200;
  // Offered load in requests/second (wall clock). Arrivals are Poisson.
  double offered_rps = 500.0;
  // Seed nodes per request, drawn from the graph's train ids (or uniform
  // node ids when the dataset has none).
  int64_t batch_size = 64;
  int num_tenants = 4;
  // Per-request fanouts; empty = the algorithm's registry defaults.
  std::vector<int64_t> fanouts;
  // Relative deadline attached to every request; zero = none.
  std::chrono::nanoseconds deadline{0};
  uint64_t seed = 0x5EED;
};

struct LoadGenReport {
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t deadline_exceeded = 0;
  int64_t failed = 0;
  int64_t degraded = 0;
  // kDegraded partial responses (some shards had no live replica). Counted
  // as answered, never as failed.
  int64_t partial = 0;
  // Requests whose response reports group_size > 1.
  int64_t coalesced = 0;
  // Client-observed (server total_ns) latency of OK responses.
  int64_t p50_ns = 0;
  int64_t p95_ns = 0;
  int64_t p99_ns = 0;
  int64_t max_ns = 0;
  double wall_seconds = 0.0;
  double achieved_rps = 0.0;  // OK responses per wall second

  std::string ToString() const;
};

// Blocks until every submitted request has a response.
LoadGenReport RunOpenLoop(Server& server, const graph::Graph& graph,
                          const LoadGenOptions& options);

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_LOADGEN_H_
