// Request/response types for the embedded sampling service (gs::serving).
//
// A SampleRequest names an endpoint (algorithm x dataset), carries the seed
// nodes to sample for, a per-request RNG seed, and scheduling metadata:
// tenant (fair queueing), priority, and a relative deadline. The response
// returns the materialized minibatch (one core::Value per program output)
// plus per-stage latency so callers can see where time went.

#ifndef GSAMPLER_SERVING_REQUEST_H_
#define GSAMPLER_SERVING_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/executor.h"
#include "fault/status.h"
#include "tensor/tensor.h"

namespace gs::serving {

enum class Status {
  kOk,
  kRejected,          // admission refused: queue full or infeasible deadline
  kDeadlineExceeded,  // expired while queued; never executed
  kFailed,            // unknown endpoint or execution error
  kDegraded,          // partial result: some shards had no live replica
};

const char* StatusName(Status status);

struct SampleRequest {
  // Endpoint key; must match a registered endpoint.
  std::string algorithm;
  std::string dataset;
  // Seed nodes this request wants minibatches for.
  tensor::IdArray seeds;
  // RNG stream: results are a pure function of (seeds, seed) for a given
  // plan, independent of which other requests share the execution.
  uint64_t seed = 0;
  // Per-layer fanouts; empty = the algorithm's algorithms::DefaultFanouts.
  // Part of the plan key: requests with different fanouts compile (and
  // cache) distinct plans.
  std::vector<int64_t> fanouts;
  // Fair-queueing bucket.
  std::string tenant = "default";
  // Larger = more urgent; breaks ties among equal deadlines.
  int priority = 0;
  // Relative completion deadline; zero = none. Admission rejects requests
  // whose deadline cannot plausibly be met, and queued requests past their
  // deadline complete as kDeadlineExceeded without executing.
  std::chrono::nanoseconds deadline{0};
};

// Wall-clock latency breakdown of one served request.
struct StageBreakdown {
  int64_t queue_wait_ns = 0;  // admission -> dequeued by a worker
  int64_t compile_ns = 0;     // plan build + warmup (0 on a plan-cache hit)
  int64_t execute_ns = 0;     // sampling execution (shared across the group)
  int64_t feature_ns = 0;     // feature gather through the hot-set cache
  int64_t scatter_ns = 0;     // splitting group results back per request
  int64_t total_ns = 0;       // submit -> response fulfilled (server-observed)
  bool plan_cache_hit = false;
};

struct SampleResponse {
  Status status = Status::kOk;
  uint64_t request_id = 0;
  // One Value per program output (kOk only).
  std::vector<core::Value> outputs;
  // How many requests shared this request's execution (1 = served alone).
  int group_size = 1;
  // Feature serving (ServerOptions::serve_features): the feature rows for
  // this request's result frontier, gathered through the per-tenant hot-set
  // cache. `features` row i is the feature vector of node `feature_ids[i]`;
  // bit-identical to an eager per-node lookup regardless of cache state.
  // Undefined when the server does not serve features (or the dataset has
  // none).
  tensor::Tensor features;
  tensor::IdArray feature_ids;
  // Fanout shedding was applied under overload, or (status kDegraded) the
  // response covers only part of the requested seeds.
  bool degraded = false;
  // Fraction of the request's (valid) seeds whose home shard still had a
  // live replica; 1.0 for full service. With status kDegraded the outputs
  // cover exactly the covered seeds, in request order.
  double coverage = 1.0;
  // Suggested back-off before resubmitting (kRejected only).
  std::chrono::nanoseconds retry_after{0};
  StageBreakdown stages;
  std::string error;  // kFailed only
  // Failure classification (kRejected/kFailed): what kind of error this
  // was after the server's recovery ladder (transient retries, fanout
  // shedding) gave up. kOk status always carries code kOk.
  fault::ErrorCode code = fault::ErrorCode::kOk;
};

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_REQUEST_H_
