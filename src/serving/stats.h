// Serving observability: latency percentiles and server-wide counters.

#ifndef GSAMPLER_SERVING_STATS_H_
#define GSAMPLER_SERVING_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace gs::serving {

// Log-scale latency histogram: bucket i counts samples in
// [2^i, 2^(i+1)) nanoseconds. Percentile() interpolates linearly within the
// bucket holding the requested quantile (capped at the observed maximum) —
// O(1) memory with bounded error, instead of the up-to-2x overstatement a
// bucket-upper-bound readout gives for p50/p95.
class LatencyHistogram {
 public:
  void Record(int64_t ns);
  // p in [0, 100]. Returns 0 when empty.
  int64_t Percentile(double p) const;
  int64_t count() const { return count_; }
  int64_t max_ns() const { return max_ns_; }

 private:
  std::array<int64_t, 64> buckets_{};
  int64_t count_ = 0;
  int64_t max_ns_ = 0;
};

// Every scalar ServerStats counter, declared once: each X(name) entry
// expands into an int64_t field of ServerStats and into ToString, ToJson and
// Add, so a new counter takes one line here and every report carries it.
#define GS_SERVER_STATS(X)                                                              \
  /* Request lifecycle counters. */                                                     \
  X(received)                                                                           \
  X(admitted)                                                                           \
  X(rejected)          /* admission refusals (queue full / deadline) */                 \
  X(deadline_exceeded) /* expired in queue, never executed */                           \
  X(failed)                                                                             \
  X(completed)                                                                          \
  X(degraded) /* served with shed fanouts */                                            \
  X(partial)  /* kDegraded responses (some shards uncovered) */                         \
                                                                                        \
  /* Execution counters. */                                                             \
  X(executions)           /* super-batch executions launched */                         \
  X(requests_executed)    /* sum of group sizes */                                      \
  X(coalesced_executions) /* executions with group size > 1 */                          \
                                                                                        \
  /* Plan cache. */                                                                     \
  X(plan_cache_hits)                                                                    \
  X(plan_cache_misses)                                                                  \
  X(plan_cache_evictions)                                                               \
  X(plan_resident_bytes)                                                                \
  X(plans_saved)  /* plan artifacts persisted to the plan dir */                        \
  X(plans_loaded) /* sessions warm-started from persisted plans */                      \
                                                                                        \
  /* JIT kernel compilation (gs::jit, ServerOptions::jit). Mirrors the                  \
     process-wide jit::GlobalJitStats() counters: fused regions seen, how               \
     many run native code (and of those, how many reloaded a persisted                  \
     artifact instead of compiling), fused-op executions served natively,               \
     and regions demoted to the interpreter by the fallback ladder. */                  \
  X(jit_regions)                                                                        \
  X(jit_compiled)                                                                       \
  X(jit_artifact_hits)                                                                  \
  X(jit_hits)                                                                           \
  X(jit_demotions)                                                                      \
                                                                                        \
  /* Feature serving (gs::feature): responses that carried gathered feature             \
     rows, and the hot-set cache's aggregate behavior across every tenant               \
     partition on every shard. */                                                       \
  X(feature_requests)     /* completed responses carrying features */                   \
  X(feature_rows)         /* feature rows gathered */                                   \
  X(feature_cache_hits)   /* rows served from device-side caches */                     \
  X(feature_cache_misses) /* rows fetched over host DRAM + PCIe */                      \
  X(feature_gather_bytes) /* total feature bytes produced */                            \
  X(feature_miss_bytes)   /* bytes that crossed the bus */                              \
  X(feature_gather_ns)    /* wall time spent gathering features */                      \
                                                                                        \
  /* Fault recovery (gs::fault taxonomy). */                                            \
  X(transient_retries) /* execution retries after transient faults */                   \
  X(shed_retries)      /* retries with shed fanouts after resource exhaustion */        \
  X(worker_exceptions) /* exceptions stopped at the worker boundary */                  \
  X(failed_transient)  /* terminal failures by code */                                  \
  X(failed_resource_exhausted)                                                          \
  X(failed_invalid)                                                                     \
  X(failed_internal)                                                                    \
                                                                                        \
  /* High availability (gs::ha). */                                                     \
  X(failovers)        /* executions served by a non-primary replica */                  \
  X(hedged_exchanges) /* hedged cross-shard exchange re-issues */                       \
                                                                                        \
  /* Dynamic graphs (gs::dyn): online-mutation traffic and what each epoch              \
     cost the plan layer. `plan_reuses` + `stale_plans_served` are the                  \
     cheap-path sessions (no passes, no calibration); `recompiles_inline`               \
     are full compiles on the serving path (cold starts, or drifted plans               \
     with background recompilation disabled); `recompiles_background` ran on            \
     the replanner thread, never blocking a request. */                                 \
  X(graph_epochs)               /* mutation epochs observed (all stores) */             \
  X(plan_reuses)                /* sessions rebuilt over a still-valid frozen plan */   \
  X(stale_plans_served)         /* drifted plans that kept serving while recompiling */ \
  X(recompiles_inline)          /* full compiles on the serving path */                 \
  X(recompiles_background)      /* replanner compiles (off the serving path) */         \
  X(feature_invalidations)      /* feature rows updated by mutation batches */          \
  X(partition_segments_rebuilt) /* per epoch, shards owning a mutated column */         \
  X(partition_segments_reused)  /* ... and shards owning none */                        \
                                                                                        \
  /* End-to-end wall latency of completed requests (submit -> response). */             \
  X(latency_p50_ns)                                                                     \
  X(latency_p95_ns)                                                                     \
  X(latency_p99_ns)                                                                     \
  X(latency_max_ns)                                                                     \
                                                                                        \
  /* Multi-shard serving (gs::shard): cross-shard frontier-exchange traffic             \
     accumulated over all executions. */                                                \
  X(exchange_hops)         /* frontier hops that pulled remote adjacency */             \
  X(exchange_remote_nodes) /* frontier nodes whose adjacency was remote */              \
  X(exchange_bytes)        /* bytes remote owners shipped: picks or whole lists */

struct ServerStats {
#define GS_SERVER_STAT_FIELD(name) int64_t name = 0;
  GS_SERVER_STATS(GS_SERVER_STAT_FIELD)
#undef GS_SERVER_STAT_FIELD

  // Per-shard completion counts (locality-routing visibility).
  std::map<int, int64_t> per_shard_completed;
  // Completed requests per tenant (fair-queueing visibility).
  std::map<std::string, int64_t> per_tenant_completed;
  // Failed requests per tenant (who is hitting errors, fed by the serving
  // recovery ladder's terminal failures and request-boundary rejections).
  std::map<std::string, int64_t> per_tenant_failed;

  // Fraction of gathered feature rows served from the device-side cache.
  double FeatureHitRate() const {
    return feature_rows > 0
               ? static_cast<double>(feature_cache_hits) / static_cast<double>(feature_rows)
               : 0.0;
  }

  // Mean requests per execution; 1.0 = no coalescing happened.
  double CoalescingRatio() const {
    return executions > 0
               ? static_cast<double>(requests_executed) / static_cast<double>(executions)
               : 0.0;
  }

  // Adds every scalar field of `other` into this one; the maps are left
  // alone. Meant for per-group deltas: the gauges (plan_resident_bytes, the
  // latency percentiles) are filled by Server::stats() and do not sum.
  void Add(const ServerStats& other);

  // One line of `name=value` pairs: every scalar counter, then both ratios.
  std::string ToString() const;
  // One JSON object: every scalar counter, both ratios and the three maps.
  std::string ToJson() const;
};

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_STATS_H_
