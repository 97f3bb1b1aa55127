// Compiled-plan registry with LRU eviction under a byte budget.
//
// The cache holds warmed-up core::SamplerSession objects, each of which
// shares an immutable core::CompiledPlan: program traced, passes run,
// batch-invariant values pre-computed, layouts calibrated, and Warmup()
// executed so the session is safe for concurrent const sampling. Building
// one is the expensive part of serving a cold request (trace + pass
// pipeline + calibration executions), so entries are cached, one per
// compile key: everything that affects the compiled artifact (algorithm,
// dataset, device profile, pass configuration, effective fanouts, shard).
//
// For dynamic graphs (gs::dyn) the cache is the one store of compiled plans
// across mutation epochs: an entry holds the newest epoch's warmed session
// and the newest compiled plan. A request at another epoch misses, and the factory
// receives that resident plan: the server rebuilds a session over it while
// its validity predicate holds (no passes, no calibration), and the new
// session replaces the entry. So the cache pins at most one graph snapshot
// per compile key, never one per epoch served.
//
// Because the plan half is serializable, the cache can persist its plans to
// a directory (SaveAll) and warm-start from one (LoadFrom): loaded plans
// skip the pass pipeline AND layout calibration — a restarted server only
// re-binds tensors and re-runs pre-computation.
//
// Memory: a session pins its pre-computed tensors/matrices in device memory
// (SamplerSession::ResidentBytes). The cache enforces its own byte budget
// with least-recently-used eviction and mirrors the pinned total into the
// CachingAllocator's reserved-bytes stat — attribution only; the bytes are
// already counted in bytes_in_use, so no capacity is double-charged.

#ifndef GSAMPLER_SERVING_PLAN_CACHE_H_
#define GSAMPLER_SERVING_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "device/allocator.h"

namespace gs::serving {

// Everything that distinguishes one compiled plan from another. Canonical()
// is the cache key and the request-compatibility test: two admitted
// requests may share one coalesced execution iff their keys are equal.
struct PlanKey {
  std::string algorithm;
  std::string dataset;
  std::string device;       // DeviceProfile name
  std::string pass_config;  // SamplerOptions digest (see PassConfigDigest)
  std::vector<int64_t> fanouts;  // effective (possibly shed) fanouts
  // Multi-shard serving: the shard whose device this session is warmed on.
  // 0 (single-device and shard 0) keeps the canonical form — and therefore
  // persisted plan digests — unchanged; coalescing across shards is ruled
  // out automatically because the shard is part of the key.
  int shard = 0;
  // Dynamic graphs (gs::dyn): the snapshot the request resolved at
  // admission. Only endpoints backed by a graph::GraphStore set `dynamic`,
  // which appends a `|g<epoch>:<digest>` canonical component — every epoch
  // is a distinct session (coalescing never crosses epochs), while static
  // endpoints' canonical forms, and every previously persisted plan
  // artifact, are byte-for-byte unchanged.
  bool dynamic = false;
  uint64_t graph_epoch = 0;
  uint64_t graph_digest = 0;

  std::string Canonical() const;
  // The canonical form WITHOUT the graph-version component: the epoch-
  // independent compile identity (the PlanCache's entry key). Equal to
  // Canonical() for static keys.
  std::string CompileKey() const;
  // Inverse of Canonical() (persisted plan-index lines). Throws gs::Error on
  // malformed input.
  static PlanKey Parse(const std::string& canonical);
};

// Compact digest of the pass configuration. Covers every SamplerOptions
// field that can change the compiled artifact (including the seed, the
// calibration batch count, the super-batch policy, and the auto-tune memory
// budget). The only fields excluded are verify_passes / dump_ir_after_passes,
// which by construction cannot affect the artifact (they add checks and
// logging only).
std::string PassConfigDigest(const core::SamplerOptions& options);

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t resident_bytes = 0;
  int64_t entries = 0;  // compile keys with a resident session
  // Times the allocator's OOM ladder asked this cache to shrink.
  int64_t pressure_releases = 0;
  // Persisted-plan traffic (SaveAll / LoadFrom). Loads count as neither hits
  // nor misses: a warm-started server's first request is a hit.
  int64_t plans_saved = 0;
  int64_t plans_loaded = 0;
};

class PlanCache {
 public:
  // `allocator` (optional) receives AdjustReserved() calls mirroring the
  // cache's resident bytes.
  PlanCache(int64_t budget_bytes, device::CachingAllocator* allocator);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Builds the warmed session for a missed key. `resident` is the entry's
  // compiled plan — the newest one for the key's compile identity, possibly
  // calibrated against another epoch — or null on a cold miss.
  using Factory = std::function<std::shared_ptr<core::SamplerSession>(
      std::shared_ptr<core::CompiledPlan> resident)>;

  // Returns the session for `key`: the entry's when it was built for the
  // key's graph epoch (a hit), else one `factory` builds. A built session
  // replaces the entry, unless the entry already serves a newer epoch (a
  // request pinned to an older snapshot): that session is returned
  // uncached. Builds are serialized under one mutex: plan construction and
  // warmup materialize lazily cached structures on *shared* objects (the
  // base graph's format caches), which concurrent builds would race on.
  // Lookups of already-built plans only briefly take the table mutex.
  // `compile_ns` (optional) receives the build wall time (0 on a hit);
  // `hit` (optional) receives whether the plan was already resident.
  std::shared_ptr<core::SamplerSession> GetOrBuild(const PlanKey& key, const Factory& factory,
                                                   bool* hit = nullptr,
                                                   int64_t* compile_ns = nullptr);

  // Publishes a ready session for `key` (the background replanner's hook);
  // counts as neither hit nor miss. It replaces the entry as a build does,
  // except that an entry already serving a newer epoch keeps its session
  // and adopts only this session's plan — a recompile that lands after its
  // epoch moved on still becomes the plan the next epoch is judged against.
  void Insert(const PlanKey& key, std::shared_ptr<core::SamplerSession> session);

  // Persists every resident entry's CompiledPlan into `dir` (created if
  // missing): one `<digest>.plan` artifact per entry plus an `index.txt`
  // mapping digests back to canonical keys. Returns the number of plans
  // written. Safe to call while serving (entries are snapshotted).
  int64_t SaveAll(const std::string& dir);

  // Warm-starts from a directory written by SaveAll. For every index entry
  // whose compile key is not already resident, loads the plan artifact and
  // calls `activate` to turn it into a warmed-up session (re-binding tensors
  // and running Warmup); `activate` may return null to skip a plan this
  // server cannot serve (unknown endpoint, different device, stale pass
  // config).
  // Unreadable or corrupt artifacts are skipped with a warning. Returns the
  // number of sessions activated.
  using Activator = std::function<std::shared_ptr<core::SamplerSession>(
      const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan)>;
  int64_t LoadFrom(const std::string& dir, const Activator& activate);

  // Memory-pressure response (registered with the allocator's OOM ladder
  // when an allocator was supplied): evicts least-recently-used plans until
  // at least `bytes_needed` of resident bytes were released or the cache is
  // empty. Returns the released byte total. Also callable directly.
  int64_t ReleaseMemory(int64_t bytes_needed);

  PlanCacheStats stats() const;

 private:
  struct Entry {
    std::string canonical;  // the session's PlanKey::Canonical()
    uint64_t epoch = 0;     // the session's graph epoch
    std::shared_ptr<core::SamplerSession> session;
    std::shared_ptr<core::CompiledPlan> plan;  // the newest compiled plan
    int64_t resident_bytes = 0;
    uint64_t last_used = 0;  // LRU tick
  };
  // Sessions taken out of the table under mutex_. Callers release them
  // after unlocking, so a teardown (which may free the last reference to a
  // graph snapshot) never serializes lookups.
  using Dropped = std::vector<std::shared_ptr<core::SamplerSession>>;

  // The entry's session when it was built for `key`'s epoch (counted as a
  // hit); otherwise null, with `resident` (optional) set to the entry's plan.
  std::shared_ptr<core::SamplerSession> Find(const PlanKey& key,
                                             std::shared_ptr<core::CompiledPlan>* resident);
  // Makes `session`, built for `key`, its compile key's entry. An entry that
  // serves a newer epoch keeps its session; with `adopt_plan` it still takes
  // the session's plan.
  void PublishLocked(const PlanKey& key, std::shared_ptr<core::SamplerSession> session,
                     bool adopt_plan, Dropped& dropped);
  void EvictOverBudgetLocked(const std::string& keep_key, Dropped& dropped);
  // Evicts the LRU entry other than `keep_key`; returns its resident bytes,
  // or -1 when nothing evictable remains.
  int64_t EvictOneLocked(const std::string& keep_key, Dropped& dropped);

  const int64_t budget_bytes_;
  device::CachingAllocator* allocator_;
  int64_t pressure_handler_id_ = 0;  // 0 = not registered
  mutable std::mutex mutex_;        // guards table + stats
  std::mutex build_mutex_;          // serializes plan construction
  std::map<std::string, Entry> entries_;  // compile key -> entry
  PlanCacheStats stats_;
  uint64_t tick_ = 0;
};

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_PLAN_CACHE_H_
