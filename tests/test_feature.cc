// Tests for gs::feature (src/feature/): HotSetCache admission policies and
// byte accounting, and the subsystem's core guarantee — Gather() is
// bit-identical to the eager per-node feature lookup no matter which cache,
// admission policy, shard, or serving path sits in front of it. The
// all-algorithms, sharded (2/4 shards), and coalesced-serving identity
// checks here are the ctest face of the oracle's feature-gather
// differential (oracle::OracleOptions::check_feature_gather).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <numeric>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "core/engine.h"
#include "device/device.h"
#include "fault/status.h"
#include "feature/hot_set_cache.h"
#include "feature/pipeline.h"
#include "feature/store.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "serving/request.h"
#include "serving/server.h"
#include "tensor/tensor.h"
#include "tests/testing.h"

namespace gs::feature {
namespace {

using tensor::IdArray;

graph::Graph FeatureGraph() { return testing::SmallRmat(300, 3000, 11); }

IdArray Seeds(std::vector<int32_t> ids) { return IdArray::FromVector(ids); }

// The nodes whose features a sampled batch needs: the last id-typed output
// (the result frontier) when the program produces one, else the seeds — the
// serving tier's policy.
IdArray FeatureFrontier(const std::vector<core::Value>& outputs, const IdArray& seeds) {
  for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
    if (it->kind == core::ValueKind::kIds && it->ids.defined() && !it->ids.empty()) {
      return it->ids;
    }
  }
  return seeds;
}

// Sampled id streams may carry super-batch labels (id + b * num_nodes) and
// walk dead-end markers (negative); fold both back to graph ids, exactly
// like the oracle's feature-gather check.
IdArray FoldIds(const IdArray& ids, int64_t num_nodes) {
  std::vector<int32_t> out;
  for (int64_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= 0) {
      out.push_back(static_cast<int32_t>(ids[i] % num_nodes));
    }
  }
  return IdArray::FromVector(out);
}

// Bitwise row comparison against the eager per-node lookup into the raw
// feature tensor.
void ExpectRowsMatchEager(const tensor::Tensor& features, const IdArray& ids,
                          const tensor::Tensor& gathered, const std::string& context) {
  const int64_t dim = features.cols();
  ASSERT_EQ(gathered.rows(), ids.size()) << context;
  ASSERT_EQ(gathered.cols(), dim) << context;
  for (int64_t i = 0; i < ids.size(); ++i) {
    const float* expect = features.data() + static_cast<int64_t>(ids[i]) * dim;
    const float* got = gathered.data() + i * dim;
    ASSERT_EQ(std::memcmp(got, expect, sizeof(float) * static_cast<size_t>(dim)), 0)
        << context << ": row " << i << " (node " << ids[i] << ") diverged";
  }
}

// ------------------------------------------------------ HotSetCache

TEST(HotSetCacheTest, AdmissionNamesRoundTrip) {
  for (Admission a : {Admission::kStaticDegree, Admission::kLru, Admission::kFrequencyEma}) {
    EXPECT_EQ(AdmissionFromName(AdmissionName(a)), a);
  }
  EXPECT_THROW(AdmissionFromName("clock"), gs::Error);
}

TEST(HotSetCacheTest, AccessChargesMissesAndFreesHits) {
  HotSetCache cache(HotSetCacheOptions{.capacity = 4, .admission = Admission::kLru});
  EXPECT_EQ(cache.Access(1, 100), 100);  // cold: full transfer
  EXPECT_EQ(cache.Access(1, 100), 0);    // resident: free
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  cache.Reset();
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.Access(1, 100), 100) << "Reset must drop residency";
}

TEST(HotSetCacheTest, LruEvictsLeastRecentlyUsed) {
  HotSetCache cache(HotSetCacheOptions{.capacity = 2, .admission = Admission::kLru});
  cache.Access(1, 8);
  cache.Access(2, 8);
  cache.Access(1, 8);        // 1 is now MRU
  cache.Access(3, 8);        // evicts 2
  EXPECT_EQ(cache.Access(1, 8), 0);
  EXPECT_EQ(cache.Access(2, 8), 8);
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(HotSetCacheTest, CompatCtorIsStaticDegreeCostModelOnly) {
  HotSetCache cache(64);  // the old device::UvaCache shape
  EXPECT_EQ(cache.admission(), Admission::kStaticDegree);
  EXPECT_EQ(cache.entry_bytes(), 0);
  EXPECT_EQ(cache.num_slots(), 64);
  EXPECT_EQ(cache.stats().backing_bytes, 0);
  EXPECT_EQ(cache.Access(7, 32), 32);
  EXPECT_EQ(cache.Access(7, 32), 0);
}

// Frequency-EMA admission must hold hub keys resident through a one-touch
// scan that would flush an LRU of the same capacity.
TEST(HotSetCacheTest, FrequencyEmaKeepsHubsThroughScans) {
  HotSetCacheOptions options{.capacity = 8, .admission = Admission::kFrequencyEma};
  HotSetCache ema(options);
  options.admission = Admission::kLru;
  HotSetCache lru(options);
  auto run = [](HotSetCache& cache) {
    for (int round = 0; round < 20; ++round) {
      for (uint64_t hub = 0; hub < 4; ++hub) {
        cache.Access(hub, 16);
      }
      for (uint64_t scan = 0; scan < 16; ++scan) {
        cache.Access(1000 + static_cast<uint64_t>(round) * 16 + scan, 16);
      }
    }
    int64_t hub_hits = 0;
    for (uint64_t hub = 0; hub < 4; ++hub) {
      hub_hits += cache.Access(hub, 16) == 0 ? 1 : 0;
    }
    return hub_hits;
  };
  EXPECT_EQ(run(ema), 4) << "EMA admission lost a hub to one-touch scan keys";
  EXPECT_EQ(run(lru), 0) << "LRU unexpectedly survived the scan (test is vacuous)";
}

// Mutated-row invalidation (gs::dyn): under every admission policy, a
// resident key that is invalidated must re-fetch on its next access —
// returning the CURRENT byte cost, not the admitted one — while untouched
// keys stay resident and invalidating an absent key is a harmless no-op.
TEST(HotSetCacheTest, InvalidateForcesRefetchUnderEveryAdmission) {
  for (Admission admission :
       {Admission::kStaticDegree, Admission::kLru, Admission::kFrequencyEma}) {
    const std::string label = AdmissionName(admission);
    HotSetCache cache(HotSetCacheOptions{.capacity = 8, .admission = admission});
    // Admit two keys; both must be resident (capacity is ample).
    EXPECT_EQ(cache.Access(3, 64), 64) << label;
    EXPECT_EQ(cache.Access(4, 64), 64) << label;
    ASSERT_EQ(cache.Access(3, 64), 0) << label << ": key 3 must be resident";
    ASSERT_EQ(cache.Access(4, 64), 0) << label << ": key 4 must be resident";

    // Mutate key 3's row: invalidate, then re-gather. The new access is a
    // miss and charges the row's NEW byte size (the mutated row may have a
    // different width under a feature-dim change).
    cache.Invalidate(3);
    EXPECT_EQ(cache.Access(3, 96), 96)
        << label << ": invalidated key must re-fetch current bytes";
    EXPECT_EQ(cache.Access(3, 96), 0) << label << ": re-admitted after the re-fetch";
    // The untouched key was not collateral damage.
    EXPECT_EQ(cache.Access(4, 64), 0) << label << ": untouched key must stay resident";

    // Invalidating a key that is not resident is harmless (counted as a
    // call, drops nothing) — mutation batches routinely touch uncached
    // nodes.
    cache.Invalidate(9999);
    EXPECT_EQ(cache.Access(3, 96), 0) << label;
    EXPECT_EQ(cache.Access(4, 64), 0) << label;
    EXPECT_EQ(cache.stats().invalidations, 2) << label;
  }
}

// Byte-accounted caches own a real device backing store, mirror it into the
// allocator's reserved bytes (plan-cache style), give pages back under
// pressure, and release everything on destruction.
TEST(HotSetCacheTest, BackingStoreReservedBytesLifecycle) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  const int64_t baseline = dev.allocator().stats().bytes_reserved;
  {
    HotSetCache cache(HotSetCacheOptions{
        .capacity = 1024, .admission = Admission::kFrequencyEma, .entry_bytes = 128});
    const HotSetCacheStats stats = cache.stats();
    ASSERT_GT(stats.backing_bytes, 0);
    EXPECT_EQ(dev.allocator().stats().bytes_reserved - baseline, stats.backing_bytes);

    // A pressure round drops backing pages (floor: one page) and returns the
    // real byte count it released.
    const int64_t released = cache.ReleaseMemory(int64_t{1} << 30);
    const HotSetCacheStats after = cache.stats();
    EXPECT_GT(released, 0);
    EXPECT_GT(after.backing_bytes, 0) << "one backing page must survive";
    EXPECT_EQ(stats.backing_bytes - after.backing_bytes, released);
    EXPECT_LT(after.capacity, stats.capacity);
    EXPECT_EQ(after.pressure_releases, 1);
    EXPECT_EQ(dev.allocator().stats().bytes_reserved - baseline, after.backing_bytes);
  }
  EXPECT_EQ(dev.allocator().stats().bytes_reserved, baseline);
}

// -------------------------------------------- gather bit-identity oracle

// The subsystem's core guarantee, exhaustively: for every one of the 15
// algorithms, gathering the sampled frontier's features through a hot-set
// cache — under each admission policy, cold and warm — is bit-identical to
// the eager per-node lookup.
class AllAlgorithmsFeature : public ::testing::TestWithParam<std::string> {};

TEST_P(AllAlgorithmsFeature, GatherMatchesEagerLookup) {
  const std::string name = GetParam();
  graph::Graph g = FeatureGraph();
  ASSERT_TRUE(g.features().defined());
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
  core::CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors),
                                core::SamplerOptions{});
  if (name == "HetGNN") {
    sampler.BindGraph("rel0", &g.adj());
    sampler.BindGraph("rel1", &g.adj());
  }
  const IdArray seeds = Seeds({2, 19, 57, 111, 222, 280});
  sampler.Warmup(seeds);

  const FeatureStore store(g.features());
  for (Admission admission :
       {Admission::kStaticDegree, Admission::kLru, Admission::kFrequencyEma}) {
    HotSetCache cache(HotSetCacheOptions{.capacity = g.num_nodes() / 8,
                                         .admission = admission,
                                         .entry_bytes = store.row_bytes()});
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm (hit path)
      const std::vector<core::Value> out = sampler.SampleSeeded(seeds, 42);
      const IdArray ids = FoldIds(FeatureFrontier(out, seeds), g.num_nodes());
      ASSERT_FALSE(ids.empty());
      GatherStats stats;
      const tensor::Tensor gathered = store.Gather(ids, &cache, &stats);
      ExpectRowsMatchEager(g.features(), ids, gathered,
                           name + "/" + AdmissionName(admission) + "/pass" +
                               std::to_string(pass));
      EXPECT_EQ(stats.rows, ids.size());
      EXPECT_EQ(stats.hits + stats.misses, stats.rows);
      EXPECT_EQ(stats.gathered_bytes, ids.size() * store.row_bytes());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Features, AllAlgorithmsFeature,
                         ::testing::ValuesIn(algorithms::AllAlgorithmNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Sharded gathers: a feature-serving server gives each shard its own cache
// partition on its own device, but the rows a request homed on any shard
// gathers must match the eager lookup — and therefore each other — for 2-
// and 4-way servers, and its second pass must hit that shard's cache.
TEST(ShardedFeatureGather, PerShardGatherMatchesEagerLookup) {
  const graph::Graph g = FeatureGraph();
  for (const int shards : {2, 4}) {
    const graph::Partition partition = graph::Partitioner::EdgeCut(g, shards);
    serving::ServerOptions options = testing::ShardedOptions(shards);
    options.serve_features = true;
    auto server = testing::StartServer(options, serving::MakeEndpoint("GraphSAGE", "small", g));
    for (int s = 0; s < shards; ++s) {
      const IdArray seeds = testing::OwnedSeeds(partition, s, 5);
      for (int pass = 0; pass < 2; ++pass) {  // cold, then warm (hit path)
        const std::string where =
            "x" + std::to_string(shards) + " shard " + std::to_string(s) + " pass " +
            std::to_string(pass);
        const serving::ServerStats before = server->stats();
        const serving::SampleResponse response =
            server->Submit(testing::DefaultRequest("GraphSAGE", seeds, 77)).get();
        ASSERT_EQ(response.status, serving::Status::kOk) << where << ": " << response.error;
        ASSERT_TRUE(response.features.defined()) << where;
        ASSERT_FALSE(response.feature_ids.empty()) << where;
        ExpectRowsMatchEager(g.features(), response.feature_ids, response.features, where);
        const serving::ServerStats after = server->stats();
        EXPECT_EQ(after.feature_rows - before.feature_rows, response.feature_ids.size()) << where;
        if (pass == 1) {
          EXPECT_GT(after.feature_cache_hits, before.feature_cache_hits)
              << where << ": the warm pass missed its shard's cache";
        }
      }
      EXPECT_EQ(server->stats().per_shard_completed.at(s), 2) << "shard " << s;
    }
    server->Stop();
  }
}

// ------------------------------------------------- serving (coalesced)

// Responses from the coalesced serving path carry features for exactly the
// result frontier the response reports, bit-identical to the eager lookup —
// coalescing batches requests into one segmented super-batch, so this is
// the path where a per-segment mixup would show.
TEST(ServingFeatureGather, CoalescedResponsesCarryExactFeatures) {
  const graph::Graph g = FeatureGraph();
  serving::ServerOptions options;
  options.num_workers = 1;  // one worker => concurrent submissions coalesce
  options.enable_coalescing = true;
  options.coalesce_max = 8;
  options.serve_features = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "small", g));
  server.Start();

  constexpr int kRequests = 6;
  std::vector<std::future<serving::SampleResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    serving::SampleRequest request;
    request.algorithm = "GraphSAGE";
    request.dataset = "small";
    request.seeds = Seeds({static_cast<int32_t>(i * 7), static_cast<int32_t>(i * 11 + 3),
                           static_cast<int32_t>(i * 13 + 5), static_cast<int32_t>(i + 40)});
    request.seed = static_cast<uint64_t>(1000 + i);
    request.fanouts = {4, 4};
    request.tenant = "tenant" + std::to_string(i % 2);
    futures.push_back(server.Submit(std::move(request)));
  }
  for (int i = 0; i < kRequests; ++i) {
    const serving::SampleResponse response = futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
    ASSERT_TRUE(response.features.defined()) << "request " << i;
    ASSERT_TRUE(response.feature_ids.defined()) << "request " << i;
    ExpectRowsMatchEager(g.features(), response.feature_ids, response.features,
                         "coalesced request " + std::to_string(i));
    EXPECT_GE(response.stages.feature_ns, 0);
  }

  const serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.feature_requests, kRequests);
  EXPECT_GT(stats.feature_rows, 0);
  EXPECT_EQ(stats.feature_cache_hits + stats.feature_cache_misses, stats.feature_rows);
  EXPECT_GT(stats.feature_gather_bytes, 0);
  EXPECT_GE(stats.FeatureHitRate(), 0.0);
  EXPECT_LE(stats.FeatureHitRate(), 1.0);
  server.Stop();
}

// Regression: a walk response's last step carries -1 for walkers that hit a
// dead end. The gather skips them instead of failing the response with
// "feature gather index -1 out of range".
TEST(ServingFeatureGather, WalkDeadEndsGatherOnlyLiveIds) {
  const graph::Graph g = FeatureGraph();
  serving::ServerOptions options;
  options.num_workers = 1;
  options.serve_features = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeEndpoint("DeepWalk", "small", g));
  server.Start();

  serving::SampleRequest request;
  request.algorithm = "DeepWalk";
  request.dataset = "small";
  std::vector<int32_t> seeds(64);
  std::iota(seeds.begin(), seeds.end(), 0);
  request.seeds = Seeds(seeds);
  request.seed = 3;
  const serving::SampleResponse response = server.Submit(std::move(request)).get();
  server.Stop();
  ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
  const IdArray& last = response.outputs.back().ids;
  ASSERT_GT(std::count(last.data(), last.data() + last.size(), -1), 0)
      << "the walks should hit dead ends";
  EXPECT_EQ(response.feature_ids.ToVector(), FoldIds(last, g.num_nodes()).ToVector());
  ExpectRowsMatchEager(g.features(), response.feature_ids, response.features, "walk response");
}

// Regression: a tenant's cache partition is created on the first gather and
// allocates its backing pages on the device. A partition the device cannot
// hold fails that response as resource-exhausted; before, the allocation
// escaped to the worker boundary and broke the response's promise.
TEST(ServingFeatureGather, PartitionAllocationFailureFailsTheResponse) {
  const graph::Graph g = FeatureGraph();
  device::Device v100(device::V100Sim());  // 16 GiB
  device::DeviceGuard guard(v100);
  serving::ServerOptions options;
  options.num_workers = 1;
  options.serve_features = true;
  options.feature_cache_partitions = 1;
  options.feature_cache_budget_bytes = int64_t{1} << 40;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "small", g));
  server.Start();

  serving::SampleRequest request;
  request.algorithm = "GraphSAGE";
  request.dataset = "small";
  request.seeds = Seeds({1, 2, 3, 4});
  request.seed = 5;
  const serving::SampleResponse response = server.Submit(std::move(request)).get();
  server.Stop();
  EXPECT_EQ(response.status, serving::Status::kFailed);
  EXPECT_EQ(response.code, fault::ErrorCode::kResourceExhausted) << response.error;
  EXPECT_TRUE(response.outputs.empty());
  const serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.failed_resource_exhausted, 1);
  EXPECT_EQ(stats.worker_exceptions, 0);
  EXPECT_EQ(stats.received, stats.completed + stats.failed);
}

// ------------------------------------------------- overlap pipeline

// The overlapped (depth 2) pipeline must produce byte-identical gathers and
// identical cache counters to the inline (depth 0) reference — only the
// simulated timeline may differ.
TEST(OverlapPipeline, OverlappedGatherMatchesInline) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  const graph::Graph g = FeatureGraph();
  const FeatureStore store(g.features());

  constexpr int64_t kBatches = 12;
  std::vector<IdArray> batches;
  for (int64_t b = 0; b < kBatches; ++b) {
    std::vector<int32_t> ids;
    for (int64_t i = 0; i < 32; ++i) {
      ids.push_back(static_cast<int32_t>((b * 13 + i * 7) % g.num_nodes()));
    }
    batches.push_back(IdArray::FromVector(ids));
  }
  auto sample_fn = [&](int64_t b) { return batches[static_cast<size_t>(b)]; };

  auto run = [&](int depth) {
    HotSetCache cache(HotSetCacheOptions{.capacity = 64,
                                         .admission = Admission::kFrequencyEma,
                                         .entry_bytes = store.row_bytes()});
    std::vector<std::vector<float>> rows;
    auto consume_fn = [&](int64_t, const tensor::Tensor& t) {
      rows.emplace_back(t.data(), t.data() + t.rows() * t.cols());
    };
    const OverlapReport report =
        RunSampleGatherPipeline(kBatches, sample_fn, store, &cache, consume_fn, {.depth = depth});
    return std::make_pair(std::move(rows), report);
  };

  auto [inline_rows, inline_report] = run(0);
  auto [overlap_rows, overlap_report] = run(2);
  ASSERT_EQ(inline_rows.size(), static_cast<size_t>(kBatches));
  ASSERT_EQ(overlap_rows.size(), static_cast<size_t>(kBatches));
  for (int64_t b = 0; b < kBatches; ++b) {
    const auto& a = inline_rows[static_cast<size_t>(b)];
    const auto& o = overlap_rows[static_cast<size_t>(b)];
    ASSERT_EQ(a.size(), o.size()) << "batch " << b;
    EXPECT_EQ(std::memcmp(a.data(), o.data(), a.size() * sizeof(float)), 0)
        << "batch " << b << " gathered different bytes under overlap";
  }
  EXPECT_EQ(inline_report.gather.rows, overlap_report.gather.rows);
  EXPECT_EQ(inline_report.gather.hits, overlap_report.gather.hits);
  EXPECT_EQ(inline_report.gather.misses, overlap_report.gather.misses);
  EXPECT_GE(overlap_report.metrics.OverlapSpeedup(), 1.0)
      << "overlapping sample and gather must never lengthen the epoch";
}

}  // namespace
}  // namespace gs::feature
