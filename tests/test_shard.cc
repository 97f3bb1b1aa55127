// Tests for gs::shard (src/shard/): the sharded-vs-single bit-identity
// oracle (the subsystem's core guarantee), frontier-exchange accounting
// against the partition's byte model, concurrent multi-shard sampling (the
// TSan target in tools/check.sh), and sharded serving end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "core/engine.h"
#include "core/executor.h"
#include "device/device.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "serving/request.h"
#include "serving/server.h"
#include "shard/shard.h"
#include "tests/testing.h"

namespace gs::shard {
namespace {

using core::BitIdentical;
using core::Value;
using tensor::IdArray;
using testing::ExpectBitIdentical;
using testing::ReferenceSample;

graph::Graph ShardGraph() { return testing::SmallRmat(300, 3000, 9); }

IdArray Seeds(std::vector<int32_t> ids) { return IdArray::FromVector(ids); }

// ------------------------------------------------- bit-identity oracle

// The subsystem's core guarantee: sharding changes where time is charged,
// never what is sampled. Every shard of a 2- and 4-way group must return
// bit-identical outputs to a single-device session for the same (frontier,
// seed) — across a walk algorithm (Node2Vec), a neighbor sampler
// (GraphSAGE), and a layer-wise sampler (LADIES).
TEST(ShardOracle, ShardedSamplingIsBitIdenticalToSingleDevice) {
  const graph::Graph g = ShardGraph();
  const IdArray frontier = Seeds({5, 17, 42, 101, 250});
  for (const std::string algorithm : {"Node2Vec", "GraphSAGE", "LADIES"}) {
    const std::vector<Value> reference = ReferenceSample(algorithm, g, frontier, 77);
    for (const int shards : {2, 4}) {
      algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algorithm, g);
      ShardGroupOptions options;
      options.num_shards = shards;
      const ShardGroup group(g, std::move(ap.program), std::move(ap.tensors), options);
      for (int s = 0; s < shards; ++s) {
        ExpectBitIdentical(group.Sample(s, frontier, 77), reference,
                           algorithm + " x" + std::to_string(shards) + " shard " +
                               std::to_string(s));
      }
      ExpectBitIdentical(group.SampleRouted(frontier, 77), reference,
                         algorithm + " routed x" + std::to_string(shards));
    }
  }
}

TEST(ShardOracle, VertexCutPartitionPreservesBitIdentity) {
  const graph::Graph g = ShardGraph();
  const IdArray frontier = Seeds({1, 2, 3, 4});
  const std::vector<Value> reference = ReferenceSample("GraphSAGE", g, frontier, 5);
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", g);
  ShardGroupOptions options;
  options.num_shards = 3;
  options.partition = graph::PartitionKind::kVertexCut;
  const ShardGroup group(g, std::move(ap.program), std::move(ap.tensors), options);
  for (int s = 0; s < 3; ++s) {
    ExpectBitIdentical(group.Sample(s, frontier, 5), reference, "vertex-cut shard");
  }
}

// --------------------------------------------------- exchange accounting

TEST(ShardGroupTest, FrontierExchangeChargesRemoteAdjacency) {
  const graph::Graph g = ShardGraph();
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", g);
  ShardGroupOptions options;
  options.num_shards = 2;
  const ShardGroup group(g, std::move(ap.program), std::move(ap.tensors), options);
  const graph::Partition& partition = group.partition();

  // An all-local frontier: hop 0 must be free, deeper hops generally are not.
  const std::vector<int32_t>& local = partition.LocalNodes(0);
  const IdArray frontier = Seeds({local[0], local[1], local[2], local[3]});
  ASSERT_EQ(group.Route(frontier), 0);

  const int64_t interconnect_before = group.counters(0).interconnect_bytes;
  std::vector<HopRecord> hops;
  group.Sample(0, frontier, 123, &hops);
  ASSERT_FALSE(hops.empty());
  EXPECT_EQ(hops[0].remote_nodes, 0) << "all-local seeds charged an exchange";
  EXPECT_EQ(hops[0].bytes, 0);
  EXPECT_EQ(hops[0].exchange_ns, 0);

  int64_t total_bytes = 0;
  for (const HopRecord& hop : hops) {
    EXPECT_LE(hop.remote_nodes, hop.frontier_nodes);
    EXPECT_EQ(hop.bytes > 0, hop.remote_nodes > 0);
    EXPECT_EQ(hop.exchange_ns > 0, hop.remote_nodes > 0);
    total_bytes += hop.bytes;
  }
  EXPECT_GT(total_bytes, 0) << "2-hop sampling never left shard 0";
  EXPECT_LE(total_bytes, 2 * partition.RemoteBytesBound(0));

  // The charge lands on the shard's own stream counters and aggregates.
  EXPECT_EQ(group.counters(0).interconnect_bytes - interconnect_before, total_bytes);
  const ExchangeStats stats = group.exchange_stats(0);
  EXPECT_EQ(stats.samples, 1);
  EXPECT_EQ(stats.bytes, total_bytes);
  EXPECT_EQ(group.TotalExchange().bytes, total_bytes);
  EXPECT_EQ(group.exchange_stats(1).samples, 0);
}

// Fusion never changes the exchange: for every algorithm a shard group can
// run (all but HetGNN's relation graphs and the model-updating ones), a
// group with fusion records exactly the hops of the group without it. The
// fused layer-wise kernels read A's columns in place, and a fused walk
// reports one hop per step, in step order. The expected counts pin the
// unfused side too, so a hop dropped on both sides fails: LADIES hops for
// A[:, f] and (A**2)[:, f] in each of its two layers, and a walk hops once
// per step (PinSAGE: 10 walks of 3).
TEST(ShardGroupTest, FusedHopsMatchUnfusedExchange) {
  const std::map<std::string, size_t> kHops = {
      {"DeepWalk", 80}, {"GraphSAINT", 5}, {"PinSAGE", 30}, {"GraphSAGE", 2},
      {"VR-GCN", 2},    {"SEAL", 5},       {"ShaDow", 3},   {"Node2Vec", 80},
      {"FastGCN", 2},   {"LADIES", 4},
  };
  const graph::Graph g = ShardGraph();
  const IdArray frontier = Seeds({5, 17, 42, 101, 250});
  size_t checked = 0;
  for (const std::string& algorithm : algorithms::AllAlgorithmNames()) {
    if (algorithm == "HetGNN" || algorithms::MakeAlgorithm(algorithm, g).updates_model) {
      EXPECT_EQ(kHops.count(algorithm), 0u) << algorithm << " cannot run on a shard group";
      continue;
    }
    ASSERT_EQ(kHops.count(algorithm), 1u) << algorithm << " has no expected hop count";
    std::vector<std::vector<HopRecord>> runs;
    for (const bool fuse : {true, false}) {
      algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algorithm, g);
      ShardGroupOptions options;
      options.num_shards = 2;
      options.sampler.enable_fusion = fuse;
      const ShardGroup group(g, std::move(ap.program), std::move(ap.tensors), options);
      std::vector<HopRecord> hops;
      group.Sample(0, frontier, 31, &hops);
      runs.push_back(std::move(hops));
    }
    const std::vector<HopRecord>& fused = runs[0];
    const std::vector<HopRecord>& unfused = runs[1];
    ASSERT_EQ(unfused.size(), kHops.at(algorithm)) << algorithm;
    ASSERT_EQ(fused.size(), unfused.size()) << algorithm;
    int64_t remote = 0;
    for (size_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(fused[i].hop, unfused[i].hop) << algorithm << " hop " << i;
      EXPECT_EQ(fused[i].frontier_nodes, unfused[i].frontier_nodes) << algorithm << " hop " << i;
      EXPECT_EQ(fused[i].remote_nodes, unfused[i].remote_nodes) << algorithm << " hop " << i;
      EXPECT_EQ(fused[i].bytes, unfused[i].bytes) << algorithm << " hop " << i;
      remote += fused[i].remote_nodes;
    }
    EXPECT_GT(remote, 0) << algorithm << ": the frontier never left shard 0";
    ++checked;
  }
  EXPECT_EQ(checked, kHops.size());
}

TEST(ShardGroupTest, SingleShardGroupHasNoExchange) {
  const graph::Graph g = ShardGraph();
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", g);
  ShardGroupOptions options;
  options.num_shards = 1;
  const ShardGroup group(g, std::move(ap.program), std::move(ap.tensors), options);
  group.Sample(0, Seeds({1, 2, 3, 4}), 9);
  const ExchangeStats stats = group.TotalExchange();
  EXPECT_EQ(stats.remote_nodes, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(group.counters(0).interconnect_bytes, 0);
}

// Each shard advances its own virtual timeline — the property the capacity
// bench divides by. Sampling on shard 0 must not move shard 1's clock.
TEST(ShardGroupTest, ShardsAdvanceIndependentTimelines) {
  const graph::Graph g = ShardGraph();
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", g);
  ShardGroupOptions options;
  options.num_shards = 2;
  const ShardGroup group(g, std::move(ap.program), std::move(ap.tensors), options);
  const int64_t s0_before = group.counters(0).virtual_ns;
  const int64_t s1_before = group.counters(1).virtual_ns;
  group.Sample(0, Seeds({1, 2, 3, 4}), 1);
  EXPECT_GT(group.counters(0).virtual_ns, s0_before);
  EXPECT_EQ(group.counters(1).virtual_ns, s1_before);
}

// ------------------------------------------------------- concurrency

// TSan target: four threads hammer their own shards concurrently; outputs
// must stay bit-identical to the single-device reference and the per-shard
// aggregates must account for every sample.
TEST(ShardGroupTest, ConcurrentShardsSampleIndependently) {
  const graph::Graph g = ShardGraph();
  const IdArray frontier = Seeds({3, 33, 133, 233});
  const std::vector<Value> reference = ReferenceSample("GraphSAGE", g, frontier, 21);
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", g);
  ShardGroupOptions options;
  options.num_shards = 4;
  const ShardGroup group(g, std::move(ap.program), std::move(ap.tensors), options);

  constexpr int kSamplesPerShard = 8;
  std::vector<std::future<bool>> workers;
  for (int s = 0; s < 4; ++s) {
    workers.push_back(std::async(std::launch::async, [&, s] {
      bool identical = true;
      for (int i = 0; i < kSamplesPerShard; ++i) {
        const std::vector<Value> out = group.Sample(s, frontier, 21);
        for (size_t k = 0; k < out.size(); ++k) {
          identical = identical && BitIdentical(out[k], reference[k]);
        }
      }
      return identical;
    }));
  }
  for (auto& worker : workers) {
    EXPECT_TRUE(worker.get());
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(group.exchange_stats(s).samples, kSamplesPerShard);
  }
  EXPECT_EQ(group.TotalExchange().samples, 4 * kSamplesPerShard);
}

// ---------------------------------------------------- sharded serving

TEST(ShardServing, ShardedServerCompletesAndReportsExchange) {
  const graph::Graph g = ShardGraph();
  serving::ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "small", g));
  server.Start();

  // One request per shard region: routing should land them on their home
  // shards and both should complete.
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  std::vector<std::future<serving::SampleResponse>> futures;
  for (int s = 0; s < 2; ++s) {
    const std::vector<int32_t>& local = partition.LocalNodes(s);
    serving::SampleRequest request;
    request.algorithm = "GraphSAGE";
    request.dataset = "small";
    request.seeds = Seeds({local[0], local[1], local[2], local[3]});
    request.seed = 7;
    request.fanouts = {4, 4};
    request.tenant = "tenant" + std::to_string(s);
    futures.push_back(server.Submit(std::move(request)));
  }
  for (auto& future : futures) {
    const serving::SampleResponse response = future.get();
    EXPECT_EQ(response.status, serving::Status::kOk) << response.error;
    EXPECT_FALSE(response.outputs.empty());
  }

  const serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.per_shard_completed.size(), 2u);
  EXPECT_EQ(stats.per_shard_completed.at(0), 1);
  EXPECT_EQ(stats.per_shard_completed.at(1), 1);
  EXPECT_GT(stats.exchange_bytes, 0);
  EXPECT_GT(stats.exchange_hops, 0);
  EXPECT_GT(stats.latency_p95_ns, 0);  // merged across per-shard histograms
  server.Stop();
}

TEST(ShardServing, ShardedResponsesMatchUnshardedBitForBit) {
  const graph::Graph g = ShardGraph();
  const IdArray seeds = Seeds({10, 20, 30, 40});

  auto serve_once = [&](int num_shards) {
    serving::ServerOptions options;
    options.num_workers = 1;
    options.num_shards = num_shards;
    auto server = std::make_unique<serving::Server>(options);
    server->RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "small", g));
    server->Start();
    serving::SampleRequest request;
    request.algorithm = "GraphSAGE";
    request.dataset = "small";
    request.seeds = seeds;
    request.seed = 99;
    request.fanouts = {4, 4};
    serving::SampleResponse response = server->Submit(std::move(request)).get();
    EXPECT_EQ(response.status, serving::Status::kOk) << response.error;
    // Keep the server (and its shard devices, which own the response's
    // memory) alive until the caller is done comparing.
    return std::make_pair(std::move(server), std::move(response));
  };

  auto [unsharded_server, unsharded] = serve_once(1);
  auto [sharded_server, sharded] = serve_once(4);
  ExpectBitIdentical(sharded.outputs, unsharded.outputs, "sharded serving");
  unsharded_server->Stop();
  sharded_server->Stop();
}

}  // namespace
}  // namespace gs::shard
