// Tests for sharded sampling: the sharded-vs-single bit-identity oracle
// through a sharded serving::Server (the subsystem's core guarantee),
// frontier-exchange accounting (src/shard/) against the partition's byte
// model, concurrent sharded serving (the TSan target in tools/check.sh),
// and sharded serving's exchange counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
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
using testing::DefaultRequest;
using testing::ExpectBitIdentical;
using testing::OwnedSeeds;
using testing::ReferenceSample;

graph::Graph ShardGraph() { return testing::SmallRmat(300, 3000, 9); }

IdArray Seeds(std::vector<int32_t> ids) { return IdArray::FromVector(ids); }

// ------------------------------------------------- bit-identity oracle

// The subsystem's core guarantee: sharding changes where time is charged,
// never what is sampled. A request homed on any shard of a 2- and 4-way
// server must return bit-identical outputs to a single-device session for
// the same (frontier, seed) — and so must a frontier spread over shards,
// routed to its plurality shard — across a walk algorithm (Node2Vec), a
// neighbor sampler (GraphSAGE), and a layer-wise sampler (LADIES).
TEST(ShardOracle, ShardedSamplingIsBitIdenticalToSingleDevice) {
  const graph::Graph g = ShardGraph();
  const IdArray spread = Seeds({5, 17, 42, 101, 250});
  for (const std::string algorithm : {"Node2Vec", "GraphSAGE", "LADIES"}) {
    for (const int shards : {2, 4}) {
      const graph::Partition partition = graph::Partitioner::EdgeCut(g, shards);
      auto server = testing::StartServer(testing::ShardedOptions(shards),
                                         serving::MakeEndpoint(algorithm, "small", g));
      std::vector<IdArray> frontiers;
      for (int s = 0; s < shards; ++s) {
        frontiers.push_back(OwnedSeeds(partition, s, 5));
      }
      frontiers.push_back(spread);
      for (size_t i = 0; i < frontiers.size(); ++i) {
        const std::string where = algorithm + " x" + std::to_string(shards) +
                                  (i < static_cast<size_t>(shards)
                                       ? " shard " + std::to_string(i)
                                       : std::string(" routed"));
        const serving::SampleResponse response =
            server->Submit(DefaultRequest(algorithm, frontiers[i], 77)).get();
        ASSERT_EQ(response.status, serving::Status::kOk) << where << ": " << response.error;
        ExpectBitIdentical(response.outputs, ReferenceSample(algorithm, g, frontiers[i], 77),
                           where);
      }
      // Every shard served its own request; the spread one went to its home.
      const serving::ServerStats stats = server->stats();
      const int home = partition.HomeShard(spread.data(), spread.size());
      for (int s = 0; s < shards; ++s) {
        EXPECT_EQ(stats.per_shard_completed.at(s), s == home ? 2 : 1)
            << algorithm << " x" << shards << " shard " << s;
      }
      server->Stop();
    }
  }
}

TEST(ShardOracle, VertexCutPartitionPreservesBitIdentity) {
  const graph::Graph g = ShardGraph();
  const graph::Partition partition = graph::Partitioner::VertexCut(g, 3);
  serving::ServerOptions options = testing::ShardedOptions(3);
  options.partition_kind = graph::PartitionKind::kVertexCut;
  auto server = testing::StartServer(options, serving::MakeEndpoint("GraphSAGE", "small", g));
  for (int s = 0; s < 3; ++s) {
    const IdArray frontier = OwnedSeeds(partition, s, 4);
    const serving::SampleResponse response =
        server->Submit(DefaultRequest("GraphSAGE", frontier, 5)).get();
    ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
    ExpectBitIdentical(response.outputs, ReferenceSample("GraphSAGE", g, frontier, 5),
                       "vertex-cut shard " + std::to_string(s));
    EXPECT_EQ(server->stats().per_shard_completed.at(s), 1) << "shard " << s;
  }
  server->Stop();
}

// --------------------------------------------------- exchange accounting

// One shard as sharded execution runs it: a device of its own and a session
// warmed there.
struct ShardEngine {
  ShardEngine(const graph::Graph& g, const std::string& algorithm,
              core::SamplerOptions options = {})
      : device(device::V100Sim()) {
    device::ThreadDeviceGuard guard(device);
    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algorithm, g);
    session = std::make_unique<core::SamplerSession>(
        std::make_shared<core::CompiledPlan>(std::move(ap.program), options), g,
        std::move(ap.tensors));
    session->Warmup(core::WarmupFrontier(g));
  }

  // Samples `frontier` on this device as shard `shard` of `partition`, with
  // a FrontierExchange observing every hop; returns the hop records.
  std::vector<HopRecord> Sample(const graph::Partition& partition, int shard,
                                const IdArray& frontier, uint64_t seed) {
    device::ThreadDeviceGuard guard(device);
    FrontierExchange exchange(partition, shard);
    core::HopObserverGuard observer(exchange);
    session->SampleSeeded(frontier, seed);
    return exchange.hops();
  }

  device::StreamCounters counters() { return device.default_stream().counters(); }

  device::Device device;
  std::unique_ptr<core::SamplerSession> session;  // declared after device: freed first
};

TEST(FrontierExchangeTest, ChargesRemoteAdjacency) {
  const graph::Graph g = ShardGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  ShardEngine engine(g, "GraphSAGE");

  // An all-local frontier: hop 0 must be free, deeper hops generally are not.
  const IdArray frontier = OwnedSeeds(partition, 0, 4);
  ASSERT_EQ(partition.HomeShard(frontier.data(), frontier.size()), 0);

  const int64_t interconnect_before = engine.counters().interconnect_bytes;
  const std::vector<HopRecord> hops = engine.Sample(partition, 0, frontier, 123);
  ASSERT_FALSE(hops.empty());
  EXPECT_EQ(hops[0].remote_nodes, 0) << "all-local seeds charged an exchange";
  EXPECT_EQ(hops[0].bytes, 0);
  EXPECT_EQ(hops[0].exchange_ns, 0);

  int64_t total_bytes = 0;
  int64_t remote_nodes = 0;
  for (const HopRecord& hop : hops) {
    EXPECT_LE(hop.remote_nodes, hop.frontier_nodes);
    EXPECT_EQ(hop.bytes > 0, hop.remote_nodes > 0);
    EXPECT_EQ(hop.exchange_ns > 0, hop.remote_nodes > 0);
    total_bytes += hop.bytes;
    remote_nodes += hop.remote_nodes;
  }
  EXPECT_GT(total_bytes, 0) << "2-hop sampling never left shard 0";
  EXPECT_LE(total_bytes, 2 * partition.RemoteBytesBound(0));

  // The charge lands on the shard's own stream counters.
  EXPECT_EQ(engine.counters().interconnect_bytes - interconnect_before, total_bytes);

  // A sharded server serving the same request counts exactly these hops.
  auto server = testing::StartServer(testing::ShardedOptions(2),
                                     serving::MakeEndpoint("GraphSAGE", "small", g));
  ASSERT_EQ(server->Submit(DefaultRequest("GraphSAGE", frontier, 123)).get().status,
            serving::Status::kOk);
  const serving::ServerStats stats = server->stats();
  EXPECT_EQ(stats.exchange_bytes, total_bytes);
  EXPECT_EQ(stats.exchange_remote_nodes, remote_nodes);
  EXPECT_EQ(stats.per_shard_completed.at(0), 1);
  EXPECT_EQ(stats.per_shard_completed.at(1), 0);
  server->Stop();
}

// Fusion never changes the exchange: for every algorithm sharded execution
// can run (all but HetGNN's relation graphs and the model-updating ones), a
// session with fusion records exactly the hops of the session without it.
// The fused layer-wise kernels read A's columns in place, and a fused walk
// reports one hop per step, in step order. The expected counts pin the
// unfused side too, so a hop dropped on both sides fails: LADIES hops for
// A[:, f] and (A**2)[:, f] in each of its two layers, and a walk hops once
// per step (PinSAGE: 10 walks of 3).
TEST(FrontierExchangeTest, FusedHopsMatchUnfusedExchange) {
  const std::map<std::string, size_t> kHops = {
      {"DeepWalk", 80}, {"GraphSAINT", 5}, {"PinSAGE", 30}, {"GraphSAGE", 2},
      {"VR-GCN", 2},    {"SEAL", 5},       {"ShaDow", 3},   {"Node2Vec", 80},
      {"FastGCN", 2},   {"LADIES", 4},
  };
  const graph::Graph g = ShardGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  const IdArray frontier = Seeds({5, 17, 42, 101, 250});
  size_t checked = 0;
  for (const std::string& algorithm : algorithms::AllAlgorithmNames()) {
    if (algorithm == "HetGNN" || algorithms::MakeAlgorithm(algorithm, g).updates_model) {
      EXPECT_EQ(kHops.count(algorithm), 0u) << algorithm << " cannot run sharded";
      continue;
    }
    ASSERT_EQ(kHops.count(algorithm), 1u) << algorithm << " has no expected hop count";
    std::vector<std::vector<HopRecord>> runs;
    for (const bool fuse : {true, false}) {
      core::SamplerOptions options;
      options.enable_fusion = fuse;
      ShardEngine engine(g, algorithm, options);
      runs.push_back(engine.Sample(partition, 0, frontier, 31));
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

TEST(FrontierExchangeTest, SingleShardHasNoExchange) {
  const graph::Graph g = ShardGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 1);
  ShardEngine engine(g, "GraphSAGE");
  const std::vector<HopRecord> hops = engine.Sample(partition, 0, Seeds({1, 2, 3, 4}), 9);
  ASSERT_FALSE(hops.empty());
  for (const HopRecord& hop : hops) {
    EXPECT_EQ(hop.remote_nodes, 0);
    EXPECT_EQ(hop.bytes, 0);
  }
  EXPECT_EQ(engine.counters().interconnect_bytes, 0);
}

// Each shard advances its own virtual timeline — the property the capacity
// bench divides by. Sampling on shard 0 must not move shard 1's clock.
TEST(FrontierExchangeTest, ShardsAdvanceIndependentTimelines) {
  const graph::Graph g = ShardGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  ShardEngine shard0(g, "GraphSAGE");
  ShardEngine shard1(g, "GraphSAGE");
  const int64_t s0_before = shard0.counters().virtual_ns;
  const int64_t s1_before = shard1.counters().virtual_ns;
  shard0.Sample(partition, 0, Seeds({1, 2, 3, 4}), 1);
  EXPECT_GT(shard0.counters().virtual_ns, s0_before);
  EXPECT_EQ(shard1.counters().virtual_ns, s1_before);
}

// ---------------------------------------------------- sharded serving

// TSan target: four client threads hammer their own shards of a 4-shard
// server with four workers; outputs must stay bit-identical to the
// single-device reference and the per-shard completions must account for
// every request. Coalescing is off, so every request is one execution.
TEST(ShardServing, ConcurrentShardsSampleIndependently) {
  const graph::Graph g = ShardGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 4);
  std::vector<IdArray> frontiers;
  std::vector<std::vector<Value>> references;
  for (int s = 0; s < 4; ++s) {
    frontiers.push_back(OwnedSeeds(partition, s, 4));
    references.push_back(ReferenceSample("GraphSAGE", g, frontiers.back(), 21));
  }
  serving::ServerOptions options = testing::ShardedOptions(4);
  options.num_workers = 4;
  options.enable_coalescing = false;
  auto server = testing::StartServer(options, serving::MakeEndpoint("GraphSAGE", "small", g));

  constexpr int kRequestsPerShard = 8;
  std::vector<std::future<bool>> clients;
  for (int s = 0; s < 4; ++s) {
    clients.push_back(std::async(std::launch::async, [&, s] {
      bool identical = true;
      for (int i = 0; i < kRequestsPerShard; ++i) {
        const serving::SampleResponse response =
            server->Submit(DefaultRequest("GraphSAGE", frontiers[s], 21)).get();
        const std::vector<Value>& reference = references[s];
        identical = identical && response.status == serving::Status::kOk &&
                    response.outputs.size() == reference.size();
        for (size_t k = 0; k < reference.size() && identical; ++k) {
          identical = BitIdentical(response.outputs[k], reference[k]);
        }
      }
      return identical;
    }));
  }
  for (auto& client : clients) {
    EXPECT_TRUE(client.get());
  }
  const serving::ServerStats stats = server->stats();
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(stats.per_shard_completed.at(s), kRequestsPerShard) << "shard " << s;
  }
  EXPECT_EQ(stats.executions, 4 * kRequestsPerShard);
  EXPECT_EQ(stats.failed, 0);
  server->Stop();
}

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
