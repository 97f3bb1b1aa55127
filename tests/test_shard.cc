// Tests for sharded sampling: the sharded-vs-single bit-identity oracle
// through a sharded serving::Server (the subsystem's core guarantee),
// frontier-exchange accounting (src/shard/) and its pricing rule, concurrent
// sharded serving (the TSan target in tools/check.sh), and sharded serving's
// exchange counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
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
        std::move(ap.tensors), std::move(ap.relations));
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

// A hand-built weighted graph (8 bytes per edge: neighbor id and weight)
// whose 2-shard edge cut gives shard 0 nodes 0..8 and makes nodes 13, 14
// and 15 remote, with in-degrees 10, 5 and 1.
graph::Graph PricingGraph() {
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t v = 0; v < 10; ++v) {
    edges.push_back({(v + 1) % 10, v});
    edges.push_back({(v + 2) % 10, v});
  }
  for (int32_t u = 0; u < 10; ++u) {
    edges.push_back({u, 13});
  }
  for (int32_t u = 0; u < 5; ++u) {
    edges.push_back({u, 14});
  }
  edges.push_back({0, 15});
  const std::vector<float> weights(edges.size(), 0.5f);
  return graph::Graph::FromEdges("golden", 16, edges, &weights);
}

// The pricing rule, byte for byte, on PricingGraph. A drawn slot costs its
// 4-byte index plus the edge, 12 bytes; a remote node costs the cheaper of
// its whole list and its entries' picks. The exchange launches only its
// all-to-all, also when the hop read a matrix that holds no CSC.
TEST(FrontierExchangeTest, ChargesTheCheaperOfPicksAndWholeLists) {
  // Declared before the graph, whose format caches land on its allocator.
  device::Device device(device::V100Sim());
  device::ThreadDeviceGuard guard(device);
  const graph::Graph g = PricingGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  ASSERT_EQ(partition.OwnerOf(8), 0);
  ASSERT_EQ(partition.OwnerOf(9), 1);
  ASSERT_EQ(partition.bytes_per_edge(), 8);

  // One hop of `kind` with fanout `k`, over the graph or over its copy
  // holding only `format`; returns the hop's bytes.
  auto hop_bytes = [&](core::OpKind kind, int64_t k, std::vector<int32_t> frontier,
                       sparse::Format format = sparse::Format::kCsc) {
    core::Program p;
    int graph_in = p.Add(core::OpKind::kGraphInput, {});
    if (format != sparse::Format::kCsc) {
      core::Attrs convert;
      convert.format = format;
      graph_in = p.Add(core::OpKind::kConvertFormat, {graph_in}, convert);
    }
    const int frontier_in = p.Add(core::OpKind::kFrontierInput, {});
    core::Attrs attrs;
    attrs.k = k;
    p.SetOutputs({p.Add(kind, {graph_in, frontier_in}, attrs)});
    p.Verify();
    core::Executor executor(p, core::ExecOptions{});
    core::Bindings bindings;
    bindings.graph = &g.adj();
    bindings.frontier = Seeds(std::move(frontier));
    auto kernels = [&device] { return device.default_stream().counters().kernels_launched; };
    auto run = [&] {
      Rng rng(5);
      const int64_t before = kernels();
      executor.Run(bindings, rng);
      return kernels() - before;
    };
    run();  // the conversion, if any, stays cached on the graph
    const int64_t run_kernels = run();

    FrontierExchange exchange(partition, 0);
    core::HopObserverGuard observer(exchange);
    const int64_t interconnect_before = device.default_stream().counters().interconnect_bytes;
    const int64_t observed_kernels = run();
    EXPECT_EQ(exchange.hops().size(), 1u);
    const int64_t bytes = exchange.hops().empty() ? -1 : exchange.hops()[0].bytes;
    const int64_t all_to_all = exchange.hops().empty() ? 0 : exchange.hops()[0].remote_nodes > 0;
    EXPECT_EQ(observed_kernels, run_kernels + all_to_all);
    EXPECT_EQ(device.default_stream().counters().interconnect_bytes - interconnect_before, bytes);
    return bytes;
  };
  // Three walkers on node 13: min(10 x 8, 3 x 1 x 12).
  EXPECT_EQ(hop_bytes(core::OpKind::kWalkStep, 0, {13, 13, 13}), 36);
  // A fused k = 2 sample: min(5 x 8, 2 x 12) on node 14, min(1 x 8, 1 x 12)
  // on node 15, and the two together in one hop.
  EXPECT_EQ(hop_bytes(core::OpKind::kFusedSliceSample, 2, {14}), 24);
  EXPECT_EQ(hop_bytes(core::OpKind::kFusedSliceSample, 2, {15}), 8);
  EXPECT_EQ(hop_bytes(core::OpKind::kFusedSliceSample, 2, {14, 15}), 32);
  // A column slice reads node 14's whole list, whichever format it scans.
  EXPECT_EQ(hop_bytes(core::OpKind::kSliceCols, 0, {14}), 40);
  EXPECT_EQ(hop_bytes(core::OpKind::kSliceCols, 0, {14}, sparse::Format::kCoo), 40);
  EXPECT_EQ(hop_bytes(core::OpKind::kSliceCols, 0, {14}, sparse::Format::kCsr), 40);
  // Local nodes ship nothing.
  EXPECT_EQ(hop_bytes(core::OpKind::kSliceCols, 0, {0, 1, 2}), 0);
}

// A Node2Vec step searches each walker's previous node's list, so its hop
// prices a remote previous node's whole list even when every walker stands
// on a local node; two walkers with the same previous node ship it once.
// The program walks one uniform step from the frontier (on remote node 13,
// whose in-neighbors are 0..9; with this seed every walker lands on a
// local node, 0..8) and then one Node2Vec step whose previous positions
// are the frontier.
TEST(FrontierExchangeTest, Node2VecHopsShipThePreviousNodesList) {
  device::Device device(device::V100Sim());
  device::ThreadDeviceGuard guard(device);
  const graph::Graph g = PricingGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  ASSERT_EQ(partition.OwnerOf(9), 1);
  ASSERT_NE(partition.OwnerOf(13), 0);
  core::Program p;
  const int graph_in = p.Add(core::OpKind::kGraphInput, {});
  const int frontier_in = p.Add(core::OpKind::kFrontierInput, {});
  const int first = p.Add(core::OpKind::kWalkStep, {graph_in, frontier_in});
  core::Attrs attrs;
  attrs.p = 2.0f;
  attrs.q = 0.5f;
  p.SetOutputs({p.Add(core::OpKind::kNode2VecStep, {graph_in, first, frontier_in}, attrs)});
  p.Verify();
  core::Executor executor(p, core::ExecOptions{});
  core::Bindings bindings;
  bindings.graph = &g.adj();
  for (const size_t walkers : {size_t{1}, size_t{2}}) {
    bindings.frontier = Seeds(std::vector<int32_t>(walkers, 13));
    FrontierExchange exchange(partition, 0);
    core::HopObserverGuard observer(exchange);
    Rng rng(5);
    const std::vector<core::Value> out = executor.Run(bindings, rng);
    ASSERT_EQ(exchange.hops().size(), 2u);
    for (size_t i = 0; i < walkers; ++i) {
      ASSERT_LT(out[0].ids[static_cast<int64_t>(i)], 9) << "walker " << i;
    }
    // Hop 0: each walker draws one slot of node 13. Hop 1: the walkers
    // stand on local nodes, and node 13's list ships once, 10 x 8 bytes.
    EXPECT_EQ(exchange.hops()[0].bytes, static_cast<int64_t>(walkers) * 12);
    EXPECT_EQ(exchange.hops()[1].remote_nodes, 1) << walkers << " walkers";
    EXPECT_EQ(exchange.hops()[1].bytes, 80) << walkers << " walkers";
  }
}

// Fusion never adds exchange bytes: for every algorithm sharded execution
// can run (all but the model-updating ones), a session with fusion records
// the hops of the session without it, with the same frontier and remote
// nodes, and ships at most its bytes. The fused
// layer-wise kernels read A's columns in place and a fused walk reports one
// hop per step, in step order, so walks and whole-list hops ship equal
// bytes. A fused slice-sample ships its picks where the unfused slice ships
// whole lists: strictly fewer bytes at the node-wise samplers' hop 1, whose
// remote nodes are hubs. The expected counts pin the unfused side too, so a
// hop dropped on both sides fails: LADIES hops for A[:, f] and (A**2)[:, f]
// in each of its two layers, and a walk hops once per step (PinSAGE: 10
// walks of 3; HetGNN: 10 walks of 4). A fused LADIES layer reads both from
// A's lists in one kernel, so it reports only the unfused hops over A
// (hops 0 and 2).
TEST(FrontierExchangeTest, FusionNeverAddsExchangeBytes) {
  const std::map<std::string, size_t> kHops = {
      {"DeepWalk", 80}, {"GraphSAINT", 5}, {"PinSAGE", 30}, {"HetGNN", 40},
      {"GraphSAGE", 2}, {"VR-GCN", 2},     {"SEAL", 5},     {"ShaDow", 3},
      {"Node2Vec", 80}, {"FastGCN", 2},    {"LADIES", 4},
  };
  // The unfused hop each fused hop reports, where they differ.
  const std::map<std::string, std::vector<size_t>> kUnfusedHopOf = {{"LADIES", {0, 2}}};
  const std::set<std::pair<std::string, int>> kCheaper = {
      {"GraphSAGE", 1}, {"VR-GCN", 1}, {"ShaDow", 1}};
  const graph::Graph g = ShardGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  const IdArray frontier = Seeds({5, 17, 42, 101, 250});
  size_t checked = 0;
  for (const std::string& algorithm : algorithms::AllAlgorithmNames()) {
    if (algorithms::MakeAlgorithm(algorithm, g).updates_model) {
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
    std::vector<size_t> unfused_hop_of(unfused.size());
    std::iota(unfused_hop_of.begin(), unfused_hop_of.end(), size_t{0});
    if (kUnfusedHopOf.count(algorithm) > 0) {
      unfused_hop_of = kUnfusedHopOf.at(algorithm);
    }
    ASSERT_EQ(fused.size(), unfused_hop_of.size()) << algorithm;
    int64_t remote = 0;
    for (size_t i = 0; i < fused.size(); ++i) {
      const std::string where = algorithm + " hop " + std::to_string(i);
      const HopRecord& reference = unfused[unfused_hop_of[i]];
      EXPECT_EQ(fused[i].hop, static_cast<int>(i)) << where;
      EXPECT_EQ(fused[i].frontier_nodes, reference.frontier_nodes) << where;
      EXPECT_EQ(fused[i].remote_nodes, reference.remote_nodes) << where;
      if (kCheaper.count({algorithm, static_cast<int>(i)}) > 0) {
        EXPECT_LT(fused[i].bytes, reference.bytes) << where;
      } else {
        EXPECT_EQ(fused[i].bytes, reference.bytes) << where;
      }
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
    serving::SampleRequest request;
    request.algorithm = "GraphSAGE";
    request.dataset = "small";
    request.seeds = OwnedSeeds(partition, s, 4);
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
  EXPECT_GT(stats.latency_p95_ns, 0);  // one histogram over both shards
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
