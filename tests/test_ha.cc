// Tests for gs::ha (src/ha/): replica placement invariants, the health
// state-machine transition goldens, coverage helpers, and — through a
// sharded serving::Server — the failover bit-identity oracle (kill each
// shard in turn with r=2 — outputs must match single-device sampling),
// recovery re-admission after a transient device loss, degraded-mode
// serving (r=1 — typed partial responses with coverage fractions, never
// failures, bit-identical to serving the covered subset, through the normal
// retry ladder), and a concurrent-failover TSan target (tools/check.sh ha
// tier).

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "core/engine.h"
#include "core/executor.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "ha/health.h"
#include "serving/request.h"
#include "serving/server.h"
#include "tests/testing.h"

namespace gs::ha {
namespace {

using core::BitIdentical;
using core::Value;
using tensor::IdArray;
using testing::DefaultRequest;
using testing::ExpectBitIdentical;
using testing::OwnedSeeds;
using testing::ReferenceSample;

graph::Graph HaGraph() { return testing::SmallRmat(300, 3000, 9); }

IdArray Seeds(std::vector<int32_t> ids) { return IdArray::FromVector(ids); }

// ---------------------------------------------------- replica placement

// Chained declustering is a pure function of (shard, replica, num_shards):
// replica k of shard s lives on device (s + k) % N, so one dead device
// takes out one replica of each of r shards, never all replicas of one.
TEST(ReplicaPlacement, ChainedDeclusteringIsDeterministic) {
  const graph::Graph g = HaGraph();
  const graph::Partition p =
      graph::Partitioner::Build(g, graph::PartitionKind::kEdgeCut, 4, 2);
  EXPECT_EQ(p.num_replicas(), 2);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(p.ReplicaDevice(s, 0), s) << "primary must live on the home device";
    EXPECT_EQ(p.ReplicaDevice(s, 1), (s + 1) % 4);
    EXPECT_GT(p.SegmentBytes(s), 0);
  }
  for (int d = 0; d < 4; ++d) {
    int hosted = 0;
    for (int s = 0; s < 4; ++s) {
      const bool hosts = p.Hosts(d, s);
      EXPECT_EQ(hosts, (d - s + 4) % 4 < 2) << "device " << d << " shard " << s;
      hosted += hosts ? 1 : 0;
    }
    EXPECT_EQ(hosted, 2) << "every device hosts exactly r segments";
  }
}

TEST(ReplicaPlacement, SingleReplicaHostsOnlyItself) {
  const graph::Graph g = HaGraph();
  const graph::Partition p =
      graph::Partitioner::Build(g, graph::PartitionKind::kEdgeCut, 3, 1);
  for (int d = 0; d < 3; ++d) {
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(p.Hosts(d, s), d == s);
    }
  }
  EXPECT_THROW(graph::Partitioner::Build(g, graph::PartitionKind::kEdgeCut, 3, 4), Error);
  EXPECT_THROW(graph::Partitioner::Build(g, graph::PartitionKind::kEdgeCut, 3, 0), Error);
}

// ------------------------------------------------ health state machine

// The gray-signal ladder: healthy -> suspect after suspect_threshold
// signals, suspect -> dead after dead_threshold more, with consecutive
// successes re-admitting a suspect. The transition log is the golden: the
// monitor is deterministic in the signal sequence.
TEST(HealthMonitorTest, GraySignalLadderTransitionGoldens) {
  HealthOptions options;
  options.suspect_threshold = 2;
  options.dead_threshold = 2;
  options.recover_successes = 2;
  HealthMonitor monitor(2, options);

  monitor.ReportExchangeTimeout(0);  // gray 1/2: still healthy
  EXPECT_EQ(monitor.state(0), ShardHealth::kHealthy);
  monitor.ReportSlowShard(0);  // gray 2/2: suspect
  EXPECT_EQ(monitor.state(0), ShardHealth::kSuspect);
  EXPECT_TRUE(monitor.Alive(0)) << "suspect shards still take work";

  monitor.ReportSuccess(0);  // 1/2 toward re-admission
  EXPECT_EQ(monitor.state(0), ShardHealth::kSuspect);
  monitor.ReportSuccess(0);  // 2/2: healthy again
  EXPECT_EQ(monitor.state(0), ShardHealth::kHealthy);

  monitor.ReportTransient(0);
  monitor.ReportTransient(0);  // suspect again
  monitor.ReportSlowShard(0);  // gray 1/2 while suspect
  monitor.ReportExchangeTimeout(0);  // gray 2/2: dead
  EXPECT_EQ(monitor.state(0), ShardHealth::kDead);
  EXPECT_FALSE(monitor.Alive(0));

  const std::vector<HealthTransition> log = monitor.transitions();
  ASSERT_EQ(log.size(), 4u);
  const struct {
    ShardHealth from;
    ShardHealth to;
    const char* cause;
  } kGolden[] = {
      {ShardHealth::kHealthy, ShardHealth::kSuspect, "slow-shard"},
      {ShardHealth::kSuspect, ShardHealth::kHealthy, "recovered"},
      {ShardHealth::kHealthy, ShardHealth::kSuspect, "transient"},
      {ShardHealth::kSuspect, ShardHealth::kDead, "exchange-timeout"},
  };
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].seq, static_cast<int64_t>(i));
    EXPECT_EQ(log[i].shard, 0);
    EXPECT_EQ(log[i].from, kGolden[i].from) << "transition " << i;
    EXPECT_EQ(log[i].to, kGolden[i].to) << "transition " << i;
    EXPECT_STREQ(log[i].cause, kGolden[i].cause) << "transition " << i;
  }

  // The untouched shard never moved.
  EXPECT_EQ(monitor.state(1), ShardHealth::kHealthy);
  EXPECT_TRUE(monitor.Alive(1));
  const HealthCounters c = monitor.counters(0);
  EXPECT_EQ(c.exchange_timeouts, 2);
  EXPECT_EQ(c.slow_signals, 2);
  EXPECT_EQ(c.transients, 2);
  EXPECT_EQ(c.successes, 2);
}

// Dead shards admit exactly one probe per backoff window, counted in
// placement attempts (not wall-clock) so replays are deterministic; each
// failed probe doubles the window up to the ceiling.
TEST(HealthMonitorTest, DeviceLostProbesWithCounterSpaceBackoff) {
  HealthOptions options;
  options.probe_backoff = 2;
  options.max_probe_backoff = 8;
  options.recover_successes = 2;
  HealthMonitor monitor(1, options);

  monitor.ReportDeviceLost(0);  // any state -> dead
  EXPECT_EQ(monitor.state(0), ShardHealth::kDead);
  EXPECT_FALSE(monitor.Alive(0));

  // Window 1 (backoff 2): attempt 1 denied, attempt 2 admits the probe.
  EXPECT_FALSE(monitor.AdmitWork(0));
  EXPECT_TRUE(monitor.AdmitWork(0));
  monitor.ReportDeviceLost(0);  // failed probe: window doubles to 4, next probe at attempt 6
  EXPECT_FALSE(monitor.AdmitWork(0));
  EXPECT_FALSE(monitor.AdmitWork(0));
  EXPECT_FALSE(monitor.AdmitWork(0));
  EXPECT_TRUE(monitor.AdmitWork(0));
  EXPECT_EQ(monitor.counters(0).probes_admitted, 2);
  EXPECT_EQ(monitor.counters(0).probes_failed, 1);
  EXPECT_EQ(monitor.counters(0).device_lost, 2);

  // The probe made it through: dead -> recovering, then successes re-admit.
  monitor.ReportSuccess(0);
  EXPECT_EQ(monitor.state(0), ShardHealth::kRecovering);
  EXPECT_TRUE(monitor.Alive(0));
  EXPECT_TRUE(monitor.AdmitWork(0));  // recovering shards admit freely
  monitor.ReportSuccess(0);
  EXPECT_EQ(monitor.state(0), ShardHealth::kHealthy);

  const std::vector<HealthTransition> log = monitor.transitions();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_STREQ(log[0].cause, "device-lost");
  EXPECT_EQ(log[0].to, ShardHealth::kDead);
  EXPECT_STREQ(log[1].cause, "probe-success");
  EXPECT_EQ(log[1].to, ShardHealth::kRecovering);
  EXPECT_STREQ(log[2].cause, "recovered");
  EXPECT_EQ(log[2].to, ShardHealth::kHealthy);
}

// A gray signal while recovering falls back to suspect rather than
// restarting the dead-shard probe ladder.
TEST(HealthMonitorTest, RecoveringFallsBackToSuspectOnGraySignal) {
  HealthOptions options;
  options.recover_successes = 2;
  HealthMonitor monitor(1, options);
  monitor.ReportDeviceLost(0);
  monitor.ReportSuccess(0);
  ASSERT_EQ(monitor.state(0), ShardHealth::kRecovering);
  monitor.ReportExchangeTimeout(0);
  EXPECT_EQ(monitor.state(0), ShardHealth::kSuspect);
}

// ------------------------------------------------------------ coverage

TEST(CoverageTest, FractionCountsLiveHomeShards) {
  const graph::Graph g = HaGraph();
  const graph::Partition p =
      graph::Partitioner::Build(g, graph::PartitionKind::kEdgeCut, 2, 1);
  HealthMonitor monitor(2);
  const int32_t n = static_cast<int32_t>(g.num_nodes());
  const int32_t a0 = p.LocalNodes(0)[0];
  const int32_t a1 = p.LocalNodes(0)[1];
  const int32_t b0 = p.LocalNodes(1)[0];
  // Mixed frontier: three shard-0 seeds (one a folded super-batch label),
  // one shard-1 seed, one walk dead-end marker.
  const std::vector<int32_t> ids = {a0, a1, b0, -1, static_cast<int32_t>(a0 + n)};

  EXPECT_DOUBLE_EQ(CoverageFraction(p, monitor, ids.data(), ids.size()), 1.0);
  EXPECT_EQ(CoveredIds(p, monitor, ids.data(), ids.size()),
            (std::vector<int32_t>{a0, a1, b0, static_cast<int32_t>(a0 + n)}));

  monitor.ReportDeviceLost(1);
  EXPECT_DOUBLE_EQ(CoverageFraction(p, monitor, ids.data(), ids.size()), 0.75);
  EXPECT_EQ(CoveredIds(p, monitor, ids.data(), ids.size()),
            (std::vector<int32_t>{a0, a1, static_cast<int32_t>(a0 + n)}));

  // Nothing to lose: empty or all-dead-end frontiers are fully covered.
  EXPECT_DOUBLE_EQ(CoverageFraction(p, monitor, ids.data(), 0), 1.0);
  const std::vector<int32_t> dead_ends = {-1, -1};
  EXPECT_DOUBLE_EQ(CoverageFraction(p, monitor, dead_ends.data(), dead_ends.size()), 1.0);
}

// With r=2 a shard stays covered while ANY of its replica devices lives.
TEST(CoverageTest, ReplicasKeepShardsCovered) {
  const graph::Graph g = HaGraph();
  const graph::Partition p =
      graph::Partitioner::Build(g, graph::PartitionKind::kEdgeCut, 2, 2);
  HealthMonitor monitor(2);
  const std::vector<int32_t> ids = {p.LocalNodes(1)[0], p.LocalNodes(1)[1]};

  // Shard 1's replica chain is devices {1, 0}: losing device 1 alone
  // leaves the replica on device 0 serving it.
  monitor.ReportDeviceLost(1);
  EXPECT_DOUBLE_EQ(CoverageFraction(p, monitor, ids.data(), ids.size()), 1.0);
  monitor.ReportDeviceLost(0);
  EXPECT_DOUBLE_EQ(CoverageFraction(p, monitor, ids.data(), ids.size()), 0.0);
  EXPECT_TRUE(CoveredIds(p, monitor, ids.data(), ids.size()).empty());
}

// ------------------------------------------- failover bit-identity oracle

// The HA core guarantee: killing any one shard's device with r=2 never
// changes what is served. Every replica binds the full graph and sampling
// is pure, so a failed-over request is bit-identical to the single-device
// reference — kill each shard in turn and serve a request homed on each.
TEST(HaOracle, FailoverIsBitIdenticalKillingEachShardInTurn) {
  const graph::Graph g = HaGraph();
  constexpr int kShards = 3;
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, kShards);
  std::vector<IdArray> frontiers;
  std::vector<std::vector<Value>> references;
  for (int s = 0; s < kShards; ++s) {
    frontiers.push_back(OwnedSeeds(partition, s, 5));
    references.push_back(ReferenceSample("GraphSAGE", g, frontiers.back(), 77));
  }
  for (int victim = 0; victim < kShards; ++victim) {
    auto server = testing::StartServer(testing::ShardedOptions(kShards, /*num_replicas=*/2),
                                       serving::MakeEndpoint("GraphSAGE", "small", g));
    fault::FaultScope scope(fault::FaultPlan::Parse(
        "shard" + std::to_string(victim) + ":shard.lost:after=0",
        1234 + static_cast<uint64_t>(victim)));
    for (int s = 0; s < kShards; ++s) {
      const std::string where = "victim " + std::to_string(victim) + " shard " + std::to_string(s);
      const serving::SampleResponse response =
          server->Submit(DefaultRequest("GraphSAGE", frontiers[s], 77)).get();
      ASSERT_EQ(response.status, serving::Status::kOk) << where << ": " << response.error;
      ExpectBitIdentical(response.outputs, references[s], where);
    }
    // The kill was observed and absorbed: the victim is dead, its request
    // was served by the next replica in the chain, and nothing failed.
    const HealthMonitor& monitor = *server->health_monitor();
    EXPECT_EQ(monitor.state(victim), ShardHealth::kDead);
    EXPECT_GE(monitor.counters(victim).device_lost, 1);
    const serving::ServerStats stats = server->stats();
    EXPECT_EQ(stats.failovers, 1) << "victim " << victim << "'s request should have failed over";
    EXPECT_EQ(stats.per_shard_completed.at(victim), 0);
    EXPECT_EQ(stats.failed, 0);
    server->Stop();
  }
}

// A device lost exactly once (occ=0 fires on the first placement probe
// only) is re-admitted by the backoff ladder: the next admitted probe
// succeeds and the shard walks dead -> recovering -> healthy — with every
// request along the way still bit-identical.
TEST(HaOracle, RecoveryReadmitsShardAfterTransientLoss) {
  const graph::Graph g = HaGraph();
  const IdArray frontier = OwnedSeeds(graph::Partitioner::EdgeCut(g, 2), 0, 4);
  const std::vector<Value> reference = ReferenceSample("GraphSAGE", g, frontier, 21);
  auto server = testing::StartServer(testing::ShardedOptions(2, /*num_replicas=*/2),
                                     serving::MakeEndpoint("GraphSAGE", "small", g));
  fault::FaultScope scope(fault::FaultPlan::Parse("shard0:shard.lost:occ=0", 7));

  // Request 1: the kill fires, work fails over to the replica (device 1).
  // Request 2: probe denied by backoff, replica serves again. Request 3:
  // the admitted probe succeeds (the plan's single occurrence is spent) and
  // starts re-admission. Request 4: the recovering shard serves on its
  // primary and graduates to healthy.
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    const serving::SampleResponse response =
        server->Submit(DefaultRequest("GraphSAGE", frontier, 21)).get();
    ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
    ExpectBitIdentical(response.outputs, reference, "recovery request " + std::to_string(i));
  }
  const HealthMonitor& monitor = *server->health_monitor();
  EXPECT_EQ(monitor.state(0), ShardHealth::kHealthy);
  const serving::ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.failovers, 2)
      << "exactly the kill request and the backoff-denied request fail over";
  EXPECT_EQ(monitor.counters(0).device_lost, 1);
  EXPECT_EQ(monitor.counters(0).probes_admitted, 1);

  const std::vector<HealthTransition> log = monitor.transitions();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_STREQ(log[0].cause, "device-lost");
  EXPECT_STREQ(log[1].cause, "probe-success");
  EXPECT_STREQ(log[2].cause, "recovered");
  server->Stop();
}

// ------------------------------------------------------- concurrency

// TSan target (tools/check.sh ha tier): four client threads hammer their
// own shards of a 4-shard, 4-worker server while one shard's device is
// permanently dead. Failover decisions, health signals, and stats
// accounting race here; outputs must stay bit-identical throughout.
// Coalescing is off, so every request is one execution and one failover.
TEST(HaConcurrency, ConcurrentFailoverStaysBitIdentical) {
  const graph::Graph g = HaGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 4);
  std::vector<IdArray> frontiers;
  std::vector<std::vector<Value>> references;
  for (int s = 0; s < 4; ++s) {
    frontiers.push_back(OwnedSeeds(partition, s, 4));
    references.push_back(ReferenceSample("GraphSAGE", g, frontiers.back(), 21));
  }
  serving::ServerOptions options = testing::ShardedOptions(4, /*num_replicas=*/2);
  options.num_workers = 4;
  options.enable_coalescing = false;
  auto server = testing::StartServer(options, serving::MakeEndpoint("GraphSAGE", "small", g));
  fault::FaultScope scope(fault::FaultPlan::Parse("shard2:shard.lost:after=0", 99));

  constexpr int kRequestsPerShard = 6;
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
  // The permanent kill means every shard-2 request landed on its replica.
  EXPECT_EQ(server->health_monitor()->state(2), ShardHealth::kDead);
  const serving::ServerStats stats = server->stats();
  EXPECT_EQ(stats.failovers, kRequestsPerShard);
  EXPECT_EQ(stats.executions, 4 * kRequestsPerShard);
  EXPECT_EQ(stats.per_shard_completed.at(2), 0);
  EXPECT_EQ(stats.failed, 0);
  server->Stop();
}

// ---------------------------------------------------- degraded serving

serving::SampleRequest MakeRequest(const IdArray& seeds, uint64_t seed,
                                   const std::string& algorithm = "GraphSAGE") {
  serving::SampleRequest request;
  request.algorithm = algorithm;
  request.dataset = "small";
  request.seeds = seeds;
  request.seed = seed;
  request.fanouts = {4, 4};
  return request;
}

// r=1: killing the home shard of a request leaves nowhere to fail over,
// so the server answers a typed partial — Status::kDegraded with the
// coverage fraction of seeds whose home shard still lives — never an
// error, never a crash. Requests homed on the surviving shard are served
// in full, bit-identically to a single device.
TEST(HaServing, DegradedPartialResponsesCarryCoverageFractions) {
  const graph::Graph g = HaGraph();
  serving::ServerOptions options;
  options.num_workers = 1;
  options.num_shards = 2;
  options.num_replicas = 1;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "small", g));
  server.Start();

  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  const std::vector<int32_t>& mine = partition.LocalNodes(1);
  const std::vector<int32_t>& other = partition.LocalNodes(0);
  fault::FaultScope scope(fault::FaultPlan::Parse("shard1:shard.lost:after=0", 5));

  // All four seeds home on the dead shard: an honest empty partial.
  serving::SampleResponse empty =
      server.Submit(MakeRequest(Seeds({mine[0], mine[1], mine[2], mine[3]}), 7)).get();
  EXPECT_EQ(empty.status, serving::Status::kDegraded) << empty.error;
  EXPECT_TRUE(empty.degraded);
  EXPECT_DOUBLE_EQ(empty.coverage, 0.0);
  EXPECT_TRUE(empty.outputs.empty());

  // Three dead-shard seeds plus one live one: the request still routes to
  // the dead plurality shard, and the partial covers exactly the live seed.
  serving::SampleResponse partial =
      server.Submit(MakeRequest(Seeds({mine[0], mine[1], mine[2], other[0]}), 7)).get();
  EXPECT_EQ(partial.status, serving::Status::kDegraded) << partial.error;
  EXPECT_DOUBLE_EQ(partial.coverage, 0.25);
  EXPECT_FALSE(partial.outputs.empty());

  // All four seeds home on the live shard: a full kOk answer.
  const IdArray live = Seeds({other[0], other[1], other[2], other[3]});
  serving::SampleResponse full = server.Submit(DefaultRequest("GraphSAGE", live, 11)).get();
  ASSERT_EQ(full.status, serving::Status::kOk) << full.error;
  EXPECT_FALSE(full.degraded);
  EXPECT_DOUBLE_EQ(full.coverage, 1.0);
  ExpectBitIdentical(full.outputs, ReferenceSample("GraphSAGE", g, live, 11), "surviving shard");

  const serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.partial, 2);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.failed, 0);
  ASSERT_NE(server.health_monitor(), nullptr);
  EXPECT_FALSE(server.health_monitor()->Alive(1));
  server.Stop();
}

// Degraded members run through the normal retry ladder: a transient kernel
// fault on the fallback device is retried with backoff and counted, the
// health monitor hears about it, and the degraded execution's cross-shard
// exchange lands in ServerStats — while the outputs stay bit-identical to
// the same degraded request without the transient.
TEST(HaServing, DegradedServingRetriesTransientsAndCountsExchange) {
  const graph::Graph g = HaGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  const std::vector<int32_t>& mine = partition.LocalNodes(1);
  const std::vector<int32_t>& other = partition.LocalNodes(0);
  const IdArray seeds = Seeds({mine[0], mine[1], mine[2], other[0]});

  // Members destroy in reverse order: the response before the server whose
  // shard devices own its memory.
  struct Served {
    std::unique_ptr<serving::Server> server;
    serving::ServerStats before;
    serving::SampleResponse response;
  };
  auto serve_once = [&](const std::string& faults) {
    serving::ServerOptions options;
    options.num_workers = 1;
    options.num_shards = 2;
    options.num_replicas = 1;
    auto server = std::make_unique<serving::Server>(options);
    server->RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "small", g));
    server->Start();
    // Warm the shard-1 plan while shard 1 lives, so the injected transient
    // hits the degraded execution rather than the plan build's calibration.
    EXPECT_EQ(server->Submit(MakeRequest(seeds, 7)).get().status, serving::Status::kOk);
    const serving::ServerStats before = server->stats();
    fault::FaultScope scope(fault::FaultPlan::Parse(faults, 7));
    serving::SampleResponse response = server->Submit(MakeRequest(seeds, 7)).get();
    return Served{std::move(server), before, std::move(response)};
  };

  auto [clean_server, clean_before, clean] = serve_once("shard1:shard.lost:after=0");
  auto [faulted_server, before, faulted] =
      serve_once("shard1:shard.lost:after=0;shard0:kernel.transient:occ=0");
  ASSERT_EQ(clean.status, serving::Status::kDegraded) << clean.error;
  ASSERT_EQ(faulted.status, serving::Status::kDegraded) << faulted.error;
  EXPECT_DOUBLE_EQ(faulted.coverage, 0.25);
  ExpectBitIdentical(faulted.outputs, clean.outputs, "degraded retry");

  const serving::ServerStats stats = faulted_server->stats();
  EXPECT_GE(stats.transient_retries - before.transient_retries, 1);
  EXPECT_GT(stats.exchange_hops - before.exchange_hops, 0);
  EXPECT_GT(stats.exchange_bytes - before.exchange_bytes, 0);
  EXPECT_EQ(stats.partial, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(faulted_server->health_monitor()->counters(0).transients, 1);
  clean_server->Stop();
  faulted_server->Stop();
}

// Degraded-serving oracle: with shard 1 killed (r=1), every partial is
// kDegraded with the covered fraction of its seeds, and its outputs are
// bit-identical to an unfaulted server answering exactly the covered subset
// with the same seed — for a matrix and a walk algorithm, over static and
// dynamic endpoints. Both servers serve features: degraded responses carry
// no feature rows, while the reference answers do, walk dead ends included.
TEST(HaServing, DegradedOutputsMatchServingTheCoveredSubset) {
  const graph::Graph g = HaGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  const std::vector<int32_t>& mine = partition.LocalNodes(1);
  const std::vector<int32_t>& other = partition.LocalNodes(0);
  // Each request homes on shard 1 (strict plurality); coverage 1/3, 2/5,
  // 1/4 and 0.
  const std::vector<std::vector<int32_t>> requests = {
      {mine[0], mine[1], other[0]},
      {mine[2], mine[3], mine[4], other[1], other[2]},
      {mine[5], mine[6], mine[7], other[3]},
      {mine[8], mine[9]},
  };

  for (const std::string algorithm : {"GraphSAGE", "DeepWalk"}) {
    for (const bool dynamic : {false, true}) {
      const std::string context = algorithm + (dynamic ? " dynamic" : " static");
      graph::GraphStore faulted_store(HaGraph());
      graph::GraphStore clean_store(HaGraph());
      auto make_server = [&](graph::GraphStore& store) {
        serving::ServerOptions options;
        options.num_workers = 1;
        options.num_shards = 2;
        options.num_replicas = 1;
        options.serve_features = true;
        auto server = std::make_unique<serving::Server>(options);
        server->RegisterEndpoint(dynamic
                                     ? serving::MakeDynamicEndpoint(algorithm, "small", store)
                                     : serving::MakeEndpoint(algorithm, "small", g));
        server->Start();
        return server;
      };
      auto faulted_server = make_server(faulted_store);
      auto clean_server = make_server(clean_store);

      std::vector<std::future<serving::SampleResponse>> partials;
      {
        fault::FaultScope scope(fault::FaultPlan::Parse("shard1:shard.lost:after=0", 5));
        for (size_t i = 0; i < requests.size(); ++i) {
          ASSERT_EQ(partition.HomeShard(requests[i].data(), requests[i].size()), 1);
          partials.push_back(
              faulted_server->Submit(MakeRequest(Seeds(requests[i]), 100 + i, algorithm)));
        }
        for (auto& partial : partials) {
          partial.wait();
        }
      }

      for (size_t i = 0; i < requests.size(); ++i) {
        const std::string where = context + " request " + std::to_string(i);
        serving::SampleResponse partial = partials[i].get();
        std::vector<int32_t> covered;
        for (const int32_t v : requests[i]) {
          if (partition.OwnerOf(v) == 0) {
            covered.push_back(v);
          }
        }
        EXPECT_EQ(partial.status, serving::Status::kDegraded) << where << ": " << partial.error;
        EXPECT_TRUE(partial.degraded) << where;
        EXPECT_DOUBLE_EQ(partial.coverage, static_cast<double>(covered.size()) /
                                               static_cast<double>(requests[i].size()))
            << where;
        EXPECT_FALSE(partial.features.defined()) << where;
        if (covered.empty()) {
          EXPECT_TRUE(partial.outputs.empty()) << where;
          continue;
        }
        serving::SampleResponse reference =
            clean_server->Submit(MakeRequest(Seeds(covered), 100 + i, algorithm)).get();
        ASSERT_EQ(reference.status, serving::Status::kOk) << where << ": " << reference.error;
        EXPECT_TRUE(reference.features.defined()) << where;
        ExpectBitIdentical(partial.outputs, reference.outputs, where);
      }
      const serving::ServerStats stats = faulted_server->stats();
      EXPECT_EQ(stats.partial, static_cast<int64_t>(requests.size())) << context;
      EXPECT_EQ(stats.failed, 0) << context;
      faulted_server->Stop();
      clean_server->Stop();
    }
  }
}

// r=2: the same kill is invisible to clients — the replica serves the dead
// shard's requests bit-identically to an unfaulted server, with zero
// failures and the failover counted.
TEST(HaServing, ReplicatedServerFailsOverBitIdentically) {
  const graph::Graph g = HaGraph();
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  const std::vector<int32_t>& mine = partition.LocalNodes(1);
  const IdArray seeds = Seeds({mine[0], mine[1], mine[2], mine[3]});

  auto serve_once = [&](bool kill) {
    serving::ServerOptions options;
    options.num_workers = 1;
    options.num_shards = 2;
    options.num_replicas = 2;
    auto server = std::make_unique<serving::Server>(options);
    server->RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "small", g));
    server->Start();
    std::unique_ptr<fault::FaultScope> scope;
    if (kill) {
      scope = std::make_unique<fault::FaultScope>(
          fault::FaultPlan::Parse("shard1:shard.lost:after=0", 5));
    }
    serving::SampleResponse response = server->Submit(MakeRequest(seeds, 99)).get();
    EXPECT_EQ(response.status, serving::Status::kOk) << response.error;
    EXPECT_DOUBLE_EQ(response.coverage, 1.0);
    // Keep the server (and its shard devices, which own the response's
    // memory) alive until the caller is done comparing.
    return std::make_pair(std::move(server), std::move(response));
  };

  auto [clean_server, clean] = serve_once(false);
  auto [killed_server, killed] = serve_once(true);
  ExpectBitIdentical(killed.outputs, clean.outputs, "failed-over serving");

  const serving::ServerStats stats = killed_server->stats();
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.partial, 0);
  EXPECT_GE(stats.failovers, 1);
  clean_server->Stop();
  killed_server->Stop();
}

}  // namespace
}  // namespace gs::ha
