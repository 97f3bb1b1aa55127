// Dynamic-graph tier (gs::dyn + graph::GraphStore): versioned snapshots
// under online mutations, COW segment accounting, seal compaction,
// epoch-aware plan judgment and background recompilation, incremental
// re-partitioning, and the end-to-end guarantees the ISSUE pins — oracle
// bit-identity for every algorithm after a mutation stream (single-device,
// sharded, and replicated) and a live-server mutation soak with zero failed
// requests and every recompile off the serving path.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/plan.h"
#include "device/device.h"
#include "dyn/mutation_gen.h"
#include "dyn/plan_table.h"
#include "dyn/replanner.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "oracle/oracle.h"
#include "serving/server.h"
#include "tests/testing.h"

namespace gs {
namespace {

using graph::EdgeAdd;
using graph::GraphStore;
using graph::GraphStoreOptions;
using graph::MutationBatch;
using graph::Snapshot;

tensor::IdArray Seeds(std::vector<int32_t> ids) {
  return tensor::IdArray::FromVector(ids);
}

dyn::MutationGenOptions GenOptions(int64_t num_nodes, uint64_t seed = 0x5EED) {
  dyn::MutationGenOptions o;
  o.seed = seed;
  o.num_nodes = num_nodes;
  o.adds_per_batch = 24;
  o.removes_per_batch = 6;
  o.weighted = true;
  o.skew = 0.8;
  return o;
}

// A batch heavy enough to drift any degree-bound validity predicate:
// `cols` destination columns each gain `per_col` fresh in-edges from low
// source ids (sources and destinations are disjoint ranges, so no
// self-loops and no accidental upserts of generator hub edges).
MutationBatch DriftBatch(int32_t first_dst, int32_t cols, int32_t per_col) {
  MutationBatch batch;
  for (int32_t c = 0; c < cols; ++c) {
    for (int32_t s = 0; s < per_col; ++s) {
      batch.add_edges.push_back({s, first_dst + c, 1.0f});
    }
  }
  return batch;
}

// ------------------------------------------------------------ GraphStore

TEST(GraphStoreTest, UpsertRemoveSelfLoopAndLastAddWinsSemantics) {
  GraphStore store(testing::ToyGraph());
  EXPECT_EQ(store.Current()->epoch(), 0u);
  const uint64_t digest0 = store.Current()->digest();

  MutationBatch batch;
  batch.add_edges.push_back({1, 0, 9.0f});   // existing pair -> weight upsert
  batch.add_edges.push_back({6, 0, 0.25f});  // new pair
  batch.add_edges.push_back({2, 2, 1.0f});   // self-loop -> dropped
  batch.add_edges.push_back({5, 2, 0.11f});  // new pair, superseded below
  batch.add_edges.push_back({5, 2, 0.22f});  // last add for the pair wins
  batch.remove_edges.push_back({2, 1});      // existing -> deleted
  batch.remove_edges.push_back({3, 3});      // missing -> no-op
  const auto snap = store.Apply(batch);

  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_NE(snap->digest(), digest0);
  EXPECT_EQ(snap.get(), store.Current().get());
  // Toy graph has 12 edges; +2 inserts ((6,0), (5,2)), -1 removal.
  EXPECT_EQ(snap->graph().num_edges(), 13);

  const auto set = testing::EdgeSet(snap->graph().adj());
  EXPECT_FLOAT_EQ(set.at({1, 0}), 9.0f);    // upserted
  EXPECT_FLOAT_EQ(set.at({6, 0}), 0.25f);   // inserted
  EXPECT_FLOAT_EQ(set.at({5, 2}), 0.22f);   // last add won
  EXPECT_EQ(set.count({2, 2}), 0u);         // self-loop dropped
  EXPECT_EQ(set.count({2, 1}), 0u);         // removed
  EXPECT_FLOAT_EQ(set.at({0, 2}), 0.4f);    // untouched edges intact

  const graph::GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.batches_applied, 1);
  EXPECT_EQ(stats.edges_removed, 1);
  // Four distinct non-self-loop ops landed: 2 inserts, the (1,0) upsert,
  // and the intra-batch (5,2) rewrite (counted however the store splits
  // add vs update — the sum is what the contract fixes).
  EXPECT_EQ(stats.edges_added, 2);
  EXPECT_GE(stats.edges_updated, 1);
}

TEST(GraphStoreTest, EffectiveEdgesMatchFromEdgesBitIdentically) {
  graph::Graph base = testing::SmallRmat();
  const int64_t nodes = base.num_nodes();
  GraphStore store(std::move(base));
  dyn::MutationGen gen(GenOptions(nodes));
  for (int i = 0; i < 4; ++i) {
    store.Apply(gen.Next());
  }

  std::vector<float> weights;
  const auto edges = store.EffectiveEdges(&weights);
  const graph::Graph reload = graph::Graph::FromEdges("reload", nodes, edges, &weights);

  EXPECT_EQ(Snapshot::DigestOf(reload), store.Current()->digest());
  EXPECT_EQ(testing::EdgeSet(reload.adj()),
            testing::EdgeSet(store.Current()->graph().adj()));
}

TEST(GraphStoreTest, CowSegmentsRebuildOnlyTouchedColumns) {
  GraphStoreOptions options;
  options.segment_cols = 2;  // toy graph: 7 nodes -> 4 segments
  GraphStore store(testing::ToyGraph(), options);

  MutationBatch batch;
  batch.add_edges.push_back({3, 0, 0.5f});  // touches column 0 only
  store.Apply(batch);
  store.Seal();  // compaction rebuilds exactly the overlaid segments

  const graph::GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.segments_rebuilt, 1);
  EXPECT_EQ(stats.segments_reused, 3);
}

TEST(GraphStoreTest, SealCompactsWithoutChangingTheSnapshot) {
  graph::Graph base = testing::SmallRmat();
  const int64_t nodes = base.num_nodes();
  GraphStore store(std::move(base));
  dyn::MutationGen gen(GenOptions(nodes, 0xC0DE));
  store.Apply(gen.Next());
  store.Apply(gen.Next());

  const uint64_t digest = store.Current()->digest();
  const uint64_t epoch = store.Current()->epoch();
  const auto before = testing::EdgeSet(store.Current()->graph().adj());
  EXPECT_GT(store.stats().delta_entries, 0);

  store.Seal();

  EXPECT_EQ(store.Current()->digest(), digest);
  EXPECT_EQ(store.Current()->epoch(), epoch);
  EXPECT_EQ(testing::EdgeSet(store.Current()->graph().adj()), before);
  EXPECT_EQ(store.stats().seals, 1);
  EXPECT_EQ(store.stats().delta_entries, 0);

  // Mutations after compaction still match a from-scratch reload.
  store.Apply(gen.Next());
  std::vector<float> weights;
  const auto edges = store.EffectiveEdges(&weights);
  const graph::Graph reload = graph::Graph::FromEdges("reload", nodes, edges, &weights);
  EXPECT_EQ(Snapshot::DigestOf(reload), store.Current()->digest());
}

TEST(GraphStoreTest, SnapshotsPinTheirEpochs) {
  GraphStore store(testing::ToyGraph());
  const std::shared_ptr<const Snapshot> snap0 = store.Current();
  const auto set0 = testing::EdgeSet(snap0->graph().adj());
  const uint64_t digest0 = snap0->digest();

  MutationBatch batch;
  batch.add_edges.push_back({3, 0, 0.5f});
  batch.remove_edges.push_back({1, 0});
  store.Apply(batch);

  // The pinned epoch is untouched by later mutations.
  EXPECT_EQ(snap0->epoch(), 0u);
  EXPECT_EQ(snap0->digest(), digest0);
  EXPECT_EQ(testing::EdgeSet(snap0->graph().adj()), set0);
  EXPECT_EQ(store.Current()->epoch(), 1u);
  EXPECT_NE(store.Current().get(), snap0.get());
}

TEST(GraphStoreTest, FeatureRowsCopyOnWrite) {
  graph::Graph base = testing::SmallRmat();
  const int64_t dim = base.features().cols();
  ASSERT_GT(dim, 0);
  GraphStore store(std::move(base));
  const std::shared_ptr<const Snapshot> snap0 = store.Current();
  const auto at = [dim](const graph::Graph& g, int64_t r, int64_t c) {
    return g.features().array()[r * dim + c];
  };
  const float old_value = at(snap0->graph(), 5, 0);

  graph::FeatureUpdate update;
  update.node = 5;
  update.row.assign(static_cast<size_t>(dim), 3.5f);
  MutationBatch batch;
  batch.update_features.push_back(update);
  const auto snap1 = store.Apply(batch);

  EXPECT_FLOAT_EQ(at(snap1->graph(), 5, 0), 3.5f);
  EXPECT_FLOAT_EQ(at(snap1->graph(), 5, dim - 1), 3.5f);
  // The pinned epoch keeps its row; untouched rows agree across epochs.
  EXPECT_FLOAT_EQ(at(snap0->graph(), 5, 0), old_value);
  EXPECT_FLOAT_EQ(at(snap1->graph(), 6, 0), at(snap0->graph(), 6, 0));
  EXPECT_EQ(store.stats().features_updated, 1);
}

// ------------------------------------------------- degree stats / validity

TEST(DegreeStatsTest, FromMatrixAndHubOverlap) {
  const graph::Graph g = testing::ToyGraph();
  const graph::DegreeStats stats = graph::DegreeStats::FromMatrix(g.adj(), /*top_k=*/2);
  EXPECT_EQ(stats.num_nodes, 7);
  EXPECT_EQ(stats.num_edges, 12);
  EXPECT_NEAR(stats.mean_in_degree, 12.0 / 7.0, 1e-9);
  EXPECT_EQ(stats.max_in_degree, 3);
  // Columns 0 and 1 have in-degree 3; hubs are sorted by id.
  EXPECT_EQ(stats.hubs, (std::vector<int32_t>{0, 1}));

  EXPECT_DOUBLE_EQ(graph::DegreeStats::HubOverlap({0, 1}, {1, 2}), 0.5);
  EXPECT_DOUBLE_EQ(graph::DegreeStats::HubOverlap({}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(graph::DegreeStats::HubOverlap({3, 4}, {3, 4}), 1.0);
}

TEST(PlanValidityTest, CheckAgainstBounds) {
  graph::DegreeStats now;
  now.mean_in_degree = 10.0;
  now.p99_in_degree = 20;
  now.hubs = {0, 1, 2, 3};

  core::PlanValidity unbound;
  EXPECT_TRUE(unbound.CheckAgainst(now));  // no predicate -> always valid

  core::PlanValidity v;
  v.bound = true;
  v.mean_in_degree = 10.0;
  v.p99_in_degree = 20;
  v.hubs = {0, 1, 2, 3};
  EXPECT_TRUE(v.CheckAgainst(now));

  graph::DegreeStats drifted = now;
  drifted.mean_in_degree = 14.0;  // 40% drift > max_drift 25%
  std::string why;
  EXPECT_FALSE(v.CheckAgainst(drifted, &why));
  EXPECT_FALSE(why.empty());

  graph::DegreeStats churned = now;
  churned.hubs = {7, 8, 9, 10};  // overlap 0 < min_hub_overlap 0.5
  why.clear();
  EXPECT_FALSE(v.CheckAgainst(churned, &why));
  EXPECT_NE(why.find("hub"), std::string::npos);
}

// ------------------------------------------------------------- plan table

TEST(PlanTableTest, JudgeMissValidDriftedLifecycle) {
  GraphStore store(testing::SmallRmat());
  const std::shared_ptr<const Snapshot> snap0 = store.Current();

  // A real calibrated plan: Warmup runs layout selection, which binds the
  // validity predicate to epoch 0's degree distribution and freezes.
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", snap0->graph());
  auto plan = std::make_shared<core::CompiledPlan>(std::move(ap.program),
                                                   core::SamplerOptions{}, "GraphSAGE");
  core::SamplerSession session(plan, snap0, std::move(ap.tensors));
  session.Warmup(Seeds({0, 1, 2, 3}));
  ASSERT_TRUE(plan->validity().bound);

  dyn::PlanTable table;
  EXPECT_EQ(table.Judge("k", *snap0), dyn::PlanJudgment::kMiss);
  table.Publish("k", plan, *snap0);
  EXPECT_EQ(table.Judge("k", *snap0), dyn::PlanJudgment::kValid);  // same epoch

  // A small epoch stays within the drift bounds.
  MutationBatch small;
  small.add_edges.push_back({7, 200, 1.0f});
  small.add_edges.push_back({8, 201, 1.0f});
  const auto snap1 = store.Apply(small);
  EXPECT_EQ(table.Judge("k", *snap1), dyn::PlanJudgment::kValid);

  // A massive epoch (mean in-degree +>25%) drifts the predicate.
  const auto snap2 = store.Apply(DriftBatch(/*first_dst=*/250, /*cols=*/50, /*per_col=*/50));
  dyn::PlanTable::Entry entry;
  std::string why;
  EXPECT_EQ(table.Judge("k", *snap2, &entry, &why), dyn::PlanJudgment::kDrifted);
  EXPECT_EQ(entry.plan.get(), plan.get());  // the stale plan still serves
  EXPECT_FALSE(why.empty());

  // Republishing against the drifted epoch revalidates it.
  table.Publish("k", plan, *snap2);
  EXPECT_EQ(table.Judge("k", *snap2), dyn::PlanJudgment::kValid);

  const dyn::PlanTableStats stats = table.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.judged_miss, 1);
  EXPECT_EQ(stats.judged_valid, 3);
  EXPECT_EQ(stats.judged_drifted, 1);
  EXPECT_EQ(stats.publishes, 2);
}

// -------------------------------------------------------------- replanner

TEST(ReplannerTest, DedupAdvancesToNewestEpochAndDrainConverges) {
  GraphStore store(testing::ToyGraph());
  const auto snap0 = store.Current();
  MutationBatch batch;
  batch.add_edges.push_back({3, 0, 0.5f});
  const auto snap1 = store.Apply(batch);

  std::mutex mutex;
  std::map<std::string, uint64_t> compiled_epochs;
  dyn::Replanner replanner([&](const std::string& key,
                               std::shared_ptr<const Snapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mutex);
    compiled_epochs[key] = snapshot->epoch();
  });

  // Enqueued before Start: both land in the queue, the re-enqueue of "a"
  // advances the pending snapshot instead of queueing twice.
  replanner.Enqueue("a", snap0);
  replanner.Enqueue("a", snap1);
  replanner.Enqueue("b", snap0);
  replanner.Start();
  replanner.Drain();
  replanner.Stop();

  EXPECT_EQ(compiled_epochs.at("a"), 1u);  // newest epoch won
  EXPECT_EQ(compiled_epochs.at("b"), 0u);
  const dyn::ReplannerStats stats = replanner.stats();
  EXPECT_EQ(stats.enqueued, 3);
  EXPECT_EQ(stats.deduped, 1);
  EXPECT_EQ(stats.compiled, 2);
  EXPECT_EQ(stats.failures, 0);
}

TEST(ReplannerTest, CompileFailuresAreCountedNotFatal) {
  GraphStore store(testing::ToyGraph());
  std::mutex mutex;
  std::vector<std::string> compiled;
  dyn::Replanner replanner([&](const std::string& key, std::shared_ptr<const Snapshot>) {
    if (key == "bad") {
      throw std::runtime_error("synthetic compile failure");
    }
    std::lock_guard<std::mutex> lock(mutex);
    compiled.push_back(key);
  });
  replanner.Enqueue("bad", store.Current());
  replanner.Enqueue("good", store.Current());
  replanner.Start();
  replanner.Drain();
  replanner.Stop();

  EXPECT_EQ(compiled, (std::vector<std::string>{"good"}));
  EXPECT_EQ(replanner.stats().failures, 1);
  EXPECT_EQ(replanner.stats().compiled, 1);
}

// ------------------------------------------------------------ mutation gen

TEST(MutationGenTest, DeterministicStreamsAndEffectiveRemovals) {
  dyn::MutationGenOptions options = GenOptions(300, 0xFEED);
  options.feature_updates_per_batch = 4;
  options.feature_dim = 8;
  dyn::MutationGen a(options);
  dyn::MutationGen b(options);
  for (int i = 0; i < 4; ++i) {
    const MutationBatch ba = a.Next();
    const MutationBatch bb = b.Next();
    ASSERT_EQ(ba.add_edges.size(), bb.add_edges.size());
    for (size_t e = 0; e < ba.add_edges.size(); ++e) {
      EXPECT_EQ(ba.add_edges[e].src, bb.add_edges[e].src);
      EXPECT_EQ(ba.add_edges[e].dst, bb.add_edges[e].dst);
      EXPECT_EQ(ba.add_edges[e].weight, bb.add_edges[e].weight);
    }
    EXPECT_EQ(ba.remove_edges, bb.remove_edges);
    ASSERT_EQ(ba.update_features.size(), bb.update_features.size());
    for (size_t f = 0; f < ba.update_features.size(); ++f) {
      EXPECT_EQ(ba.update_features[f].node, bb.update_features[f].node);
      EXPECT_EQ(ba.update_features[f].row, bb.update_features[f].row);
    }
  }

  dyn::MutationGen other(GenOptions(300, 0xBEEF));
  const MutationBatch first = dyn::MutationGen(GenOptions(300, 0xFEED)).Next();
  const MutationBatch diff = other.Next();
  bool identical = first.add_edges.size() == diff.add_edges.size();
  for (size_t e = 0; identical && e < first.add_edges.size(); ++e) {
    identical = first.add_edges[e].src == diff.add_edges[e].src &&
                first.add_edges[e].dst == diff.add_edges[e].dst;
  }
  EXPECT_FALSE(identical) << "different seeds produced the same stream";

  // Removals draw from previously added edges, so they actually delete.
  GraphStore store(testing::SmallRmat());
  dyn::MutationGen gen(GenOptions(store.num_nodes()));
  for (int i = 0; i < 5; ++i) {
    store.Apply(gen.Next());
  }
  EXPECT_GT(store.stats().edges_removed, 0);
}

// --------------------------------------------------- incremental partition

TEST(PartitionTest, RebuildKeepsOwnershipAndRebuildsOnlyDirtyShards) {
  graph::Graph base = testing::SmallRmat();
  const graph::Partition before =
      graph::Partitioner::Build(base, graph::PartitionKind::kEdgeCut, 4);

  GraphStore store(std::move(base));
  dyn::MutationGen gen(GenOptions(store.num_nodes(), 0xABCD));
  const MutationBatch batch = gen.Next();
  const auto snap = store.Apply(batch);
  const std::vector<int32_t> touched = batch.TouchedColumns();
  ASSERT_FALSE(touched.empty());

  const graph::Partition after =
      graph::Partitioner::Rebuild(before, snap->graph(), touched);

  // Ownership (and therefore routing) is pinned across the rebuild.
  for (int32_t n = 0; n < static_cast<int32_t>(store.num_nodes()); ++n) {
    ASSERT_EQ(after.OwnerOf(n), before.OwnerOf(n)) << "node " << n;
  }

  // Only the shards owning a touched column were re-sliced.
  std::set<int> dirty;
  for (int32_t col : touched) {
    dirty.insert(before.OwnerOf(col));
  }
  EXPECT_EQ(after.segments_rebuilt(), static_cast<int>(dirty.size()));
  EXPECT_EQ(after.segments_rebuilt() + after.segments_reused(), 4);
}

// -------------------------------------------------- oracle: all algorithms

// The acceptance bar: after N MutationBatches (with a mid-stream Seal), the
// maintained snapshot samples bit-identically to a from-scratch FromEdges
// load of the same effective edge set — for every registered algorithm.
TEST(DynOracle, EveryAlgorithmBitIdenticalAfterMutationStream) {
  device::Device device(device::T4Sim());
  device::DeviceGuard guard(device);
  graph::Graph base = testing::SmallRmat(200, 1600, 13);
  const int64_t nodes = base.num_nodes();
  const int64_t dim = base.features().cols();
  GraphStore store(std::move(base));

  dyn::MutationGenOptions gen_options = GenOptions(nodes, 0xD1CE);
  gen_options.feature_updates_per_batch = 4;
  gen_options.feature_dim = dim;
  dyn::MutationGen gen(gen_options);
  for (int i = 0; i < 3; ++i) {
    store.Apply(gen.Next());
    if (i == 1) {
      store.Seal();
    }
  }

  oracle::OracleOptions options;
  options.seed = 0xD1D1;
  options.num_batches = 2;
  options.batch_size = 4;
  for (const std::string& algorithm : algorithms::AllAlgorithmNames()) {
    const oracle::OracleReport report =
        oracle::VerifySnapshotEquivalence(algorithm, store, core::SamplerOptions{}, options);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

// Sharding and replication change where time is charged, never what is
// sampled — including on a mutated snapshot. A request homed on each shard
// of a 4-way server over the dynamic endpoint (with and without 2-way
// replication) is bit-identical to a single-device session pinned to the
// same epoch.
TEST(DynShardOracle, MutatedSnapshotShardedAndReplicatedBitIdentity) {
  graph::Graph base = testing::SmallRmat();
  GraphStore store(std::move(base));
  dyn::MutationGen gen(GenOptions(store.num_nodes(), 0x5A5A));
  for (int i = 0; i < 3; ++i) {
    store.Apply(gen.Next());
  }
  const std::shared_ptr<const Snapshot> snap = store.Current();

  for (const std::string algorithm : {"GraphSAGE", "LADIES"}) {
    // Single-device reference over the same pinned epoch.
    algorithms::AlgorithmProgram ref = algorithms::MakeAlgorithm(algorithm, snap->graph());
    auto plan = std::make_shared<core::CompiledPlan>(std::move(ref.program),
                                                     core::SamplerOptions{}, algorithm);
    core::SamplerSession session(std::move(plan), snap, std::move(ref.tensors));
    session.Warmup(Seeds({0, 1, 2, 3}));

    for (const int replicas : {1, 2}) {
      const graph::Partition partition =
          graph::Partitioner::Build(snap->graph(), graph::PartitionKind::kEdgeCut, 4, replicas);
      auto server = testing::StartServer(testing::ShardedOptions(4, replicas),
                                         serving::MakeDynamicEndpoint(algorithm, "small", store));
      for (int s = 0; s < 4; ++s) {
        const std::string where =
            algorithm + " replicas=" + std::to_string(replicas) + " shard " + std::to_string(s);
        const tensor::IdArray frontier = testing::OwnedSeeds(partition, s, 5);
        const serving::SampleResponse response =
            server->Submit(testing::DefaultRequest(algorithm, frontier, 77)).get();
        ASSERT_EQ(response.status, serving::Status::kOk) << where << ": " << response.error;
        testing::ExpectBitIdentical(response.outputs, session.SampleSeeded(frontier, 77), where);
      }
      const serving::ServerStats stats = server->stats();
      for (int s = 0; s < 4; ++s) {
        EXPECT_EQ(stats.per_shard_completed.at(s), 1) << algorithm << " shard " << s;
      }
      server->Stop();
    }
  }
}

// ----------------------------------------------------- serving soak (dyn)

// A dynamic endpoint under an interleaved request/mutation stream: every
// request succeeds (admission pins a snapshot; epochs never tear a request),
// exactly one compile ever runs on the serving path (the cold start), and
// each later epoch is served by the cheap session-rebuild path.
TEST(DynServing, MutationSoakZeroFailuresAndRecompilesOffServingPath) {
  graph::Graph g = testing::SmallRmat(400, 4000, 11);
  const int64_t nodes = g.num_nodes();
  const int64_t dim = g.features().cols();
  GraphStore store(std::move(g));

  serving::ServerOptions options;
  options.num_workers = 2;
  options.background_recompile = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "rmat", store));
  server.Start();

  dyn::MutationGenOptions gen_options = GenOptions(nodes, 0x50AC);
  gen_options.feature_updates_per_batch = 4;
  gen_options.feature_dim = dim;
  dyn::MutationGen gen(gen_options);

  const int kEpochs = 4;
  const int kRequestsPerWave = 3;
  int64_t submitted = 0;
  for (int epoch = 0; epoch <= kEpochs; ++epoch) {
    if (epoch > 0) {
      store.Apply(gen.Next());
    }
    for (int r = 0; r < kRequestsPerWave; ++r) {
      serving::SampleRequest req;
      req.algorithm = "GraphSAGE";
      req.dataset = "rmat";
      req.seeds = Seeds({1, 2, 3, static_cast<int32_t>(10 + r)});
      req.seed = static_cast<uint64_t>(epoch * 100 + r);
      req.fanouts = {4, 3};
      const serving::SampleResponse response = server.Submit(req).get();
      ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
      EXPECT_FALSE(response.outputs.empty());
      ++submitted;
    }
  }

  server.DrainRecompiles();
  server.Stop();
  const serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, submitted);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.graph_epochs, kEpochs);
  // One cold compile; every subsequent epoch took the cheap path (session
  // rebuild over the frozen plan) or served stale while the replanner ran.
  EXPECT_EQ(stats.recompiles_inline, 1);
  EXPECT_EQ(stats.plan_reuses + stats.stale_plans_served, kEpochs);
  EXPECT_EQ(server.replanner_stats().failures, 0);
}

// Forced drift through the live server: a mutation epoch violent enough to
// break the validity predicate must be served by the stale plan (no inline
// recompile, no failure) while the replanner compiles in the background and
// republishes.
TEST(DynServing, DriftedEpochServesStaleWhileBackgroundRecompiles) {
  graph::Graph g = testing::SmallRmat(400, 4000, 11);
  GraphStore store(std::move(g));

  serving::ServerOptions options;
  options.num_workers = 2;
  options.background_recompile = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "rmat", store));
  server.Start();

  auto submit = [&](uint64_t seed) {
    serving::SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = "rmat";
    req.seeds = Seeds({1, 2, 3, 4});
    req.seed = seed;
    req.fanouts = {4, 3};
    return server.Submit(req).get();
  };

  ASSERT_EQ(submit(1).status, serving::Status::kOk);  // cold compile, epoch 0

  // Mean in-degree 10 -> ~16: past the 25% drift bound.
  store.Apply(DriftBatch(/*first_dst=*/300, /*cols=*/50, /*per_col=*/50));
  const serving::SampleResponse drifted = submit(2);
  ASSERT_EQ(drifted.status, serving::Status::kOk) << drifted.error;

  server.DrainRecompiles();
  const serving::SampleResponse after = submit(3);
  ASSERT_EQ(after.status, serving::Status::kOk) << after.error;
  server.Stop();

  const serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.recompiles_inline, 1) << "drift must not compile on the serving path";
  EXPECT_GE(stats.stale_plans_served, 1);
  EXPECT_GE(stats.recompiles_background, 1);
  EXPECT_GE(server.replanner_stats().compiled, 1);
  EXPECT_EQ(server.replanner_stats().failures, 0);
}

}  // namespace
}  // namespace gs
