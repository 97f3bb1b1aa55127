// Dynamic-graph tier (gs::dyn + graph::GraphStore): versioned snapshots
// under online mutations, whole-batch validation, readers that never see a
// half-built epoch, pinned mutation-stream digests, epoch-aware plan reuse
// and background recompilation, re-partitioning with pinned ownership, and
// the end-to-end guarantees — oracle bit-identity for every algorithm after
// a mutation stream (single-device, sharded, and replicated) and a
// live-server mutation soak with zero failed requests and every recompile
// off the serving path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "core/engine.h"
#include "core/plan.h"
#include "device/device.h"
#include "dyn/mutation_gen.h"
#include "dyn/replanner.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "oracle/oracle.h"
#include "serving/plan_cache.h"
#include "serving/server.h"
#include "shard/shard.h"
#include "tests/testing.h"

namespace gs {
namespace {

using graph::EdgeAdd;
using graph::GraphStore;
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

// A batch that fails validation publishes nothing: no epoch, no edit, no
// counter, and the next batch does not pick up any part of it.
TEST(GraphStoreTest, RejectedBatchLeavesTheStoreUnchanged) {
  graph::Graph g = graph::Graph::FromEdges("four", 4, {{0, 1}, {2, 1}, {3, 2}});
  g.SetFeatures(tensor::Tensor::Full({4, 2}, 1.0f));
  GraphStore store(std::move(g));
  const std::shared_ptr<const Snapshot> before = store.Current();
  const auto edges = testing::EdgeSet(before->graph().adj());
  ASSERT_EQ(edges.size(), 3u);

  MutationBatch bad_edge;  // a valid remove, then an out-of-range add
  bad_edge.remove_edges.push_back({0, 1});
  bad_edge.add_edges.push_back({0, 99, 1.0f});
  MutationBatch bad_row;  // a valid add, then an out-of-range feature row
  bad_row.add_edges.push_back({3, 0, 1.0f});
  bad_row.update_features.push_back({99, {2.0f, 2.0f}});

  for (const MutationBatch& batch : {bad_edge, bad_row}) {
    EXPECT_THROW(store.Apply(batch), Error);
    EXPECT_EQ(store.Current().get(), before.get());
    const graph::GraphStoreStats stats = store.stats();
    EXPECT_EQ(stats.epoch, 0u);
    EXPECT_EQ(stats.batches_applied, 0);
    EXPECT_EQ(stats.edges_added, 0);
    EXPECT_EQ(stats.edges_updated, 0);
    EXPECT_EQ(stats.edges_removed, 0);
    EXPECT_EQ(stats.features_updated, 0);
  }

  // The next batch publishes the untouched graph.
  const std::shared_ptr<const Snapshot> next = store.Apply(MutationBatch{});
  EXPECT_EQ(next->epoch(), 1u);
  EXPECT_EQ(next->digest(), before->digest());
  EXPECT_EQ(testing::EdgeSet(next->graph().adj()), edges);
  EXPECT_EQ(store.stats().edges_removed, 0);
  EXPECT_EQ(store.stats().edges_added, 0);
}

// Readers never see a half-built epoch: every snapshot Current() hands out
// hashes to its own digest, and a reader's epochs never go backwards.
TEST(GraphStoreTest, ConcurrentReadersSeeWholeEpochs) {
  graph::Graph base = testing::SmallRmat();
  const int64_t nodes = base.num_nodes();
  GraphStore store(std::move(base));
  constexpr uint64_t kEpochs = 20;
  std::atomic<int64_t> checked{0};
  // Each reader checks every epoch it sees and stops at the last one.
  const auto read = [&] {
    uint64_t last = 0;
    bool first = true;
    while (last < kEpochs) {
      const std::shared_ptr<const Snapshot> snap = store.Current();
      ASSERT_GE(snap->epoch(), last);
      if (first || snap->epoch() != last) {
        ASSERT_EQ(snap->digest(), Snapshot::DigestOf(snap->graph())) << "epoch " << snap->epoch();
        checked.fetch_add(1);
        first = false;
      }
      last = snap->epoch();
    }
  };
  std::thread reader_a(read);
  std::thread reader_b(read);
  dyn::MutationGen gen(GenOptions(nodes, 0x4EAD));
  for (uint64_t i = 0; i < kEpochs; ++i) {
    store.Apply(gen.Next());
  }
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(store.Current()->epoch(), kEpochs);
  EXPECT_GE(checked.load(), 2);
}

// Golden digests of a fixed weighted mutation stream with feature updates.
// A change to Apply's rules (removes before adds, upserts, last add wins,
// self-loops dropped) moves them, and with them every dynamic plan key.
TEST(GraphStoreTest, MutationStreamDigestsArePinned) {
  graph::Graph base = testing::SmallRmat();
  const int64_t nodes = base.num_nodes();
  const int64_t dim = base.features().cols();
  GraphStore store(std::move(base));
  dyn::MutationGenOptions options = GenOptions(nodes, 0xD16E);
  options.feature_updates_per_batch = 3;
  options.feature_dim = dim;
  dyn::MutationGen gen(options);
  const std::vector<uint64_t> golden = {
      0x861c30aa4944bfbbull, 0x395f88522dc5d900ull, 0x62a4c866687400fcull,
      0xb0f2f2a3fb2456c3ull, 0xa96b7a0790700cd2ull, 0xe779f5c08366ffbcull,
      0x923cb2e1b402bd34ull, 0xc4d4c9a479aa6e4eull, 0x5f9e37c22ce3a1d9ull,
  };
  std::vector<uint64_t> digests = {store.Current()->digest()};
  for (int i = 0; i < 8; ++i) {
    digests.push_back(store.Apply(gen.Next())->digest());
  }
  for (size_t e = 0; e < digests.size(); ++e) {
    EXPECT_EQ(digests[e], golden[e]) << "epoch " << e << " digest 0x" << std::hex << digests[e];
  }
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

// ------------------------------------------------------ plan across epochs

// The serving PlanCache keeps one entry per compile key across epochs. A
// miss hands the factory the resident plan (none on a cold miss), which
// serving judges against the new snapshot; a recompile that lands for an
// older epoch than the entry's still becomes the resident plan.
TEST(PlanCache, ResidentPlanMissValidDriftedLifecycle) {
  GraphStore store(testing::SmallRmat());
  serving::PlanCache cache(int64_t{64} * 1024 * 1024, nullptr);
  const auto key_at = [](const std::shared_ptr<const Snapshot>& snapshot) {
    serving::PlanKey key{"GraphSAGE", "rmat", "dev", "cfg", {}};
    key.dynamic = true;
    key.graph_epoch = snapshot->epoch();
    key.graph_digest = snapshot->digest();
    return key;
  };
  // A session over `snapshot` that adopts `plan`, or compiles a real plan
  // when it is null: Warmup runs layout selection, which binds the validity
  // predicate to the snapshot's degree distribution and freezes.
  const auto open = [](const std::shared_ptr<const Snapshot>& snapshot,
                       std::shared_ptr<core::CompiledPlan> plan) {
    algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", snapshot->graph());
    if (plan == nullptr) {
      plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), core::SamplerOptions{},
                                                  "GraphSAGE");
    }
    auto session =
        std::make_shared<core::SamplerSession>(std::move(plan), snapshot, std::move(ap.tensors));
    session->Warmup(Seeds({0, 1, 2, 3}));
    return session;
  };

  const std::shared_ptr<const Snapshot> snap0 = store.Current();
  const auto session0 = cache.GetOrBuild(key_at(snap0), [&](auto resident) {
    EXPECT_EQ(resident, nullptr) << "a cold miss has no resident plan";
    return open(snap0, nullptr);
  });
  const std::shared_ptr<core::CompiledPlan> plan0 = session0->plan_ptr();
  ASSERT_TRUE(plan0->validity().bound);

  // A small epoch stays within the drift bounds.
  MutationBatch small;
  small.add_edges.push_back({7, 200, 1.0f});
  small.add_edges.push_back({8, 201, 1.0f});
  const auto snap1 = store.Apply(small);
  cache.GetOrBuild(key_at(snap1), [&](std::shared_ptr<core::CompiledPlan> resident) {
    EXPECT_EQ(resident, plan0);
    EXPECT_TRUE(resident->validity().CheckAgainst(snap1->degree_stats()));
    return open(snap1, resident);
  });

  // A massive epoch (mean in-degree +>25%) drifts the predicate; the stale
  // plan is still the one handed over, and still serves.
  const auto snap2 = store.Apply(DriftBatch(/*first_dst=*/250, /*cols=*/50, /*per_col=*/50));
  cache.GetOrBuild(key_at(snap2), [&](std::shared_ptr<core::CompiledPlan> resident) {
    EXPECT_EQ(resident, plan0);
    std::string why;
    EXPECT_FALSE(resident->validity().CheckAgainst(snap2->degree_stats(), &why));
    EXPECT_FALSE(why.empty());
    return open(snap2, resident);
  });

  // A recompile against epoch 1 lands after the entry moved to epoch 2: the
  // entry keeps its epoch-2 session and adopts the fresh plan.
  const std::shared_ptr<core::SamplerSession> recompiled = open(snap1, nullptr);
  cache.Insert(key_at(snap1), recompiled);
  bool hit = false;
  cache.GetOrBuild(key_at(snap2), [&](auto) -> std::shared_ptr<core::SamplerSession> {
    ADD_FAILURE() << "epoch 2's session must stay resident";
    return nullptr;
  }, &hit);
  EXPECT_TRUE(hit);
  MutationBatch next;
  next.add_edges.push_back({9, 202, 1.0f});
  const auto snap3 = store.Apply(next);
  cache.GetOrBuild(key_at(snap3), [&](std::shared_ptr<core::CompiledPlan> resident) {
    EXPECT_EQ(resident, recompiled->plan_ptr());
    EXPECT_NE(resident, plan0);
    return open(snap3, resident);
  });

  const serving::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.hits, 1);
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

// ------------------------------------------------ partition accounting

// A mutation epoch keeps the partition: ownership, and so routing, is
// pinned across epochs. The server's listener counts the shards owning a
// touched column as rebuilt and the others as reused.
TEST(PartitionTest, MutationEpochCountsOnlyDirtyShards) {
  graph::Graph base = testing::SmallRmat();
  const graph::Partition partition =
      graph::Partitioner::Build(base, graph::PartitionKind::kEdgeCut, 4);

  GraphStore store(std::move(base));
  auto server = testing::StartServer(testing::ShardedOptions(4),
                                     serving::MakeDynamicEndpoint("GraphSAGE", "small", store));
  dyn::MutationGen gen(GenOptions(store.num_nodes(), 0xABCD));
  const MutationBatch batch = gen.Next();
  store.Apply(batch);
  const std::vector<int32_t> touched = batch.TouchedColumns();
  ASSERT_FALSE(touched.empty());

  std::set<int> dirty;
  for (int32_t col : touched) {
    dirty.insert(partition.OwnerOf(col));
  }
  const serving::ServerStats stats = server->stats();
  EXPECT_EQ(stats.partition_segments_rebuilt, static_cast<int64_t>(dirty.size()));
  EXPECT_EQ(stats.partition_segments_rebuilt + stats.partition_segments_reused, 4);
  server->Stop();
}

// -------------------------------------------------- oracle: all algorithms

// The acceptance bar: after N MutationBatches, the maintained snapshot
// samples bit-identically to a from-scratch FromEdges load of the same
// effective edge set — for every registered algorithm.
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

// Regression: every session pins its epoch's snapshot, and a session that
// pre-computes nothing (GraphSAGE) costs 0 budget bytes, so the byte budget
// never evicts it. Only replacing an epoch's session with the next epoch's
// frees the older graph; a session cached per epoch would keep every
// served epoch alive for the server's life.
TEST(DynServing, ServedEpochsReleaseTheirSnapshots) {
  GraphStore store(testing::SmallRmat(400, 4000, 11));
  serving::ServerOptions options;
  options.num_workers = 1;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "rmat", store));
  server.Start();

  dyn::MutationGen gen(GenOptions(store.num_nodes(), 0x1EA4));
  std::weak_ptr<const Snapshot> epoch1;
  for (int epoch = 0; epoch <= 3; ++epoch) {
    if (epoch > 0) {
      store.Apply(gen.Next());
    }
    if (epoch == 1) {
      epoch1 = store.Current();
    }
    serving::SampleRequest req;
    req.algorithm = "GraphSAGE";
    req.dataset = "rmat";
    req.seeds = Seeds({1, 2, 3, 4});
    req.seed = static_cast<uint64_t>(epoch);
    req.fanouts = {4, 3};
    const serving::SampleResponse response = server.Submit(req).get();
    ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
  }
  server.DrainRecompiles();
  EXPECT_TRUE(epoch1.expired()) << "epoch 1's snapshot outlived its session";
  EXPECT_EQ(server.stats().failed, 0);
  server.Stop();
}

// Cache entries replaced under in-flight groups: requests for six epochs
// are queued behind the cold compile, newest epoch most urgent, so the
// newest epoch's miss replaces the entry while groups pinned to older
// epochs are still to run; their misses build uncached sessions. Every
// request succeeds, and once the workers are joined no older epoch's
// snapshot is still held. tools/check.sh runs this under TSan and ASan.
TEST(DynServing, EntriesReplacedUnderInFlightGroupsReleaseOldEpochs) {
  GraphStore store(testing::SmallRmat(400, 4000, 11));
  serving::ServerOptions options;
  options.num_workers = 2;
  options.enable_coalescing = false;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "rmat", store));
  server.Start();

  dyn::MutationGen gen(GenOptions(store.num_nodes(), 0xC0C0));
  const int kEpochs = 6;
  std::vector<std::weak_ptr<const Snapshot>> served;
  std::vector<std::future<serving::SampleResponse>> responses;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch > 0) {
      store.Apply(gen.Next());
    }
    served.push_back(store.Current());
    for (int r = 0; r < 4; ++r) {
      serving::SampleRequest req;
      req.algorithm = "GraphSAGE";
      req.dataset = "rmat";
      req.seeds = Seeds({1, 2, 3, static_cast<int32_t>(10 + r)});
      req.seed = static_cast<uint64_t>(epoch * 100 + r);
      req.fanouts = {4, 3};
      req.priority = epoch;
      responses.push_back(server.Submit(req));
    }
  }
  for (auto& response : responses) {
    const serving::SampleResponse done = response.get();
    ASSERT_EQ(done.status, serving::Status::kOk) << done.error;
  }
  server.DrainRecompiles();
  server.Stop();  // joins the workers, which release their groups' pins
  for (int epoch = 0; epoch + 1 < kEpochs; ++epoch) {
    EXPECT_TRUE(served[static_cast<size_t>(epoch)].expired()) << "epoch " << epoch;
  }
  EXPECT_EQ(server.stats().completed, kEpochs * 4);
}

// A request gathers its feature rows from the epoch it pinned at admission,
// not from whatever epoch the server has seen last. This test's listener is
// registered before Start(), so it fires first (listeners fire in
// registration order): the request it serves pins the new epoch before the
// server's own listener has run.
TEST(DynServing, FeatureRowsComeFromTheRequestsEpoch) {
  graph::Graph g = testing::SmallRmat(400, 4000, 11);
  const int64_t nodes = g.num_nodes();
  const int64_t dim = g.features().cols();
  GraphStore store(std::move(g));

  serving::ServerOptions options;
  options.num_workers = 1;
  options.serve_features = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "rmat", store));

  serving::SampleResponse response;
  uint64_t pinned_epoch = 0;
  const int64_t listener =
      store.AddListener([&](const std::shared_ptr<const Snapshot>& snapshot, const MutationBatch&) {
        pinned_epoch = snapshot->epoch();
        serving::SampleRequest req;
        req.algorithm = "GraphSAGE";
        req.dataset = "rmat";
        req.seeds = Seeds({1, 2, 3, 4});
        req.seed = 7;
        req.fanouts = {4, 3};
        response = server.Submit(req).get();
      });
  server.Start();

  MutationBatch batch;
  for (int32_t v = 0; v < nodes; ++v) {
    batch.update_features.push_back({v, std::vector<float>(static_cast<size_t>(dim), 7.0f)});
  }
  store.Apply(batch);
  store.RemoveListener(listener);
  server.Stop();

  EXPECT_EQ(pinned_epoch, 1u);
  ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
  ASSERT_TRUE(response.features.defined());
  ASSERT_GT(response.features.numel(), 0);
  const float* values = response.features.data();
  const int64_t stale =
      std::count_if(values, values + response.features.numel(), [](float v) { return v != 7.0f; });
  EXPECT_EQ(stale, 0) << "of " << response.features.numel()
                      << " feature values, these came from an epoch other than the request's";
  EXPECT_EQ(server.stats().feature_requests, 1);
}

// A request's exchange is priced on the epoch it pinned, not on the graph
// the server partitioned. As above, this test's listener fires before the
// server's own, so the request it serves pins epoch 1 while the server has
// seen only epoch 0. The batch gives node 0 and a remote seed `r` the same
// number of new in-edges: every prefix of the in-degree balance and its
// boundary move alike, so epoch 1 partitions to the same owners, while r's
// degree (and its price) changes.
TEST(DynServing, ExchangeIsPricedOnTheRequestsEpoch) {
  graph::Graph g = testing::SmallRmat(400, 4000, 11);
  const graph::Partition partition = graph::Partitioner::EdgeCut(g, 2);
  const sparse::Compressed& csc = g.adj().Csc();
  auto degree = [&csc](int32_t v) { return csc.indptr[v + 1] - csc.indptr[v]; };
  int32_t r = static_cast<int32_t>(g.num_nodes()) - 1;
  while (partition.OwnerOf(r) != 1 || degree(r) > 1) {
    --r;
    ASSERT_GT(r, 0) << "no remote node of in-degree <= 1";
  }
  const int64_t r_degree = degree(r);
  std::vector<int32_t> seeds = testing::OwnedSeeds(partition, 0, 3).ToVector();
  seeds.push_back(r);
  ASSERT_EQ(partition.HomeShard(seeds.data(), static_cast<int64_t>(seeds.size())), 0);

  MutationBatch batch;
  for (const int32_t dst : {0, r}) {
    const std::set<int32_t> existing(csc.indices.data() + csc.indptr[dst],
                                     csc.indices.data() + csc.indptr[dst + 1]);
    int32_t added = 0;
    for (int32_t src = 1; added < 4; ++src) {
      if (src != dst && existing.count(src) == 0) {
        batch.add_edges.push_back({src, dst, 1.0f});
        ++added;
      }
    }
  }

  GraphStore store(std::move(g));  // `csc` dangles once epoch 0 is released
  serving::Server server(testing::ShardedOptions(2));
  server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "small", store));
  serving::SampleResponse response;
  std::shared_ptr<const Snapshot> pinned;
  const int64_t listener =
      store.AddListener([&](const std::shared_ptr<const Snapshot>& snapshot, const MutationBatch&) {
        pinned = snapshot;
        response = server.Submit(testing::DefaultRequest("GraphSAGE", Seeds(seeds), 7)).get();
      });
  server.Start();
  store.Apply(batch);
  store.RemoveListener(listener);
  server.Stop();

  ASSERT_EQ(pinned->epoch(), 1u);
  ASSERT_EQ(response.status, serving::Status::kOk) << response.error;
  const graph::Graph& epoch = pinned->graph();
  ASSERT_EQ(epoch.adj().Csc().indptr[r + 1] - epoch.adj().Csc().indptr[r], r_degree + 4);
  const graph::Partition epoch_partition = graph::Partitioner::EdgeCut(epoch, 2);
  for (int32_t v = 0; v < static_cast<int32_t>(epoch.num_nodes()); ++v) {
    ASSERT_EQ(epoch_partition.OwnerOf(v), partition.OwnerOf(v)) << "node " << v;
  }

  // The same request under a FrontierExchange over the pinned epoch.
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm("GraphSAGE", epoch);
  core::SamplerSession session(
      std::make_shared<core::CompiledPlan>(std::move(ap.program), core::SamplerOptions{}), epoch,
      std::move(ap.tensors));
  session.Warmup(Seeds({0, 1, 2, 3}));
  shard::FrontierExchange exchange(epoch_partition, 0);
  {
    core::HopObserverGuard observer(exchange);
    session.SampleSeeded(Seeds(seeds), 7);
  }
  int64_t expected = 0;
  for (const shard::HopRecord& hop : exchange.hops()) {
    expected += hop.bytes;
  }
  EXPECT_GT(expected, 0);
  EXPECT_EQ(server.stats().exchange_bytes, expected);
}

// feature_invalidations counts the feature rows a batch updates, once:
// cache partitions appear lazily, one per tenant served, and the count must
// not depend on how many exist when the batch lands.
TEST(DynServing, FeatureInvalidationsCountEachUpdateOnce) {
  for (const int tenants : {0, 3}) {
    graph::Graph g = testing::SmallRmat(400, 4000, 11);
    const int64_t dim = g.features().cols();
    GraphStore store(std::move(g));
    serving::ServerOptions options;
    options.num_workers = 1;
    options.serve_features = true;
    serving::Server server(options);
    server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "small", store));
    server.Start();
    for (int t = 0; t < tenants; ++t) {
      serving::SampleRequest request = testing::DefaultRequest("GraphSAGE", Seeds({1, 2, 3}), 7);
      request.tenant = "tenant" + std::to_string(t);
      ASSERT_EQ(server.Submit(request).get().status, serving::Status::kOk);
    }
    MutationBatch batch;
    for (const int32_t v : {3, 5, 8, 13, 21}) {
      batch.update_features.push_back({v, std::vector<float>(static_cast<size_t>(dim), 2.0f)});
    }
    store.Apply(batch);
    EXPECT_EQ(server.stats().feature_invalidations, 5) << tenants << " tenants served first";
    server.Stop();
  }
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
