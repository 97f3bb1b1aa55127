// Tests for the pipelined sampling service (src/pipeline/): bounded queue
// semantics, the executor's ordering/metrics/abort behaviour, the analytic
// virtual-time overlap model, and the end-to-end guarantee that a pipelined
// training run is bit-identical to the synchronous one.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "core/engine.h"
#include "device/device.h"
#include "device/stream.h"
#include "gnn/minibatch.h"
#include "gnn/trainer.h"
#include "graph/generator.h"
#include "pipeline/executor.h"
#include "pipeline/queue.h"
#include "tests/testing.h"

namespace gs::pipeline {
namespace {

// Profile where RecordKernel(v, {}) advances the virtual clock by exactly v:
// no launch overhead, no byte penalties, unit compute scale.
device::DeviceProfile ExactProfile() {
  device::DeviceProfile p;
  p.name = "exact";
  p.launch_overhead_ns = 0;
  p.compute_scale = 1.0;
  p.dense_compute_scale = 1.0;
  p.hbm_penalty_ns_per_byte = 0.0;
  p.pcie_ns_per_byte = 0.0;
  return p;
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueue, FifoAndStats) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.Push(i));
  }
  for (int i = 0; i < 3; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  q.Close();
  EXPECT_FALSE(q.Pop().has_value());  // closed + drained
  const QueueStats s = q.stats();
  EXPECT_EQ(s.capacity, 4);
  EXPECT_EQ(s.pushes, 3);
  EXPECT_EQ(s.pops, 3);
}

TEST(BoundedQueue, PushAfterCloseFails) {
  BoundedQueue<int> q(2);
  q.Close();
  EXPECT_FALSE(q.Push(1));
}

TEST(BoundedQueue, CloseDrainsRemainingItems) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(7));
  ASSERT_TRUE(q.Push(8));
  q.Close();
  EXPECT_EQ(q.Pop().value(), 7);  // close lets buffered items drain
  EXPECT_EQ(q.Pop().value(), 8);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueue, CancelDropsPendingItems) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  q.Cancel();
  EXPECT_FALSE(q.Pop().has_value());  // cancelled: pending items dropped
  EXPECT_FALSE(q.Push(2));
}

TEST(BoundedQueue, PushBlocksAtCapacityUntilPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(1));  // must block until the consumer pops
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 0);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  const QueueStats s = q.stats();
  EXPECT_GE(s.push_blocked, 1);
  // Occupancy histogram is bounded by the capacity.
  EXPECT_LE(s.occupancy_hist.size(), 2u);
}

TEST(BoundedQueue, BlockedProducerDroppedByCloseIsAccounted) {
  // Regression: a producer blocked on a full queue whose item is dropped when
  // Close() arrives used to vanish from the stats — neither a push nor a
  // rejection — so pipeline metrics silently lost batches.
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result.store(q.Push(1)); });
  // Wait until the producer is provably parked in Push.
  while (q.stats().push_blocked == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  q.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());
  EXPECT_FALSE(q.Push(2));  // closed-queue refusal is also an attempt
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushes, 1);
  EXPECT_EQ(s.push_rejected, 2);
  EXPECT_EQ(s.push_attempts, s.pushes + s.push_rejected);
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  BoundedQueue<int> q(3);
  constexpr int kPerProducer = 200;
  std::vector<std::thread> workers;
  for (int p = 0; p < 2; ++p) {
    workers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::atomic<int64_t> sum{0};
  std::atomic<int> popped{0};
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  workers[0].join();
  workers[1].join();
  q.Close();
  workers[2].join();
  workers[3].join();
  EXPECT_EQ(popped.load(), 2 * kPerProducer);
  EXPECT_EQ(sum.load(), (2 * kPerProducer - 1) * (2 * kPerProducer) / 2);
}

// --------------------------------------------------------------- Executor

TEST(Executor, InlineDepthZeroRunsStagesInOrder) {
  std::vector<std::string> trace;
  std::vector<Stage> stages;
  stages.push_back({"a", [&](int64_t i) { trace.push_back("a" + std::to_string(i)); }});
  stages.push_back({"b", [&](int64_t i) { trace.push_back("b" + std::to_string(i)); }});
  Executor exec(std::move(stages), Options{0});
  exec.Run(3);
  const std::vector<std::string> want = {"a0", "b0", "a1", "b1", "a2", "b2"};
  EXPECT_EQ(trace, want);
  EXPECT_EQ(exec.metrics().items, 3);
  EXPECT_EQ(exec.metrics().runs, 1);
  EXPECT_EQ(exec.metrics().stages[0].items, 3);
  EXPECT_EQ(exec.metrics().stages[1].items, 3);
}

TEST(Executor, PipelinedKeepsPerStageOrderAndItemStageOrder) {
  device::Device dev(ExactProfile());
  device::DeviceGuard guard(dev);
  constexpr int64_t kItems = 16;
  // seen[i] counts completed stages of item i; a stage may only see the
  // item after every earlier stage finished it.
  std::vector<std::atomic<int>> seen(kItems);
  std::vector<std::vector<int64_t>> order(3);
  std::vector<Stage> stages;
  for (int s = 0; s < 3; ++s) {
    stages.push_back({"s" + std::to_string(s), [&, s](int64_t i) {
                        EXPECT_EQ(seen[i].load(), s) << "stage " << s << " item " << i;
                        order[s].push_back(i);
                        seen[i].fetch_add(1);
                      }});
  }
  Executor exec(std::move(stages), Options{2});
  exec.Run(kItems);
  std::vector<int64_t> want(kItems);
  std::iota(want.begin(), want.end(), 0);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(order[s], want) << "stage " << s << " processed items out of order";
  }
  EXPECT_EQ(exec.metrics().items, kItems);
}

TEST(Executor, OverlapMakespanMatchesAnalyticModel) {
  device::Device dev(ExactProfile());
  device::DeviceGuard guard(dev);
  constexpr int64_t kItems = 8;
  constexpr int64_t kFast = 10'000;  // producer cost per item
  constexpr int64_t kSlow = 30'000;  // consumer cost per item
  std::vector<Stage> stages;
  stages.push_back({"produce", [&](int64_t) {
                      device::Current().stream().RecordKernel(kFast, {});
                    }});
  stages.push_back({"consume", [&](int64_t) {
                      device::Current().stream().RecordKernel(kSlow, {});
                    }});
  Executor exec(std::move(stages), Options{2});

  device::Stream& parent = dev.stream();
  const device::StreamCounters before = parent.counters();
  exec.Run(kItems);
  const device::StreamCounters after = parent.counters();

  // With the consumer slower than the producer and depth >= 1, the pipeline
  // is consumer-bound: makespan = first item's produce cost + n consume
  // costs, exactly.
  const int64_t expected = kFast + kItems * kSlow;
  EXPECT_EQ(exec.metrics().epoch_virtual_ns, expected);
  EXPECT_EQ(exec.metrics().serial_virtual_ns, kItems * (kFast + kSlow));
  // The caller's stream advanced by the makespan, not the serial sum...
  EXPECT_EQ(after.virtual_ns - before.virtual_ns, expected);
  // ...while resource totals fold in everything both stages did.
  EXPECT_EQ(after.kernels_launched - before.kernels_launched, 2 * kItems);
  // The consumer starved only while waiting for the first item; the
  // producer absorbed the rate mismatch as backpressure.
  EXPECT_EQ(exec.metrics().stages[1].starved_ns, kFast);
  EXPECT_GT(exec.metrics().stages[0].backpressure_ns, 0);
  EXPECT_EQ(exec.metrics().stages[1].backpressure_ns, 0);
  EXPECT_GT(exec.metrics().OverlapSpeedup(), 1.0);
}

TEST(Executor, BackpressureAtDepthOneBoundsQueueOccupancy) {
  device::Device dev(ExactProfile());
  device::DeviceGuard guard(dev);
  std::vector<Stage> stages;
  stages.push_back({"produce", [&](int64_t) {
                      device::Current().stream().RecordKernel(1'000, {});
                    }});
  stages.push_back({"consume", [&](int64_t) {
                      device::Current().stream().RecordKernel(50'000, {});
                    }});
  Executor exec(std::move(stages), Options{1});
  exec.Run(12);
  const StageMetrics& producer = exec.metrics().stages[0];
  // A fast producer against a slow consumer at depth 1 must report
  // backpressure stall time on its virtual timeline.
  EXPECT_GT(producer.backpressure_ns, 0);
  // The prefetch queue held at most `depth` items: the occupancy histogram
  // has no bucket beyond index 1.
  const QueueStats& q = producer.out_queue;
  EXPECT_EQ(q.capacity, 1);
  ASSERT_LE(q.occupancy_hist.size(), 2u);
  int64_t recorded = 0;
  for (int64_t c : q.occupancy_hist) {
    recorded += c;
  }
  EXPECT_EQ(recorded, q.pushes + q.pops);
}

TEST(Executor, StageExceptionDrainsAndRethrowsWithContext) {
  std::atomic<int64_t> produced{0};
  std::atomic<bool> threw{false};
  std::vector<Stage> stages;
  stages.push_back({"sample", [&](int64_t) { produced.fetch_add(1); }});
  stages.push_back({"train", [&](int64_t i) {
                      if (i == 3 && !threw.exchange(true)) {
                        throw Error("boom");
                      }
                    }});
  Executor exec(std::move(stages), Options{2});
  try {
    exec.Run(100);
    FAIL() << "expected the stage failure to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("train"), std::string::npos)
        << "error should name the failing stage: " << e.what();
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // Upstream was cancelled: the producer stopped far short of the epoch.
  EXPECT_LT(produced.load(), 100);
  // The executor recovered: the next run completes normally.
  exec.Run(5);
  EXPECT_EQ(exec.metrics().stages[1].items, 3 + 5);
}

TEST(Executor, InlineExceptionAlsoNamesStage) {
  std::vector<Stage> stages;
  stages.push_back({"only", [&](int64_t) { throw Error("inline-boom"); }});
  Executor exec(std::move(stages), Options{0});
  try {
    exec.Run(1);
    FAIL() << "expected rethrow";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("only"), std::string::npos);
  }
}

TEST(Executor, ZeroItemsAndEmptyPayloadsFlowThroughAllStages) {
  device::Device dev(ExactProfile());
  device::DeviceGuard guard(dev);
  // Items 0, 3, 6, ... carry empty payloads; every stage must still visit
  // them (empty-frontier mini-batches flow through the real pipeline the
  // same way).
  std::vector<std::vector<int32_t>> slots(8);
  std::atomic<int64_t> trained{0};
  std::vector<Stage> stages;
  stages.push_back({"sample", [&](int64_t i) {
                      slots[i % slots.size()].assign(i % 3 == 0 ? 0 : 4, static_cast<int32_t>(i));
                    }});
  stages.push_back({"feature", [&](int64_t i) {
                      for (int32_t& v : slots[i % slots.size()]) {
                        v += 1;
                      }
                    }});
  stages.push_back({"train", [&](int64_t i) {
                      trained.fetch_add(1 + static_cast<int64_t>(slots[i % slots.size()].size()));
                    }});
  Executor exec(std::move(stages), Options{2});
  exec.Run(0);  // empty epoch: no deadlock, no items
  EXPECT_EQ(exec.metrics().items, 0);
  exec.Run(9);
  EXPECT_EQ(exec.metrics().items, 9);
  EXPECT_EQ(trained.load(), 9 + 6 * 4);
}

// ------------------------------------------------- device-layer concurrency

TEST(Stream, ConcurrentRecordKernelKeepsExactTotals) {
  device::Stream stream(ExactProfile());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stream] {
      for (int i = 0; i < kPerThread; ++i) {
        stream.RecordKernel(7, {.hbm_bytes = 3, .pcie_bytes = 2});
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const device::StreamCounters c = stream.counters();
  EXPECT_EQ(c.kernels_launched, kThreads * kPerThread);
  EXPECT_EQ(c.virtual_ns, int64_t{7} * kThreads * kPerThread);
  EXPECT_EQ(c.hbm_bytes, int64_t{3} * kThreads * kPerThread);
  EXPECT_EQ(c.pcie_bytes, int64_t{2} * kThreads * kPerThread);
}

// ------------------------------------------------------------- end-to-end

graph::Graph TrainingGraph() {
  graph::PlantedPartitionParams p;
  p.num_nodes = 600;
  p.num_communities = 4;
  p.intra_degree = 12.0;
  p.inter_degree = 2.0;
  p.feature_dim = 16;
  p.weighted = true;
  p.seed = 23;
  return graph::MakePlantedPartitionGraph(p);
}

// Per-batch digest of which nodes a sampler produced, for comparing sampled
// node sets across pipeline depths.
using BatchLog = std::vector<std::vector<int32_t>>;

gnn::SampleFn LoggingSampler(core::SamplerSession& sampler, BatchLog& log) {
  return [&sampler, &log](const tensor::IdArray& seeds, Rng&) {
    gnn::MiniBatch batch = gnn::FromSamplerOutputs(sampler.Sample(seeds), seeds);
    std::vector<int32_t> nodes;
    for (const tensor::IdArray& list : gnn::NodeLists(batch)) {
      nodes.insert(nodes.end(), list.data(), list.data() + list.size());
    }
    log.push_back(std::move(nodes));
    return batch;
  };
}

struct AlgoCase {
  const char* kind;
  gnn::ModelKind model;
};

gnn::TrainOutcome TrainOnce(const graph::Graph& g, const AlgoCase& algo, int depth,
                            BatchLog& log) {
  algorithms::AlgorithmProgram ap;
  if (std::string(algo.kind) == "sage") {
    ap = algorithms::GraphSage(g, {.fanouts = {8, 6}, .include_seeds = true});
  } else if (std::string(algo.kind) == "ladies") {
    ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 192});
  } else {
    ap = algorithms::FastGcn(g, {.num_layers = 2, .layer_width = 192});
  }
  // Layout calibration measures timing, which pipelining changes; keep every
  // timing-dependent knob off so both runs compile identical plans.
  core::SamplerOptions opts;
  opts.enable_layout_selection = false;
  opts.super_batch = 1;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  gnn::TrainerConfig config;
  config.model = algo.model;
  config.epochs = 3;
  config.batch_size = 96;
  config.learning_rate = 0.3f;
  config.hidden = 16;
  config.pipeline_depth = depth;
  return gnn::Train(g, LoggingSampler(sampler, log), config);
}

TEST(PipelinedTraining, BitIdenticalToSynchronousAcrossAlgorithms) {
  graph::Graph g = TrainingGraph();
  const AlgoCase cases[] = {{"sage", gnn::ModelKind::kSage},
                            {"ladies", gnn::ModelKind::kGcn},
                            {"fastgcn", gnn::ModelKind::kGcn}};
  for (const AlgoCase& algo : cases) {
    BatchLog sync_log, piped_log;
    const gnn::TrainOutcome sync = TrainOnce(g, algo, /*depth=*/0, sync_log);
    const gnn::TrainOutcome piped = TrainOnce(g, algo, /*depth=*/2, piped_log);

    ASSERT_FALSE(sync.step_loss.empty());
    ASSERT_EQ(sync.step_loss.size(), piped.step_loss.size()) << algo.kind;
    for (size_t i = 0; i < sync.step_loss.size(); ++i) {
      EXPECT_EQ(sync.step_loss[i], piped.step_loss[i])
          << algo.kind << " loss diverged at step " << i;
    }
    EXPECT_EQ(sync.epoch_accuracy, piped.epoch_accuracy) << algo.kind;
    ASSERT_EQ(sync_log.size(), piped_log.size()) << algo.kind;
    for (size_t b = 0; b < sync_log.size(); ++b) {
      EXPECT_EQ(sync_log[b], piped_log[b])
          << algo.kind << " sampled different nodes in batch " << b;
    }
    // The pipelined run overlapped sampling with training: its simulated
    // epoch makespan must undercut the serial sum of its own stage busy
    // times. (Compared within one run — kernel costs come from measured CPU
    // time, so cross-run comparisons would be wall-clock-noise sensitive.)
    EXPECT_GT(piped.pipeline.OverlapSpeedup(), 1.0) << algo.kind;
    EXPECT_LT(piped.total_ms, piped.pipeline.SerialMs()) << algo.kind;
  }
}

TEST(PipelinedTraining, DepthOneMatchesDepthFour) {
  graph::Graph g = TrainingGraph();
  const AlgoCase algo{"sage", gnn::ModelKind::kSage};
  BatchLog log1, log4;
  const gnn::TrainOutcome d1 = TrainOnce(g, algo, /*depth=*/1, log1);
  const gnn::TrainOutcome d4 = TrainOnce(g, algo, /*depth=*/4, log4);
  EXPECT_EQ(d1.step_loss, d4.step_loss);
  EXPECT_EQ(d1.epoch_accuracy, d4.epoch_accuracy);
}

// -------------------------------------------------------- BatchProducer

TEST(BatchProducer, MatchesSampleEpoch) {
  graph::Graph g = testing::SmallRmat(400, 4000, 5);
  auto make_sampler = [&] {
    algorithms::AlgorithmProgram ap =
        algorithms::GraphSage(g, {.fanouts = {6, 4}, .include_seeds = true});
    core::SamplerOptions opts;
    opts.enable_layout_selection = false;
    opts.super_batch = 2;  // exercise super-batch grouping through Next()
    return std::make_unique<core::SamplerSession>(std::move(ap.program), g,
                                                  std::move(ap.tensors), opts);
  };

  // Digest every output value per batch from the reference path...
  std::vector<std::vector<int64_t>> want;
  {
    const std::unique_ptr<core::SamplerSession> sampler = make_sampler();
    sampler->SampleEpoch(g.train_ids(), 64, [&](int64_t index, std::vector<core::Value>& out) {
      EXPECT_EQ(index, static_cast<int64_t>(want.size()));
      std::vector<int64_t> digest;
      for (const core::Value& v : out) {
        digest.push_back(v.kind == core::ValueKind::kMatrix ? v.matrix.nnz() : v.ids.size());
      }
      want.push_back(std::move(digest));
    });
  }
  ASSERT_FALSE(want.empty());

  // ...and compare with the pull API on a fresh, identically-seeded sampler.
  const std::unique_ptr<core::SamplerSession> sampler = make_sampler();
  core::BatchProducer producer(*sampler, g.train_ids(), 64);
  EXPECT_EQ(producer.num_batches(), static_cast<int64_t>(want.size()));
  core::EpochBatch batch;
  int64_t count = 0;
  while (producer.Next(&batch)) {
    ASSERT_LT(count, static_cast<int64_t>(want.size()));
    EXPECT_EQ(batch.index, count);
    std::vector<int64_t> digest;
    for (const core::Value& v : batch.outputs) {
      digest.push_back(v.kind == core::ValueKind::kMatrix ? v.matrix.nnz() : v.ids.size());
    }
    EXPECT_EQ(digest, want[static_cast<size_t>(count)]) << "batch " << count;
    ++count;
  }
  EXPECT_EQ(count, static_cast<int64_t>(want.size()));
}

}  // namespace
}  // namespace gs::pipeline
