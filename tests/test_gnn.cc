// Tests for the GNN training substrate: models learn a planted community
// structure, losses decrease, and the trainer's virtual-time split behaves.

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "gnn/minibatch.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "graph/generator.h"
#include "tests/testing.h"

namespace gs::gnn {
namespace {

graph::Graph TrainingGraph() {
  graph::PlantedPartitionParams p;
  p.num_nodes = 800;
  p.num_communities = 4;
  p.intra_degree = 14.0;
  p.inter_degree = 2.0;
  p.feature_dim = 16;
  p.feature_noise = 1.0f;
  p.weighted = true;
  p.seed = 71;
  return graph::MakePlantedPartitionGraph(p);
}

SampleFn SageSampler(core::SamplerSession& sampler) {
  return [&sampler](const tensor::IdArray& seeds, Rng&) {
    return FromSamplerOutputs(sampler.Sample(seeds), seeds);
  };
}

TEST(SageTraining, LearnsPlantedCommunities) {
  graph::Graph g = TrainingGraph();
  algorithms::AlgorithmProgram ap =
      algorithms::GraphSage(g, {.fanouts = {10, 5}, .include_seeds = true});
  core::SamplerOptions opts;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  TrainerConfig config;
  config.model = ModelKind::kSage;
  config.epochs = 6;
  config.batch_size = 128;
  config.learning_rate = 0.4f;
  config.hidden = 32;
  TrainOutcome outcome = Train(g, SageSampler(sampler), config);
  EXPECT_GT(outcome.final_accuracy, 0.8f)
      << "SAGE failed to learn the planted partition";
  EXPECT_GT(outcome.sample_ms, 0.0);
  EXPECT_GT(outcome.model_ms, 0.0);
  EXPECT_GT(outcome.SamplingRatio(), 0.0);
  EXPECT_LT(outcome.SamplingRatio(), 1.0);
}

TEST(GcnTraining, LearnsFromLadiesSamples) {
  graph::Graph g = TrainingGraph();
  algorithms::AlgorithmProgram ap =
      algorithms::Ladies(g, {.num_layers = 2, .layer_width = 256});
  core::SamplerOptions opts;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  TrainerConfig config;
  config.model = ModelKind::kGcn;
  config.epochs = 8;
  config.batch_size = 128;
  config.learning_rate = 0.4f;
  config.hidden = 32;
  TrainOutcome outcome = Train(g, SageSampler(sampler), config);
  EXPECT_GT(outcome.final_accuracy, 0.6f) << "GCN failed to learn from LADIES batches";
}

TEST(SageModel, LossDecreasesOnFixedBatch) {
  graph::Graph g = TrainingGraph();
  algorithms::AlgorithmProgram ap =
      algorithms::GraphSage(g, {.fanouts = {8, 4}, .include_seeds = true});
  core::SamplerOptions opts;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  std::vector<int32_t> seed_vec;
  for (int i = 0; i < 64; ++i) {
    seed_vec.push_back(i);
  }
  const tensor::IdArray seeds = tensor::IdArray::FromVector(seed_vec);
  MiniBatch batch = FromSamplerOutputs(sampler.Sample(seeds), seeds);

  SageModel model(g.features().cols(), 32, g.num_classes(), 5);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 30; ++step) {
    StepStats s = model.TrainStep(batch, g.features(), g.labels(), 0.3f);
    if (step == 0) {
      first_loss = s.loss;
    }
    last_loss = s.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.7f);
}

TEST(GcnModel, LossDecreasesOnFixedBatch) {
  graph::Graph g = TrainingGraph();
  algorithms::AlgorithmProgram ap =
      algorithms::Ladies(g, {.num_layers = 2, .layer_width = 128});
  core::SamplerOptions opts;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  std::vector<int32_t> seed_vec;
  for (int i = 0; i < 64; ++i) {
    seed_vec.push_back(i);
  }
  const tensor::IdArray seeds = tensor::IdArray::FromVector(seed_vec);
  MiniBatch batch = FromSamplerOutputs(sampler.Sample(seeds), seeds);

  GcnModel model(g.features().cols(), 32, g.num_classes(), 5);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 40; ++step) {
    StepStats s = model.TrainStep(batch, g.features(), g.labels(), 0.3f);
    if (step == 0) {
      first_loss = s.loss;
    }
    last_loss = s.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.7f);
}

TEST(Trainer, SuperBatchedSamplerTrainsToo) {
  // The trainer consumes one batch at a time, but a sampler wrapping
  // SampleEpoch-produced batches must behave identically; spot-check that a
  // seed-inclusive SAGE program under super-batch splitting feeds valid
  // mini-batches.
  graph::Graph g = TrainingGraph();
  algorithms::AlgorithmProgram ap =
      algorithms::GraphSage(g, {.fanouts = {6, 3}, .include_seeds = true});
  core::SamplerOptions opts;
  opts.super_batch = 4;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  SageModel model(g.features().cols(), 16, g.num_classes(), 3);
  int64_t trained = 0;
  sampler.SampleEpoch(g.train_ids(), 128, [&](int64_t index, std::vector<core::Value>& out) {
    tensor::IdArray seeds = tensor::IdArray::Empty(
        std::min<int64_t>(128, g.train_ids().size() - index * 128));
    std::copy_n(g.train_ids().data() + index * 128, seeds.size(), seeds.data());
    MiniBatch batch = FromSamplerOutputs(out, seeds);
    StepStats s = model.TrainStep(batch, g.features(), g.labels(), 0.2f);
    EXPECT_GT(s.count, 0);
    ++trained;
  });
  EXPECT_GT(trained, 2);
}

TEST(MiniBatch, FromSamplerOutputsCollectsMatrices) {
  graph::Graph g = TrainingGraph();
  algorithms::AlgorithmProgram ap =
      algorithms::GraphSage(g, {.fanouts = {4, 4}, .include_seeds = true});
  core::SamplerOptions opts;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  const tensor::IdArray seeds = tensor::IdArray::FromVector({0, 1, 2});
  MiniBatch batch = FromSamplerOutputs(sampler.Sample(seeds), seeds);
  EXPECT_EQ(batch.layers.size(), 2u);
  EXPECT_EQ(batch.layers[0].num_cols(), 3);
  EXPECT_EQ(batch.seeds.size(), 3);
}

TEST(Trainer, RequiresLabels) {
  graph::Graph g = gs::testing::SmallRmat();  // no labels
  TrainerConfig config;
  EXPECT_THROW(Train(
                   g, [](const tensor::IdArray&, Rng&) { return MiniBatch{}; }, config),
               Error);
}

}  // namespace
}  // namespace gs::gnn
