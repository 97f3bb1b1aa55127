// End-to-end training example: GraphSAGE on a labelled community graph,
// sampling with the gSampler engine and training a 2-layer mean-aggregator
// model with the built-in trainer. Runs the loop twice — synchronously and
// through the 3-stage prefetch pipeline (sample -> feature -> train) — and
// prints the per-epoch accuracy, the sampling share of the training time,
// and the pipeline's per-stage metrics (the Table 1 / Table 8 pipeline in
// miniature, plus the overlap the paper's Section 2 motivates).
//
//   build/examples/train_graphsage

#include <cstdio>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "gnn/minibatch.h"
#include "gnn/trainer.h"
#include "graph/generator.h"

int main() {
  using namespace gs;

  graph::PlantedPartitionParams params;
  params.name = "communities";
  params.num_nodes = 4000;
  params.num_communities = 8;
  params.intra_degree = 16.0;
  params.inter_degree = 3.0;
  params.feature_dim = 32;
  params.weighted = true;
  params.seed = 7;
  graph::Graph g = graph::MakePlantedPartitionGraph(params);
  std::printf("training graph: %lld nodes, %lld edges, %d classes\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()), g.num_classes());

  // Trains once at the given prefetch depth with a fresh sampler, so both
  // runs see identical sampler state (and therefore identical batches).
  auto run = [&](int pipeline_depth) {
    // Seed-inclusive GraphSAGE sampling (the trainer needs layer-l
    // representations for the layer-(l-1) targets too).
    algorithms::AlgorithmProgram ap =
        algorithms::GraphSage(g, {.fanouts = {10, 10}, .include_seeds = true});
    core::SamplerOptions options;
    core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), options);

    gnn::TrainerConfig config;
    config.model = gnn::ModelKind::kSage;
    config.epochs = 8;
    config.batch_size = 256;
    config.hidden = 64;
    config.learning_rate = 0.4f;
    config.pipeline_depth = pipeline_depth;

    return gnn::Train(
        g,
        [&sampler](const tensor::IdArray& seeds, Rng&) {
          return gnn::FromSamplerOutputs(sampler.Sample(seeds), seeds);
        },
        config);
  };

  gnn::TrainOutcome sync = run(/*pipeline_depth=*/0);
  for (size_t epoch = 0; epoch < sync.epoch_accuracy.size(); ++epoch) {
    std::printf("epoch %2zu: validation accuracy %.2f%%\n", epoch + 1,
                100.0 * sync.epoch_accuracy[epoch]);
  }
  std::printf("\nsynchronous: total simulated time %.2f s (sampling %.1f%%, model %.1f%%)\n",
              sync.total_ms / 1e3, 100.0 * sync.SamplingRatio(),
              100.0 * (1.0 - sync.SamplingRatio()));
  std::printf("final accuracy: %.2f%%\n", 100.0 * sync.final_accuracy);

  gnn::TrainOutcome piped = run(/*pipeline_depth=*/2);
  std::printf("\npipelined (depth 2): total simulated time %.2f s — same losses, "
              "same accuracy (%.2f%%), %.2fx faster epochs\n",
              piped.total_ms / 1e3, 100.0 * piped.final_accuracy,
              piped.total_ms > 0 ? sync.total_ms / piped.total_ms : 0.0);
  std::printf("%s", piped.pipeline.ToString().c_str());
  return 0;
}
