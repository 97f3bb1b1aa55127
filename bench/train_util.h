// Shared helpers for the training-based benchmarks (Tables 1 and 8):
// sampler adapters that feed the gs::gnn trainer from either the gSampler
// engine or the eager baseline implementations.

#ifndef GSAMPLER_BENCH_TRAIN_UTIL_H_
#define GSAMPLER_BENCH_TRAIN_UTIL_H_

#include <memory>
#include <string>

#include "algorithms/algorithms.h"
#include "baselines/eager.h"
#include "core/engine.h"
#include "gnn/minibatch.h"
#include "gnn/trainer.h"
#include "graph/generator.h"

namespace gs::bench {

// The labelled training graph standing in for Ogbn-Products (Table 8's
// dataset): planted communities with learnable features.
inline graph::Graph MakeTrainingGraph(double scale = 1.0) {
  graph::PlantedPartitionParams p;
  p.name = "PD-train";
  p.num_nodes = static_cast<int64_t>(6000 * scale);
  p.num_communities = 8;
  p.intra_degree = 16.0;
  p.inter_degree = 3.0;
  p.feature_dim = 32;
  p.feature_noise = 3.5f;  // hard enough that accuracy lands near the
                           // paper's ~90% rather than saturating
  p.weighted = true;
  p.seed = 0x7D;
  return graph::MakePlantedPartitionGraph(p);
}

// gSampler-engine sampler: "sage" (seed-inclusive neighbor sampling) or
// "ladies"/"fastgcn" layer-wise programs. The returned callable owns the
// compiled sampler.
inline gnn::SampleFn MakeGsamplerFn(const graph::Graph& g, const std::string& kind,
                                    const core::SamplerOptions& options) {
  algorithms::AlgorithmProgram ap;
  if (kind == "sage") {
    ap = algorithms::GraphSage(g, {.fanouts = {10, 10}, .include_seeds = true});
  } else if (kind == "ladies") {
    ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 512});
  } else {
    ap = algorithms::FastGcn(g, {.num_layers = 2, .layer_width = 512});
  }
  auto sampler = std::make_shared<core::SamplerSession>(std::move(ap.program), g,
                                                        std::move(ap.tensors), options);
  return [sampler](const tensor::IdArray& seeds, Rng&) {
    return gnn::FromSamplerOutputs(sampler->Sample(seeds), seeds);
  };
}

// Eager (DGL/PyG-style) sampler on whatever device is current.
inline gnn::SampleFn MakeEagerFn(const graph::Graph& g, const std::string& kind) {
  return [&g, kind](const tensor::IdArray& seeds, Rng& rng) {
    const baselines::eager::Style style;
    baselines::BaselineResult result;
    if (kind == "sage") {
      result = baselines::eager::GraphSage(g, seeds, {10, 10}, rng, style,
                                           /*include_seeds=*/true);
    } else if (kind == "ladies") {
      result = baselines::eager::Ladies(g, seeds, 2, 512, rng, style);
    } else {
      result = baselines::eager::FastGcn(g, seeds, 2, 512, rng, style);
    }
    gnn::MiniBatch batch;
    batch.seeds = seeds;
    batch.layers = std::move(result.layers);
    return batch;
  };
}

}  // namespace gs::bench

#endif  // GSAMPLER_BENCH_TRAIN_UTIL_H_
