// Quickstart: express GraphSAGE with the matrix-centric API (Figure 3a of
// the paper), compile it with all optimizations, and sample an epoch.
//
//   build/examples/quickstart

#include <cstdio>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/trace.h"
#include "graph/datasets.h"

int main() {
  using namespace gs;

  // 1. Load a graph (a scaled Ogbn-Products analogue; see graph/datasets.h).
  graph::Graph g = graph::MakePD({.scale = 0.25, .weighted = true});
  std::printf("graph %s: %lld nodes, %lld edges\n", g.name().c_str(),
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()));

  // 2. Write the sampling program once against symbolic values — this is
  //    Figure 3(a) of the paper, one line per ECSF step.
  core::Builder b;
  core::MVal a = b.Graph();
  core::IVal frontier = b.Frontier();
  core::IVal cur = frontier;
  for (int64_t fanout : {int64_t{25}, int64_t{10}}) {
    core::MVal sub_a = a.Cols(cur);                      // Extract
    core::MVal sample = sub_a.IndividualSample(fanout);  // Select (uniform)
    b.Output(sample);                                    // Finalize
    cur = sample.Row();
  }
  b.Output(cur);

  // 3. Compile: the engine fuses extract+select, pre-computes invariants,
  //    calibrates data layouts, and auto-tunes the super-batch size.
  core::SamplerOptions options;
  options.super_batch = 0;  // auto
  core::SamplerSession sampler(std::move(b).Build(), g, {}, options);

  // 4. Sample one mini-batch and inspect the result.
  std::vector<int32_t> seeds;
  for (int i = 0; i < 512; ++i) {
    seeds.push_back(i);
  }
  std::vector<core::Value> out = sampler.Sample(tensor::IdArray::FromVector(seeds));
  std::printf("layer 1: %s\n", out[0].matrix.DebugString().c_str());
  std::printf("layer 2: %s\n", out[1].matrix.DebugString().c_str());
  std::printf("final frontier: %lld nodes\n", static_cast<long long>(out[2].ids.size()));

  // 5. Sample a full epoch and report the simulated device time.
  device::Stream& stream = device::Current().stream();
  const double t0 = static_cast<double>(stream.counters().virtual_ns) / 1e6;
  int64_t batches = 0;
  sampler.SampleEpoch(g.train_ids(), 512,
                      [&](int64_t, std::vector<core::Value>&) { ++batches; });
  const double t1 = static_cast<double>(stream.counters().virtual_ns) / 1e6;
  std::printf("epoch: %lld mini-batches in %.2f ms simulated device time "
              "(super-batch size %d)\n",
              static_cast<long long>(batches), t1 - t0, sampler.effective_super_batch());

  std::printf("\ncompiled program:\n%s", sampler.DebugString().c_str());
  return 0;
}
