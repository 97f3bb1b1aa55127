// Layer-wise sampling walkthrough: LADIES (Figure 3b of the paper) with a
// look inside the optimization pipeline — the program before and after the
// passes, which nodes were pre-computed, and the per-configuration epoch
// times.
//
//   build/examples/ladies_pipeline

#include <algorithm>
#include <cstdio>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "graph/datasets.h"

namespace {

double EpochMs(const gs::graph::Graph& g, const gs::core::SamplerOptions& options) {
  using namespace gs;
  algorithms::AlgorithmProgram ap =
      algorithms::Ladies(g, {.num_layers = 2, .layer_width = 512});
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), options);
  // Warmup triggers layout calibration and super-batch auto-tuning outside
  // the measured region.
  tensor::IdArray prefix = tensor::IdArray::Empty(std::min<int64_t>(g.train_ids().size(),
                                                                    256 * 8));
  std::copy_n(g.train_ids().data(), prefix.size(), prefix.data());
  sampler.SampleEpoch(prefix, 256, nullptr);
  device::Stream& stream = device::Current().stream();
  const double t0 = static_cast<double>(stream.counters().virtual_ns) / 1e6;
  sampler.SampleEpoch(g.train_ids(), 256, nullptr);
  return static_cast<double>(stream.counters().virtual_ns) / 1e6 - t0;
}

}  // namespace

int main() {
  using namespace gs;
  graph::Graph g = graph::MakePD({.scale = 0.25, .weighted = true});

  // The traced program, before optimization.
  algorithms::AlgorithmProgram traced =
      algorithms::Ladies(g, {.num_layers = 2, .layer_width = 512});
  std::printf("=== traced LADIES program ===\n%s\n", traced.program.ToString().c_str());

  // After the pass pipeline: note the hoisted, pre-computed A**2
  // ([invariant] eltwise_scalar on the graph input), the layer-wise
  // Extract-Select nodes (fused_slice_reduce, fused_slice_collective_sample)
  // reading the frontier's columns in place, and the fused
  // edge-map(-reduce) nodes replacing the normalization chain.
  core::SamplerOptions options;
  algorithms::AlgorithmProgram compiled_copy =
      algorithms::Ladies(g, {.num_layers = 2, .layer_width = 512});
  core::SamplerSession sampler(std::move(compiled_copy.program), g,
                               std::move(compiled_copy.tensors), options);
  std::printf("=== optimized LADIES program ===\n%s\n", sampler.DebugString().c_str());
  std::printf("pass report: %s\n\n", sampler.report().ToString().c_str());

  // Configuration sweep (the Figure 10 story in miniature).
  struct Config {
    const char* label;
    core::SamplerOptions options;
  };
  core::SamplerOptions plain;  // greedy formats, no other optimizations
  plain.enable_fusion = false;
  plain.enable_preprocessing = false;
  plain.enable_layout_selection = false;
  core::SamplerOptions compute = plain;
  compute.enable_fusion = true;
  compute.enable_preprocessing = true;
  core::SamplerOptions layout = compute;
  layout.enable_layout_selection = true;
  core::SamplerOptions full = layout;
  full.super_batch = 0;

  const Config configs[] = {
      {"plain (no optimizations)", plain},
      {"+ fusion & pre-processing", compute},
      {"+ data layout selection", layout},
      {"+ super-batch (full gSampler)", full},
  };
  std::printf("=== LADIES epoch time by configuration ===\n");
  for (const Config& c : configs) {
    std::printf("%-32s %8.2f ms\n", c.label, EpochMs(g, c.options));
  }
  return 0;
}
