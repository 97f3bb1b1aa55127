// Figure 6: epoch sampling time vs mini-batch size for GraphSAGE and LADIES
// on the PD graph. Small batches leave the device under-utilized (fixed
// kernel-launch cost dominates), so epoch time falls and then flattens as
// the batch grows — the motivation for super-batch sampling (Section 4.4).

#include <cstdio>

#include "algorithms/algorithms.h"
#include "bench/harness.h"

namespace gs::bench {
namespace {

double EpochMs(BenchContext& ctx, const std::string& algo, int64_t batch_size) {
  RunConfig cfg = ctx.config();
  const device::DeviceProfile gpu = device::V100Sim();
  device::Device& dev = ctx.DeviceFor(gpu);
  const graph::Graph& g = ctx.GraphFor("PD", gpu);
  device::DeviceGuard guard(dev);

  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algo, g);
  core::SamplerOptions opts = cfg.gs_options;
  opts.super_batch = 1;  // isolate the plain batch-size effect
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  const tensor::IdArray& frontiers = g.train_ids();
  const int64_t total_batches = (frontiers.size() + batch_size - 1) / batch_size;
  const int64_t measured = std::min<int64_t>(total_batches, 24);

  // Warmup (layout calibration).
  tensor::IdArray first = tensor::IdArray::Empty(std::min(frontiers.size(), batch_size));
  std::copy_n(frontiers.data(), first.size(), first.data());
  sampler.Sample(first);

  tensor::IdArray slice =
      tensor::IdArray::Empty(std::min(frontiers.size(), measured * batch_size));
  std::copy_n(frontiers.data(), slice.size(), slice.data());
  const double before =
      static_cast<double>(device::Current().stream().counters().virtual_ns) / 1e6;
  sampler.SampleEpoch(slice, batch_size, nullptr);
  const double elapsed =
      static_cast<double>(device::Current().stream().counters().virtual_ns) / 1e6 - before;
  return elapsed * static_cast<double>(total_batches) / static_cast<double>(measured);
}

void Run() {
  RunConfig config;
  config.dataset_scale = 0.5;
  BenchContext ctx(config);

  PrintTitle("Figure 6 — epoch sampling time (ms) vs batch size, PD graph");
  std::vector<std::string> header;
  const std::vector<int64_t> batch_sizes = {64, 128, 256, 512, 1024, 2048, 4096};
  for (int64_t b : batch_sizes) {
    header.push_back(std::to_string(b));
  }
  PrintRow("batch size", header);

  for (const std::string& algo : {std::string("GraphSAGE"), std::string("LADIES")}) {
    std::vector<std::string> row;
    for (int64_t b : batch_sizes) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", EpochMs(ctx, algo, b));
      row.push_back(buf);
    }
    PrintRow(algo, row);
  }
  std::printf("\n(Paper shape: epoch time decreases with batch size, then stabilizes —\n"
              " the GPU is only saturated at large batches.)\n");
}

}  // namespace
}  // namespace gs::bench

int main() {
  gs::bench::Run();
  return 0;
}
