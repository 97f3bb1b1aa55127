// Table 9: GPU resource consumption (extra device memory, SM utilization
// proxy) of gSampler vs DGL for the four complex algorithms on PD.

#include <cstdio>

#include "algorithms/algorithms.h"
#include "bench/harness.h"

namespace gs::bench {
namespace {

struct Resources {
  double memory_mb;
  double sm_percent;
};

Resources MeasureGsampler(BenchContext& ctx, const std::string& algo) {
  const device::DeviceProfile gpu = device::V100Sim();
  device::Device& dev = ctx.DeviceFor(gpu);
  const graph::Graph& g = ctx.GraphFor("PD", gpu);
  device::DeviceGuard guard(dev);

  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algo, g);
  core::SamplerOptions opts = ctx.config().gs_options;
  if (ap.updates_model) {
    opts.super_batch = 1;
  }
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  tensor::IdArray slice = tensor::IdArray::Empty(
      std::min<int64_t>(g.train_ids().size(), 16 * ctx.config().batch_size));
  std::copy_n(g.train_ids().data(), slice.size(), slice.data());
  sampler.SampleEpoch(slice, ctx.config().batch_size, nullptr);  // warmup + tuning

  const auto& before = dev.stream().counters();
  const double v0 = static_cast<double>(before.virtual_ns);
  const double o0 = before.occupancy_ns;
  const int64_t base_mem = dev.allocator().stats().bytes_in_use;
  dev.allocator().ResetPeak();
  sampler.SampleEpoch(slice, ctx.config().batch_size, nullptr);
  const auto& after = dev.stream().counters();
  Resources r;
  r.memory_mb =
      static_cast<double>(dev.allocator().stats().peak_bytes_in_use - base_mem) / 1e6;
  const double dv = static_cast<double>(after.virtual_ns) - v0;
  r.sm_percent = dv > 0 ? 100.0 * (after.occupancy_ns - o0) / dv : 0.0;
  return r;
}

Resources MeasureDgl(BenchContext& ctx, const std::string& algo) {
  const device::DeviceProfile gpu = device::V100Sim();
  device::Device& dev = ctx.DeviceFor(gpu);
  const graph::Graph& g = ctx.GraphFor("PD", gpu);
  device::DeviceGuard guard(dev);

  auto baseline = baselines::MakeBaseline("DGL-GPU", g);
  Rng rng(0xDEAD);
  std::vector<int32_t> fr(static_cast<size_t>(ctx.config().batch_size));
  for (size_t i = 0; i < fr.size(); ++i) {
    fr[i] = static_cast<int32_t>(g.train_ids()[static_cast<int64_t>(i)]);
  }
  const tensor::IdArray batch = tensor::IdArray::FromVector(fr);
  baseline->SampleBatch(algo, batch, rng);  // warmup

  const auto& before = dev.stream().counters();
  const double v0 = static_cast<double>(before.virtual_ns);
  const double o0 = before.occupancy_ns;
  const int64_t base_mem = dev.allocator().stats().bytes_in_use;
  dev.allocator().ResetPeak();
  for (int b = 0; b < 16; ++b) {
    baseline->SampleBatch(algo, batch, rng);
  }
  const auto& after = dev.stream().counters();
  Resources r;
  r.memory_mb =
      static_cast<double>(dev.allocator().stats().peak_bytes_in_use - base_mem) / 1e6;
  const double dv = static_cast<double>(after.virtual_ns) - v0;
  r.sm_percent = dv > 0 ? 100.0 * (after.occupancy_ns - o0) / dv : 0.0;
  return r;
}

void Run() {
  RunConfig config;
  config.dataset_scale = 0.5;
  BenchContext ctx(config);

  PrintTitle("Table 9 — GPU resource consumption, PD graph");
  PrintRow("algorithm", {"system", "mem (MB)", "SM (%)"});
  for (const std::string& algo :
       {std::string("LADIES"), std::string("AS-GCN"), std::string("PASS"),
        std::string("ShaDow")}) {
    const Resources mine = MeasureGsampler(ctx, algo);
    const Resources dgl = MeasureDgl(ctx, algo);
    char mem[64];
    char sm[64];
    std::snprintf(mem, sizeof(mem), "%.2f", mine.memory_mb);
    std::snprintf(sm, sizeof(sm), "%.1f", mine.sm_percent);
    PrintRow(algo, {"gSampler", mem, sm});
    std::snprintf(mem, sizeof(mem), "%.2f", dgl.memory_mb);
    std::snprintf(sm, sizeof(sm), "%.1f", dgl.sm_percent);
    PrintRow("", {"DGL", mem, sm});
  }
  std::printf("\n(Paper shape: gSampler's SM utilization is well above DGL's — 1.6-2.5x\n"
              " — thanks to fusion and super-batching; its memory use is lower for\n"
              " the compute-heavy algorithms, while super-batched LADIES trades some\n"
              " extra memory for utilization.)\n");
}

}  // namespace
}  // namespace gs::bench

int main() {
  gs::bench::Run();
  return 0;
}
