// Ablation for the paper's future direction (1): "exploit the skewed access
// of graph data to design smart caching strategies". Sweeps the simulated
// GPU-side hot-node cache over the UVA-resident PP graph and reports PCIe
// traffic and epoch time for GraphSAGE — skewed access means even a small
// cache absorbs most adjacency fetches.

#include <cstdio>

#include "algorithms/algorithms.h"
#include "bench/harness.h"

namespace gs::bench {
namespace {

struct Sweep {
  double cache_fraction;  // slots as a fraction of |V|
  double epoch_ms;
  double pcie_mb;
  double hit_rate;
};

Sweep RunWithCache(double cache_fraction) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  graph::Graph g = graph::MakeDataset("PP", {.scale = 0.5, .weighted = true});
  const int64_t slots = std::max<int64_t>(
      4, static_cast<int64_t>(static_cast<double>(g.num_nodes()) * cache_fraction));
  // Replace the default cache with the swept size.
  feature::HotSetCache cache(slots);
  g.mutable_adj().SetUvaCache(&cache);

  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {});
  core::SamplerOptions options;
  options.super_batch = 1;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), options);

  tensor::IdArray slice = tensor::IdArray::Empty(std::min<int64_t>(g.train_ids().size(),
                                                                   16 * 256));
  std::copy_n(g.train_ids().data(), slice.size(), slice.data());
  sampler.SampleEpoch(slice, 256, nullptr);  // warmup fills the cache

  const device::StreamCounters before = dev.stream().counters();
  cache.Reset();
  sampler.SampleEpoch(slice, 256, nullptr);
  const device::StreamCounters after = dev.stream().counters();
  Sweep s;
  s.cache_fraction = cache_fraction;
  s.epoch_ms = static_cast<double>(after.virtual_ns - before.virtual_ns) / 1e6;
  s.pcie_mb = static_cast<double>(after.pcie_bytes - before.pcie_bytes) / 1e6;
  s.hit_rate = cache.hits() + cache.misses() > 0
                   ? static_cast<double>(cache.hits()) /
                         static_cast<double>(cache.hits() + cache.misses())
                   : 0.0;
  return s;
}

void Run() {
  PrintTitle("UVA hot-node cache sweep — GraphSAGE on PP (future direction 1)");
  PrintRow("cache (|V| frac)", {"epoch ms", "PCIe MB", "hit rate"});
  for (double fraction : {0.0001, 0.001, 0.01, 0.03, 0.1, 0.3}) {
    const Sweep s = RunWithCache(fraction);
    char label[64];
    char ms[64];
    char mb[64];
    char hit[64];
    std::snprintf(label, sizeof(label), "%.4f", s.cache_fraction);
    std::snprintf(ms, sizeof(ms), "%.1f", s.epoch_ms);
    std::snprintf(mb, sizeof(mb), "%.2f", s.pcie_mb);
    std::snprintf(hit, sizeof(hit), "%.1f%%", 100.0 * s.hit_rate);
    PrintRow(label, {ms, mb, hit});
  }
  std::printf("\n(Skewed access means hit rates rise quickly with cache size; PCIe\n"
              " traffic and epoch time fall accordingly — the effect the paper\n"
              " proposes to exploit with smart caching.)\n");
}

}  // namespace
}  // namespace gs::bench

int main() {
  gs::bench::Run();
  return 0;
}
