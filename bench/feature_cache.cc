// Feature-serving cache sweep (gs::feature): cache budget x admission
// policy -> hit rate -> end-to-end epoch time, for GraphSAGE on a sharply
// skewed UVA-resident R-MAT graph (power-law degrees, host-resident
// features).
//
// Each cell samples a fixed epoch of mini-batches and gathers the feature
// rows of every batch's result frontier through one HotSetCache; the first
// epoch warms the cache, the second (identical) epoch is measured. Misses
// cross host DRAM + PCIe on the model clock, hits stay at device rates, so
// the skewed access pattern the paper's future-direction (1) points at shows
// up directly: frequency-EMA admission reaches a >=90% hit rate with a cache
// budget of 10% of the nodes, and epoch time falls monotonically as the
// budget grows. A final row reports the sampling/gather overlap
// (pipeline depth 2) at the headline configuration.
//
// Usage: feature_cache [--scale=0.5] [--batches=16]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "bench/harness.h"
#include "feature/hot_set_cache.h"
#include "feature/pipeline.h"
#include "feature/store.h"
#include "graph/generator.h"

namespace gs::bench {
namespace {

struct Sweep {
  double scale = 0.5;
  int64_t batches = 16;
  int64_t batch_size = 256;
};

struct Cell {
  double hit_rate = 0.0;
  double epoch_ms = 0.0;    // measured (second) epoch, serial timeline
  double miss_mb = 0.0;
  double overlap_speedup = 1.0;  // serial/pipelined virtual time at depth 2
};

// The nodes whose features a batch needs: the last id-typed output (the
// result frontier) when the program produces one, else the seeds — the same
// policy the serving tier uses.
tensor::IdArray FeatureFrontier(const std::vector<core::Value>& outputs,
                                const tensor::IdArray& seeds) {
  for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
    if (it->kind == core::ValueKind::kIds && it->ids.defined() && !it->ids.empty()) {
      return it->ids;
    }
  }
  return seeds;
}

Cell RunCell(const Sweep& sweep, double budget_fraction, feature::Admission admission) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  // Sharply skewed R-MAT (the regime the paper's future-direction (1) points
  // at): hub nodes dominate the sampled frontiers, so a small hot set covers
  // most feature gathers. UVA-resident, so features live in host memory.
  graph::RMatParams params;
  params.name = "powerlaw";
  params.num_nodes = static_cast<int64_t>(80'000 * sweep.scale);
  params.num_edges = params.num_nodes * 10;
  params.a = 0.77;
  params.b = 0.11;
  params.c = 0.11;
  params.uva = true;
  params.seed = 0xFEA7;
  graph::Graph g = graph::MakeRMatGraph(params);

  feature::FeatureStore store(g.features());
  const int64_t capacity = std::max<int64_t>(
      4, static_cast<int64_t>(static_cast<double>(g.num_nodes()) * budget_fraction));
  feature::HotSetCache cache(feature::HotSetCacheOptions{
      .capacity = capacity, .admission = admission, .entry_bytes = store.row_bytes()});

  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {25, 10}});
  core::SamplerOptions options;
  options.super_batch = 1;
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors),
                               std::move(options));

  const int64_t pool = g.train_ids().size();
  {
    std::vector<int32_t> warm(static_cast<size_t>(std::min<int64_t>(32, pool)));
    for (size_t i = 0; i < warm.size(); ++i) {
      warm[i] = g.train_ids()[static_cast<int64_t>(i)];
    }
    sampler.Warmup(tensor::IdArray::FromVector(warm));
  }
  const int64_t batches = std::min(sweep.batches, pool / sweep.batch_size);
  auto sample_fn = [&](int64_t b) {
    std::vector<int32_t> seeds(static_cast<size_t>(sweep.batch_size));
    for (int64_t i = 0; i < sweep.batch_size; ++i) {
      seeds[static_cast<size_t>(i)] = g.train_ids()[(b * sweep.batch_size + i) % pool];
    }
    const tensor::IdArray frontier = tensor::IdArray::FromVector(seeds);
    return FeatureFrontier(sampler.SampleSeeded(frontier, static_cast<uint64_t>(b)), frontier);
  };
  auto consume_fn = [](int64_t, const tensor::Tensor&) {};

  // Epoch 1 warms the cache (admission learns the access skew), epoch 2 is
  // the steady state every column reports. Depth 0 = one serial timeline, so
  // the epoch time includes every gather miss at host+PCIe rates; it is read
  // off the deterministic model clock (identical sampling work in every
  // cell, so only the miss bytes move it).
  RunSampleGatherPipeline(batches, sample_fn, store, &cache, consume_fn, {.depth = 0});
  const int64_t model_before = dev.stream().counters().model_ns;
  const feature::OverlapReport serial =
      RunSampleGatherPipeline(batches, sample_fn, store, &cache, consume_fn, {.depth = 0});
  const int64_t model_after = dev.stream().counters().model_ns;
  const feature::OverlapReport overlapped =
      RunSampleGatherPipeline(batches, sample_fn, store, &cache, consume_fn, {.depth = 2});

  Cell cell;
  cell.hit_rate = serial.gather.HitRate();
  cell.epoch_ms = static_cast<double>(model_after - model_before) / 1e6;
  cell.miss_mb = static_cast<double>(serial.gather.miss_bytes) / 1e6;
  cell.overlap_speedup = overlapped.metrics.OverlapSpeedup();
  return cell;
}

int Run(const Sweep& sweep) {
  PrintTitle("feature cache sweep — GraphSAGE on power-law R-MAT, steady-state epoch");
  std::printf("(budget = cache capacity as a fraction of |V|; epoch = serial sample+gather;\n"
              " overlap = serial/pipelined virtual time with gather overlapped at depth 2)\n\n");
  PrintRow("budget", {"static hit", "lru hit", "ema hit", "ema epoch ms", "ema overlap", "ema miss MB"});

  const std::vector<double> budgets = {0.01, 0.03, 0.1, 0.3};
  std::vector<double> ema_epoch_ms;
  double ema_hit_at_10pct = 0.0;
  for (double budget : budgets) {
    const Cell stat = RunCell(sweep, budget, feature::Admission::kStaticDegree);
    const Cell lru = RunCell(sweep, budget, feature::Admission::kLru);
    const Cell ema = RunCell(sweep, budget, feature::Admission::kFrequencyEma);
    ema_epoch_ms.push_back(ema.epoch_ms);
    if (budget == 0.1) {
      ema_hit_at_10pct = ema.hit_rate;
    }
    char label[64], c1[64], c2[64], c3[64], c4[64], c5[64], c6[64];
    std::snprintf(label, sizeof(label), "%.2f", budget);
    std::snprintf(c1, sizeof(c1), "%.1f%%", 100.0 * stat.hit_rate);
    std::snprintf(c2, sizeof(c2), "%.1f%%", 100.0 * lru.hit_rate);
    std::snprintf(c3, sizeof(c3), "%.1f%%", 100.0 * ema.hit_rate);
    std::snprintf(c4, sizeof(c4), "%.2f", ema.epoch_ms);
    std::snprintf(c5, sizeof(c5), "%.2fx", ema.overlap_speedup);
    std::snprintf(c6, sizeof(c6), "%.2f", ema.miss_mb);
    PrintRow(label, {c1, c2, c3, c4, c5, c6});
  }

  bool monotone = true;
  for (size_t i = 1; i < ema_epoch_ms.size(); ++i) {
    monotone = monotone && ema_epoch_ms[i] <= ema_epoch_ms[i - 1] + 1e-9;
  }
  std::printf("\nfrequency-EMA hit rate at 10%% budget: %.1f%% (target >= 90%%) — %s\n",
              100.0 * ema_hit_at_10pct, ema_hit_at_10pct >= 0.9 ? "ok" : "MISS");
  std::printf("epoch time monotone non-increasing with budget: %s\n",
              monotone ? "ok" : "VIOLATED");
  std::printf("\n(Skewed access: a small hot set absorbs most gathers, so the hit rate\n"
              " climbs steeply with budget and the epoch time tracks the miss bytes\n"
              " crossing host DRAM + PCIe; overlap hides the remaining gather time\n"
              " behind sampling.)\n");
  return (ema_hit_at_10pct >= 0.9 && monotone) ? 0 : 1;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  gs::bench::Sweep sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      sweep.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--batches=", 10) == 0) {
      sweep.batches = std::atoll(argv[i] + 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  return gs::bench::Run(sweep);
}
