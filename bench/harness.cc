#include "bench/harness.h"

#include <algorithm>
#include <cstdio>

#include "algorithms/algorithms.h"
#include "common/error.h"

namespace gs::bench {
namespace {

using tensor::IdArray;

std::vector<IdArray> MakeBatches(const IdArray& frontiers, int64_t batch_size) {
  std::vector<IdArray> batches;
  for (int64_t b = 0; b < frontiers.size(); b += batch_size) {
    const int64_t end = std::min(frontiers.size(), b + batch_size);
    IdArray batch = IdArray::Empty(end - b);
    std::copy_n(frontiers.data() + b, end - b, batch.data());
    batches.push_back(std::move(batch));
  }
  return batches;
}

double VirtualMs() {
  return static_cast<double>(device::Current().stream().counters().virtual_ns) / 1e6;
}

}  // namespace

std::string FormatCell(const CellResult& cell, int width) {
  char buffer[64];
  switch (cell.status) {
    case CellResult::Status::kOk:
      std::snprintf(buffer, sizeof(buffer), "%*.1f", width, cell.epoch_ms);
      break;
    case CellResult::Status::kNotAvailable:
      std::snprintf(buffer, sizeof(buffer), "%*s", width, "N/A");
      break;
    case CellResult::Status::kTimeout:
      std::snprintf(buffer, sizeof(buffer), "%*s", width, "TO");
      break;
  }
  return buffer;
}

device::Device& BenchContext::DeviceFor(const device::DeviceProfile& profile) {
  auto it = devices_.find(profile.name);
  if (it == devices_.end()) {
    it = devices_.emplace(profile.name, std::make_unique<device::Device>(profile)).first;
  }
  return *it->second;
}

const graph::Graph& BenchContext::GraphFor(const std::string& dataset,
                                           const device::DeviceProfile& profile) {
  const std::string key = dataset + "@" + profile.name;
  auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    device::DeviceGuard guard(DeviceFor(profile));
    graph::Graph g =
        graph::MakeDataset(dataset, {.scale = config_.dataset_scale, .weighted = true});
    it = graphs_.emplace(key, std::make_unique<graph::Graph>(std::move(g))).first;
  }
  return *it->second;
}

CellResult BenchContext::RunGsampler(const std::string& dataset, const std::string& algorithm,
                                     const device::DeviceProfile& gpu_profile) {
  return RunGsampler(dataset, algorithm, gpu_profile, config_.gs_options);
}

CellResult BenchContext::RunGsampler(const std::string& dataset, const std::string& algorithm,
                                     const device::DeviceProfile& gpu_profile,
                                     const core::SamplerOptions& options) {
  device::Device& dev = DeviceFor(gpu_profile);
  const graph::Graph& g = GraphFor(dataset, gpu_profile);
  device::DeviceGuard guard(dev);

  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(algorithm, g);
  core::SamplerOptions opts = options;
  if (ap.updates_model) {
    opts.super_batch = 1;  // per-batch model updates preclude super-batching
  }
  core::SamplerSession sampler(std::move(ap.program), g, std::move(ap.tensors), opts,
                               std::move(ap.relations));

  std::vector<IdArray> batches = MakeBatches(g.train_ids(), config_.batch_size);
  const int64_t total = static_cast<int64_t>(batches.size());
  const int64_t measured =
      std::min<int64_t>(total, std::max<int64_t>(config_.max_batches, 1));

  // Warmup: triggers layout calibration and super-batch auto-tuning outside
  // the measured region.
  for (int w = 0; w < config_.warmup_batches && w < total; ++w) {
    sampler.Sample(batches[static_cast<size_t>(w)]);
  }
  if (opts.super_batch != 1) {
    // Pre-drive the super-batch tuner on a short prefix.
    IdArray prefix = IdArray::Empty(std::min<int64_t>(g.train_ids().size(),
                                                      config_.batch_size * 8));
    std::copy_n(g.train_ids().data(), prefix.size(), prefix.data());
    sampler.SampleEpoch(prefix, config_.batch_size, nullptr);
  }

  // Measured region: `measured` consecutive mini-batches as one epoch
  // slice, twice; keep the faster run (virtual readings carry real-CPU
  // noise).
  IdArray slice = IdArray::Empty(std::min(g.train_ids().size(),
                                          measured * config_.batch_size));
  std::copy_n(g.train_ids().data(), slice.size(), slice.data());
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = VirtualMs();
    sampler.SampleEpoch(slice, config_.batch_size, nullptr);
    const double elapsed = VirtualMs() - t0;
    best = rep == 0 ? elapsed : std::min(best, elapsed);
  }
  return CellResult::Ok(best * static_cast<double>(total) /
                        static_cast<double>(measured));
}

CellResult BenchContext::RunBaseline(const std::string& system, const std::string& dataset,
                                     const std::string& algorithm,
                                     const device::DeviceProfile& gpu_profile) {
  const device::DeviceProfile profile = baselines::ProfileFor(system, gpu_profile);
  device::Device& dev = DeviceFor(profile);
  const graph::Graph& g = GraphFor(dataset, profile);
  device::DeviceGuard guard(dev);

  std::unique_ptr<baselines::Baseline> baseline = baselines::MakeBaseline(system, g);
  switch (baseline->Check(algorithm)) {
    case baselines::Availability::kNotImplemented:
      return CellResult::NotAvailable();
    case baselines::Availability::kTimeout:
      return CellResult::Timeout();
    case baselines::Availability::kSupported:
      break;
  }

  std::vector<IdArray> batches = MakeBatches(g.train_ids(), config_.batch_size);
  const int64_t total = static_cast<int64_t>(batches.size());
  const int64_t measured =
      std::min<int64_t>(total, std::max<int64_t>(config_.max_batches, 1));
  Rng rng(0xBEEF);
  for (int w = 0; w < config_.warmup_batches && w < total; ++w) {
    baseline->SampleBatch(algorithm, batches[static_cast<size_t>(w)], rng);
  }
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = VirtualMs();
    for (int64_t b = 0; b < measured; ++b) {
      baseline->SampleBatch(algorithm, batches[static_cast<size_t>(b)], rng);
    }
    const double elapsed = VirtualMs() - t0;
    best = rep == 0 ? elapsed : std::min(best, elapsed);
  }
  return CellResult::Ok(best * static_cast<double>(total) /
                        static_cast<double>(measured));
}

void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::string& label, const std::vector<std::string>& cells,
              int label_width, int cell_width) {
  std::printf("%-*s", label_width, label.c_str());
  for (const std::string& cell : cells) {
    std::printf(" %*s", cell_width, cell.c_str());
  }
  std::printf("\n");
}

}  // namespace gs::bench
