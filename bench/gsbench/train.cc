// Training workloads: closed-loop offline sampling epochs on one simulated
// V100, driven through core::SamplerSession::SampleEpoch.
//
//   sage-pd-train    GraphSAGE {25, 10} on PD (device-resident) with
//                    super-batch 1, so the fused slice-sample runs as
//                    JIT-compiled native code.
//   ladies-pp-train  LADIES (2 layers, width 512) on PP (UVA-resident) with
//                    super-batch 4: layer-wise sampling, segmented execution
//                    and PCIe traffic; the slice-sample JIT declines
//                    segmented calls.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/rng.h"
#include "core/engine.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "gsbench.h"
#include "jit/jit.h"

namespace gsbench {
namespace {

using gs::core::Value;
using gs::device::StreamCounters;

constexpr int64_t kBatchSize = 512;
constexpr int kSetups = 3;
// Deterministic counters (model clock, kernels, bytes, JIT hits, allocator
// peak) are read over the first this many epochs after set-up (see
// TrainRun::Run).
constexpr size_t kModelEpochs = 2;
// A window runs whole epochs until at least this much wall time passed.
constexpr double kWindowSeconds = 1.0;
// One mini-batch in this many gets its output checked.
constexpr int64_t kCheckEvery = 16;
const std::vector<int64_t> kSageFanouts = {25, 10};
constexpr int64_t kLadiesWidth = 512;

// Streams of the run seed.
constexpr uint64_t kPlanSeedStream = 1;
constexpr uint64_t kEpochOrderStream = 2;

struct TrainSpec {
  const char* dataset;
  bool ladies;  // LADIES; otherwise GraphSAGE
  // Pinned: the auto-tuner ranks sizes on the CPU-derived virtual clock,
  // which makes the chosen size (and with it JIT eligibility) noisy.
  int super_batch;
};

// One cold set-up: fresh device, graph, compiled plan, warmed-up session
// and JIT tables built into an empty artifact directory.
struct TrainSetup {
  std::unique_ptr<gs::device::Device> device;  // outlives every array below
  std::unique_ptr<gs::graph::Graph> graph;
  std::unique_ptr<gs::jit::JitEngine> jit;
  std::unique_ptr<gs::core::SamplerSession> session;
  gs::jit::JitStats jit_stats;
};

std::unique_ptr<TrainSetup> ColdSetup(const TrainSpec& spec, const RunOptions& options,
                                      int attempt, Tracer& tracer, uint64_t parent,
                                      SetupTimes& times) {
  auto s = std::make_unique<TrainSetup>();
  s->device = std::make_unique<gs::device::Device>(gs::device::V100Sim());
  gs::device::DeviceGuard guard(*s->device);

  const Clock::time_point t0 = Clock::now();
  s->graph = std::make_unique<gs::graph::Graph>(
      gs::graph::MakeDataset(spec.dataset, {.scale = DatasetScale(options)}));
  const Clock::time_point t1 = Clock::now();
  gs::algorithms::AlgorithmProgram ap =
      spec.ladies ? gs::algorithms::Ladies(*s->graph, {.num_layers = 2, .layer_width = kLadiesWidth})
                  : gs::algorithms::GraphSage(*s->graph, {.fanouts = kSageFanouts});
  gs::core::SamplerOptions sampler_options;
  sampler_options.super_batch = spec.super_batch;
  sampler_options.seed = DeriveSeed(options.seed, kPlanSeedStream);
  auto plan = std::make_shared<gs::core::CompiledPlan>(std::move(ap.program), sampler_options,
                                                       ap.name);
  const Clock::time_point t2 = Clock::now();
  s->session = std::make_unique<gs::core::SamplerSession>(plan, *s->graph, std::move(ap.tensors));
  const gs::tensor::IdArray& train = s->graph->train_ids();
  std::vector<int32_t> first(train.data(),
                             train.data() + std::min<int64_t>(kBatchSize, train.size()));
  s->session->Warmup(gs::tensor::IdArray::FromVector(first));
  const Clock::time_point t3 = Clock::now();
  // A fresh artifact directory per set-up: every region is compiled, never
  // reloaded from an earlier run.
  const std::string dir = options.out_dir + "/jit-" + std::to_string(attempt);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  gs::jit::JitEngineOptions jit_options;
  jit_options.artifact_dir = dir;
  s->jit = std::make_unique<gs::jit::JitEngine>(jit_options);
  gs::jit::ResetGlobalJitStats();
  // After Warmup, like the CLI: calibration is part of the digest the
  // artifacts are keyed by.
  s->session->SetJitTable(s->jit->TableFor(s->session->plan()));
  s->jit_stats = gs::jit::GlobalJitStats();
  const Clock::time_point t4 = Clock::now();

  times["graph.build_s"].push_back(Seconds(t1 - t0));
  times["plan.compile_s"].push_back(Seconds(t2 - t1));
  times["plan.warmup_s"].push_back(Seconds(t3 - t2));
  times["jit.compile_s"].push_back(Seconds(t4 - t3));
  times["setup_s"].push_back(Seconds(t4 - t0));
  const uint64_t id = tracer.NewId();
  tracer.Record(tracer.NewId(), "setup.graph", t0, t1, id);
  tracer.Record(tracer.NewId(), "setup.plan_compile", t1, t2, id);
  tracer.Record(tracer.NewId(), "setup.warmup", t2, t3, id);
  tracer.Record(tracer.NewId(), "setup.jit", t3, t4, id);
  tracer.Record(id, "setup", t0, t4, parent);
  return s;
}

// The epoch's mini-batch order: a seeded permutation of the train ids.
gs::tensor::IdArray EpochOrder(const gs::graph::Graph& g, uint64_t seed, int64_t epoch) {
  std::vector<int32_t> ids = g.train_ids().ToVector();
  gs::Rng rng = gs::Rng(DeriveSeed(seed, kEpochOrderStream)).Fork(static_cast<uint64_t>(epoch));
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.UniformInt(i)]);
  }
  return gs::tensor::IdArray::FromVector(ids);
}

// Calls f(row, col, value) with global node ids for every stored edge of
// `m`, reading a format that is already materialized (no conversion).
template <typename F>
void ForEachEdge(const gs::sparse::Matrix& m, F&& f) {
  using gs::sparse::Format;
  if (m.HasFormat(Format::kCoo) && !m.HasFormat(Format::kCsc)) {
    const gs::sparse::Coo& coo = m.GetCoo();
    for (int64_t k = 0; k < m.nnz(); ++k) {
      f(m.GlobalRowId(coo.row[k]), m.GlobalColId(coo.col[k]),
        coo.values.defined() ? coo.values[k] : 1.0f);
    }
    return;
  }
  const bool by_col = m.HasFormat(Format::kCsc) || !m.HasFormat(Format::kCsr);
  const gs::sparse::Compressed& c = by_col ? m.Csc() : m.Csr();
  const int64_t outer = by_col ? m.num_cols() : m.num_rows();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t k = c.indptr[o]; k < c.indptr[o + 1]; ++k) {
      const int32_t local_row = by_col ? c.indices[k] : static_cast<int32_t>(o);
      const int32_t local_col = by_col ? static_cast<int32_t>(o) : c.indices[k];
      f(m.GlobalRowId(local_row), m.GlobalColId(local_col),
        c.values.defined() ? c.values[k] : 1.0f);
    }
  }
}

// Checks one sampled mini-batch against the base graph: every edge exists
// in the adjacency, the first layer's columns are the batch's seeds, and
// each layer respects its bound (per-column fanout for GraphSAGE, distinct
// sampled rows for LADIES). Returns false and reports on the first failure.
bool CheckBatch(const TrainSpec& spec, const gs::graph::Graph& g, std::span<const int32_t> seeds,
                const std::vector<Value>& outputs, int64_t batch, Report& report) {
  const auto fail = [&](const std::string& what) {
    report.CheckFailed(std::string(spec.ladies ? "ladies" : "sage") + " batch " +
                       std::to_string(batch) + ": " + what);
    return false;
  };
  const size_t layers = spec.ladies ? 2 : kSageFanouts.size();
  if (outputs.size() != layers + 1) {
    return fail("expected " + std::to_string(layers + 1) + " outputs, got " +
                std::to_string(outputs.size()));
  }
  const gs::sparse::Compressed& adj = g.adj().Csc();
  const int64_t n = g.num_nodes();
  const std::unordered_set<int32_t> seed_set(seeds.begin(), seeds.end());
  for (size_t l = 0; l < layers; ++l) {
    if (outputs[l].kind != gs::core::ValueKind::kMatrix) {
      return fail("output " + std::to_string(l) + " is not a matrix");
    }
    const gs::sparse::Matrix& m = outputs[l].matrix;
    std::unordered_map<int32_t, int64_t> per_col;
    std::unordered_set<int32_t> rows;
    std::string error;
    ForEachEdge(m, [&](int32_t r, int32_t c, float value) {
      if (!error.empty()) {
        return;
      }
      if (r < 0 || r >= n || c < 0 || c >= n) {
        error = "node id out of range";
      } else if (!std::binary_search(adj.indices.data() + adj.indptr[c],
                                     adj.indices.data() + adj.indptr[c + 1], r)) {
        error = "edge " + std::to_string(r) + "->" + std::to_string(c) + " not in the graph";
      } else if (l == 0 && seed_set.count(c) == 0) {
        error = "column " + std::to_string(c) + " is not a seed of this batch";
      } else if (!std::isfinite(value)) {
        error = "non-finite edge value";
      } else if (!spec.ladies && ++per_col[c] > kSageFanouts[l]) {
        error = "column " + std::to_string(c) + " exceeds fanout " + std::to_string(kSageFanouts[l]);
      }
      rows.insert(r);
    });
    if (!error.empty()) {
      return fail("layer " + std::to_string(l) + ": " + error);
    }
    if (spec.ladies && static_cast<int64_t>(rows.size()) > kLadiesWidth) {
      return fail("layer " + std::to_string(l) + " samples " + std::to_string(rows.size()) +
                  " nodes, width is " + std::to_string(kLadiesWidth));
    }
  }
  const Value& frontier = outputs[layers];
  if (frontier.kind != gs::core::ValueKind::kIds) {
    return fail("last output is not an id array");
  }
  for (const int32_t id : frontier.ids.span()) {
    if (id < 0 || id >= n) {
      return fail("frontier id " + std::to_string(id) + " out of range");
    }
  }
  return true;
}

StreamCounters Delta(const StreamCounters& after, const StreamCounters& before) {
  StreamCounters d;
  d.kernels_launched = after.kernels_launched - before.kernels_launched;
  d.virtual_ns = after.virtual_ns - before.virtual_ns;
  d.cpu_ns = after.cpu_ns - before.cpu_ns;
  d.model_ns = after.model_ns - before.model_ns;
  d.hbm_bytes = after.hbm_bytes - before.hbm_bytes;
  d.pcie_bytes = after.pcie_bytes - before.pcie_bytes;
  d.occupancy_ns = after.occupancy_ns - before.occupancy_ns;
  return d;
}

struct EpochStats {
  double wall_ms = 0;  // sampling wall time, output checks excluded
  StreamCounters counters;
  int64_t batches = 0;
  int64_t seeds = 0;
  int64_t jit_hits = 0;
};

struct WindowStats {
  std::vector<double> call_ms;  // wall time of each sampler call
  double wall_ms = 0;
  int64_t seeds = 0;
  bool recorded = true;  // spans recorded (traced runs alternate)
};

class TrainRun {
 public:
  TrainRun(const TrainSpec& spec, const RunOptions& options, Tracer& tracer, Report& report)
      : spec_(spec), options_(options), tracer_(tracer), report_(report),
        check_device_(gs::device::V100Sim()) {}

  void Run();

 private:
  EpochStats RunEpoch(int64_t epoch, uint64_t parent, std::vector<double>& call_ms);
  void ReportMetrics(const std::vector<EpochStats>& model_epochs,
                     const std::vector<WindowStats>& windows, const std::vector<EpochStats>& epochs,
                     const std::vector<double>& probes);

  const TrainSpec spec_;
  const RunOptions& options_;
  Tracer& tracer_;
  Report& report_;
  // Output checks run on their own device, so format conversions they
  // trigger never reach the measured stream's counters or allocator.
  gs::device::Device check_device_;
  std::unique_ptr<TrainSetup> setup_;  // the last cold set-up, which is measured
  SetupTimes setup_times_;
};

EpochStats TrainRun::RunEpoch(int64_t epoch, uint64_t parent, std::vector<double>& call_ms) {
  TrainSetup& setup = *setup_;
  const gs::graph::Graph& g = *setup.graph;
  const gs::tensor::IdArray order = EpochOrder(g, options_.seed, epoch);
  const int64_t num_batches = (order.size() + kBatchSize - 1) / kBatchSize;
  const int64_t group = spec_.super_batch;

  Span epoch_span(tracer_, "epoch", parent);
  const StreamCounters before = setup.device->default_stream().counters();
  const int64_t jit_before = gs::jit::GlobalJitStats().hits;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  Clock::duration checking{0};
  Clock::duration call{0};
  setup.session->SampleEpoch(order, kBatchSize, [&](int64_t b, std::vector<Value>& outputs) {
    const Clock::time_point got = Clock::now();
    tracer_.Record(tracer_.NewId(), "batch", last, got, epoch_span.id());
    // A super-batch group is one sampler call: its first batch carries the
    // group's cost, the rest only the per-batch split.
    call += got - last;
    if ((b + 1) % group == 0 || b + 1 == num_batches) {
      call_ms.push_back(Millis(call));
      call = Clock::duration{0};
    }
    ++report_.attempted;
    if (b % kCheckEvery == 0) {
      gs::device::ThreadDeviceGuard on_check_device(check_device_);
      const int64_t begin = b * kBatchSize;
      const int64_t end = std::min(order.size(), begin + kBatchSize);
      if (!CheckBatch(spec_, g, std::span<const int32_t>(order.data() + begin, order.data() + end),
                      outputs, b, report_)) {
        ++report_.failed;
      }
    }
    const Clock::time_point done = Clock::now();
    checking += done - got;
    last = done;
  });
  EpochStats stats;
  stats.wall_ms = Millis(Clock::now() - start - checking);
  stats.counters = Delta(setup.device->default_stream().counters(), before);
  stats.batches = num_batches;
  stats.seeds = order.size();
  stats.jit_hits = gs::jit::GlobalJitStats().hits - jit_before;
  return stats;
}

void TrainRun::Run() {
  {
    Span span(tracer_, "setups");
    for (int attempt = 0; attempt < kSetups; ++attempt) {
      setup_.reset();  // free the previous device and graph before the next cold build
      setup_ = ColdSetup(spec_, options_, attempt, tracer_, span.id(), setup_times_);
      std::printf("  set-up %d: %.3f s\n", attempt, setup_times_["setup_s"].back());
    }
  }
  gs::device::DeviceGuard guard(*setup_->device);

  int64_t epoch = 0;
  // The first epochs after set-up sit at a fixed position of the session's
  // RNG stream, so their model clock, kernels, bytes, JIT hits and the
  // allocator peak they reach are a function of the seed alone. They also
  // warm the caches; their wall time is dropped.
  std::vector<EpochStats> model_epochs;
  {
    Span span(tracer_, "model_epochs");
    std::vector<double> call_ms;
    while (model_epochs.size() < kModelEpochs) {
      model_epochs.push_back(RunEpoch(epoch++, span.id(), call_ms));
    }
  }
  report_.Set("device.peak_mb",
              static_cast<double>(setup_->device->allocator().stats().peak_bytes_in_use) / 1e6);

  std::vector<WindowStats> windows;
  std::vector<EpochStats> epochs;
  std::vector<double> probes;
  const Clock::time_point deadline = Clock::now() + Duration(options_.seconds);
  // Traced runs leave every other window unrecorded to measure the tracing
  // overhead.
  for (int w = 1; w == 1 || Clock::now() < deadline; ++w) {
    const bool recorded = !(options_.trace && w % 2 == 0);
    tracer_.set_paused(!recorded);
    const double probe = HostProbeMs();
    Span window_span(tracer_, "window");
    WindowStats window;
    window.recorded = recorded;
    const Clock::time_point start = Clock::now();
    do {
      EpochStats e = RunEpoch(epoch++, window_span.id(), window.call_ms);
      window.wall_ms += e.wall_ms;
      window.seeds += e.seeds;
      epochs.push_back(e);
    } while (Seconds(Clock::now() - start) < kWindowSeconds * (options_.smoke ? 0.1 : 1.0));
    std::printf("  window %d: %zu calls, p50 %.3f ms, p99 %.3f ms, %.0f seeds/s, probe %.3f ms\n",
                w, window.call_ms.size(), Median(window.call_ms), Percentile(window.call_ms, 99),
                static_cast<double>(window.seeds) / (window.wall_ms / 1e3), probe);
    windows.push_back(std::move(window));
    probes.push_back(probe);
  }
  tracer_.set_paused(false);
  ReportMetrics(model_epochs, windows, epochs, probes);
}

void TrainRun::ReportMetrics(const std::vector<EpochStats>& model_epochs,
                             const std::vector<WindowStats>& windows,
                             const std::vector<EpochStats>& epochs,
                             const std::vector<double>& probes) {
  const TrainSetup& setup = *setup_;
  Report& r = report_;
  for (const auto& [name, seconds] : setup_times_) {
    r.Set(name, *std::min_element(seconds.begin(), seconds.end()));
  }

  std::vector<double> calls;
  std::vector<double> recorded_calls;
  std::vector<double> unrecorded_calls;
  std::vector<double> window_p50;
  std::vector<double> window_rate;
  for (const WindowStats& w : windows) {
    calls.insert(calls.end(), w.call_ms.begin(), w.call_ms.end());
    std::vector<double>& by_tracing = w.recorded ? recorded_calls : unrecorded_calls;
    by_tracing.insert(by_tracing.end(), w.call_ms.begin(), w.call_ms.end());
    window_p50.push_back(Median(w.call_ms));
    window_rate.push_back(static_cast<double>(w.seeds) / (w.wall_ms / 1e3));
  }
  // Wall-clock metrics from the best window: the host's speed drifts in
  // phases of several seconds, and the fastest window is the one least
  // disturbed by it (README.md, "Aggregation").
  r.Set("p50_ms", *std::min_element(window_p50.begin(), window_p50.end()));
  r.Set("seeds_per_s", *std::max_element(window_rate.begin(), window_rate.end()));
  r.Set("latency.p99_ms", Percentile(calls, 99));

  StreamCounters model;
  int64_t model_seeds = 0;
  int64_t model_batches = 0;
  int64_t jit_hits = 0;
  for (const EpochStats& e : model_epochs) {
    model.model_ns += e.counters.model_ns;
    model.kernels_launched += e.counters.kernels_launched;
    model.hbm_bytes += e.counters.hbm_bytes;
    model.pcie_bytes += e.counters.pcie_bytes;
    model_seeds += e.seeds;
    model_batches += e.batches;
    jit_hits += e.jit_hits;
  }
  const double count = static_cast<double>(model_epochs.size());
  r.Set("model_ns_per_seed",
        static_cast<double>(model.model_ns) / static_cast<double>(model_seeds));
  r.Set("exec.kernels_per_epoch", static_cast<double>(model.kernels_launched) / count);
  r.Set("exec.hbm_mb_per_epoch", static_cast<double>(model.hbm_bytes) / 1e6 / count);
  r.Set("exec.pcie_mb_per_epoch", static_cast<double>(model.pcie_bytes) / 1e6 / count);
  r.Set("jit.hits_per_batch", static_cast<double>(jit_hits) / static_cast<double>(model_batches));

  double occupancy_ns = 0;
  double virtual_ns = 0;
  std::vector<double> kernel_cpu_ms;
  std::vector<double> overhead_ms;
  for (const EpochStats& e : epochs) {
    occupancy_ns += e.counters.occupancy_ns;
    virtual_ns += static_cast<double>(e.counters.virtual_ns);
    kernel_cpu_ms.push_back(static_cast<double>(e.counters.cpu_ns) / 1e6);
    overhead_ms.push_back(e.wall_ms - static_cast<double>(e.counters.cpu_ns) / 1e6);
  }
  r.Set("exec.sm_pct", virtual_ns > 0 ? 100.0 * occupancy_ns / virtual_ns : 0.0);
  r.Set("exec.kernel_cpu_ms_per_epoch", Median(kernel_cpu_ms));
  r.Set("exec.overhead_ms_per_epoch", Median(overhead_ms));
  r.Set("jit.regions", static_cast<double>(setup.jit_stats.regions));
  r.Set("jit.demotions", static_cast<double>(setup.jit_stats.demotions));

  ReportPlanShape(setup.session->plan(), r);
  r.Set("host.probe_ms", Median(probes));
  if (!recorded_calls.empty() && !unrecorded_calls.empty()) {
    r.Set("trace.overhead_frac", Median(recorded_calls) / Median(unrecorded_calls) - 1.0);
  }
}

}  // namespace

void RunSagePdTrain(const RunOptions& options, Tracer& tracer, Report& report) {
  TrainRun({.dataset = "PD", .ladies = false, .super_batch = 1}, options, tracer, report).Run();
}

void RunLadiesPpTrain(const RunOptions& options, Tracer& tracer, Report& report) {
  TrainRun({.dataset = "PP", .ladies = true, .super_batch = 4}, options, tracer, report).Run();
}

}  // namespace gsbench
