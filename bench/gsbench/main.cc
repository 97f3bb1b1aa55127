// gsbench: one command that runs a named workload against the gSampler
// engine, checks its outputs, and prints every metric by name with its unit.
//
//   gsbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   gsbench --workload all --smoke --trace 1 --out DIR     (CI smoke run)
//
// Workloads: sage-pd-train, ladies-pp-train, sage-pd-serve-feat,
// mixed-pd-serve-mutate (README.md says what each stresses and why).
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// records spans, writes DIR/trace-<workload>.json and prints the per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error, 3 when the run itself failed (no JSON line then).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/plan.h"
#include "gsbench.h"

namespace gsbench {

void Report::CheckFailed(const std::string& what) {
  ++checks_failed;
  if (check_messages.size() < 10) {
    check_messages.push_back(what);
  }
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return gs::Rng(seed).Fork(stream).NextU64();
}

void ReportPlanShape(const gs::core::CompiledPlan& plan, Report& report) {
  int rewrites = 0;
  for (const gs::core::PassStats& pass : plan.report().passes) {
    rewrites += pass.rewrites;
  }
  report.Set("plan.nodes", plan.program().size());
  report.Set("plan.rewrites", rewrites);
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Millis(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

namespace {

std::atomic<uint64_t> g_probe_sink{0};

}  // namespace

double HostProbeMs() {
  // A pointer chase through a 1 MiB single-cycle permutation (Sattolo's
  // shuffle, fixed seed): a fixed mix of dependent loads and arithmetic.
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> p(1 << 18);
    for (uint32_t i = 0; i < p.size(); ++i) {
      p[i] = i;
    }
    gs::Rng rng(0x9B0BE);
    for (size_t i = p.size() - 1; i > 0; --i) {
      std::swap(p[i], p[rng.UniformInt(i)]);
    }
    return p;
  }();
  const Clock::time_point start = Clock::now();
  uint32_t at = 0;
  uint64_t acc = 0;
  for (int i = 0; i < (1 << 19); ++i) {
    at = next[at];
    acc = acc * 0x9E3779B97F4A7C15ull + at;
  }
  const double ms = Millis(Clock::now() - start);
  g_probe_sink.store(acc, std::memory_order_relaxed);
  return ms;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric table. BENCHMARK.json lists the same names and units; a
// workload that does not exercise a layer reports 0 for its metrics.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"seeds_per_s", "1/s"},
    {"model_ns_per_seed", "ns"},
};

const MetricSpec kPerLayer[] = {
    {"latency.p99_ms", "ms"},
    {"graph.build_s", "s"},
    {"plan.compile_s", "s"},
    {"plan.warmup_s", "s"},
    {"jit.compile_s", "s"},
    {"serving.start_s", "s"},
    {"plan.nodes", "count"},
    {"plan.rewrites", "count"},
    {"exec.kernels_per_epoch", "count"},
    {"exec.hbm_mb_per_epoch", "MB"},
    {"exec.pcie_mb_per_epoch", "MB"},
    {"exec.sm_pct", "%"},
    {"exec.kernel_cpu_ms_per_epoch", "ms"},
    {"exec.overhead_ms_per_epoch", "ms"},
    {"device.peak_mb", "MB"},
    {"jit.regions", "count"},
    {"jit.hits_per_batch", "count"},
    {"jit.demotions", "count"},
    {"serving.queue_ms.p50", "ms"},
    {"serving.queue_ms.p99", "ms"},
    {"serving.execute_ms.p50", "ms"},
    {"serving.execute_ms.p99", "ms"},
    {"serving.compile_ms.p99", "ms"},
    {"serving.scatter_ms.p50", "ms"},
    {"serving.coalescing_ratio", "ratio"},
    {"serving.rejected_frac", "frac"},
    {"serving.shed_frac", "frac"},
    {"serving.slo_frac", "frac"},
    {"feature.hit_frac", "frac"},
    {"feature.miss_kb_per_req", "KB"},
    {"feature.gather_ms.p50", "ms"},
    {"shard.exchange_kb_per_req", "KB"},
    {"shard.imbalance", "ratio"},
    {"dyn.apply_ms.p50", "ms"},
    {"dyn.apply_ms.p99", "ms"},
    {"dyn.segments_rebuilt_per_epoch", "count"},
    {"dyn.plan_reuses_per_epoch", "count"},
    {"dyn.recompiles_inline", "count"},
    {"dyn.stale_served", "count"},
    {"loadgen.late_ms.p99", "ms"},
    {"host.probe_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, Tracer&, Report&);
};

const Workload kWorkloads[] = {
    {"sage-pd-train", RunSagePdTrain},
    {"ladies-pp-train", RunLadiesPpTrain},
    {"sage-pd-serve-feat", RunSagePdServeFeat},
    {"mixed-pd-serve-mutate", RunMixedPdServeMutate},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "gsbench: %s\n"
               "usage: gsbench --workload NAME|all --seed N --seconds S --trace 0|1 "
               "[--smoke] [--out DIR]\n",
               problem.c_str());
  std::exit(2);
}

RunOptions Parse(int argc, char** argv) {
  RunOptions options;
  options.out_dir = ".bench_build/gsbench";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    const bool has_inline = eq != std::string::npos;
    if (has_inline) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    const auto next = [&]() -> const std::string& {
      if (!has_inline) {
        if (i + 1 >= argc) {
          Usage(flag + " needs a value");
        }
        value = argv[++i];
      }
      return value;
    };
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = next();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(next().c_str(), &end, 10);
      if (*end != '\0' || value.empty()) {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(next().c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0 && options.seconds <= 600)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      const std::string& t = next();
      if (t != "0" && t != "1") {
        Usage("--trace takes 0 or 1");
      }
      options.trace = t == "1";
    } else if (flag == "--smoke" && !has_inline) {
      options.smoke = true;
    } else if (flag == "--out") {
      options.out_dir = next();
    } else {
      Usage("unknown flag " + std::string(argv[i]));
    }
  }
  if (options.workload.empty()) {
    Usage("--workload is required");
  }
  return options;
}

// All significant digits, never inf/nan (JSON has neither).
std::string Number(double v) {
  GS_CHECK(std::isfinite(v)) << "non-finite metric value";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Prints the run's metrics and returns them as JSON members, each name
// prefixed with `prefix`.
std::string PrintMetrics(const Report& report, bool per_layer, const std::string& prefix) {
  std::string json;
  const auto emit = [&](const MetricSpec& spec, double value) {
    std::printf("  %-34s %16.6f %s\n", spec.name, value, spec.unit);
    json += (json.empty() ? "" : ", ") + std::string("\"") + prefix + spec.name +
            "\": {\"value\": " + Number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (per_layer) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = report.metrics.find(spec.name);
      emit(spec, it != report.metrics.end() ? it->second : 0.0);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = report.metrics.find(spec.name);
      GS_CHECK(it != report.metrics.end()) << "workload did not report " << spec.name;
      emit(spec, it->second);
    }
  }
  for (const auto& [name, value] : report.metrics) {
    bool known = false;
    for (const MetricSpec& spec : kEndToEnd) {
      known = known || name == spec.name;
    }
    for (const MetricSpec& spec : kPerLayer) {
      known = known || name == spec.name;
    }
    GS_CHECK(known) << "metric " << name << " is not in the metric table";
  }
  return json;
}

int Main(int argc, char** argv) {
  const RunOptions parsed = Parse(argc, argv);
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (parsed.workload == "all" || parsed.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    Usage("unknown workload " + parsed.workload);
  }
  std::filesystem::create_directories(parsed.out_dir);

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string metrics;
  for (const Workload* w : selected) {
    RunOptions options = parsed;
    options.workload = w->name;
    std::printf("gsbench %s: seed %llu, %.1f s, trace %d%s\n", w->name,
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0, options.smoke ? ", smoke" : "");
    std::fflush(stdout);
    Tracer tracer(options.trace);
    Report report;
    w->run(options, tracer, report);
    if (options.trace) {
      const std::string path = options.out_dir + "/trace-" + w->name + ".json";
      tracer.WriteJson(path);
      std::printf("  trace: %zu spans -> %s\n", tracer.size(), path.c_str());
    }
    for (const std::string& message : report.check_messages) {
      std::printf("  CHECK FAILED: %s\n", message.c_str());
    }
    std::printf("  %lld operations, %lld failed, %lld failed checks\n",
                static_cast<long long>(report.attempted), static_cast<long long>(report.failed),
                static_cast<long long>(report.checks_failed));
    const std::string prefix = selected.size() > 1 ? std::string(w->name) + "/" : "";
    const std::string json = PrintMetrics(report, options.trace, prefix);
    metrics += (metrics.empty() || json.empty() ? "" : ", ") + json;
    correct = correct && report.checks_failed == 0 && report.attempted > 0;
    attempted += report.attempted;
    failed += report.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gsbench

int main(int argc, char** argv) {
  try {
    return gsbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "gsbench: run failed: %s\n", e.what());
    return 3;
  }
}
