// Shared pieces of gsbench: run options, the report every workload fills,
// exact order statistics, and the workload entry points (train.cc,
// serve.cc). main.cc owns the metric table and the output format.

#ifndef GSBENCH_GSBENCH_H_
#define GSBENCH_GSBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace gs::core {
class CompiledPlan;
}  // namespace gs::core

namespace gsbench {

struct RunOptions {
  std::string workload;
  // Every generated input (seed sets, epoch orders, arrival times, mutation
  // streams, plan RNG seeds) derives from this value.
  uint64_t seed = 1;
  // Wall time the measured windows may take (set-up and checks excluded).
  double seconds = 10.0;
  bool trace = false;
  // Scale-0.05 graphs and sub-second windows: exercises every path and
  // check in a few seconds, measures nothing.
  bool smoke = false;
  // Output directory for JIT artifacts and the trace file.
  std::string out_dir;
};

// What one workload run measured. Metric names must appear in main.cc's
// table; per-layer metrics a workload leaves unset print as 0 (the layer is
// not exercised by that workload).
struct Report {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;  // operations: mini-batches sampled or requests sent
  int64_t failed = 0;     // operations that failed, were refused or failed a check
  int64_t checks_failed = 0;
  std::vector<std::string> check_messages;  // the first few

  void Set(const std::string& name, double value) { metrics[name] = value; }
  // Records a failed output check; the run's `correct` becomes false.
  void CheckFailed(const std::string& what);
};

// Wall seconds of each step of every cold set-up, keyed by the metric that
// reports their minimum ("setup_s" for the whole set-up).
using SetupTimes = std::map<std::string, std::vector<double>>;

// p-th percentile (p in [0, 100]) of raw samples, interpolating linearly
// between closest ranks; 0 when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

// Wall milliseconds of a fixed CPU- and cache-bound loop. Its drift across
// windows and runs shows how fast the host was, independent of the code
// under test.
double HostProbeMs();

// Independent 64-bit stream `stream` of the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

double Seconds(Clock::duration d);
double Millis(Clock::duration d);
inline Clock::duration Duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// Sets plan.nodes and plan.rewrites from a compiled plan.
void ReportPlanShape(const gs::core::CompiledPlan& plan, Report& report);

// Dataset scale for a run: 1.0, or 0.05 under --smoke.
inline double DatasetScale(const RunOptions& options) { return options.smoke ? 0.05 : 1.0; }

void RunSagePdTrain(const RunOptions& options, Tracer& tracer, Report& report);
void RunLadiesPpTrain(const RunOptions& options, Tracer& tracer, Report& report);
void RunSagePdServeFeat(const RunOptions& options, Tracer& tracer, Report& report);
void RunMixedPdServeMutate(const RunOptions& options, Tracer& tracer, Report& report);

}  // namespace gsbench

#endif  // GSBENCH_GSBENCH_H_
