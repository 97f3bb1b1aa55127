// Simulated accelerator profiles.
//
// This repository reproduces a GPU system on a CPU-only host. Kernels run
// their real math on the CPU; the device layer keeps a *virtual clock* that
// adds, per kernel, the costs that would dominate on real hardware:
//
//   virtual_time = measured_cpu_time * compute_scale
//                + launch_overhead
//                + hbm_bytes         * hbm_penalty
//                + pcie_bytes        * pcie_penalty         (UVA-resident data only)
//                + interconnect_bytes * interconnect_penalty (shard all-to-all only)
//
// The three *_ns_per_byte fields are bandwidth charges: the reciprocal of an
// effective link bandwidth, in nanoseconds per byte. They must be >= 0;
// Validate() (called whenever a Stream is built from a profile) rejects
// negative values, which would let a kernel move its virtual clock backwards.
//
// The V100 profile is the reference (no extra memory/compute penalty). The
// T4 profile scales bandwidth/compute to the ratios in the paper's Section
// 5.2 (T4 has 30.0% of V100's memory bandwidth and 51.6% of its FLOPS), so
// Figure 9's "speedups persist but shrink on weaker hardware" mechanism is
// reproduced faithfully.

#ifndef GSAMPLER_DEVICE_PROFILE_H_
#define GSAMPLER_DEVICE_PROFILE_H_

#include <cstdint>
#include <string>

namespace gs::device {

struct DeviceProfile {
  std::string name;

  // Fixed cost per kernel launch, the dominant term for tiny mini-batches
  // (reproduces Figure 6's epoch-time-vs-batch-size curve).
  int64_t launch_overhead_ns = 6000;

  // Multiplier on measured CPU kernel time. 1.0 for the reference profile;
  // > 1.0 models a lower-FLOPS part.
  double compute_scale = 1.0;

  // Additional multiplier applied to *dense* kernels (GEMM-like tensor math,
  // marked KernelStats::dense). Real platforms run regular dense kernels far
  // more efficiently than the irregular gather/sample kernels this
  // simulation's virtual clock is normalized to: GPUs via tensor-core GEMM
  // throughput, CPU frameworks via BLAS. This factor carries that relative
  // efficiency and is what makes the sampling-vs-training split of Table 1
  // meaningful; values are documented in DESIGN.md.
  double dense_compute_scale = 1.0;

  // Additional charge per byte moved through (simulated) device memory.
  // 0 for the reference profile; > 0 models lower HBM bandwidth.
  double hbm_penalty_ns_per_byte = 0.0;

  // Charge per byte fetched from host memory over (simulated) PCIe when a
  // graph is UVA-resident. PCIe 3.0 x16 ~ 12 GB/s effective => ~0.083 ns/B.
  double pcie_ns_per_byte = 0.083;

  // Charge per byte *read from host DRAM* when gathering feature rows that
  // missed the device-side hot-set cache (gs::feature). On real hardware a
  // UVA feature gather pays twice: the host memory controller serves the
  // random row reads, then the rows cross PCIe — so FeatureStore::Gather
  // charges miss bytes at pcie_ns_per_byte + host_read_ns_per_byte while
  // cache hits ride HBM. Host DDR4 under random access sustains ~40 GB/s
  // effective => 0.025 ns/B. 0 disables the charge (CPU baselines, where
  // "host" memory is the device memory).
  double host_read_ns_per_byte = 0.0;

  // Charge per byte exchanged with peer shards over the (simulated)
  // device-to-device interconnect — the shard-to-shard analog of the UVA
  // PCIe charge. Sharded serving charges each frontier hop's coalesced
  // all-to-all of remote adjacency at this rate (shard::FrontierExchange).
  // 0 disables the charge (single-device profiles / CPU baselines, where
  // there is no interconnect).
  double interconnect_ns_per_byte = 0.0;

  // Deterministic compute charge per parallel work item, used for the
  // `model_ns` counter: the same cost formula as the virtual clock but with
  // the measured-CPU term replaced by items * this (scaled by compute_scale
  // and dense_compute_scale). Plan-time decisions (layout calibration) rank
  // candidates by model_ns so compiled plans are a pure function of the
  // program and profile, never of host timing noise — a requirement of the
  // differential oracle, which re-compiles per run and must get the same
  // plan every time.
  double model_compute_ns_per_item = 0.25;

  // Number of concurrently resident work items needed to saturate all SMs.
  // A kernel processing fewer items runs at proportionally lower occupancy;
  // the stream tracks a time-weighted occupancy average as the SM%
  // utilization proxy (Table 9).
  int64_t sm_saturation_items = 80 * 2048;

  // Simulated device memory capacity; the caching allocator refuses
  // allocations beyond it (drives the super-batch memory-budget search).
  int64_t memory_capacity_bytes = int64_t{16} * 1024 * 1024 * 1024;

  // Watchdog threshold: a kernel whose charged virtual time exceeds this
  // multiple of the profile's own estimate for its stats is flagged as
  // stuck (the executor cancels the batch; see device/stream.h). Outside
  // fault injection charged == estimate, so legitimate kernels never trip
  // it. <= 0 disables the watchdog.
  double watchdog_multiple = 16.0;

  // Rejects invalid bandwidth charges: every *_ns_per_byte field must be
  // >= 0 (a negative charge would run the virtual clock backwards). Called
  // from the Stream constructor, so every Device construction validates its
  // profile; throws gs::Error on violation.
  void Validate() const;
};

// Bandwidth-charge presets (ns per byte = 1 / effective GB/s). These back
// the profile constants below and the shard interconnect.
inline constexpr double kPcieNsPerByte = 0.083;  // PCIe 3.0 x16, ~12 GB/s
inline constexpr double kHostReadNsPerByte = 0.025;  // host DDR4 random reads, ~40 GB/s

// Shard-to-shard interconnect charge: NVLink-class links sustain ~50 GB/s
// effective per direction => 0.02 ns/B, ~4x faster than PCIe. This is the
// value the GPU profiles install as interconnect_ns_per_byte; the
// FrontierExchange all-to-all is charged at this rate.
double Interconnect();

// Reference profile: V100-class simulated device.
DeviceProfile V100Sim();

// Weaker part: T4-class simulated device. compute_scale = 1/0.516 and an
// hbm penalty sized so effective bandwidth is 30% of the reference.
DeviceProfile T4Sim();

// CPU execution profile for the CPU-resident baselines (DGL-CPU, PyG-CPU).
// `compute_scale` models how much slower the baseline's CPU kernels are
// than the reference device's — the paper measures 1-2 orders of magnitude
// (e.g. 702x for PyG-CPU GraphSAGE on PP, Section 5.2); the per-system
// constants live in baselines/baselines.cc and are documented in DESIGN.md.
DeviceProfile CpuSim(const std::string& name, double compute_scale);

}  // namespace gs::device

#endif  // GSAMPLER_DEVICE_PROFILE_H_
