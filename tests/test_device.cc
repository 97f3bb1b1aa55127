// Unit tests for device/: caching allocator, virtual-clock stream, device
// profiles, UVA cache.

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "common/error.h"
#include "device/allocator.h"
#include "device/array.h"
#include "device/device.h"
#include "device/profile.h"
#include "device/stream.h"
#include "fault/status.h"
#include "feature/hot_set_cache.h"

namespace gs::device {
namespace {

TEST(Allocator, ReusesFreedBlocks) {
  CachingAllocator alloc(1 << 20);
  void* a = alloc.Allocate(1000);
  alloc.Free(a);
  void* b = alloc.Allocate(900);  // same 1024-byte class
  EXPECT_EQ(a, b);
  EXPECT_EQ(alloc.stats().cache_hits, 1);
  alloc.Free(b);
}

TEST(Allocator, PeakTracksHighWater) {
  CachingAllocator alloc(1 << 20);
  void* a = alloc.Allocate(4096);
  void* b = alloc.Allocate(4096);
  const int64_t peak = alloc.stats().peak_bytes_in_use;
  EXPECT_GE(peak, 8192);
  alloc.Free(a);
  alloc.Free(b);
  EXPECT_EQ(alloc.stats().bytes_in_use, 0);
  EXPECT_EQ(alloc.stats().peak_bytes_in_use, peak);
  alloc.ResetPeak();
  EXPECT_EQ(alloc.stats().peak_bytes_in_use, 0);
}

TEST(Allocator, SizeClassesRoundUp) {
  CachingAllocator alloc(1 << 22);
  void* a = alloc.Allocate(1);
  alloc.Free(a);
  EXPECT_EQ(alloc.stats().bytes_cached, 512);  // minimum class
  void* b = alloc.Allocate(5000);
  alloc.Free(b);
  EXPECT_EQ(alloc.stats().bytes_cached, 512 + 8192);  // pow2 class above 4K
}

TEST(Allocator, OutOfMemoryThrowsAfterCacheRelease) {
  CachingAllocator alloc(16 * 1024);
  void* a = alloc.Allocate(8 * 1024);
  EXPECT_THROW(alloc.Allocate(12 * 1024), Error);
  alloc.Free(a);
  // Freed block is cached; a different-class allocation must still succeed
  // by releasing the cache.
  void* b = alloc.Allocate(16 * 1024);
  EXPECT_NE(b, nullptr);
  alloc.Free(b);
}

// A request beyond the largest power-of-two size class (for example an
// untrusted walk path of 2^58 steps x 4 walkers) fails with the typed
// out-of-memory error instead of looping on an overflowing class.
TEST(Allocator, RequestBeyondLargestClassThrowsTyped) {
  CachingAllocator alloc(1 << 20);
  EXPECT_THROW(alloc.Allocate((int64_t{1} << 62) + 16), fault::ResourceExhaustedError);
  EXPECT_THROW(alloc.Allocate(std::numeric_limits<int64_t>::max()),
               fault::ResourceExhaustedError);
  EXPECT_EQ(alloc.stats().bytes_in_use, 0);
}

TEST(Allocator, FreeUnknownPointerThrows) {
  CachingAllocator alloc(1 << 20);
  int x = 0;
  EXPECT_THROW(alloc.Free(&x), Error);
}

TEST(Allocator, AccountingConsistentAcrossFreeListReuse) {
  // bytes_in_use / bytes_cached must partition the footprint exactly as
  // blocks move between the live set and the free list, and the peak must
  // reflect true high water only — not free-list round trips.
  CachingAllocator alloc(1 << 20);
  void* a = alloc.Allocate(4096);
  void* b = alloc.Allocate(700);  // 1024-byte class
  EXPECT_EQ(alloc.stats().bytes_in_use, 4096 + 1024);
  EXPECT_EQ(alloc.stats().bytes_cached, 0);
  const int64_t peak = alloc.stats().peak_bytes_in_use;
  EXPECT_EQ(peak, 4096 + 1024);

  alloc.Free(a);
  EXPECT_EQ(alloc.stats().bytes_in_use, 1024);
  EXPECT_EQ(alloc.stats().bytes_cached, 4096);

  // Reuse from the free list: in_use rises, cached falls, peak unchanged.
  void* c = alloc.Allocate(4000);
  EXPECT_EQ(c, a);
  EXPECT_EQ(alloc.stats().bytes_in_use, 4096 + 1024);
  EXPECT_EQ(alloc.stats().bytes_cached, 0);
  EXPECT_EQ(alloc.stats().peak_bytes_in_use, peak);
  EXPECT_EQ(alloc.stats().cache_hits, 1);

  // Repeated free/reuse cycles keep the partition exact and never move peak.
  for (int i = 0; i < 10; ++i) {
    alloc.Free(c);
    EXPECT_EQ(alloc.stats().bytes_in_use + alloc.stats().bytes_cached, 4096 + 1024);
    c = alloc.Allocate(4096);
    EXPECT_EQ(alloc.stats().peak_bytes_in_use, peak);
  }
  alloc.Free(b);
  alloc.Free(c);
  EXPECT_EQ(alloc.stats().bytes_in_use, 0);
  EXPECT_EQ(alloc.stats().bytes_cached, 4096 + 1024);
  EXPECT_EQ(alloc.stats().peak_bytes_in_use, peak);
  alloc.ReleaseCache();
  EXPECT_EQ(alloc.stats().bytes_cached, 0);
}

TEST(Allocator, AdjustReservedBalancesAndRejectsOverRelease) {
  CachingAllocator alloc(1 << 20);
  alloc.AdjustReserved(1000);
  EXPECT_EQ(alloc.stats().bytes_reserved, 1000);
  alloc.AdjustReserved(-400);
  EXPECT_EQ(alloc.stats().bytes_reserved, 600);
  // Releasing more than was pinned is an accounting bug, not a clamp.
  EXPECT_THROW(alloc.AdjustReserved(-5000), Error);
  alloc.AdjustReserved(-600);
  EXPECT_EQ(alloc.stats().bytes_reserved, 0);
}

TEST(Allocator, ConcurrentAllocFreeAccountingStaysConsistent) {
  // Exercised under GS_SANITIZE=thread by tools/check.sh: several threads
  // allocate and free concurrently; the books must balance exactly when
  // they are done, and every snapshot mid-flight must stay within capacity.
  CachingAllocator alloc(8 << 20);
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&alloc, t] {
      std::vector<void*> held;
      for (int i = 0; i < kIters; ++i) {
        held.push_back(alloc.Allocate(512 + 64 * ((t * kIters + i) % 7)));
        if (held.size() > 8) {
          alloc.Free(held.front());
          held.erase(held.begin());
        }
        const AllocatorStats snap = alloc.stats();
        EXPECT_GE(snap.bytes_in_use, 0);
        EXPECT_LE(snap.bytes_in_use, alloc.capacity_bytes());
        EXPECT_GE(snap.peak_bytes_in_use, snap.bytes_in_use);
      }
      for (void* p : held) {
        alloc.Free(p);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const AllocatorStats done = alloc.stats();
  EXPECT_EQ(done.bytes_in_use, 0);
  EXPECT_EQ(done.alloc_calls, kThreads * kIters);
  EXPECT_LE(done.cache_hits, done.alloc_calls);
  EXPECT_GE(done.peak_bytes_in_use, 512);
}

TEST(Stream, LaunchOverheadCharged) {
  DeviceProfile p = V100Sim();
  Stream stream(p);
  stream.RecordKernel(/*cpu_ns=*/1000, KernelStats{});
  EXPECT_EQ(stream.counters().kernels_launched, 1);
  EXPECT_GE(stream.counters().virtual_ns, 1000 + p.launch_overhead_ns);
}

TEST(Stream, T4SlowerThanV100) {
  Stream v100(V100Sim());
  Stream t4(T4Sim());
  KernelStats stats{.parallel_items = 1000, .hbm_bytes = 1 << 20, .pcie_bytes = 0};
  v100.RecordKernel(100000, stats);
  t4.RecordKernel(100000, stats);
  EXPECT_GT(t4.counters().virtual_ns, v100.counters().virtual_ns);
}

TEST(Stream, PcieBytesCharged) {
  DeviceProfile p = V100Sim();
  Stream with_pcie(p);
  Stream without(p);
  with_pcie.RecordKernel(1000, {.parallel_items = 1, .hbm_bytes = 0, .pcie_bytes = 1 << 20});
  without.RecordKernel(1000, {.parallel_items = 1, .hbm_bytes = 0, .pcie_bytes = 0});
  EXPECT_GT(with_pcie.counters().virtual_ns, without.counters().virtual_ns);
}

TEST(Stream, OccupancyProxy) {
  DeviceProfile p = V100Sim();
  Stream low(p);
  Stream high(p);
  low.RecordKernel(10000, {.parallel_items = 16});
  high.RecordKernel(10000, {.parallel_items = p.sm_saturation_items * 2});
  EXPECT_LT(low.counters().SmUtilizationPercent(), 5.0);
  EXPECT_GT(high.counters().SmUtilizationPercent(), 90.0);
}

TEST(Stream, InterconnectBytesCharged) {
  DeviceProfile p = V100Sim();
  EXPECT_GT(p.interconnect_ns_per_byte, 0.0);
  Stream with_exchange(p);
  Stream without(p);
  with_exchange.RecordKernel(1000, {.parallel_items = 1, .interconnect_bytes = 1 << 20});
  without.RecordKernel(1000, {.parallel_items = 1});
  EXPECT_GT(with_exchange.counters().virtual_ns, without.counters().virtual_ns);
  EXPECT_EQ(with_exchange.counters().interconnect_bytes, 1 << 20);
  EXPECT_EQ(without.counters().interconnect_bytes, 0);
}

TEST(Profile, ValidateRejectsNegativeBandwidthCharges) {
  DeviceProfile p = V100Sim();
  p.Validate();  // presets must validate
  DeviceProfile bad_pcie = p;
  bad_pcie.pcie_ns_per_byte = -0.1;
  EXPECT_THROW(bad_pcie.Validate(), Error);
  DeviceProfile bad_hbm = p;
  bad_hbm.hbm_penalty_ns_per_byte = -1.0;
  EXPECT_THROW(bad_hbm.Validate(), Error);
  DeviceProfile bad_interconnect = p;
  bad_interconnect.interconnect_ns_per_byte = -0.5;
  EXPECT_THROW(bad_interconnect.Validate(), Error);
  // A Stream refuses to be built over an invalid profile.
  EXPECT_THROW(Stream{bad_interconnect}, Error);
}

TEST(Profile, HostReadBandwidthValidatedAndCharged) {
  // Feature-gather misses read host DRAM before crossing PCIe; the presets
  // model that at ~40 GB/s, CpuSim charges nothing ("host" memory IS the
  // device memory), and a negative rate is rejected like every other
  // bandwidth term.
  EXPECT_EQ(V100Sim().host_read_ns_per_byte, kHostReadNsPerByte);
  EXPECT_EQ(T4Sim().host_read_ns_per_byte, kHostReadNsPerByte);
  EXPECT_EQ(CpuSim("cpu", 40.0).host_read_ns_per_byte, 0.0);
  DeviceProfile bad = V100Sim();
  bad.host_read_ns_per_byte = -0.01;
  EXPECT_THROW(bad.Validate(), Error);
  EXPECT_THROW(Stream{bad}, Error);

  // host_bytes advance the clock by exactly the host-read term on top of an
  // otherwise identical kernel.
  const DeviceProfile p = V100Sim();
  Stream with_host(p);
  Stream without(p);
  constexpr int64_t kBytes = 1 << 20;
  with_host.RecordKernel(1000, {.parallel_items = 1, .host_bytes = kBytes});
  without.RecordKernel(1000, {.parallel_items = 1});
  EXPECT_EQ(with_host.counters().host_bytes, kBytes);
  EXPECT_EQ(without.counters().host_bytes, 0);
  EXPECT_EQ(with_host.counters().virtual_ns - without.counters().virtual_ns,
            static_cast<int64_t>(static_cast<double>(kBytes) * p.host_read_ns_per_byte));
}

TEST(Profile, InterconnectPresetIsFasterThanPcie) {
  // NVLink-class interconnect: faster per byte than PCIe 3.0 x16. The T4
  // preset has no NVLink, so its peers talk at PCIe rate; CpuSim has no
  // interconnect at all.
  EXPECT_GT(Interconnect(), 0.0);
  EXPECT_LT(Interconnect(), kPcieNsPerByte);
  EXPECT_EQ(V100Sim().interconnect_ns_per_byte, Interconnect());
  EXPECT_EQ(T4Sim().interconnect_ns_per_byte, kPcieNsPerByte);
  EXPECT_EQ(CpuSim("cpu", 40.0).interconnect_ns_per_byte, 0.0);
}

TEST(Device, GuardSwitchesCurrent) {
  Device& before = Current();
  {
    Device t4(T4Sim());
    DeviceGuard guard(t4);
    EXPECT_EQ(&Current(), &t4);
  }
  EXPECT_EQ(&Current(), &before);
}

TEST(Device, ThreadDeviceGuardOverridesPerThread) {
  Device& before = Current();
  Device shard0(V100Sim());
  Device shard1(V100Sim());
  // The override is thread-local: two threads pin different devices
  // concurrently without touching the process-global current device.
  std::thread t0([&] {
    ThreadDeviceGuard guard(shard0);
    EXPECT_EQ(&Current(), &shard0);
  });
  std::thread t1([&] {
    ThreadDeviceGuard guard(shard1);
    EXPECT_EQ(&Current(), &shard1);
  });
  t0.join();
  t1.join();
  EXPECT_EQ(&Current(), &before);
  // Nesting restores the outer override, and the thread override wins over
  // the process-global guard.
  {
    DeviceGuard global(shard0);
    ThreadDeviceGuard outer(shard1);
    {
      ThreadDeviceGuard inner(shard0);
      EXPECT_EQ(&Current(), &shard0);
    }
    EXPECT_EQ(&Current(), &shard1);
  }
  EXPECT_EQ(&Current(), &before);
}

TEST(Array, DeviceAllocationCounted) {
  Device dev(V100Sim());
  DeviceGuard guard(dev);
  const int64_t before = dev.allocator().stats().bytes_in_use;
  {
    auto a = Array<float>::Empty(1000);
    EXPECT_GT(dev.allocator().stats().bytes_in_use, before);
    (void)a;
  }
  EXPECT_EQ(dev.allocator().stats().bytes_in_use, before);
}

TEST(Array, SharedHandleSemantics) {
  auto a = Array<int32_t>::FromVector({1, 2, 3});
  Array<int32_t> alias = a;
  alias[0] = 42;
  EXPECT_EQ(a[0], 42);
  Array<int32_t> deep = a.Clone();
  deep[0] = 7;
  EXPECT_EQ(a[0], 42);
}

TEST(Array, HostSpaceBypassesAllocator) {
  Device dev(V100Sim());
  DeviceGuard guard(dev);
  const int64_t before = dev.allocator().stats().bytes_in_use;
  auto a = Array<float>::Empty(4096, MemorySpace::kHost);
  EXPECT_EQ(dev.allocator().stats().bytes_in_use, before);
  EXPECT_EQ(a.space(), MemorySpace::kHost);
}

TEST(UvaCache, HitAfterInstall) {
  feature::HotSetCache cache(64);
  EXPECT_EQ(cache.Access(5, 100), 100);  // miss: full charge
  EXPECT_EQ(cache.Access(5, 100), 0);    // hit
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(UvaCache, ConflictEvicts) {
  feature::HotSetCache cache(1);  // single slot: every distinct key conflicts
  EXPECT_EQ(cache.Access(1, 10), 10);
  EXPECT_EQ(cache.Access(2, 10), 10);
  EXPECT_EQ(cache.Access(1, 10), 10);  // evicted by key 2
}

TEST(UvaCache, ResetClears) {
  feature::HotSetCache cache(64);
  cache.Access(3, 8);
  cache.Reset();
  EXPECT_EQ(cache.Access(3, 8), 8);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(Profile, T4RatiosMatchPaper) {
  DeviceProfile t4 = T4Sim();
  // T4 FLOPS = 51.6% of V100 -> compute_scale ~ 1.94.
  EXPECT_NEAR(t4.compute_scale, 1.0 / 0.516, 1e-6);
  EXPECT_GT(t4.hbm_penalty_ns_per_byte, 0.0);
}

TEST(Profile, CpuSimHasNoPcie) {
  DeviceProfile cpu = CpuSim("test-cpu", 40.0);
  EXPECT_EQ(cpu.pcie_ns_per_byte, 0.0);
  EXPECT_EQ(cpu.compute_scale, 40.0);
}

}  // namespace
}  // namespace gs::device
