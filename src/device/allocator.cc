#include "device/allocator.h"

#include <bit>
#include <cstdlib>
#include <string>

#include "common/error.h"
#include "fault/fault.h"
#include "fault/status.h"

namespace gs::device {

CachingAllocator::CachingAllocator(int64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {
  GS_CHECK_GT(capacity_bytes, 0);
}

CachingAllocator::~CachingAllocator() {
  std::lock_guard<std::mutex> lock(mutex_);
  ReleaseCacheLocked();
  // Live allocations at destruction indicate a leak in the caller; free the
  // host memory anyway to keep tests sanitizer-clean.
  for (auto& [ptr, size] : live_) {
    (void)size;
    std::free(ptr);
  }
}

namespace {

// The largest power-of-two size class an int64 byte count can hold.
constexpr int64_t kLargestClass = int64_t{1} << 62;

}  // namespace

int64_t CachingAllocator::RoundToClass(int64_t bytes) {
  // 512-byte granularity below 4 KiB, power-of-two classes above — the same
  // shape as the PyTorch caching allocator's block rounding.
  if (bytes <= 0) {
    return 512;
  }
  if (bytes <= 4096) {
    return (bytes + 511) / 512 * 512;
  }
  if (bytes > kLargestClass) {
    return bytes;  // no larger power of two fits in int64; no capacity holds it
  }
  return static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(bytes)));
}

void* CachingAllocator::TryAllocateLocked(int64_t rounded, bool inject_oom) {
  if (!inject_oom) {
    auto it = pool_.find(rounded);
    if (it != pool_.end() && !it->second.empty()) {
      void* ptr = it->second.back();
      it->second.pop_back();
      stats_.bytes_cached -= rounded;
      ++stats_.cache_hits;
      stats_.bytes_in_use += rounded;
      stats_.peak_bytes_in_use = std::max(stats_.peak_bytes_in_use, stats_.bytes_in_use);
      live_.emplace(ptr, rounded);
      return ptr;
    }
  }
  if (inject_oom || rounded > capacity_bytes_ - stats_.bytes_in_use) {
    return nullptr;
  }
  void* ptr = std::malloc(static_cast<size_t>(rounded));
  GS_CHECK(ptr != nullptr) << "host allocation of " << rounded << " bytes failed";
  stats_.bytes_in_use += rounded;
  stats_.peak_bytes_in_use = std::max(stats_.peak_bytes_in_use, stats_.bytes_in_use);
  live_.emplace(ptr, rounded);
  return ptr;
}

void* CachingAllocator::Allocate(int64_t bytes) {
  const int64_t rounded = RoundToClass(bytes);
  // One injection decision per Allocate call, drawn before the first
  // attempt: an injected OOM fails the attempt as a whole (pool hit
  // included, modeling fragmentation) and then exercises the same recovery
  // ladder as a genuine capacity failure.
  const bool inject_oom = fault::Injected(fault::Site::kAllocOom);

  // Recovery ladder. Attempt 0 is the fast path; after a failure, rung 1
  // flushes the free lists (cudaEmptyCache analogue) and rung 2 asks the
  // registered pressure handlers (UVA cache, serving plan cache) to shrink
  // before the failure surfaces as ResourceExhaustedError. Handlers run
  // with mutex_ released so they may call back into Free/AdjustReserved.
  for (int attempt = 0; attempt < 3; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (attempt == 0) {
        ++stats_.alloc_calls;
      }
      void* ptr = TryAllocateLocked(rounded, inject_oom && attempt == 0);
      if (ptr != nullptr) {
        if (attempt > 0) {
          ++stats_.oom_recoveries;
        }
        return ptr;
      }
      if (attempt == 0) {
        ReleaseCacheLocked();
        ++stats_.oom_cache_flushes;
      }
    }
    if (attempt == 1) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.oom_pressure_rounds;
      }
      InvokePressureHandlers(rounded);
    }
  }
  int64_t in_use = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.oom_failures;
    in_use = stats_.bytes_in_use;
  }
  throw fault::ResourceExhaustedError(
      "simulated device out of memory: in-use " + std::to_string(in_use) + " + request " +
      std::to_string(rounded) + " exceeds capacity " + std::to_string(capacity_bytes_) +
      " (cache flushed and pressure handlers ran)");
}

void CachingAllocator::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(ptr);
  GS_CHECK(it != live_.end()) << "Free of unknown pointer";
  const int64_t rounded = it->second;
  live_.erase(it);
  stats_.bytes_in_use -= rounded;
  stats_.bytes_cached += rounded;
  pool_[rounded].push_back(ptr);
}

void CachingAllocator::ReleaseCache() {
  std::lock_guard<std::mutex> lock(mutex_);
  ReleaseCacheLocked();
}

void CachingAllocator::AdjustReserved(int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Validate before mutating: a rejected over-release must not poison the
  // running total for subsequent balanced adjustments.
  GS_CHECK_GE(stats_.bytes_reserved + delta, 0)
      << "reserved-bytes accounting went negative";
  stats_.bytes_reserved += delta;
}

int64_t CachingAllocator::RegisterPressureHandler(PressureHandler handler) {
  GS_CHECK(handler != nullptr) << "null pressure handler";
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  const int64_t id = next_handler_id_++;
  handlers_.emplace(id, std::move(handler));
  return id;
}

void CachingAllocator::UnregisterPressureHandler(int64_t id) {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  handlers_.erase(id);
}

int64_t CachingAllocator::InvokePressureHandlers(int64_t bytes_needed) {
  // Holding handlers_mutex_ across the calls makes Unregister a barrier:
  // once it returns, the handler cannot be running. mutex_ is NOT held
  // here, so handlers may free memory or adjust reservations.
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  int64_t released = 0;
  for (auto& [id, handler] : handlers_) {
    (void)id;
    released += handler(bytes_needed);
  }
  return released;
}

void CachingAllocator::ReleaseCacheLocked() {
  for (auto& [cls, blocks] : pool_) {
    for (void* ptr : blocks) {
      std::free(ptr);
      stats_.bytes_cached -= cls;
    }
    blocks.clear();
  }
}

}  // namespace gs::device
