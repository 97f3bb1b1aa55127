// Device context: profile + allocator + default stream.
//
// Mirrors CUDA's "current device" model: operators allocate from and launch
// on the current device, which callers switch with DeviceGuard. The default
// device is a V100Sim instance created on first use.

#ifndef GSAMPLER_DEVICE_DEVICE_H_
#define GSAMPLER_DEVICE_DEVICE_H_

#include <memory>

#include "device/allocator.h"
#include "device/profile.h"
#include "device/stream.h"

namespace gs::device {

class Device {
 public:
  explicit Device(DeviceProfile profile)
      : profile_(std::move(profile)),
        allocator_(profile_.memory_capacity_bytes),
        stream_(profile_) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceProfile& profile() const { return profile_; }
  CachingAllocator& allocator() { return allocator_; }
  // The stream work on this thread records to: the thread's StreamGuard
  // override if one is active (pipeline stage workers), else the device's
  // default stream. Mirrors CUDA's per-thread current stream.
  Stream& stream();
  Stream& default_stream() { return stream_; }

 private:
  DeviceProfile profile_;
  CachingAllocator allocator_;
  Stream stream_;
};

// The device new work runs on: the calling thread's override if one is
// active (shard workers), else the process-global current device. Never
// null.
Device& Current();
// Replaces the process-global current device; returns the previous one (may
// be null for the implicit default).
Device* SetCurrent(Device* device);

// Replaces the calling thread's device override (nullptr clears it);
// returns the previous override. Unlike SetCurrent this affects only the
// calling thread — a sharded server worker pins its executing shard's device
// here while other shards run concurrently on theirs.
Device* SetThreadDevice(Device* device);

// Replaces the calling thread's stream override (nullptr clears it);
// returns the previous override.
Stream* SetThreadStream(Stream* stream);

// Scoped per-thread stream override. Pipeline stage workers install their
// stage stream so every kernel the stage runs is recorded on — and advances
// the timeline of — that stream.
class StreamGuard {
 public:
  explicit StreamGuard(Stream& stream) : previous_(SetThreadStream(&stream)) {}
  ~StreamGuard() { SetThreadStream(previous_); }

  StreamGuard(const StreamGuard&) = delete;
  StreamGuard& operator=(const StreamGuard&) = delete;

 private:
  Stream* previous_;
};

// Scoped per-thread device override. Shard workers install their shard's
// device so allocations and kernels on this thread hit that shard's
// allocator and streams, concurrently with other shards' threads — the
// process-global DeviceGuard cannot express that.
class ThreadDeviceGuard {
 public:
  explicit ThreadDeviceGuard(Device& device) : previous_(SetThreadDevice(&device)) {}
  ~ThreadDeviceGuard() { SetThreadDevice(previous_); }

  ThreadDeviceGuard(const ThreadDeviceGuard&) = delete;
  ThreadDeviceGuard& operator=(const ThreadDeviceGuard&) = delete;

 private:
  Device* previous_;
};

// Scoped switch of the process-global current device.
class DeviceGuard {
 public:
  explicit DeviceGuard(Device& device) : previous_(SetCurrent(&device)) {}
  ~DeviceGuard() { SetCurrent(previous_); }

  DeviceGuard(const DeviceGuard&) = delete;
  DeviceGuard& operator=(const DeviceGuard&) = delete;

 private:
  Device* previous_;
};

}  // namespace gs::device

#endif  // GSAMPLER_DEVICE_DEVICE_H_
