// Pool of worker threads, each bound to its own device::Stream.
//
// This is the stage-worker idiom of pipeline::Executor extracted into a
// reusable facility: every worker thread installs its stream as the
// thread's current stream (StreamGuard), so all kernels the worker runs are
// recorded on — and advance the virtual timeline of — that stream. The
// pipeline executor spawns one worker per stage per Run; the serving
// subsystem (gs::serving::Server) keeps a long-lived pool whose workers
// loop over its tenant queues.
//
// Streams persist across Start/Join cycles so callers can diff counters
// around a run (the executor) or accumulate them forever (the server).

#ifndef GSAMPLER_PIPELINE_WORKER_POOL_H_
#define GSAMPLER_PIPELINE_WORKER_POOL_H_

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "device/profile.h"
#include "device/stream.h"

namespace gs::pipeline {

class WorkerPool {
 public:
  // Creates `count` streams from `profile`; no threads yet.
  WorkerPool(const device::DeviceProfile& profile, int count);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Joins any running workers.
  ~WorkerPool();

  int size() const { return static_cast<int>(streams_.size()); }
  device::Stream& stream(int worker) { return *streams_[static_cast<size_t>(worker)]; }

  // Spawns one thread per worker; each installs its stream and runs
  // body(worker_index) to completion. Must not be called while a previous
  // Start is still running (Join first).
  void Start(std::function<void(int)> body);

  // Joins all workers spawned by the last Start. Idempotent.
  void Join();

 private:
  std::vector<std::unique_ptr<device::Stream>> streams_;
  std::vector<std::thread> threads_;
};

}  // namespace gs::pipeline

#endif  // GSAMPLER_PIPELINE_WORKER_POOL_H_
