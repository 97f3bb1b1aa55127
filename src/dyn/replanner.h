// gs::dyn::Replanner — background recompilation worker.
//
// When a mutation epoch drifts a plan past its validity bounds, the right
// response is never to stall serving: the stale plan keeps answering (its
// results are still correct — layout calibration affects cost, not values)
// while a fresh compile runs here, off the serving path. The replanner is
// one background thread over a deduplicating job queue: a job is (compile
// key, snapshot); re-enqueueing a key that is already queued just advances
// its snapshot to the newest epoch (compiling against a superseded epoch
// would be wasted work). The owner supplies the CompileFn — serving's closes
// over its endpoint registry and plan cache.
//
// Stop() drains nothing (shutdown is immediate after the in-flight job);
// Drain() blocks until the queue is empty and the worker is idle — the
// hook tests and the mutation soak use to assert convergence.

#ifndef GSAMPLER_DYN_REPLANNER_H_
#define GSAMPLER_DYN_REPLANNER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "graph/store.h"

namespace gs::dyn {

struct ReplannerStats {
  int64_t enqueued = 0;
  int64_t deduped = 0;  // enqueues that advanced an already-queued job
  int64_t compiled = 0;
  int64_t failures = 0;  // CompileFn threw (logged, never fatal)
};

class Replanner {
 public:
  // Compiles `key` against `snapshot` and publishes the result wherever the
  // owner keeps plans. Runs on the replanner thread; exceptions are caught
  // and counted as failures.
  using CompileFn =
      std::function<void(const std::string& key, std::shared_ptr<const graph::Snapshot> snapshot)>;

  explicit Replanner(CompileFn compile);
  ~Replanner();

  Replanner(const Replanner&) = delete;
  Replanner& operator=(const Replanner&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }

  // Schedules a recompile of `key` against `snapshot`. Deduplicates by key:
  // a queued job is advanced to the newer snapshot instead of queueing
  // twice. Callable from any thread (serving workers, store listeners).
  void Enqueue(const std::string& key, std::shared_ptr<const graph::Snapshot> snapshot);

  // Blocks until every queued job has run and the worker is idle.
  void Drain();

  ReplannerStats stats() const;

 private:
  void WorkerLoop();

  CompileFn compile_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;       // wakes the worker
  std::condition_variable idle_cv_;  // wakes Drain
  std::deque<std::string> queue_;    // FIFO of keys
  std::map<std::string, std::shared_ptr<const graph::Snapshot>> pending_;  // key -> newest snapshot
  bool in_flight_ = false;
  bool stop_ = false;
  bool running_ = false;
  ReplannerStats stats_;
  std::thread worker_;
};

}  // namespace gs::dyn

#endif  // GSAMPLER_DYN_REPLANNER_H_
