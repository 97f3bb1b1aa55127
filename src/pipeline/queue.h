// Bounded MPMC queue with backpressure — the channel connecting pipeline
// stages (DALI-style prefetch queues).
//
// Push blocks while the queue is full (backpressure on the producer), Pop
// blocks while it is empty (starvation on the consumer); Close() ends the
// stream gracefully (producers are rejected, consumers drain what remains)
// and Cancel() tears it down (pending items are dropped so an aborting
// pipeline unwinds without handing out further work). The queue keeps
// occupancy and blocking statistics that feed pipeline::Metrics.

#ifndef GSAMPLER_PIPELINE_QUEUE_H_
#define GSAMPLER_PIPELINE_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/timer.h"

namespace gs::pipeline {

// Snapshot of a queue's lifetime statistics.
struct QueueStats {
  int64_t capacity = 0;
  int64_t push_attempts = 0;      // every Push call
  int64_t pushes = 0;             // attempts that enqueued an item
  int64_t pops = 0;
  int64_t push_blocked = 0;       // pushes that had to wait for a free slot
  // Attempts that dropped their item: Push calls that found the queue
  // closed, including producers that were blocked on a full queue when
  // Close()/Cancel() arrived. Every attempt is accounted:
  // push_attempts == pushes + push_rejected.
  int64_t push_rejected = 0;
  int64_t pop_blocked = 0;        // pops that had to wait for an item
  int64_t push_blocked_wall_ns = 0;
  int64_t pop_blocked_wall_ns = 0;
  // occupancy_hist[k]: number of pushes that left k items in the queue
  // (k in [1, capacity]; index 0 counts pops that emptied the queue).
  std::vector<int64_t> occupancy_hist;
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(int64_t capacity) : capacity_(capacity) {
    GS_CHECK_GT(capacity, 0) << "queue capacity must be positive";
    stats_.capacity = capacity;
    stats_.occupancy_hist.assign(static_cast<size_t>(capacity) + 1, 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while full. Returns false — and drops the item — once the queue
  // is closed or cancelled.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    ++stats_.push_attempts;
    if (static_cast<int64_t>(items_.size()) >= capacity_ && !closed_) {
      ++stats_.push_blocked;
      Timer blocked;
      not_full_.wait(lock, [&] {
        return closed_ || static_cast<int64_t>(items_.size()) < capacity_;
      });
      stats_.push_blocked_wall_ns += blocked.ElapsedNanos();
    }
    if (closed_) {
      // The item is dropped whether the producer was blocked when the queue
      // closed or arrived after; either way the attempt must be accounted or
      // pipeline metrics silently lose batches.
      ++stats_.push_rejected;
      return false;
    }
    items_.push_back(std::move(item));
    ++stats_.pushes;
    ++stats_.occupancy_hist[items_.size()];
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Returns nullopt once the queue is closed and
  // drained, or immediately after Cancel().
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty() && !closed_) {
      ++stats_.pop_blocked;
      Timer blocked;
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      stats_.pop_blocked_wall_ns += blocked.ElapsedNanos();
    }
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    ++stats_.pops;
    if (items_.empty()) {
      ++stats_.occupancy_hist[0];
    }
    not_full_.notify_one();
    return item;
  }

  // No more pushes; pending items remain poppable.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  // Close and drop everything pending: waiters wake immediately and see an
  // empty, closed queue. Used to unwind an aborting pipeline.
  void Cancel() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    items_.clear();
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  int64_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(items_.size());
  }

  int64_t capacity() const { return capacity_; }

  QueueStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  const int64_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  QueueStats stats_;
};

}  // namespace gs::pipeline

#endif  // GSAMPLER_PIPELINE_QUEUE_H_
