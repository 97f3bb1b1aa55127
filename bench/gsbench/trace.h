// Span recorder for traced runs (--trace 1).
//
// The benchmark records spans from its own code around each call into a
// layer: set-up steps, windows, epochs, sampler calls, serving requests
// with their stages, and GraphStore::Apply. Spans stay in memory and are
// written once, as Chrome trace-event JSON (chrome://tracing or
// ui.perfetto.dev). A disabled or paused recorder records nothing.

#ifndef GSBENCH_TRACE_H_
#define GSBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gsbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // True when spans are being recorded right now.
  bool recording() const { return enabled_ && !paused_; }
  // Suspends recording (the traced run measures its own overhead by
  // alternating recorded and unrecorded windows).
  void set_paused(bool paused) { paused_ = paused; }

  // A fresh span id, so children can name a parent that is still open; 0
  // when not recording.
  uint64_t NewId();

  // Records span `id` over [start, end). `name` must be a string literal.
  // `parent` is the enclosing span (0 for a root). Spans with a nonzero
  // `request` belong to that serving request: they share its id and are
  // drawn as one async track. `lane` picks the row for other spans.
  void Record(uint64_t id, const char* name, Clock::time_point start, Clock::time_point end,
              uint64_t parent, uint64_t request = 0, int lane = 0);

  // Writes every recorded span to `path`. Throws gs::Error on I/O failure.
  void WriteJson(const std::string& path) const;

  size_t size() const;

 private:
  struct SpanRecord {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int lane;
  };

  const bool enabled_;
  std::atomic<bool> paused_{false};
  const Clock::time_point origin_;
  // The ingest thread records Apply spans while the main thread records
  // requests.
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
};

// Scoped span: opens at construction, records at destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer), name_(name), parent_(parent), id_(tracer.NewId()), start_(Clock::now()) {}
  ~Span() {
    if (id_ != 0) {
      tracer_.Record(id_, name_, start_, Clock::now(), parent_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace gsbench

#endif  // GSBENCH_TRACE_H_
