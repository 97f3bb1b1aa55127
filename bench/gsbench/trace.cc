#include "trace.h"

#include <cstdio>
#include <fstream>

#include "common/error.h"

namespace gsbench {

uint64_t Tracer::NewId() {
  if (!recording()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(uint64_t id, const char* name, Clock::time_point start, Clock::time_point end,
                    uint64_t parent, uint64_t request, int lane) {
  if (!enabled_ || id == 0) {
    return;
  }
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, ns(start), ns(end), id, parent, request, lane});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  GS_CHECK(out.good()) << "cannot write trace file " << path;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"benchmark"}},)" << "\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"ingest"}})";
  char line[512];
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& s : spans_) {
    const double ts_us = static_cast<double>(s.start_ns) / 1e3;
    const double end_us = static_cast<double>(s.end_ns) / 1e3;
    if (s.request != 0) {
      // Async begin/end pairs keyed by request id: every stage of one
      // request lands on that request's track, nested by time.
      std::snprintf(line, sizeof(line),
                    ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\",\"pid\":1,\"tid\":2,"
                    "\"id\":\"%llu\",\"ts\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu}}"
                    ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\",\"pid\":1,\"tid\":2,"
                    "\"id\":\"%llu\",\"ts\":%.3f}",
                    s.name, static_cast<unsigned long long>(s.request), ts_us,
                    static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                    s.name, static_cast<unsigned long long>(s.request), end_us);
    } else {
      std::snprintf(line, sizeof(line),
                    ",\n{\"name\":\"%s\",\"cat\":\"gsbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu}}",
                    s.name, s.lane, ts_us, end_us - ts_us, static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
    }
    out << line;
  }
  out << "\n]}\n";
  out.close();
  GS_CHECK(!out.fail()) << "failed writing trace file " << path;
}

}  // namespace gsbench
