// Span recording for the benchmark's traced run.
//
// Spans are opened and closed around calls into each layer's public
// functions from the benchmark's own code (nothing inside src/ is
// instrumented).  Every thread appends to its own buffer, so recording takes
// no lock after a thread's first span; the buffers stay in memory and are
// written out once, when the run ends.  A span's self time is its duration
// minus the time its child spans cover.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";      // string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root span
  std::uint64_t request = 0;  // shared by every span of one request
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  void record(const Span& s) { buffer().push_back(s); }

  // Every span recorded so far; call once the recording threads are joined.
  std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& buf : buffers_) all.insert(all.end(), buf->begin(), buf->end());
    return all;
  }

 private:
  // A thread's buffer is cached under the tracer's serial number, not its
  // address, which a later tracer may reuse.
  std::vector<Span>& buffer() {
    thread_local std::uint64_t owner = 0;
    thread_local std::vector<Span>* buf = nullptr;
    if (owner != serial_) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffers_.back()->reserve(1 << 16);
      buf = buffers_.back().get();
      owner = serial_;
    }
    return *buf;
  }

  static std::uint64_t next_serial() {
    static std::atomic<std::uint64_t> serials{0};
    return serials.fetch_add(1) + 1;
  }

  const std::uint64_t serial_ = next_serial();
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
             std::uint64_t request)
      : tracer_(tracer) {
    span_.name = name;
    span_.id = tracer.next_id();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = tracer.now_ns();
  }
  ~ScopedSpan() {
    span_.end_ns = tracer_.now_ns();
    tracer_.record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

// Per-name self times (µs) of a span set, one entry per span.
inline std::map<std::string, std::vector<double>> self_times_us(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    out[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

}  // namespace perfbench
