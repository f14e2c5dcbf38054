#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code: around each
// request, around calls into a layer's public functions, and inside the
// seam decorators (decorators.h). Nothing inside the library is touched.
// Recording is off unless Tracer::Enable() was called; a disabled tracer
// costs one relaxed atomic load per span site.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds (steady_clock).
int64_t NowNs();

/// Process CPU time in nanoseconds, all threads included.
int64_t ProcessCpuNs();

struct Span {
  const char* name = "";  ///< Static string: a layer.function label.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 for a request's root span.
  uint64_t request = 0;   ///< Request the span belongs to; 0 outside one.
  uint32_t thread = 0;    ///< Small per-thread index.
};

/// \brief Process-wide span sink.
///
/// Parent links follow a per-thread stack of open spans. A span opened on a
/// thread with no open span (a pool worker) takes the current request's
/// root span as its parent, and every span carries the current request id,
/// so work fanned out to pool threads stays attributed to its request. The
/// benchmark issues one request at a time, which makes the process-wide
/// "current request" well defined.
class Tracer {
 public:
  static Tracer& Global();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name);
  /// Closes the span `id` opened on this thread by Begin.
  void End(uint64_t id);

  /// Marks the start and end of a request: the request's root span.
  void BeginRequest(uint64_t request, const char* name);
  void EndRequest();

  /// Copies of every kept span, in close order.
  std::vector<Span> Spans() const;
  /// Spans not recorded because the buffer was full when their request
  /// began (requests are kept whole or not at all).
  uint64_t dropped() const;
  void Clear();

  /// Writes the closed spans as Chrome trace-event JSON ("X" events, µs).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  /// Buffer cap (~14 MB of spans). A request that begins with the buffer
  /// full is not recorded; its spans are only counted.
  static constexpr size_t kMaxSpans = 250000;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> full_{false};     ///< Set per request by BeginRequest.
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> request_{0};
  std::atomic<uint64_t> request_root_{0};
  mutable std::mutex mu_;
  std::vector<Span> closed_;  ///< Guarded by mu_.
};

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(Tracer::Global().Begin(name)) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Global().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
