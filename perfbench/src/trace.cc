#include "trace.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

struct ThreadState {
  uint32_t index;
  std::vector<Span> stack;  ///< Open spans, innermost last.
};

ThreadState& State() {
  static std::atomic<uint32_t> next_thread{0};
  thread_local ThreadState state{next_thread.fetch_add(1), {}};
  return state;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::Begin(const char* name) {
  if (!enabled()) return 0;
  if (full_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  ThreadState& state = State();
  Span span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.request = request_.load(std::memory_order_relaxed);
  span.parent = state.stack.empty()
                    ? request_root_.load(std::memory_order_relaxed)
                    : state.stack.back().id;
  span.thread = state.index;
  span.start_ns = NowNs();
  state.stack.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id) {
  // Spans are scoped, so they close in LIFO order on their thread.
  ThreadState& state = State();
  if (state.stack.empty() || state.stack.back().id != id) return;
  Span span = state.stack.back();
  state.stack.pop_back();
  span.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  closed_.push_back(span);
}

void Tracer::BeginRequest(uint64_t request, const char* name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    full_.store(closed_.size() >= kMaxSpans, std::memory_order_relaxed);
  }
  request_.store(request, std::memory_order_relaxed);
  request_root_.store(0, std::memory_order_relaxed);
  uint64_t root = Begin(name);
  request_root_.store(root, std::memory_order_relaxed);
}

void Tracer::EndRequest() {
  uint64_t root = request_root_.load(std::memory_order_relaxed);
  if (root != 0) End(root);
  request_root_.store(0, std::memory_order_relaxed);
  request_.store(0, std::memory_order_relaxed);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_.clear();
  full_.store(false, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

uint64_t Tracer::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> spans = Spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    if (span.start_ns < origin) origin = span.start_ns;
  }
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", file);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
