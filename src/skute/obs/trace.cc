#include "skute/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace skute::obs {

std::atomic<bool> Tracer::enabled_{false};

namespace {
/// The calling thread's buffer in the global tracer; set on the thread's
/// first recorded span, valid for the thread's lifetime (buffers are
/// owned by the leaked global tracer and never deallocated).
thread_local Tracer::ThreadBuffer* tls_buffer = nullptr;
}  // namespace

Tracer& Tracer::Global() {
  // Leaked singleton: worker threads may record during static teardown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) buffer->events.clear();
  origin_ = Now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_relaxed); }

Tracer::ThreadBuffer* Tracer::RegisterThread() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffers_.back()->tid = static_cast<uint32_t>(buffers_.size() - 1);
  tls_buffer = buffers_.back().get();
  return tls_buffer;
}

void Tracer::Record(const TraceEvent& event) {
  ThreadBuffer* buffer = tls_buffer;
  if (buffer == nullptr) buffer = RegisterThread();
  buffer->events.push_back(event);
  buffer->events.back().tid = buffer->tid;
}

std::vector<TraceEvent> Tracer::MergedEvents() const {
  std::vector<TraceEvent> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      merged.insert(merged.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.start != b.start) return a.start < b.start;
                     // Ties: the enclosing (longer) span first, so a
                     // parent always precedes the children it contains.
                     if (a.end != b.end) return a.end > b.end;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return std::strcmp(a.name, b.name) < 0;
                   });
  return merged;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->events.size();
  return count;
}

void Tracer::WriteChromeTrace(std::ostream* out) const {
  const std::vector<TraceEvent> events = MergedEvents();
  *out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Thread-name metadata so Perfetto labels the lanes.
  uint32_t max_tid = 0;
  for (const TraceEvent& e : events) max_tid = std::max(max_tid, e.tid);
  bool first = true;
  if (!events.empty()) {
    for (uint32_t tid = 0; tid <= max_tid; ++tid) {
      *out << (first ? "\n" : ",\n") << "{\"ph\":\"M\",\"pid\":0,\"tid\":"
           << tid << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << (tid == 0 ? "main" : "worker-" + std::to_string(tid))
           << "\"}}";
      first = false;
    }
  }
  for (const TraceEvent& e : events) {
    // Fixed-point µs to the nanosecond: the stream's default 6
    // significant digits would round every timestamp past 1 s and
    // un-nest child spans from their parents.
    char times[64];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  UsBetween(origin_, e.start), UsBetween(e.start, e.end));
    *out << (first ? "\n" : ",\n") << "{\"ph\":\"X\",\"pid\":0,\"tid\":"
         << e.tid << ",\"cat\":\"" << e.category << "\",\"name\":\""
         << e.name << "\"," << times;
    if (e.has_arg) *out << ",\"args\":{\"i\":" << e.arg << "}";
    *out << "}";
    first = false;
  }
  *out << "\n]}\n";
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  if (path.empty()) {
    return Status::InvalidArgument("trace output path is empty");
  }
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Unavailable("cannot open '" + path + "' for writing");
  }
  WriteChromeTrace(static_cast<std::ostream*>(&out));
  out.flush();
  if (!out.good()) {
    return Status::Unavailable("write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace skute::obs
