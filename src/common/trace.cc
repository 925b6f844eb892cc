#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/fs.h"
#include "common/thread_annotations.h"

namespace fastft {
namespace obs {
namespace {

using common::Mutex;
using common::MutexLock;

// Guards the buffer registry (the vector plus each buffer's name and the
// session ring capacity). Leaked on purpose, like the recorder below: pool
// workers may still register or record during static destruction. Lock
// order: RegistryMutex() may be held while taking a ThreadBuffer::mu, never
// the other way around.
Mutex& RegistryMutex() {
  static Mutex* mu = new Mutex();
  return *mu;
}

struct Slot {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

// One thread's ring. Only its owner records into it; the controller
// (StartTracing) and the exporter lock `mu` briefly, so the owner's lock is
// uncontended during steady-state recording.
struct ThreadBuffer {
  ThreadBuffer(int tid_in, std::string name_in)
      : tid(tid_in), thread_name(std::move(name_in)) {}

  const int tid;
  std::string thread_name FASTFT_GUARDED_BY(RegistryMutex());
  // explicit name vs. the "thread-<id>" fallback
  bool named FASTFT_GUARDED_BY(RegistryMutex()) = false;

  Mutex mu;
  // sized on StartTracing (or creation while on)
  std::vector<Slot> slots FASTFT_GUARDED_BY(mu);
  // spans ever recorded this session
  uint64_t count FASTFT_GUARDED_BY(mu) = 0;
};

struct Recorder {
  std::vector<std::unique_ptr<ThreadBuffer>> buffers
      FASTFT_GUARDED_BY(RegistryMutex());
  // Every SpanSite constructed so far (function-local statics, never freed).
  std::vector<const SpanSite*> sites FASTFT_GUARDED_BY(RegistryMutex());

  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> origin_ns{0};
  size_t ring_capacity FASTFT_GUARDED_BY(RegistryMutex()) =
      TraceOptions{}.ring_capacity;
};

// Leaked on purpose: pool workers (and their thread-local pointers below)
// outlive every static destructor that might still record or log.
Recorder& GlobalRecorder() {
  static Recorder* recorder = new Recorder();
  return *recorder;
}

ThreadBuffer* CreateBufferLocked(Recorder& rec)
    FASTFT_REQUIRES(RegistryMutex()) {
  const int tid = static_cast<int>(rec.buffers.size());
  rec.buffers.push_back(std::make_unique<ThreadBuffer>(
      tid, "thread-" + std::to_string(tid)));
  ThreadBuffer* buffer = rec.buffers.back().get();
  if (rec.enabled.load(std::memory_order_relaxed)) {
    MutexLock lock(&buffer->mu);
    buffer->slots.resize(rec.ring_capacity);
  }
  return buffer;
}

ThreadBuffer* ThisThreadBuffer() {
  thread_local ThreadBuffer* tls_buffer = nullptr;
  if (tls_buffer == nullptr) {
    Recorder& rec = GlobalRecorder();
    MutexLock lock(&RegistryMutex());
    tls_buffer = CreateBufferLocked(rec);
  }
  return tls_buffer;
}

void AppendJsonNumber(std::ostringstream& out, double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  out << buffer;
}

}  // namespace

int64_t TraceSnapshot::TotalEvents() const {
  int64_t total = 0;
  for (const ThreadTrace& t : threads) {
    total += static_cast<int64_t>(t.events.size());
  }
  return total;
}

int64_t TraceSnapshot::TotalDropped() const {
  int64_t total = 0;
  for (const ThreadTrace& t : threads) total += t.dropped;
  return total;
}

void StartTracing(const TraceOptions& options) {
  Recorder& rec = GlobalRecorder();
  RegisterThisThread("main");
  MutexLock lock(&RegistryMutex());
  // Disable first so concurrent recorders quiesce against the per-buffer
  // locks taken below rather than appending into half-cleared rings.
  rec.enabled.store(false, std::memory_order_relaxed);
  rec.ring_capacity = std::max<size_t>(options.ring_capacity, 1);
  for (auto& buffer : rec.buffers) {
    MutexLock buffer_lock(&buffer->mu);
    buffer->slots.assign(rec.ring_capacity, Slot{});
    buffer->count = 0;
  }
  rec.origin_ns.store(internal::NowNs(), std::memory_order_relaxed);
  rec.enabled.store(true, std::memory_order_release);
}

void StopTracing() {
  GlobalRecorder().enabled.store(false, std::memory_order_release);
}

bool TracingActive() {
  return GlobalRecorder().enabled.load(std::memory_order_relaxed);
}

int RegisterThisThread(const std::string& name) {
  ThreadBuffer* buffer = ThisThreadBuffer();
  MutexLock lock(&RegistryMutex());
  if (!buffer->named) {
    buffer->thread_name = name;
    buffer->named = true;
  }
  return buffer->tid;
}

int CurrentThreadId() { return ThisThreadBuffer()->tid; }

SpanSite::SpanSite(const char* name) : name_(name) {
  MutexLock lock(&RegistryMutex());
  GlobalRecorder().sites.push_back(this);
}

SpanTotals ReadSpanTotals() {
  Recorder& rec = GlobalRecorder();
  SpanTotals totals;
  MutexLock lock(&RegistryMutex());
  for (const SpanSite* site : rec.sites) {
    const SpanTotal read = site->Read();
    SpanTotal& merged = totals[site->name()];
    merged.count += read.count;
    merged.total_ns += read.total_ns;
  }
  return totals;
}

SpanTotals SpanTotalsDelta(const SpanTotals& start, const SpanTotals& end) {
  SpanTotals delta;
  for (const auto& [name, total] : end) {
    SpanTotal d = total;
    auto base = start.find(name);
    if (base != start.end()) {
      d.count -= base->second.count;
      d.total_ns -= base->second.total_ns;
    }
    if (d.count > 0) delta[name] = d;
  }
  return delta;
}

TraceSnapshot SnapshotTrace() {
  Recorder& rec = GlobalRecorder();
  TraceSnapshot snapshot;
  MutexLock lock(&RegistryMutex());
  snapshot.threads.reserve(rec.buffers.size());
  for (auto& buffer : rec.buffers) {
    MutexLock buffer_lock(&buffer->mu);
    ThreadTrace trace;
    trace.tid = buffer->tid;
    trace.thread_name = buffer->thread_name;
    const size_t capacity = buffer->slots.size();
    if (capacity > 0 && buffer->count > 0) {
      const uint64_t kept = std::min<uint64_t>(buffer->count, capacity);
      trace.dropped = static_cast<int64_t>(buffer->count - kept);
      trace.events.reserve(kept);
      // Oldest retained span first: the ring wraps at `capacity`.
      for (uint64_t i = buffer->count - kept; i < buffer->count; ++i) {
        const Slot& slot = buffer->slots[i % capacity];
        trace.events.push_back({slot.name, slot.start_ns, slot.duration_ns});
      }
    }
    snapshot.threads.push_back(std::move(trace));
  }
  return snapshot;
}

std::vector<SpanStats> SummarizeSpans(const TraceSnapshot& snapshot) {
  std::unordered_map<std::string, SpanStats> by_name;
  for (const ThreadTrace& thread : snapshot.threads) {
    for (const SpanEvent& event : thread.events) {
      SpanStats& stats = by_name[event.name];
      if (stats.count == 0) stats.name = event.name;
      ++stats.count;
      stats.total_ns += event.duration_ns;
      stats.max_ns = std::max(stats.max_ns, event.duration_ns);
      ++stats.count_by_thread[thread.tid];
    }
  }
  std::vector<SpanStats> summary;
  summary.reserve(by_name.size());
  for (auto& [name, stats] : by_name) summary.push_back(std::move(stats));
  std::sort(summary.begin(), summary.end(),
            [](const SpanStats& a, const SpanStats& b) {
              return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                              : a.name < b.name;
            });
  return summary;
}

std::string ChromeTraceJson(const TraceSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n\"traceEvents\": [\n";
  bool first = true;
  for (const ThreadTrace& thread : snapshot.threads) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << thread.tid << ", \"args\": {\"name\": \"" << thread.thread_name
        << "\"}}";
    for (const SpanEvent& event : thread.events) {
      out << ",\n{\"name\": \"" << (event.name ? event.name : "?")
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << thread.tid
          << ", \"ts\": ";
      AppendJsonNumber(out, static_cast<double>(event.start_ns) / 1000.0);
      out << ", \"dur\": ";
      AppendJsonNumber(out, static_cast<double>(event.duration_ns) / 1000.0);
      out << "}";
    }
  }
  if (!first) out << ",\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0,"
      << " \"args\": {\"name\": \"fastft\"}}\n";
  out << "],\n\"displayTimeUnit\": \"ms\",\n";

  out << "\"droppedSpans\": {";
  bool first_drop = true;
  for (const ThreadTrace& thread : snapshot.threads) {
    if (!first_drop) out << ", ";
    first_drop = false;
    out << "\"" << thread.tid << "\": " << thread.dropped;
  }
  out << "},\n";

  out << "\"spanSummary\": [\n";
  const std::vector<SpanStats> summary = SummarizeSpans(snapshot);
  for (size_t i = 0; i < summary.size(); ++i) {
    const SpanStats& stats = summary[i];
    out << "{\"name\": \"" << stats.name << "\", \"count\": " << stats.count
        << ", \"total_ms\": ";
    AppendJsonNumber(out, static_cast<double>(stats.total_ns) / 1e6);
    out << ", \"mean_us\": ";
    AppendJsonNumber(out, stats.MeanNs() / 1000.0);
    out << ", \"max_us\": ";
    AppendJsonNumber(out, static_cast<double>(stats.max_ns) / 1000.0);
    out << ", \"by_thread\": {";
    bool first_tid = true;
    for (const auto& [tid, count] : stats.count_by_thread) {
      if (!first_tid) out << ", ";
      first_tid = false;
      out << "\"" << tid << "\": " << count;
    }
    out << "}}";
    if (i + 1 < summary.size()) out << ",";
    out << "\n";
  }
  out << "]\n}\n";
  return out.str();
}

Status WriteChromeTrace(const std::string& path) {
  // Atomic write: a crash mid-export must not leave a truncated JSON file.
  return common::AtomicWriteFile(path, ChromeTraceJson(SnapshotTrace()));
}

namespace internal {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())  // fastft-analyze: allow(nondeterminism): the span clock
          .count());
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  Recorder& rec = GlobalRecorder();
  if (!rec.enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer* buffer = ThisThreadBuffer();
  const uint64_t origin = rec.origin_ns.load(std::memory_order_relaxed);
  Slot slot;
  slot.name = name;
  // A span opened before StartTracing rebases to the session origin.
  slot.start_ns = start_ns > origin ? start_ns - origin : 0;
  slot.duration_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  MutexLock lock(&buffer->mu);
  if (buffer->slots.empty()) return;  // ring sized only while tracing is on
  buffer->slots[buffer->count % buffer->slots.size()] = slot;
  ++buffer->count;
}

}  // namespace internal
}  // namespace obs
}  // namespace fastft
