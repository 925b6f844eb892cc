// Structured span tracing — the fastft::obs recording layer.
//
// The paper's runtime claims (Table II's Optimization/Estimation/Evaluation
// breakdown, Fig. 9/10 scaling) are about *where time goes*; once evaluation
// and estimation fan out over the shared thread pool, flat per-bucket sums
// cannot show pool queue wait, per-fold skew, or cache-hit timing. This
// tracer records named spans into per-thread ring buffers and exports them
// as Chrome trace-event JSON (loadable in chrome://tracing or Perfetto)
// plus an aggregated per-span summary.
//
// Design (see DESIGN.md "Observability"):
//   * Always compiled, always aggregating: every FASTFT_TRACE_SPAN call site
//     owns a static SpanSite that adds each span's count and duration with
//     relaxed atomics, tracing or not (two clock reads and two adds per
//     span). ReadSpanTotals merges sites by name; the engine derives the
//     Table II time buckets from a per-run delta of those totals. No
//     computation is ever reordered or skipped because of tracing — engine
//     outputs are bit-identical with tracing on or off, at any thread
//     count.
//   * One fixed-capacity ring buffer per thread, drop-oldest beyond the cap
//     with a dropped-span counter. Each ring is single-writer (its owner
//     thread); a per-ring mutex — uncontended in steady state — makes the
//     exporter's snapshot race-free under TSan without a shared lock on the
//     recording path.
//   * Threads register explicitly (ThreadPool workers do) or lazily on
//     first use; registration order assigns small stable tids that double
//     as the log-line thread ids.
//   * StartTracing clears every ring and (re)arms recording; StopTracing
//     freezes the rings so they can be snapshotted/exported afterwards.
//
// Span naming scheme mirrors fault sites: "<subsystem>/<operation>", e.g.
// "engine/step", "evaluator/fold", "pool/task", "encode_cache/lookup".

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace fastft {
namespace obs {

struct TraceOptions {
  /// Max retained spans per thread; older spans are dropped (and counted)
  /// once a ring wraps.
  size_t ring_capacity = 65536;
};

/// Clears every registered ring and starts recording. Calling while already
/// active restarts the session (rings are cleared again). Registers the
/// calling thread as "main" if it has no name yet.
void StartTracing(const TraceOptions& options = {});

/// Stops recording; ring contents stay frozen for SnapshotTrace /
/// WriteChromeTrace until the next StartTracing.
void StopTracing();

/// True between StartTracing and StopTracing. One relaxed atomic load.
bool TracingActive();

/// Names the calling thread and returns its stable tid. First call wins;
/// later calls only return the tid. ThreadPool workers call this as
/// "pool-worker-<i>".
int RegisterThisThread(const std::string& name);

/// Stable small id of the calling thread (registers it as "thread-<id>" on
/// first use). Also used by FASTFT_LOG line prefixes.
int CurrentThreadId();

/// One recorded span. `name` points at the call site's string literal;
/// times are nanoseconds since the StartTracing origin.
struct SpanEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

/// All spans retained by one thread's ring, oldest first.
struct ThreadTrace {
  int tid = 0;
  std::string thread_name;
  std::vector<SpanEvent> events;
  int64_t dropped = 0;  // spans overwritten after the ring wrapped
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;  // ascending tid

  int64_t TotalEvents() const;
  int64_t TotalDropped() const;
};

/// Copies every ring's current contents. Safe to call at any time; intended
/// after StopTracing (a snapshot taken mid-recording is consistent per ring
/// but threads may keep appending).
TraceSnapshot SnapshotTrace();

/// Aggregated statistics of one span name across the snapshot.
struct SpanStats {
  std::string name;
  int64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
  /// Spans recorded per thread (tid -> count): pool-worker attribution.
  std::map<int, int64_t> count_by_thread;

  double MeanNs() const {
    return count > 0 ? static_cast<double>(total_ns) /
                           static_cast<double>(count)
                     : 0.0;
  }
};

/// Per-span summary (count/total/mean/max, by thread), sorted by descending
/// total time.
std::vector<SpanStats> SummarizeSpans(const TraceSnapshot& snapshot);

/// Serializes a snapshot as Chrome trace-event JSON: complete ("ph":"X")
/// events plus thread_name/process_name metadata, with the span summary and
/// per-thread dropped counters embedded under non-standard top-level keys
/// (Perfetto ignores them).
std::string ChromeTraceJson(const TraceSnapshot& snapshot);

/// SnapshotTrace + ChromeTraceJson written to `path`.
Status WriteChromeTrace(const std::string& path);

/// Count and summed duration of one span name.
struct SpanTotal {
  int64_t count = 0;
  uint64_t total_ns = 0;
};

/// Span totals keyed by span name.
using SpanTotals = std::map<std::string, SpanTotal>;

/// Totals of every FASTFT_TRACE_SPAN call site since process start, with
/// call sites that share a name merged. Always on; independent of tracing.
SpanTotals ReadSpanTotals();

/// end - start per name; names with no spans in between are dropped.
SpanTotals SpanTotalsDelta(const SpanTotals& start, const SpanTotals& end);

/// The always-on aggregation slot of one FASTFT_TRACE_SPAN call site. Lives
/// in a function-local static for the process lifetime and registers itself
/// on construction.
class SpanSite {
 public:
  explicit SpanSite(const char* name);
  SpanSite(const SpanSite&) = delete;
  SpanSite& operator=(const SpanSite&) = delete;

  const char* name() const { return name_; }
  void Add(uint64_t duration_ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(duration_ns, std::memory_order_relaxed);
  }
  SpanTotal Read() const {
    return {count_.load(std::memory_order_relaxed),
            total_ns_.load(std::memory_order_relaxed)};
  }

 private:
  const char* name_;
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
};

namespace internal {

/// Monotonic clock read (absolute; the recorder rebases onto the
/// StartTracing origin).
uint64_t NowNs();

/// Appends one span to the calling thread's ring (no-op unless tracing is
/// active).
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns);

}  // namespace internal

/// RAII span over [construction, destruction) of the enclosing scope. A span
/// built on a SpanSite (what FASTFT_TRACE_SPAN does) always adds to the
/// site's totals; a span built on a bare name only records into the ring.
/// Either way it records into the ring only if tracing was active at entry.
/// `name` must outlive the trace session (string literals do).
class TraceSpan {
 public:
  explicit TraceSpan(SpanSite& site) : TraceSpan(site.name(), &site) {}
  explicit TraceSpan(const char* name) : TraceSpan(name, nullptr) {}
  ~TraceSpan() {
    if (site_ == nullptr && !traced_) return;
    const uint64_t end_ns = internal::NowNs();
    if (site_ != nullptr) site_->Add(end_ns - start_ns_);
    if (traced_) internal::RecordSpan(name_, start_ns_, end_ns);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSpan(const char* name, SpanSite* site)
      : name_(name),
        site_(site),
        traced_(TracingActive()),
        start_ns_(site != nullptr || traced_ ? internal::NowNs() : 0) {}

  const char* name_;
  SpanSite* site_;  // nullptr = ring only
  bool traced_;     // tracing was active at entry
  uint64_t start_ns_;
};

}  // namespace obs
}  // namespace fastft

#define FASTFT_TRACE_CONCAT_INNER(a, b) a##b
#define FASTFT_TRACE_CONCAT(a, b) FASTFT_TRACE_CONCAT_INNER(a, b)

/// Times the enclosing scope as one span, e.g.
///   FASTFT_TRACE_SPAN("engine/step");
/// Expands to two declarations: the call site's static SpanSite and the span.
#define FASTFT_TRACE_SPAN(name) FASTFT_TRACE_SPAN_ID(__COUNTER__, name)
#define FASTFT_TRACE_SPAN_ID(id, name)                                    \
  static ::fastft::obs::SpanSite FASTFT_TRACE_CONCAT(fastft_span_site_,   \
                                                     id)(name);           \
  ::fastft::obs::TraceSpan FASTFT_TRACE_CONCAT(fastft_trace_span_, id)(   \
      FASTFT_TRACE_CONCAT(fastft_span_site_, id))

