// Stage timing and trace spans: a StageClock times back-to-back stages
// with one clock read per stage boundary and, when tracing, records each
// stage as a span into a per-thread append-only buffer, exported by the
// TelemetrySession as Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing).
//
// Hot-path cost model, per stage boundary:
//   * always one monotonic clock read (Stopwatch::NowNanos) — the reading
//     is the stage's duration whether or not anything records it;
//   * tracing off (null session / tracing disabled): nothing else — a
//     pointer check, no allocation, no lock;
//   * tracing on: plus one push_back into a buffer owned exclusively by
//     the recording thread. Locks are touched only when a chunk fills
//     (every chunk_events spans) to hand it to the session's drain queue.
//
// Span names must be string literals (static storage): events store the
// pointers, never copies, so recording a span moves 24 bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/stopwatch.h"

namespace mrvd {
namespace telemetry {

class TelemetrySession;

/// One completed span.
struct TraceEvent {
  const char* name = nullptr;  ///< static-storage string literal
  int64_t start_ns = 0;        ///< Stopwatch::NowNanos timebase
  int64_t dur_ns = 0;
};

/// A batch of events handed from a recording thread to the drain side.
struct TraceChunk {
  int tid = 0;  ///< session-assigned trace thread id (>= 1)
  std::vector<TraceEvent> events;
};

/// Append-only event buffer owned by exactly one recording thread. The
/// owning thread is the only writer; when the current chunk reaches
/// chunk_events the buffer hands it to the session (one short lock) and
/// starts a fresh one. The session flushes the final partial chunk at
/// Finish(), when no instrumented work is in flight.
class ThreadTraceBuffer {
 public:
  ThreadTraceBuffer(TelemetrySession* session, int tid, size_t chunk_events);

  ThreadTraceBuffer(const ThreadTraceBuffer&) = delete;
  ThreadTraceBuffer& operator=(const ThreadTraceBuffer&) = delete;

  int tid() const { return tid_; }

  void Record(const TraceEvent& event) {
    events_.push_back(event);
    if (events_.size() >= chunk_events_) Flush();
  }

  /// Hands the current chunk to the session's drain queue. Called by the
  /// owning thread on overflow and by the session at Finish().
  void Flush();

 private:
  TelemetrySession* session_;
  int tid_;
  size_t chunk_events_;
  std::vector<TraceEvent> events_;
};

/// Times consecutive stages on the calling thread with one clock read per
/// boundary: each Lap() closes the open stage and opens the next at the
/// same instant, so the stages tile the clocked interval with no gap and
/// every reading serves both neighbours. With a tracing session each
/// closed stage is also recorded as a span with exactly the measured start
/// and duration; Enclose() records a parent span over the stages lapped
/// since Start() without reading the clock again. A null, non-tracing or
/// finished session records nothing, and the seconds are returned all the
/// same.
///
/// The clock resolves its trace buffer once, at construction, so it must
/// be used on the thread that constructed it.
class StageClock {
 public:
  explicit StageClock(TelemetrySession* session);

  /// Opens the first stage (one clock read).
  void Start() { start_ns_ = last_ns_ = Stopwatch::NowNanos(); }

  /// Closes the open stage as `name`, opens the next at the same instant
  /// (one clock read) and returns the closed stage's seconds.
  double Lap(const char* name) {
    const int64_t now_ns = Stopwatch::NowNanos();
    const int64_t dur_ns = now_ns - last_ns_;
    if (buffer_ != nullptr) buffer_->Record({name, last_ns_, dur_ns});
    last_ns_ = now_ns;
    return static_cast<double>(dur_ns) * 1e-9;
  }

  /// Records `name` over [Start(), last boundary] — the span enclosing the
  /// stages lapped since Start(). Reads no clock.
  void Enclose(const char* name) {
    if (buffer_ != nullptr) {
      buffer_->Record({name, start_ns_, last_ns_ - start_ns_});
    }
  }

 private:
  ThreadTraceBuffer* buffer_ = nullptr;  ///< null = record nothing
  int64_t start_ns_ = 0;
  int64_t last_ns_ = 0;
};

}  // namespace telemetry
}  // namespace mrvd
