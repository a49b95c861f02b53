#include "telemetry/trace.h"

#include <utility>

#include "telemetry/session.h"

namespace mrvd {
namespace telemetry {

ThreadTraceBuffer::ThreadTraceBuffer(TelemetrySession* session, int tid,
                                     size_t chunk_events)
    : session_(session), tid_(tid), chunk_events_(chunk_events) {
  events_.reserve(chunk_events_);
}

void ThreadTraceBuffer::Flush() {
  if (events_.empty()) return;
  TraceChunk chunk;
  chunk.tid = tid_;
  chunk.events = std::move(events_);
  events_ = {};
  events_.reserve(chunk_events_);
  session_->EnqueueChunk(std::move(chunk));
}

StageClock::StageClock(TelemetrySession* session) {
  if (session != nullptr && session->tracing()) {
    buffer_ = session->BufferForCurrentThread();
  }
}

}  // namespace telemetry
}  // namespace mrvd
