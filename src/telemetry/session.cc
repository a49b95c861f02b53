#include "telemetry/session.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>

#include "util/json_writer.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mrvd {
namespace telemetry {

namespace {

/// Process-unique session ids key the thread-local buffer cache below, so
/// a new session at a recycled address can never alias a stale cache entry.
std::atomic<uint64_t> g_next_session_id{1};

thread_local uint64_t t_cached_session_id = 0;
thread_local ThreadTraceBuffer* t_cached_buffer = nullptr;

}  // namespace

TelemetrySession::TelemetrySession(const TelemetryConfig& config)
    : id_(g_next_session_id.fetch_add(1)), config_(config) {
  if (config_.tracing && config_.async_drain) {
    drainer_ = std::thread([this] { DrainLoop(); });
  }
}

TelemetrySession::~TelemetrySession() { Finish(); }

ThreadTraceBuffer* TelemetrySession::BufferForCurrentThread() {
  if (finished_) return nullptr;
  if (t_cached_session_id == id_) return t_cached_buffer;
  MutexLock lock(mu_);
  const int tid = static_cast<int>(buffers_.size()) + 1;
  auto buffer =
      std::make_unique<ThreadTraceBuffer>(this, tid, config_.chunk_events);
  const int worker = ThreadPool::CurrentWorkerIndex();
  thread_names_.emplace_back(
      tid, worker >= 0 ? "worker-" + std::to_string(worker) : "main");
  t_cached_buffer = buffer.get();
  t_cached_session_id = id_;
  buffers_.push_back(std::move(buffer));
  return t_cached_buffer;
}

void TelemetrySession::EnqueueChunk(TraceChunk chunk) {
  if (chunk.events.empty()) return;
  bool notify = false;
  {
    MutexLock lock(mu_);
    if (config_.async_drain && !stop_) {
      queue_.push_back(std::move(chunk));
      notify = true;
    } else {
      // Synchronous deterministic mode (and the post-drainer tail): the
      // hand-off itself is the drain.
      drained_events_ += static_cast<int64_t>(chunk.events.size());
      drained_.push_back(std::move(chunk));
    }
  }
  if (notify) cv_.notify_one();
}

void TelemetrySession::DrainLoop() {
  MutexLock lock(mu_);
  for (;;) {
    // Manual wait loop instead of the predicate overload: the analysis
    // cannot follow guarded reads into a predicate lambda (see mutex.h).
    while (queue_.empty() && !stop_) cv_.wait(lock);
    if (queue_.empty() && stop_) return;
    for (TraceChunk& chunk : queue_) {
      drained_events_ += static_cast<int64_t>(chunk.events.size());
      drained_.push_back(std::move(chunk));
    }
    queue_.clear();
  }
}

void TelemetrySession::Finish() {
  if (finished_) return;
  // Flush every thread's partial chunk. The caller guarantees no
  // instrumented work is in flight, so touching other threads' buffers is
  // safe.
  // Flush -> EnqueueChunk takes mu_, so collect the pointers first.
  std::vector<ThreadTraceBuffer*> to_flush;
  {
    MutexLock lock(mu_);
    to_flush.reserve(buffers_.size());
    for (const auto& buffer : buffers_) to_flush.push_back(buffer.get());
  }
  for (ThreadTraceBuffer* buffer : to_flush) buffer->Flush();
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (drainer_.joinable()) drainer_.join();
  // The buffers stay alive (thread-local caches may still point at them);
  // finished_ gates tracing() so no further span can record into them.
  finished_ = true;
}

int64_t TelemetrySession::drained_events() const {
  MutexLock lock(mu_);
  return drained_events_;
}

Status TelemetrySession::WriteChromeTrace(const std::string& path) const {
  if (!finished_) {
    return Status::FailedPrecondition(
        "WriteChromeTrace requires a finished session (call Finish())");
  }
  std::vector<std::pair<int, std::string>> names;
  std::vector<std::pair<int, TraceEvent>> events;  ///< (tid, event)
  {
    MutexLock lock(mu_);
    names = thread_names_;
    size_t total = 0;
    for (const TraceChunk& chunk : drained_) total += chunk.events.size();
    events.reserve(total);
    for (const TraceChunk& chunk : drained_) {
      for (const TraceEvent& e : chunk.events) events.emplace_back(chunk.tid, e);
    }
  }
  // Parents before children on every trace thread: ascending start, and at
  // equal starts the longer (enclosing) span first.
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     if (a.second.start_ns != b.second.start_ns) {
                       return a.second.start_ns < b.second.start_ns;
                     }
                     return a.second.dur_ns > b.second.dur_ns;
                   });
  // A common timebase origin keeps Perfetto's timeline near zero.
  int64_t origin_ns = events.empty() ? 0 : events.front().second.start_ns;
  for (const auto& [tid, e] : events) origin_ns = std::min(origin_ns, e.start_ns);

  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const auto& [tid, name] : names) {
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").Number(1);
    w.Key("tid").Number(tid);
    w.Key("args").BeginObject();
    w.Key("name").String(name);
    w.EndObject();
    w.EndObject();
  }
  for (const auto& [tid, e] : events) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("cat").String("mrvd");
    w.Key("ph").String("X");
    w.Key("ts").Number(static_cast<double>(e.start_ns - origin_ns) / 1e3);
    w.Key("dur").Number(static_cast<double>(e.dur_ns) / 1e3);
    w.Key("pid").Number(1);
    w.Key("tid").Number(tid);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return IoErrorFromErrno("could not open '" + path + "' for writing");
  }
  file << os.str();
  file.flush();
  if (!file) return IoErrorFromErrno("could not write '" + path + "'");
  return Status::OK();
}

}  // namespace telemetry
}  // namespace mrvd
