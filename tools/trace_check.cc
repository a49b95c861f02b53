// trace_check: structural validator for the Chrome trace-event JSON that
// TelemetrySession::WriteChromeTrace exports. The CI telemetry smoke job
// runs an instrumented quickstart and pipes the trace through this tool,
// which re-parses it with util/json_reader and enforces the invariants
// Perfetto needs but would silently tolerate breaking:
//
//   * the document is {"traceEvents": [...]} with only ph:"X" complete
//     events and ph:"M" thread_name metadata;
//   * every X event carries a non-empty name, ts >= 0, dur >= 0, pid 1,
//     and a tid that has a thread_name metadata record;
//   * metadata tids are exactly 1..N (the session assigns them in
//     registration order starting at 1);
//   * on each trace thread, spans nest: sorted parents-first, a span is
//     either disjoint from the open stack or properly contained in the
//     top — partial overlap on one thread means a broken stage pairing.
//
// It then prints, for every span name that encloses children at least
// once, the share of that name's total duration no direct child covers
// (the time the trace cannot attribute to a named stage).
//
// Usage: trace_check <trace.json> [--max-unattributed=<span>:<frac> ...]
//                    [required-span-name ...]
// Extra names must each occur at least once; each --max-unattributed
// bound fails the check when <span>'s unattributed share exceeds <frac>.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/json_reader.h"
#include "util/status.h"

namespace mrvd {
namespace {

struct Span {
  std::string name;
  double ts = 0.0;   ///< micros from trace origin
  double dur = 0.0;  ///< micros
  double end() const { return ts + dur; }
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "trace_check: %s\n", message.c_str());
  return 1;
}

/// Summed duration of one span name, and how much of it direct children
/// cover.
struct Coverage {
  bool parent = false;  ///< some span of this name encloses a child
  double total_us = 0.0;
  double covered_us = 0.0;
  double Unattributed() const {
    return total_us > 0.0 ? 1.0 - covered_us / total_us : 0.0;
  }
};

int Run(const std::string& path, const std::vector<std::string>& required,
        const std::map<std::string, double>& max_unattributed) {
  StatusOr<JsonValue> doc = ReadJsonFile(path);
  if (!doc.ok()) return Fail(doc.status().ToString());
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("document has no traceEvents array");
  }

  std::set<int64_t> metadata_tids;
  std::map<int64_t, std::vector<Span>> by_tid;
  std::map<std::string, int64_t> name_counts;
  std::map<std::string, Coverage> coverage;  ///< by span name
  for (size_t i = 0; i < events->array().size(); ++i) {
    const JsonValue& e = events->array()[i];
    const std::string at = "event #" + std::to_string(i);
    StatusOr<std::string> ph = e.GetString("ph");
    StatusOr<std::string> name = e.GetString("name");
    StatusOr<int64_t> tid = e.GetInt64("tid");
    StatusOr<int64_t> pid = e.GetInt64("pid");
    if (!ph.ok() || !name.ok() || !tid.ok() || !pid.ok()) {
      return Fail(at + " lacks ph/name/tid/pid");
    }
    if (*pid != 1) return Fail(at + " has pid != 1");
    if (*tid < 1) return Fail(at + " has tid < 1");
    if (*ph == "M") {
      if (*name != "thread_name") {
        return Fail(at + " is metadata but not thread_name");
      }
      const JsonValue* args = e.Find("args");
      if (args == nullptr || !args->GetString("name").ok()) {
        return Fail(at + " thread_name metadata lacks args.name");
      }
      if (!metadata_tids.insert(*tid).second) {
        return Fail(at + " duplicates thread_name for tid " +
                    std::to_string(*tid));
      }
      continue;
    }
    if (*ph != "X") return Fail(at + " has ph '" + *ph + "' (want X or M)");
    StatusOr<double> ts = e.GetDouble("ts");
    StatusOr<double> dur = e.GetDouble("dur");
    if (!ts.ok() || !dur.ok()) return Fail(at + " lacks numeric ts/dur");
    if (name->empty()) return Fail(at + " has an empty span name");
    if (*ts < 0.0 || *dur < 0.0) return Fail(at + " has negative ts/dur");
    by_tid[*tid].push_back(Span{*name, *ts, *dur});
    ++name_counts[*name];
  }

  if (metadata_tids.empty()) return Fail("no thread_name metadata");
  // Registration order starts at 1 with no gaps.
  if (*metadata_tids.begin() != 1 ||
      *metadata_tids.rbegin() != static_cast<int64_t>(metadata_tids.size())) {
    return Fail("metadata tids are not a dense 1..N range");
  }
  for (const auto& [tid, spans] : by_tid) {
    if (metadata_tids.count(tid) == 0) {
      return Fail("tid " + std::to_string(tid) + " has spans but no " +
                  "thread_name metadata");
    }
    // The writer sorts (ts, -dur) per tid — parents before children. Redo
    // the sort so the check does not depend on the writer's ordering.
    std::vector<Span> sorted = spans;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Span& a, const Span& b) {
                       if (a.ts != b.ts) return a.ts < b.ts;
                       return a.dur > b.dur;
                     });
    // ts/dur were rounded to micros independently, so containment gets a
    // rounding allowance well below one clock tick.
    constexpr double kSlackUs = 0.01;
    std::vector<size_t> stack;  ///< indices into sorted
    std::vector<double> covered(sorted.size(), 0.0);
    std::vector<char> has_child(sorted.size(), 0);
    for (size_t i = 0; i < sorted.size(); ++i) {
      const Span& span = sorted[i];
      while (!stack.empty() &&
             sorted[stack.back()].end() <= span.ts + kSlackUs) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const Span& top = sorted[stack.back()];
        if (span.end() > top.end() + kSlackUs) {
          return Fail("span '" + span.name + "' partially overlaps '" +
                      top.name + "' on tid " + std::to_string(tid));
        }
        covered[stack.back()] += span.dur;
        has_child[stack.back()] = 1;
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < sorted.size(); ++i) {
      Coverage& c = coverage[sorted[i].name];
      c.parent = c.parent || has_child[i];
      c.total_us += sorted[i].dur;
      c.covered_us += std::min(covered[i], sorted[i].dur);
    }
  }

  int64_t total = 0;
  for (const auto& [name, count] : name_counts) total += count;
  if (total == 0) return Fail("trace has no spans");
  for (const std::string& name : required) {
    if (name_counts[name] == 0) {
      return Fail("required span '" + name + "' never occurs");
    }
  }

  std::printf("trace_check: %lld spans on %zu threads nest correctly\n",
              static_cast<long long>(total), metadata_tids.size());
  for (const auto& [name, count] : name_counts) {
    std::printf("  %-20s %lld\n", name.c_str(),
                static_cast<long long>(count));
  }
  std::printf("unattributed share of each parent span:\n");
  for (const auto& [name, c] : coverage) {
    if (!c.parent) continue;
    std::printf("  %-20s %8.4f  (%.3f of %.3f ms)\n", name.c_str(),
                c.Unattributed(), (c.total_us - c.covered_us) * 1e-3,
                c.total_us * 1e-3);
  }
  for (const auto& [name, bound] : max_unattributed) {
    auto it = coverage.find(name);
    if (it == coverage.end() || !it->second.parent) {
      return Fail("span '" + name + "' never encloses a child span");
    }
    if (it->second.Unattributed() > bound) {
      return Fail("span '" + name + "' leaves " +
                  std::to_string(it->second.Unattributed()) +
                  " of its time unattributed (bound " +
                  std::to_string(bound) + ")");
    }
  }
  return 0;
}

}  // namespace
}  // namespace mrvd

int main(int argc, char** argv) {
  const char* usage =
      "usage: trace_check <trace.json> [--max-unattributed=<span>:<frac> "
      "...] [required-span-name ...]\n";
  if (argc < 2) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  const std::string flag = "--max-unattributed=";
  std::vector<std::string> required;
  std::map<std::string, double> max_unattributed;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) != 0) {
      required.push_back(arg);
      continue;
    }
    const std::string value = arg.substr(flag.size());
    const size_t colon = value.rfind(':');
    char* end = nullptr;
    const double bound =
        colon == std::string::npos ? -1.0
                                   : std::strtod(value.c_str() + colon + 1, &end);
    if (colon == 0 || colon == std::string::npos || end == nullptr ||
        *end != '\0' || !(bound >= 0.0 && bound <= 1.0)) {
      std::fprintf(stderr, "trace_check: bad %s (want <span>:<frac in "
                   "[0,1]>)\n%s", arg.c_str(), usage);
      return 2;
    }
    max_unattributed[value.substr(0, colon)] = bound;
  }
  return mrvd::Run(argv[1], required, max_unattributed);
}
