#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/json.h"

namespace gamedb::telemetry {

namespace {

/// Nanoseconds -> microseconds with 3 decimals (chrome ts/dur unit).
std::string Micros(uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::string RenderChromeTraceJson(const Tracer& tracer) {
  std::vector<TraceEvent> events = tracer.Events();
  // Parallel shards append in completion order; sort so the same set of
  // spans always renders the same bytes.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.ts_ns, a.tid, a.name) <
                     std::tie(b.ts_ns, b.tid, b.name);
            });
  std::string out = "{\n";
  out += "  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    json::AppendQuoted(&out, e.name);
    out += ", \"cat\": \"gamedb\"";
    out += ", \"ph\": \"X\"";
    out += ", \"ts\": " + Micros(e.ts_ns);
    out += ", \"dur\": " + Micros(e.dur_ns);
    out += ", \"pid\": 1";
    out += ", \"tid\": " + std::to_string(e.tid);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

using json::JsonValue;
using json::kAnyNumber;
using json::Shape;

const Shape kCompleteEvent = json::OneOf({"X"});
const Shape kEvent = json::Object({
    {"name", &json::kAnyString}, {"ph", &kCompleteEvent},
    {"ts", &kAnyNumber}, {"dur", &kAnyNumber},
    {"pid", &kAnyNumber}, {"tid", &kAnyNumber},
});
const Shape kEvents = json::ArrayOf(&kEvent);
const Shape kTraceDoc = json::Object({{"traceEvents", &kEvents}});

Status SchemaFail(const std::string& what) {
  return Status::SchemaMismatch("trace json schema violation: " + what);
}

}  // namespace

Status ValidateChromeTraceJson(const std::string& doc) {
  GAMEDB_ASSIGN_OR_RETURN(JsonValue root, json::ParseJson(doc));
  const std::string why = json::CheckShape(root, kTraceDoc);
  if (!why.empty()) return SchemaFail(why);
  const std::vector<JsonValue>& events = root.Find("traceEvents")->elements;
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (events[i].Find("name")->str.empty()) {
      return SchemaFail(at + ".name is empty");
    }
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      if (events[i].Find(field)->number < 0.0) {
        return SchemaFail(at + "." + field + " is negative");
      }
    }
  }
  return Status::OK();
}

}  // namespace gamedb::telemetry
