#include "telemetry/bundle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace gamedb::telemetry {

namespace {

/// Integral doubles (counter deltas, ns durations, percentile estimates)
/// print as integers; the rest keep six decimals.
std::string Num(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "0");
  }
  return buf;
}

/// Re-indents an embedded multi-line JSON document by `pad` spaces (the
/// first line is emitted at the insertion point, so it gets no pad).
std::string Indent(const std::string& doc, int pad) {
  std::string out;
  out.reserve(doc.size());
  const std::string padding(static_cast<size_t>(pad), ' ');
  bool at_line_start = false;
  for (char c : doc) {
    if (c == '\n') {
      out.push_back(c);
      at_line_start = true;
      continue;
    }
    if (at_line_start) {
      out += padding;
      at_line_start = false;
    }
    out.push_back(c);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

}  // namespace

std::string SloCheck::ToString() const {
  std::string out = name + ": measured " + json::Fixed3(measured_ms) +
                    " ms vs allowed " + json::Fixed3(target_ms) + " ms";
  out += violated ? " [VIOLATED]" : " [ok]";
  return out;
}

std::string RenderFlightRecorderBundle(const BundleInputs& inputs) {
  std::string out = "{\n";
  out += "  \"schema\": \"";
  out += kFlightRecSchema;
  out += "\",\n";
  auto quoted = [&out](std::string_view s) { json::AppendQuoted(&out, s); };

  out += "  \"trigger\": {\"reason\": ";
  quoted(inputs.reason);
  out += ", \"tick\": " + std::to_string(inputs.tick) + ", \"scenario\": ";
  quoted(inputs.scenario);
  out += "},\n";

  out += "  \"rules\": [";
  bool first = true;
  if (inputs.watchdog != nullptr) {
    for (const RuleStatus& st : inputs.watchdog->status()) {
      out += first ? "\n" : ",\n";
      first = false;
      const HealthRule& r = st.rule;
      out += "    {\"name\": ";
      quoted(r.name);
      out += ", \"rendered\": ";
      quoted(r.ToString());
      out += ", \"metric\": ";
      quoted(r.metric);
      out += ", \"aggregation\": \"";
      out += AggregationName(r.aggregation);
      out += "\", \"window\": " + std::to_string(r.window);
      out += ", \"op\": \"";
      out += r.above ? "gt" : "lt";
      out += "\", \"threshold\": " + Num(r.threshold);
      out += ", \"severity\": \"";
      out += SeverityName(r.severity);
      out += "\", \"for_ticks\": " + std::to_string(r.for_ticks);
      out += ", \"clear_ticks\": " + std::to_string(r.clear_ticks);
      out += ", \"evaluated\": ";
      out += st.evaluated ? "true" : "false";
      out += ", \"tripped\": ";
      out += st.tripped ? "true" : "false";
      out += ", \"trip_count\": " + std::to_string(st.trip_count);
      out += ", \"tripped_tick\": " + std::to_string(st.tripped_tick);
      out += ", \"last_value\": " + Num(st.last_value);
      out += ", \"evaluations\": " + std::to_string(st.evaluations);
      out += "}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"slo\": [";
  first = true;
  for (const SloCheck& check : inputs.slo_checks) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    quoted(check.name);
    out += ", \"target_ms\": " + Num(check.target_ms);
    out += ", \"measured_ms\": " + Num(check.measured_ms);
    out += ", \"violated\": ";
    out += check.violated ? "true" : "false";
    out += ", \"rendered\": ";
    quoted(check.ToString());
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"series\": [";
  first = true;
  if (inputs.recorder != nullptr) {
    for (const FlightRecorder::Series& s : inputs.recorder->Snapshot()) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\": ";
      quoted(s.name);
      out += ", \"kind\": \"";
      out += SeriesKindName(s.kind);
      out += "\", \"ticks\": [";
      for (size_t i = 0; i < s.ticks.size(); ++i) {
        if (i != 0) out += ", ";
        out += std::to_string(s.ticks[i]);
      }
      out += "], \"values\": [";
      for (size_t i = 0; i < s.values.size(); ++i) {
        if (i != 0) out += ", ";
        out += Num(s.values[i]);
      }
      out += "]}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";

  if (inputs.metrics != nullptr) {
    out += "  \"metrics\": " +
           Indent(RenderTelemetryJson(*inputs.metrics), 2) + ",\n";
  } else {
    out += "  \"metrics\": null,\n";
  }

  out += "  \"trace\": [";
  first = true;
  if (inputs.tracer != nullptr) {
    std::vector<TraceEvent> events = inputs.tracer->Events();
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                if (a.tid != b.tid) return a.tid < b.tid;
                return a.name < b.name;
              });
    for (const TraceEvent& e : events) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\": ";
      quoted(e.name);
      out += ", \"ts_ns\": " + std::to_string(e.ts_ns);
      out += ", \"dur_ns\": " + std::to_string(e.dur_ns);
      out += ", \"tid\": " + std::to_string(e.tid);
      out += "}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"plans\": [";
  first = true;
  for (const std::string& plan : inputs.hot_plans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    quoted(plan);
  }
  out += first ? "]\n" : "\n  ]\n";

  out += "}\n";
  return out;
}

namespace {

using json::JsonValue;
using json::kAnyBool;
using json::kAnyNumber;
using json::kAnyString;
using json::Presence;
using json::Shape;

const Shape kSchemaTag = json::OneOf({kFlightRecSchema});
const Shape kTrigger = json::Object({
    {"reason", &kAnyString}, {"tick", &kAnyNumber},
    {"scenario", &kAnyString},
});
const Shape kAggregation = json::OneOf({"last", "mean", "min", "max", "sum"});
const Shape kOp = json::OneOf({"gt", "lt"});
const Shape kSeverity = json::OneOf({"info", "warning", "critical"});
const Shape kRule = json::Object({
    {"name", &kAnyString}, {"rendered", &kAnyString},
    {"metric", &kAnyString}, {"aggregation", &kAggregation},
    {"window", &kAnyNumber}, {"op", &kOp},
    {"threshold", &kAnyNumber}, {"severity", &kSeverity},
    {"for_ticks", &kAnyNumber}, {"clear_ticks", &kAnyNumber},
    {"evaluated", &kAnyBool}, {"tripped", &kAnyBool},
    {"trip_count", &kAnyNumber}, {"tripped_tick", &kAnyNumber},
    {"last_value", &kAnyNumber}, {"evaluations", &kAnyNumber},
});
const Shape kSlo = json::Object({
    {"name", &kAnyString}, {"target_ms", &kAnyNumber},
    {"measured_ms", &kAnyNumber}, {"violated", &kAnyBool},
    {"rendered", &kAnyString},
});
const Shape kSeriesKind = json::OneOf({"counter_delta", "gauge", "hist_p50",
                                       "hist_p99", "hist_p999", "hist_count"});
const Shape kNumbers = json::ArrayOf(&kAnyNumber);
const Shape kSeries = json::Object({
    {"name", &kAnyString}, {"kind", &kSeriesKind},
    {"ticks", &kNumbers}, {"values", &kNumbers},
});
// The embedded telemetry document is checked for its tag and sections
// only; ValidateTelemetryJson owns its full shape.
const Shape kTelemetryTag = json::OneOf({kTelemetrySchema});
const Shape kMetrics = json::Object({
    {"schema", &kTelemetryTag}, {"counters", &json::kAnyObject},
    {"gauges", &json::kAnyObject}, {"histograms", &json::kAnyObject},
});
const Shape kTraceEvent = json::Object({
    {"name", &kAnyString}, {"ts_ns", &kAnyNumber},
    {"dur_ns", &kAnyNumber}, {"tid", &kAnyNumber},
});
const Shape kRules = json::ArrayOf(&kRule);
const Shape kSlos = json::ArrayOf(&kSlo);
const Shape kSeriesList = json::ArrayOf(&kSeries);
const Shape kTrace = json::ArrayOf(&kTraceEvent);
const Shape kPlans = json::ArrayOf(&kAnyString);
const Shape kBundle = json::Object({
    {"schema", &kSchemaTag},
    {"trigger", &kTrigger},
    {"rules", &kRules},
    {"slo", &kSlos},
    {"series", &kSeriesList},
    {"metrics", &kMetrics, Presence::kNullable},
    {"trace", &kTrace},
    {"plans", &kPlans},
});

Status Fail(const std::string& what) {
  return Status::SchemaMismatch("flightrec bundle schema violation: " + what);
}

/// Fails naming `at.field` when that number is negative.
Status NonNegative(const JsonValue& obj, const std::string& at,
                   std::initializer_list<const char*> fields) {
  for (const char* f : fields) {
    if (obj.Find(f)->number < 0.0) return Fail(at + "." + f + " is negative");
  }
  return Status::OK();
}

Status ValidateSeries(const std::vector<JsonValue>& series) {
  for (size_t i = 0; i < series.size(); ++i) {
    const JsonValue& s = series[i];
    const std::string at = "series[" + std::to_string(i) + "]";
    const std::string& name = s.Find("name")->str;
    if (i > 0 && !(series[i - 1].Find("name")->str < name)) {
      return Fail("series not sorted by name at '" + name + "'");
    }
    const std::vector<JsonValue>& ticks = s.Find("ticks")->elements;
    if (ticks.size() != s.Find("values")->elements.size()) {
      return Fail(at + " ticks/values length mismatch");
    }
    if (ticks.empty()) {
      return Fail(at + " is empty (never-sampled series must be omitted)");
    }
    double prev_tick = 0.0;
    for (const JsonValue& t : ticks) {
      if (t.number < prev_tick) {
        return Fail(at + ".ticks negative or not non-decreasing");
      }
      prev_tick = t.number;
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateFlightRecorderBundle(const std::string& doc) {
  GAMEDB_ASSIGN_OR_RETURN(JsonValue root, json::ParseJson(doc));
  const std::string why = json::CheckShape(root, kBundle);
  if (!why.empty()) return Fail(why);
  GAMEDB_RETURN_NOT_OK(NonNegative(*root.Find("trigger"), "trigger", {"tick"}));
  const std::vector<JsonValue>& rules = root.Find("rules")->elements;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].Find("window")->number < 1.0) {
      return Fail("rules[" + std::to_string(i) + "].window must be >= 1");
    }
  }
  const std::vector<JsonValue>& slo = root.Find("slo")->elements;
  for (size_t i = 0; i < slo.size(); ++i) {
    GAMEDB_RETURN_NOT_OK(NonNegative(slo[i], "slo[" + std::to_string(i) + "]",
                                     {"target_ms", "measured_ms"}));
  }
  GAMEDB_RETURN_NOT_OK(ValidateSeries(root.Find("series")->elements));
  const std::vector<JsonValue>& trace = root.Find("trace")->elements;
  for (size_t i = 0; i < trace.size(); ++i) {
    GAMEDB_RETURN_NOT_OK(NonNegative(trace[i],
                                     "trace[" + std::to_string(i) + "]",
                                     {"ts_ns", "dur_ns", "tid"}));
  }
  return Status::OK();
}

}  // namespace gamedb::telemetry
