#include "telemetry/registry.h"

#include <algorithm>

#include "common/json.h"

namespace gamedb::telemetry {

uint64_t Histogram::Percentile(double p) const {
  // Relaxed snapshot of the buckets; rank logic mirrors
  // LatencyHistogram::Percentile over the identical bucket layout.
  std::array<uint64_t, kBuckets> snap;
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    total += snap[static_cast<size_t>(i)];
  }
  if (total == 0) return 0;
  uint64_t lo = min_.load(std::memory_order_relaxed);
  uint64_t hi = max_.load(std::memory_order_relaxed);
  if (p >= 100.0) return hi;
  double want = p / 100.0 * static_cast<double>(total);
  auto target = static_cast<uint64_t>(want);
  if (static_cast<double>(target) < want || target == 0) ++target;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[static_cast<size_t>(i)];
    if (seen >= target) {
      return std::max(lo,
                      std::min(hi, LatencyHistogram::BucketUpperEdge(i)));
    }
  }
  return hi;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      std::unique_ptr<Histogram>(new Histogram(&enabled_)))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<HistogramSummary> MetricsRegistry::HistogramValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSummary> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSummary s;
    s.name = name;
    s.count = h->count();
    s.min = h->min();
    s.max = h->max();
    s.mean = h->mean();
    s.p50 = h->Percentile(50.0);
    s.p99 = h->Percentile(99.0);
    s.p999 = h->Percentile(99.9);
    out.push_back(std::move(s));
  }
  return out;
}

std::string RenderTelemetryJson(const MetricsRegistry& registry) {
  // Hand-rolled, deterministic key order: schema, counters, gauges,
  // histograms; instrument names sorted (std::map iteration order).
  std::string out = "{\n";
  out += "  \"schema\": \"";
  out += kTelemetrySchema;
  out += "\",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : registry.CounterValues()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    json::AppendQuoted(&out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : registry.GaugeValues()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    json::AppendQuoted(&out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSummary& h : registry.HistogramValues()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    json::AppendQuoted(&out, h.name);
    out += ": {\"count\": " + std::to_string(h.count);
    out += ", \"min\": " + std::to_string(h.min);
    out += ", \"max\": " + std::to_string(h.max);
    out += ", \"mean\": " + json::Fixed3(h.mean);
    out += ", \"p50\": " + std::to_string(h.p50);
    out += ", \"p99\": " + std::to_string(h.p99);
    out += ", \"p999\": " + std::to_string(h.p999);
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

namespace {

using json::JsonValue;
using json::kAnyNumber;
using json::Shape;

const Shape kSchemaTag = json::OneOf({kTelemetrySchema});
const Shape kNumbers = json::MapOf(&kAnyNumber);
const Shape kHistogram = json::Object({
    {"count", &kAnyNumber}, {"min", &kAnyNumber}, {"max", &kAnyNumber},
    {"mean", &kAnyNumber}, {"p50", &kAnyNumber}, {"p99", &kAnyNumber},
    {"p999", &kAnyNumber},
});
const Shape kHistograms = json::MapOf(&kHistogram);
const Shape kTelemetryDoc = json::Object({
    {"schema", &kSchemaTag},
    {"counters", &kNumbers},
    {"gauges", &kNumbers},
    {"histograms", &kHistograms},
});

Status SchemaFail(const std::string& what) {
  return Status::SchemaMismatch("telemetry json schema violation: " + what);
}

}  // namespace

Status ValidateTelemetryJson(const std::string& doc) {
  GAMEDB_ASSIGN_OR_RETURN(JsonValue root, json::ParseJson(doc));
  const std::string why = json::CheckShape(root, kTelemetryDoc);
  if (!why.empty()) return SchemaFail(why);
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const auto& members = root.Find(section)->members;
    for (size_t i = 1; i < members.size(); ++i) {
      if (!(members[i - 1].first < members[i].first)) {
        return SchemaFail(std::string(section) + " keys not sorted at '" +
                          members[i].first + "'");
      }
    }
  }
  for (const auto& [name, h] : root.Find("histograms")->members) {
    for (const json::Field& f : kHistogram.fields) {
      if (h.Find(f.key)->number < 0.0) {
        return SchemaFail("histograms." + name + "." + std::string(f.key) +
                          " is negative");
      }
    }
    if (h.Find("count")->number > 0.0 &&
        h.Find("min")->number > h.Find("max")->number) {
      return SchemaFail("histograms." + name + " has min > max");
    }
  }
  return Status::OK();
}

}  // namespace gamedb::telemetry
