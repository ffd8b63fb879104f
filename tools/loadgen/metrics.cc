#include "loadgen/metrics.h"

#include <fstream>
#include <vector>

#include "common/json.h"
#include "common/macros.h"

namespace gamedb::loadgen {

namespace {

// --- Rendering --------------------------------------------------------------

/// Streams `"key": value` pairs with fixed order and indentation.
class ObjectWriter {
 public:
  ObjectWriter(std::string* out, int indent) : out_(out), indent_(indent) {
    *out_ += "{";
  }
  void Field(const char* key, const std::string& s) {
    Key(key);
    json::AppendQuoted(out_, s);
  }
  void Field(const char* key, uint64_t v) {
    Key(key);
    *out_ += std::to_string(v);
  }
  void Field(const char* key, double v) {
    Key(key);
    *out_ += json::Fixed3(v);
  }
  void Field(const char* key, bool v) {
    Key(key);
    *out_ += v ? "true" : "false";
  }
  /// Opens a nested object; `body` fills it via its own ObjectWriter.
  template <typename Fn>
  void Object(const char* key, Fn body) {
    Key(key);
    ObjectWriter child(out_, indent_ + 2);
    body(child);
    child.Close();
  }
  void Close() {
    *out_ += '\n' + std::string(indent_ > 2 ? indent_ - 2 : 0, ' ') + "}";
  }

 private:
  void Key(const char* key) {
    if (!first_) *out_ += ',';
    first_ = false;
    *out_ += '\n' + std::string(indent_, ' ') + '"' + key + "\": ";
  }
  std::string* out_;
  int indent_;
  bool first_ = true;
};

void RenderSummary(ObjectWriter& w, const char* key,
                   const LatencySummary& s) {
  w.Object(key, [&](ObjectWriter& o) {
    o.Field("count", s.count);
    o.Field("p50", s.p50_ns);
    o.Field("p99", s.p99_ns);
    o.Field("p999", s.p999_ns);
    o.Field("max", s.max_ns);
    o.Field("mean", s.mean_ns);
  });
}

}  // namespace

std::string RenderReportJson(const ScenarioReport& report) {
  std::string out;
  out.reserve(2048);
  ObjectWriter root(&out, 2);
  root.Field("schema", std::string(kReportSchema));
  root.Object("config", [&](ObjectWriter& o) {
    const ScenarioConfig& c = report.config;
    o.Field("scenario", c.scenario);
    o.Field("clients", static_cast<uint64_t>(c.clients));
    o.Field("npcs", static_cast<uint64_t>(c.npcs));
    o.Field("ticks", static_cast<uint64_t>(c.ticks));
    o.Field("seed", c.seed);
    // Thread count is an execution detail the determinism contract says
    // cannot affect results; replay-mode reports omit it so the whole file
    // is byte-identical at any thread count.
    if (c.collect_timing) {
      o.Field("threads", static_cast<uint64_t>(c.threads));
    }
    o.Field("planner", std::string(c.planner_on ? "on" : "off"));
    o.Field("arena", static_cast<double>(c.arena));
    o.Field("interest_radius", static_cast<double>(c.interest_radius));
    o.Field("collect_timing", c.collect_timing);
  });
  root.Object("deterministic", [&](ObjectWriter& o) {
    o.Field("world_hash", report.world_hash);
    o.Field("final_entities", report.final_entities);
    o.Field("peak_entities", report.peak_entities);
    o.Field("logins", report.logins);
    o.Field("logouts", report.logouts);
    o.Field("spawns", report.spawns);
    o.Field("despawns", report.despawns);
    o.Field("deaths", report.deaths);
    o.Field("sync_bytes_total", report.sync_bytes_total);
    o.Field("sync_rows_total", report.sync_rows_total);
    o.Field("sync_removals_total", report.sync_removals_total);
    o.Field("client_ticks", report.client_ticks);
    o.Field("sync_bytes_per_client_tick", report.sync_bytes_per_client_tick);
    o.Field("script_errors", report.script_errors);
    o.Field("effect_contributions", report.effect_contributions);
    o.Field("deferred_ops", report.deferred_ops);
    o.Field("view_rounds", report.view_rounds);
    o.Field("view_change_records", report.view_change_records);
    o.Field("wounded_final", report.wounded_final);
    o.Field("critical_final", report.critical_final);
    o.Field("checkpoints", report.checkpoints);
    o.Field("wal_records", report.wal_records);
    o.Field("recovery_tick", report.recovery_tick);
  });
  if (report.config.collect_timing) {
    root.Object("timing", [&](ObjectWriter& o) {
      RenderSummary(o, "tick_ns", report.tick);
      RenderSummary(o, "script_phase_ns", report.script_phase);
      RenderSummary(o, "view_maintain_ns", report.view_maintain);
      RenderSummary(o, "sync_phase_ns", report.sync_phase);
      RenderSummary(o, "persist_phase_ns", report.persist_phase);
      o.Object("slo", [&](ObjectWriter& slo) {
        slo.Field("evaluated", report.slo_evaluated);
        slo.Field("violated", report.slo_violated);
        slo.Field("detail", report.slo_detail);
        // One structured record per configured gate (passed or not), keyed
        // by gate name — the evidence --enforce-slo prints and bundles
        // embed.
        slo.Object("checks", [&](ObjectWriter& checks) {
          for (const auto& c : report.slo_checks) {
            checks.Object(c.name.c_str(), [&](ObjectWriter& w) {
              w.Field("target_ms", c.target_ms);
              w.Field("measured_ms", c.measured_ms);
              w.Field("violated", c.violated);
            });
          }
        });
      });
    });
  }
  root.Close();
  out += '\n';
  return out;
}

std::string ReportFileName(const std::string& scenario) {
  return "BENCH_e15_" + scenario + ".json";
}

Result<std::string> WriteReportFile(const ScenarioReport& report,
                                    const std::string& dir) {
  std::string path = dir.empty()
                         ? ReportFileName(report.config.scenario)
                         : dir + "/" + ReportFileName(report.config.scenario);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out << RenderReportJson(report);
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return path;
}

namespace {

using json::kAnyBool;
using json::kAnyNumber;
using json::kAnyString;
using json::Presence;
using json::Shape;

const Shape kSchemaTag = json::OneOf({kReportSchema});
const Shape kConfig = json::Object({
    {"scenario", &kAnyString},
    {"clients", &kAnyNumber}, {"npcs", &kAnyNumber},
    {"ticks", &kAnyNumber}, {"seed", &kAnyNumber},
    // Omitted from replay-mode reports (see RenderReportJson).
    {"threads", &kAnyNumber, Presence::kOptional},
    {"planner", &kAnyString},
    {"collect_timing", &kAnyBool},
});

const Shape kDeterministic = json::Object({
    {"world_hash", &kAnyString},
    {"final_entities", &kAnyNumber}, {"peak_entities", &kAnyNumber},
    {"logins", &kAnyNumber}, {"logouts", &kAnyNumber},
    {"spawns", &kAnyNumber}, {"despawns", &kAnyNumber},
    {"deaths", &kAnyNumber}, {"sync_bytes_total", &kAnyNumber},
    {"sync_rows_total", &kAnyNumber}, {"sync_removals_total", &kAnyNumber},
    {"client_ticks", &kAnyNumber}, {"sync_bytes_per_client_tick", &kAnyNumber},
    {"script_errors", &kAnyNumber}, {"effect_contributions", &kAnyNumber},
    {"deferred_ops", &kAnyNumber}, {"view_rounds", &kAnyNumber},
    {"view_change_records", &kAnyNumber}, {"wounded_final", &kAnyNumber},
    {"critical_final", &kAnyNumber}, {"checkpoints", &kAnyNumber},
    {"wal_records", &kAnyNumber}, {"recovery_tick", &kAnyNumber},
});
const Shape kSummary = json::Object({
    {"count", &kAnyNumber}, {"p50", &kAnyNumber}, {"p99", &kAnyNumber},
    {"p999", &kAnyNumber}, {"max", &kAnyNumber}, {"mean", &kAnyNumber},
});
const Shape kSloCheck = json::Object({
    {"target_ms", &kAnyNumber}, {"measured_ms", &kAnyNumber},
    {"violated", &kAnyBool},
});
const Shape kSloChecks = json::MapOf(&kSloCheck);
const Shape kSlo = json::Object({
    {"evaluated", &kAnyBool}, {"violated", &kAnyBool},
    {"checks", &kSloChecks},
});
const Shape kTiming = json::Object({
    {"tick_ns", &kSummary},
    {"script_phase_ns", &kSummary},
    {"view_maintain_ns", &kSummary},
    {"sync_phase_ns", &kSummary},
    {"persist_phase_ns", &kSummary},
    {"slo", &kSlo},
});
const Shape kReport = json::Object({
    {"schema", &kSchemaTag},
    {"config", &kConfig},
    {"deterministic", &kDeterministic},
    {"timing", &kTiming, Presence::kOptional},
});

}  // namespace

Status ValidateReportJson(const std::string& doc) {
  GAMEDB_ASSIGN_OR_RETURN(json::JsonValue root, json::ParseJson(doc));
  const std::string why = json::CheckShape(root, kReport);
  if (!why.empty()) return Status::InvalidArgument("schema: " + why);
  if (root.Find("config")->Find("collect_timing")->boolean &&
      root.Find("timing") == nullptr) {
    return Status::InvalidArgument(
        "schema: collect_timing=true but no timing object");
  }
  return Status::OK();
}

}  // namespace gamedb::loadgen
