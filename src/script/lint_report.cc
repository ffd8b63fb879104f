#include "script/lint_report.h"

#include <cmath>

#include "common/json.h"
#include "common/string_util.h"

namespace gamedb::script {

namespace {

std::string WriteTargetName(uint8_t bits) {
  const bool self = (bits & kAccessWriteSelf) != 0;
  const bool foreign = (bits & kAccessWriteForeign) != 0;
  if (self && foreign) return "self+foreign";
  if (self) return "self";
  return "foreign";
}

}  // namespace

std::string RenderAccessReport(const std::string& origin,
                               const VerifyReport& report) {
  std::string out = origin + ": access summaries\n";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const EntryFacts& e = report.entries[i];
    out += StringFormat("  [%zu] %s: %s\n", i, e.name.c_str(),
                        AccessSummaryToString(e.facts.access).c_str());
    if (e.is_handler) {
      out += "      direct-write: n/a (trigger handler, runs in the apply "
             "phase)\n";
    } else {
      std::string reason;
      if (DirectWriteEligible(e, &reason)) {
        out += "      direct-write: yes\n";
      } else {
        out += "      direct-write: no — " + reason + "\n";
      }
    }
  }
  out += StringFormat("%s: conflict matrix (%zu entries, %zu edges)\n",
                      origin.c_str(), report.entries.size(),
                      report.conflicts.size());
  if (report.entries.size() < 2) {
    out += "  (fewer than two entries — nothing to conflict)\n";
    return out;
  }
  // Cell width follows the widest "[i]" tag so the grid stays aligned for
  // packs with 10+ entries.
  const size_t n = report.entries.size();
  size_t tag_w = StringFormat("[%zu]", n - 1).size();
  auto tag = [&](size_t i) {
    std::string t = StringFormat("[%zu]", i);
    return std::string(tag_w - t.size(), ' ') + t;
  };
  std::string header(2 + tag_w, ' ');
  for (size_t j = 0; j < n; ++j) header += " " + tag(j);
  out += header + "\n";
  std::vector<std::vector<bool>> grid(n, std::vector<bool>(n, false));
  for (const ConflictEdge& edge : report.conflicts) {
    grid[edge.a][edge.b] = true;
    grid[edge.b][edge.a] = true;
  }
  for (size_t i = 0; i < n; ++i) {
    std::string row = "  " + tag(i);
    for (size_t j = 0; j < n; ++j) {
      std::string cell = i == j ? "-" : grid[i][j] ? "X" : ".";
      row += " " + std::string(tag_w - 1, ' ') + cell;
    }
    out += row + "\n";
  }
  for (const ConflictEdge& edge : report.conflicts) {
    out += StringFormat("  [%zu]x[%zu] %s ~ %s: %s\n", edge.a, edge.b,
                        report.entries[edge.a].name.c_str(),
                        report.entries[edge.b].name.c_str(),
                        edge.reason.c_str());
  }
  return out;
}

namespace {

std::string DotEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string RenderConflictDot(const std::string& origin,
                              const VerifyReport& report) {
  std::string out = "graph conflicts {\n";
  out += "  label=\"" + DotEscape(origin) + "\";\n";
  out += "  node [shape=box];\n";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const EntryFacts& e = report.entries[i];
    out += StringFormat("  n%zu [label=\"%s\\n%s\"];\n", i,
                        DotEscape(e.name).c_str(),
                        DotEscape(EffectSetName(e.facts.effects)).c_str());
  }
  for (const ConflictEdge& edge : report.conflicts) {
    out += StringFormat("  n%zu -- n%zu [label=\"%s\"];\n", edge.a, edge.b,
                        DotEscape(edge.reason).c_str());
  }
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

namespace {

std::string JsonStr(const std::string& s) {
  std::string out;
  json::AppendQuoted(&out, s);
  return out;
}

std::string JsonNum(double v) {
  if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
    return StringFormat("%lld", static_cast<long long>(v));
  }
  return StringFormat("%.17g", v);
}

const char* JsonBool(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string RenderLintJson(const std::vector<LintFileResult>& files,
                           bool werror) {
  std::string out = "{\n";
  out += "  \"schema\": \"gamedb.gsl_lint.v1\",\n";
  out += StringFormat("  \"werror\": %s,\n", JsonBool(werror));
  out += "  \"files\": [";
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const LintFileResult& f = files[fi];
    out += fi == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"file\": " + JsonStr(f.file) + ",\n";
    out += "      \"phase\": " +
           JsonStr(PhaseContextName(f.phase)) + ",\n";
    // Pack static cost estimate: the verifier's per-entry abstract costs
    // summed over the pack, plus the most expensive entry. `unbounded`
    // means at least one entry's cost analysis hit an unbounded loop, so
    // `total` is a lower bound.
    double total_cost = 0.0;
    bool cost_unbounded = false;
    for (const EntryFacts& e : f.report.entries) {
      total_cost += e.facts.cost;
      cost_unbounded = cost_unbounded || e.facts.cost_unbounded;
    }
    out += "      \"static_cost\": {\"total\": " + JsonNum(total_cost) +
           StringFormat(", \"unbounded\": %s", JsonBool(cost_unbounded)) +
           ", \"max_entry\": " +
           (f.report.max_entry_name.empty()
                ? std::string("null")
                : JsonStr(f.report.max_entry_name)) +
           ", \"max_entry_cost\": " + JsonNum(f.report.max_entry_cost) +
           "},\n";
    out += "      \"parse_error\": " +
           (f.parse_error.empty() ? std::string("null")
                                  : JsonStr(f.parse_error)) +
           ",\n";
    out += "      \"diagnostics\": [";
    for (size_t di = 0; di < f.diagnostics.size(); ++di) {
      const Diagnostic& d = f.diagnostics[di];
      out += di == 0 ? "\n" : ",\n";
      out += StringFormat(
          "        {\"severity\": %s, \"pass\": %s, \"line\": %d, "
          "\"col\": %d, \"message\": %s}",
          JsonStr(SeverityName(d.severity)).c_str(),
          JsonStr(DiagPassName(d.pass)).c_str(), d.loc.line, d.loc.col,
          JsonStr(d.message).c_str());
    }
    out += f.diagnostics.empty() ? "],\n" : "\n      ],\n";
    out += "      \"entries\": [";
    for (size_t ei = 0; ei < f.report.entries.size(); ++ei) {
      const EntryFacts& e = f.report.entries[ei];
      const AccessSummary& a = e.facts.access;
      out += ei == 0 ? "\n" : ",\n";
      out += "        {\n";
      out += "          \"name\": " + JsonStr(e.name) + ",\n";
      out += StringFormat("          \"handler\": %s,\n",
                          JsonBool(e.is_handler));
      out += "          \"effects\": " +
             JsonStr(EffectSetName(e.facts.effects)) + ",\n";
      out += "          \"cost\": " + JsonNum(e.facts.cost) + ",\n";
      out += StringFormat("          \"cost_unbounded\": %s,\n",
                          JsonBool(e.facts.cost_unbounded));
      out += "          \"reads\": [";
      bool first = true;
      for (const auto& [key, bits] : a.fields) {
        if ((bits & kAccessRead) == 0) continue;
        if (!first) out += ", ";
        first = false;
        out += JsonStr(key);
      }
      out += "],\n";
      out += "          \"writes\": [";
      first = true;
      for (const auto& [key, bits] : a.fields) {
        if ((bits & (kAccessWriteSelf | kAccessWriteForeign)) == 0) continue;
        if (!first) out += ", ";
        first = false;
        out += "{\"field\": " + JsonStr(key) + ", \"target\": " +
               JsonStr(WriteTargetName(bits)) + "}";
      }
      out += "],\n";
      out += StringFormat("          \"unknown_read\": %s,\n",
                          JsonBool(a.unknown_read));
      out += StringFormat("          \"unknown_write\": %s,\n",
                          JsonBool(a.unknown_write));
      out += StringFormat("          \"structural\": %s,\n",
                          JsonBool(a.structural_write));
      out += "          \"radius\": " + JsonNum(a.radius) + ",\n";
      out += StringFormat("          \"radius_unbounded\": %s,\n",
                          JsonBool(a.radius_unbounded));
      std::string reason;
      const bool eligible =
          !e.is_handler && DirectWriteEligible(e, &reason);
      if (e.is_handler) reason = "trigger handler";
      out += StringFormat("          \"direct_write_eligible\": %s,\n",
                          JsonBool(eligible));
      out += "          \"ineligible_reason\": " +
             (eligible ? std::string("null") : JsonStr(reason)) + "\n";
      out += "        }";
    }
    out += f.report.entries.empty() ? "],\n" : "\n      ],\n";
    out += "      \"conflicts\": [";
    for (size_t ci = 0; ci < f.report.conflicts.size(); ++ci) {
      const ConflictEdge& edge = f.report.conflicts[ci];
      out += ci == 0 ? "\n" : ",\n";
      out += StringFormat(
          "        {\"a\": %s, \"b\": %s, \"reason\": %s}",
          JsonStr(f.report.entries[edge.a].name).c_str(),
          JsonStr(f.report.entries[edge.b].name).c_str(),
          JsonStr(edge.reason).c_str());
    }
    out += f.report.conflicts.empty() ? "]\n" : "\n      ]\n";
    out += "    }";
  }
  out += files.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON validation: the gamedb.gsl_lint.v1 shape
// ---------------------------------------------------------------------------

namespace {

using json::kAnyBool;
using json::kAnyNumber;
using json::kAnyString;
using json::Presence;
using json::Shape;

const Shape kSchemaTag = json::OneOf({"gamedb.gsl_lint.v1"});
const Shape kSeverity = json::OneOf({"warning", "error"});
const Shape kPass = json::OneOf({"structure", "phase", "bindings", "cost"});
const Shape kPhase =
    json::OneOf({"sequential", "parallel-defer", "parallel-reject"});
const Shape kWriteTarget = json::OneOf({"self", "foreign", "self+foreign"});

const Shape kStaticCost = json::Object({
    {"total", &kAnyNumber}, {"unbounded", &kAnyBool},
    {"max_entry", &kAnyString, Presence::kNullable},
    {"max_entry_cost", &kAnyNumber},
});
const Shape kDiagnostic = json::Object({
    {"severity", &kSeverity}, {"pass", &kPass},
    {"line", &kAnyNumber}, {"col", &kAnyNumber},
    {"message", &kAnyString},
});
const Shape kWrite =
    json::Object({{"field", &kAnyString}, {"target", &kWriteTarget}});
const Shape kReads = json::ArrayOf(&kAnyString);
const Shape kWrites = json::ArrayOf(&kWrite);
const Shape kEntry = json::Object({
    {"name", &kAnyString}, {"handler", &kAnyBool},
    {"effects", &kAnyString}, {"cost", &kAnyNumber},
    {"cost_unbounded", &kAnyBool},
    {"reads", &kReads}, {"writes", &kWrites},
    {"unknown_read", &kAnyBool}, {"unknown_write", &kAnyBool},
    {"structural", &kAnyBool},
    {"radius", &kAnyNumber}, {"radius_unbounded", &kAnyBool},
    {"direct_write_eligible", &kAnyBool},
    {"ineligible_reason", &kAnyString, Presence::kNullable},
});
const Shape kConflict = json::Object(
    {{"a", &kAnyString}, {"b", &kAnyString}, {"reason", &kAnyString}});
const Shape kDiagnostics = json::ArrayOf(&kDiagnostic);
const Shape kEntries = json::ArrayOf(&kEntry);
const Shape kConflicts = json::ArrayOf(&kConflict);
const Shape kFile = json::Object({
    {"file", &kAnyString}, {"phase", &kPhase},
    {"static_cost", &kStaticCost},
    {"parse_error", &kAnyString, Presence::kNullable},
    {"diagnostics", &kDiagnostics},
    {"entries", &kEntries},
    {"conflicts", &kConflicts},
});
const Shape kFiles = json::ArrayOf(&kFile);
const Shape kLintDoc = json::Object({
    {"schema", &kSchemaTag}, {"werror", &kAnyBool}, {"files", &kFiles},
});

}  // namespace

Status ValidateLintJson(const std::string& doc) {
  GAMEDB_ASSIGN_OR_RETURN(json::JsonValue root, json::ParseJson(doc));
  const std::string why = json::CheckShape(root, kLintDoc);
  if (why.empty()) return Status::OK();
  return Status::InvalidArgument("gsl_lint json schema violation: " + why);
}

}  // namespace gamedb::script
