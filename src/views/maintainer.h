#pragma once

/// \file maintainer.h
/// ViewCatalog: owns a World's LiveViews and drives their incremental
/// maintenance from change capture.
///
/// Flow per quiescent point (ViewCatalog::Maintain — the ScriptHost calls
/// it before each parallel query phase when wired via
/// ScriptHostOptions::views):
///   1. every captured dependency table flushes its change ring once into
///      a shared net ChangeSet (core/change_log.h);
///   2. each changed entity is marked as a re-evaluation candidate on every
///      view depending on that table (deduplicated per view);
///   3. each view re-evaluates its candidates against current world state —
///      enter/exit/update transitions fire subscriptions deterministically.
/// Re-evaluation is stateless per entity (current match status vs current
/// membership), so any candidate superset converges to the correct
/// membership; cost scales with change volume, not world size.
///
/// Ownership rule: the catalog owns change-capture flushing for its
/// dependency tables. Don't flush those tables elsewhere, and run at most
/// one catalog per World, or deltas are consumed by one flusher and lost
/// to the other.

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/world.h"
#include "telemetry/sink.h"
#include "views/view.h"

namespace gamedb::views {

/// Maintenance counters for one catalog.
struct CatalogStats {
  uint64_t rounds = 0;          ///< Maintain() calls
  uint64_t tables_flushed = 0;  ///< flushes that carried any net change
  uint64_t change_records = 0;  ///< net change records routed to views
  /// Per-maintain cost counters (scenario-harness breakdown): cumulative
  /// wall time (ns) across all Maintain() rounds, plus what the most
  /// recent round did — so a driver can attribute a latency spike to "this
  /// tick flushed 40k deltas", not just "views were slow".
  uint64_t maintain_ns = 0;
  uint64_t last_round_ns = 0;
  uint64_t last_round_changes = 0;
};

/// Registry + maintainer of LiveViews over one World. Sequential-phase
/// object: Register/Maintain must not run concurrently with each other or
/// with view reads (the ScriptHost wiring calls Maintain from its
/// sequential point, which is exactly that discipline).
class ViewCatalog {
 public:
  /// `planner` (a planner/planner.h QueryPlanner, or null for the built-in
  /// query path) executes view (re)populations; it must outlive the
  /// catalog.
  explicit ViewCatalog(World* world, QueryPlanHook* planner = nullptr)
      : world_(world), planner_(planner) {}
  /// Disables change capture on every table this catalog flushed — with
  /// the flusher gone, a still-capturing table's ring would grow without
  /// bound. The catalog must therefore not outlive its World.
  ~ViewCatalog();
  GAMEDB_DISALLOW_COPY(ViewCatalog);

  /// Resolves, registers and populates a view. Enables change capture on
  /// every dependency table. Fails on unknown names, empty constraint sets
  /// or a duplicate view name; the catalog is unchanged on failure
  /// (capture enabled for the failed view's tables is rolled back unless
  /// an already-registered view shares the table).
  Result<LiveView*> Register(ViewDef def);

  /// Registered view by name (O(1), no key-copy allocation — the GSL view
  /// builtins resolve a name per call on the parallel-phase path);
  /// nullptr when unknown.
  LiveView* Find(const std::string& name);
  const LiveView* Find(const std::string& name) const;

  /// Removes (and destroys) a view; returns whether it existed. Change
  /// capture stays enabled on its tables (other views — or a later
  /// registration — may depend on them; the per-tick flush of a quiet
  /// table is a no-op). Invalidates LiveView* pointers to this view.
  bool Unregister(const std::string& name);

  /// Quiescent-point maintenance: flush captured tables, re-evaluate
  /// changed entities, fire subscriptions. See file comment.
  void Maintain();

  size_t view_count() const { return views_.size(); }

  /// Bumped by every successful Register and Unregister: a LiveView*
  /// resolved at generation g is still valid while generation() == g (the
  /// GSL view builtins bind view names at load and re-bind on change).
  uint64_t generation() const { return generation_; }

  /// Names of every registered view, in registration order (feeds schema
  /// enumeration for did-you-mean lint suggestions).
  std::vector<std::string> ViewNames() const {
    std::vector<std::string> names;
    names.reserve(views_.size());
    for (const auto& v : views_) names.push_back(v->name());
    return names;
  }

  const CatalogStats& stats() const { return stats_; }
  World* world() const { return world_; }
  QueryPlanHook* planner() const { return planner_; }

  /// Attaches a telemetry sink: Maintain() folds its round/flush/change
  /// counters into `views.*` registry instruments and records a
  /// "views.maintain_round" span per round. Non-owning; the sink's
  /// registry/tracer must outlive the catalog. Call from sequential code.
  void SetTelemetry(const telemetry::TelemetrySink& sink);

 private:
  World* world_;
  QueryPlanHook* planner_;
  std::vector<std::unique_ptr<LiveView>> views_;
  /// name -> view (the GSL builtins resolve names per call; keep it O(1)).
  std::unordered_map<std::string, LiveView*> by_name_;
  /// type id -> views depending on that table (registration order).
  std::unordered_map<uint32_t, std::vector<LiveView*>> by_table_;
  /// Tables this catalog flushes, in first-registration order.
  std::vector<uint32_t> captured_;
  std::unordered_set<uint32_t> captured_set_;
  ChangeSet scratch_;
  uint64_t generation_ = 0;
  CatalogStats stats_;
  telemetry::TelemetrySink telemetry_;
  /// Cached registry instruments (all nullptr until SetTelemetry).
  telemetry::Counter* m_rounds_ = nullptr;
  telemetry::Counter* m_tables_flushed_ = nullptr;
  telemetry::Counter* m_change_records_ = nullptr;
  telemetry::Histogram* m_round_ns_ = nullptr;
};

}  // namespace gamedb::views
