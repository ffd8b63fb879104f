#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>

#include "common/percentile.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Shard set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 5;
/// Warm-up ticks after each set-up: the first sync fills every replica and
/// the planner and view caches settle. They are part of setup_s.
constexpr size_t kWarmupTicks = 10;
/// Ticks run after the forced checkpoint that starts the recovery image, so
/// the image is a checkpoint plus a WAL tail of this many ticks.
constexpr size_t kTailTicks = 12;
/// Steady ticks run in blocks of this many consecutive ticks (three
/// spawn-wave cycles), at least kMinBlocks of them. After each block the
/// recovery image is recovered for kBurstSeconds, at least kBurstRecoveries
/// times. Other tenants of the host slow the shard's code by up to half for
/// stretches of seconds to minutes; recoveries spread over the steady state
/// see the same mix of those stretches as the ticks, where one window after
/// the last tick would see just one stretch.
constexpr size_t kBlockTicks = 24;
constexpr size_t kMinBlocks = 2;
constexpr size_t kBurstRecoveries = 3;
constexpr double kBurstSeconds = 0.15;

uint64_t Now() { return gamedb::MonotonicNanos(); }

/// Picks about half of the measured ticks for tracing. The choice is a hash
/// of the tick's index, not its parity: spawn waves (every 8 ticks) and
/// autosave marks (every 10) would otherwise all land on one side.
bool TracedTick(uint64_t i) {
  uint64_t z = i + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & 1) != 0;
}
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-layer self time of one tick: every top-level span belongs to one
/// layer, and the view rounds and planner refresh inside the script and
/// sync calls are moved to their own layers.
struct LayerTimes {
  uint64_t core, script, views, planner, replication, persist, txn;
};
LayerTimes LayersOf(const TickSample& s) {
  LayerTimes t{};
  t.core = s.mutate_ns - s.connect_ns;
  t.script = s.script_ns - s.quiescent_ns - s.script_maintain_ns;
  t.views = s.script_maintain_ns + s.sync_maintain_ns;
  t.planner = s.quiescent_ns;
  t.replication = s.connect_ns + (s.sync_ns - s.sync_maintain_ns);
  t.persist = s.events_ns + s.txn_log_ns + s.tick_end_ns;
  t.txn = s.txn_ns;
  return t;
}

using SampleFn = std::function<double(const TickSample&)>;

double MedianOf(const std::vector<TickSample>& v, const SampleFn& f) {
  std::vector<double> x;
  x.reserve(v.size());
  for (const TickSample& s : v) x.push_back(f(s));
  return Median(std::move(x));
}

double MeanOf(const std::vector<TickSample>& v, const SampleFn& f) {
  std::vector<double> x;
  x.reserve(v.size());
  for (const TickSample& s : v) x.push_back(f(s));
  return Mean(x);
}

/// Σf / Σg over the samples (0 when Σg is 0).
double RatioOf(const std::vector<TickSample>& v, const SampleFn& f,
               const SampleFn& g) {
  double num = 0.0, den = 0.0;
  for (const TickSample& s : v) {
    num += f(s);
    den += g(s);
  }
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace

RunReport RunBenchmark(const RunOptions& opt) {
  RunReport r;
  SpanRecorder rec;
  auto fail = [&r](const std::string& what) {
    r.correct = false;
    ++r.ticks_failed;
    r.problems.push_back(what);
  };
  // Runs one tick and applies the per-tick output checks.
  auto run_tick = [&](Shard& shard, bool traced, TickSample* s) {
    ++r.ticks_attempted;
    gamedb::Status st = shard.Tick(traced, s);
    if (!st.ok()) {
      fail(Format("tick %" PRIu64 ": %s", s->tick, st.ToString().c_str()));
    } else if (s->script_errors > 0) {
      fail(Format("tick %" PRIu64 ": %" PRIu64 " script errors", s->tick,
                  s->script_errors));
    }
  };

  // --- Set-up, several times ------------------------------------------------
  // In a traced run set-up 0 is plain and the others have the counting
  // wrappers, armed (with spans) through their warm-up ticks: equal world
  // hashes after warm-up show that the wrappers only observe.
  std::vector<double> setup_s, populate_s, login_s, warmup_s;
  std::vector<double> warmup_tick_ms;
  std::unique_ptr<Shard> shard;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    shard.reset();
    const bool wrapped = opt.trace && rep > 0;
    shard = std::make_unique<Shard>(opt.spec, opt.seed, wrapped,
                                    wrapped ? &rec : nullptr);
    const uint64_t t0 = Now();
    const gamedb::Status st = shard->Populate();
    const uint64_t t1 = Now();
    if (!st.ok()) {
      r.correct = false;
      r.problems.push_back("setup: " + st.ToString());
      return r;
    }
    shard->LoginAll();
    const uint64_t t2 = Now();
    for (size_t i = 0; i < kWarmupTicks; ++i) {
      TickSample s;
      run_tick(*shard, wrapped, &s);
      warmup_tick_ms.push_back(Ms(s.tick_ns));
    }
    const uint64_t t3 = Now();
    populate_s.push_back(Sec(t1 - t0));
    login_s.push_back(Sec(t2 - t1));
    warmup_s.push_back(Sec(t3 - t2));
    setup_s.push_back(Sec(t3 - t0));
    r.warmup_hashes.push_back(shard->WorldHash());
    if (r.warmup_hashes.back() != r.warmup_hashes.front()) {
      fail(Format("set-up %zu: world hash %08x after warm-up differs from "
                  "set-up 0 (%08x)",
                  rep, r.warmup_hashes.back(), r.warmup_hashes.front()));
    }
  }

  // --- Recovery image: a checkpoint plus a WAL tail of kTailTicks ticks.
  // Spawn waves are let out first, so the image holds the base population;
  // when the policy checkpoints inside the tail (an urgent event), the image
  // is built again, so every image carries a tail of the same length. The
  // image is a copy: the live storage keeps growing through the steady
  // state, and every timed recovery reads the same bytes.
  constexpr int kImageAttempts = 8;
  for (int attempt = 0; attempt < kImageAttempts; ++attempt) {
    while (opt.spec.spawn_waves && shard->world().tick() % 8 != 1) {
      TickSample s;
      run_tick(*shard, false, &s);
    }
    if (gamedb::Status st = shard->ForceCheckpoint(); !st.ok()) {
      fail("checkpoint: " + st.ToString());
    }
    for (size_t i = 0; i < kTailTicks; ++i) {
      TickSample s;
      run_tick(*shard, false, &s);
    }
    if (shard->ticks_since_checkpoint() == kTailTicks) break;
  }
  if (shard->ticks_since_checkpoint() != kTailTicks) {
    fail(Format("recovery image: no %zu-tick WAL tail without a policy "
                "checkpoint in %d attempts",
                kTailTicks, kImageAttempts));
  }
  gamedb::persist::MemStorage image;
  for (const std::string& name : shard->storage().List()) {
    std::string data;
    gamedb::Status st = shard->storage().Read(name, &data);
    if (st.ok()) st = image.Write(name, data);
    if (!st.ok()) fail("copy image: " + st.ToString());
  }
  const uint64_t logged = shard->txns_since_checkpoint();

  // Recovers the image once; false (and a failure) when recovery fails or
  // does not replay exactly the transactions logged since the checkpoint.
  uint64_t replayed = 0;
  bool recovery_ok = true;
  auto recover = [&](std::vector<double>* ms) {
    gamedb::World recovered;
    const uint64_t t0 = Now();
    auto outcome =
        gamedb::persist::PersistenceManager::Recover(image, &recovered);
    ms->push_back(Ms(Now() - t0));
    if (!outcome.ok()) {
      fail("recover: " + outcome.status().ToString());
      return false;
    }
    replayed = outcome->replayed_txns;
    if (replayed != logged) {
      fail(Format("recover replayed %" PRIu64 " txns, %" PRIu64
                  " were logged since the last checkpoint",
                  replayed, logged));
      return false;
    }
    return true;
  };

  // --- Steady state: blocks of ticks, each followed by a recovery burst.
  const size_t blocks =
      std::max(kMinBlocks, (opt.ticks + kBlockTicks - 1) / kBlockTicks);
  std::vector<TickSample> steady;
  std::vector<double> recovery_ms;
  size_t done = 0;
  const uint64_t deadline =
      Now() + static_cast<uint64_t>(opt.max_seconds * 1e9);
  for (; done < blocks && Now() < deadline; ++done) {
    for (size_t i = 0; i < kBlockTicks; ++i) {
      TickSample s;
      run_tick(*shard, opt.trace && TracedTick(steady.size()), &s);
      steady.push_back(s);
    }
    const size_t before = recovery_ms.size();
    const uint64_t burst_end =
        Now() + static_cast<uint64_t>(kBurstSeconds * 1e9);
    while (recovery_ok && (recovery_ms.size() - before < kBurstRecoveries ||
                           Now() < burst_end)) {
      recovery_ok = recover(&recovery_ms);
    }
  }
  r.measured_ticks = steady.size();
  if (done < blocks) {
    r.notes.push_back(Format("wall-time cap of %.0f s reached after %zu of "
                             "%zu blocks",
                             opt.max_seconds, done, blocks));
  }

  // --- Output checks -------------------------------------------------------
  if (gamedb::Status st = shard->CheckReplicas(); !st.ok()) {
    fail("replicas: " + st.ToString());
  }
  r.final_hash = shard->WorldHash();
  if (gamedb::Status st = shard->ForceCheckpoint(); !st.ok()) {
    fail("final checkpoint: " + st.ToString());
  } else {
    gamedb::World recovered;
    auto outcome = gamedb::persist::PersistenceManager::Recover(
        shard->storage(), &recovered);
    if (!outcome.ok()) {
      fail("final recover: " + outcome.status().ToString());
    } else if (HashWorld(recovered) != r.final_hash) {
      fail("recovered world hash differs from the live world");
    }
  }
  r.storage_bytes = shard->storage_bytes_written();
  r.counted_storage_bytes = shard->counted_storage_bytes();
  if (opt.trace && r.counted_storage_bytes != r.storage_bytes) {
    fail(Format("storage wrapper counted %" PRIu64 " bytes, device wrote %"
                PRIu64, r.counted_storage_bytes, r.storage_bytes));
  }
  if (opt.trace && !opt.trace_path.empty()) {
    if (gamedb::Status st = rec.WriteChrome(opt.trace_path); !st.ok()) {
      r.correct = false;
      r.problems.push_back("trace: " + st.ToString());
    }
  }
  shard.reset();

  // --- Metrics --------------------------------------------------------------------
  auto add = [&r](const char* name, double value, const char* unit) {
    r.metrics.push_back(Metric{name, value, unit});
  };
  r.notes.push_back(Format("warm-up: %zu ticks per set-up, median %.3f ms; "
                           "steady state: %zu ticks",
                           kWarmupTicks,
                           Median(warmup_tick_ms), steady.size()));
  if (!opt.trace) {
    std::vector<double> tick_ms;
    uint64_t entities = 0, tick_ns = 0, bytes = 0, client_ticks = 0;
    for (const TickSample& s : steady) {
      tick_ms.push_back(Ms(s.tick_ns));
      entities += s.entities;
      tick_ns += s.tick_ns;
      bytes += s.bytes_sent;
      client_ticks += s.clients;
    }
    const Tail tail = TailPercentile(tick_ms, 10);
    if (!tail.ok) fail("too few steady ticks for a tail percentile");
    add("tick_p50_ms", Median(tick_ms), "ms");
    add("tick_tail_ms", tail.value, "ms");
    add("entity_ticks_per_s",
        tick_ns == 0 ? 0.0 : static_cast<double>(entities) / Sec(tick_ns),
        "1/s");
    add("sync_bytes_per_client_tick",
        client_ticks == 0 ? 0.0
                          : static_cast<double>(bytes) /
                                static_cast<double>(client_ticks),
        "B");
    add("recovery_ms", Median(recovery_ms), "ms");
    add("setup_s", Median(setup_s), "s");
    add("peak_rss_mb", PeakRssMiB(), "MiB");
    r.notes.push_back(Format(
        "tick_p50_ms over %zu ticks; tick_tail_ms is p%.2f of %zu ticks "
        "(%zu beyond)",
        steady.size(), tail.percentile, tail.samples, tail.beyond));
    r.notes.push_back(Format(
        "recovery_ms: median of %zu recoveries in %zu bursts (p10 %.3f, "
        "p90 %.3f); setup_s: median of %zu set-ups (min %.3f, max %.3f)",
        recovery_ms.size(), done, Percentile(recovery_ms, 10),
        Percentile(recovery_ms, 90), setup_s.size(), Percentile(setup_s, 0),
        Percentile(setup_s, 100)));
    return r;
  }

  std::vector<TickSample> traced, untraced;
  for (const TickSample& s : steady) (s.traced ? traced : untraced).push_back(s);
  auto ns_ms = [](uint64_t TickSample::*field) -> SampleFn {
    return [field](const TickSample& s) { return Ms(s.*field); };
  };
  auto count = [](uint64_t TickSample::*field) -> SampleFn {
    return [field](const TickSample& s) { return double(s.*field); };
  };
  const SampleFn sync_self_ns = [](const TickSample& s) {
    return double(s.sync_ns - s.sync_maintain_ns);
  };
  const SampleFn script_self_ns = [](const TickSample& s) {
    return double(LayersOf(s).script);
  };

  add("replication.sync_ms",
      MedianOf(traced, [&](const TickSample& s) { return sync_self_ns(s) / 1e6; }),
      "ms");
  add("replication.ms_per_client",
      MedianOf(traced,
               [&](const TickSample& s) {
                 return s.clients == 0 ? 0.0
                                       : sync_self_ns(s) / 1e6 / s.clients;
               }),
      "ms");
  add("replication.rows_sent", MeanOf(traced, count(&TickSample::rows_sent)),
      "count");
  add("replication.removals_sent",
      MeanOf(traced, count(&TickSample::removals_sent)), "count");
  add("replication.ns_per_row_sent",
      RatioOf(traced, sync_self_ns, count(&TickSample::rows_sent)), "ns");
  add("replication.replica_entities",
      MeanOf(traced, count(&TickSample::replica_entities)), "count");

  add("script.tick_ms",
      MedianOf(traced, [&](const TickSample& s) { return script_self_ns(s) / 1e6; }),
      "ms");
  add("script.query_ms", MedianOf(traced, ns_ms(&TickSample::query_ns)), "ms");
  add("script.apply_ms", MedianOf(traced, ns_ms(&TickSample::apply_ns)), "ms");
  add("script.entity_ticks_per_s",
      1e9 * RatioOf(traced, count(&TickSample::entities), script_self_ns),
      "1/s");
  add("script.allocs_per_entity_tick",
      RatioOf(traced, count(&TickSample::allocs), count(&TickSample::entities)),
      "count");
  add("script.effects_per_entity",
      RatioOf(traced, count(&TickSample::effects),
              count(&TickSample::entities)),
      "count");

  add("views.maintain_ms",
      MedianOf(traced, ns_ms(&TickSample::views_maintain_ns)), "ms");
  add("views.change_records", MeanOf(traced, count(&TickSample::view_changes)),
      "count");
  add("views.ns_per_change",
      RatioOf(traced, count(&TickSample::views_maintain_ns),
              count(&TickSample::view_changes)),
      "ns");
  add("views.interest_members",
      MeanOf(traced, count(&TickSample::interest_members)), "count");

  add("planner.executes", MeanOf(traced, count(&TickSample::planner_executes)),
      "count");
  add("planner.exec_ms", MedianOf(traced, ns_ms(&TickSample::planner_exec_ns)),
      "ms");
  add("planner.rows_out", MeanOf(traced, count(&TickSample::planner_rows_out)),
      "count");
  add("planner.stats_refreshes",
      MeanOf(traced, count(&TickSample::stats_refreshes)), "count");

  add("core.mutate_ms",
      MedianOf(traced, [](const TickSample& s) { return Ms(LayersOf(s).core); }),
      "ms");
  add("core.rows_written", MeanOf(traced, count(&TickSample::rows_written)),
      "count");
  add("core.alive_entities", MeanOf(traced, count(&TickSample::alive)),
      "count");

  std::vector<TickSample> checkpoint_ticks;
  for (const TickSample& s : traced) {
    if (s.checkpointed) checkpoint_ticks.push_back(s);
  }
  add("persist.tick_end_ms", MedianOf(traced, ns_ms(&TickSample::tick_end_ns)),
      "ms");
  add("persist.checkpoint_ms",
      MedianOf(checkpoint_ticks, ns_ms(&TickSample::tick_end_ns)), "ms");
  add("persist.txn_log_ms", MedianOf(traced, ns_ms(&TickSample::txn_log_ns)),
      "ms");
  add("persist.wal_bytes", MeanOf(traced, count(&TickSample::wal_bytes)), "B");
  add("persist.checkpoint_bytes",
      MeanOf(traced, count(&TickSample::checkpoint_bytes)), "B");
  add("persist.storage_bytes_written",
      MeanOf(traced, count(&TickSample::storage_bytes)), "B");
  add("persist.syncs", MeanOf(traced, count(&TickSample::syncs)), "count");
  add("persist.recover_replayed_txns", double(replayed), "count");

  add("txn.exec_ms", MedianOf(traced, ns_ms(&TickSample::txn_ns)), "ms");
  add("txn.committed", MeanOf(traced, count(&TickSample::txn_committed)),
      "count");
  add("txn.bubbles", MeanOf(traced, count(&TickSample::bubbles)), "count");
  add("txn.cross_bubble_share",
      RatioOf(traced, count(&TickSample::cross_bubble),
              count(&TickSample::txn_committed)),
      "ratio");

  const double traced_p50 = MedianOf(traced, ns_ms(&TickSample::tick_ns));
  const double untraced_p50 = MedianOf(untraced, ns_ms(&TickSample::tick_ns));
  const double unattributed = MedianOf(traced, [](const TickSample& s) {
    return Ms(s.tick_ns - s.attributed_ns());
  });
  add("tick.unattributed_ms", unattributed, "ms");
  add("tick.trace_overhead_pct",
      untraced_p50 == 0.0 ? 0.0
                          : 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
      "%");
  add("setup.populate_s", Median(populate_s), "s");
  add("setup.login_s", Median(login_s), "s");
  add("setup.warmup_s", Median(warmup_s), "s");

  // Where the traced tick went, layer by layer (self time, median per tick).
  r.notes.push_back(Format("traced tick p50 %.3f ms over %zu ticks, untraced "
                           "%.3f ms over %zu; unattributed %.3f ms (%.2f%%)",
                           traced_p50, traced.size(), untraced_p50,
                           untraced.size(), unattributed,
                           traced_p50 == 0.0 ? 0.0
                                             : 100.0 * unattributed / traced_p50));
  const std::pair<const char*, uint64_t LayerTimes::*> layers[] = {
      {"core", &LayerTimes::core},       {"script", &LayerTimes::script},
      {"views", &LayerTimes::views},     {"planner", &LayerTimes::planner},
      {"replication", &LayerTimes::replication},
      {"persist", &LayerTimes::persist}, {"txn", &LayerTimes::txn}};
  for (const auto& [name, field] : layers) {
    const double ms = MedianOf(traced, [field = field](const TickSample& s) {
      return Ms(LayersOf(s).*field);
    });
    const double share = RatioOf(
        traced,
        [field = field](const TickSample& s) {
          return double(LayersOf(s).*field);
        },
        count(&TickSample::tick_ns));
    r.notes.push_back(Format("layer %-11s median %9.3f ms  share of tick "
                             "%6.2f%%",
                             name, ms, 100.0 * share));
  }
  return r;
}

std::string ResultJson(const RunReport& report) {
  std::string out = Format(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      report.correct ? "true" : "false", report.ticks_attempted,
      report.ticks_failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
