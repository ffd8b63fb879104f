#include "shard.h"

#include <algorithm>
#include <cmath>

#include "common/crc32.h"
#include "common/percentile.h"
#include "core/serialize.h"
#include "loadgen_combat_gsl.h"
#include "replication/divergence.h"

namespace perfbench {

using gamedb::EntityId;
using gamedb::Status;
using gamedb::Vec3;

namespace {

constexpr float kArena = 1000.0f;
constexpr float kInterestRadius = 80.0f;
/// Reach of a player action (the NPC Combat.range): action partners are
/// chosen within it, and it is the bubble executor's interaction radius.
constexpr float kActionRange = 6.0f;
constexpr float kAvatarStep = 4.0f;

uint64_t Now() { return gamedb::MonotonicNanos(); }

std::vector<WorkloadSpec> MakeWorkloads() {
  WorkloadSpec crowd;
  crowd.name = "crowd";
  crowd.clients = 96;
  crowd.npcs = 4000;
  crowd.script_threads = 1;
  crowd.roaming_avatars = true;
  crowd.ticks_per_second = 16.0;

  WorkloadSpec horde;
  horde.name = "horde";
  horde.clients = 4;
  horde.npcs = 24000;
  horde.script_threads = 2;
  horde.ticks_per_second = 13.0;

  WorkloadSpec churn;
  churn.name = "churn";
  churn.clients = 16;
  churn.npcs = 12000;
  churn.script_threads = 1;
  churn.health_churn = 0.15;
  churn.spawn_waves = true;
  churn.monitoring_views = true;
  churn.txns_per_tick = 512;
  churn.ticks_per_second = 7.5;
  return {crowd, horde, churn};
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = MakeWorkloads();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec Reduced(const WorkloadSpec& spec, size_t divisor) {
  WorkloadSpec r = spec;
  r.clients = std::max<size_t>(2, spec.clients / divisor);
  r.npcs = std::max<size_t>(64, spec.npcs / divisor);
  if (spec.txns_per_tick > 0) {
    r.txns_per_tick = std::max<size_t>(8, spec.txns_per_tick / divisor);
  }
  return r;
}

/// Cumulative layer counters read before and after a tick.
struct Shard::Counters {
  gamedb::views::CatalogStats catalog;
  uint64_t stats_refreshes = 0;
  uint64_t executes = 0, exec_ns = 0, rows_out = 0;
  uint64_t storage_bytes = 0, syncs = 0;
  uint64_t wal_bytes = 0, checkpoint_bytes = 0;
  uint64_t versions = 0;
};

Shard::Shard(const WorkloadSpec& spec, uint64_t seed, bool counting_wrappers,
             SpanRecorder* rec)
    : spec_(spec),
      seed_(seed),
      rec_(rec),
      rng_(seed),
      action_rng_(seed ^ 0xac710e5ULL),
      planner_(&world_),
      hook_(counting_wrappers ? std::make_unique<CountingPlanHook>(&planner_)
                              : nullptr),
      catalog_(&world_, hook_ != nullptr
                            ? static_cast<gamedb::QueryPlanHook*>(hook_.get())
                            : &planner_),
      counting_storage_(counting_wrappers
                            ? std::make_unique<CountingStorage>(&storage_)
                            : nullptr) {}

Shard::~Shard() = default;

Status Shard::Populate() {
  gamedb::RegisterStandardComponents();
  for (size_t i = 0; i < spec_.npcs; ++i) SpawnNpc(DrawNpc());
  planner_.Analyze();

  // The two views the behaviour script reads (loadgen's), plus the churn
  // workload's monitoring views: hp bands and per-faction, some carrying a
  // maintained aggregate.
  using gamedb::CmpOp;
  using gamedb::views::AggKind;
  using gamedb::views::ViewDef;
  auto hp_view = [](const char* name, CmpOp op, double hp, AggKind agg) {
    ViewDef v;
    v.name = name;
    v.where = {{"Health", "hp", op, hp}};
    v.aggregate = agg;
    if (agg != AggKind::kNone) {
      v.agg_component = "Health";
      v.agg_field = "hp";
    }
    return v;
  };
  std::vector<ViewDef> views;
  views.push_back(hp_view("loadgen_wounded", CmpOp::kLt, 30.0, AggKind::kNone));
  views.push_back(hp_view("loadgen_critical", CmpOp::kLt, 10.0, AggKind::kAvg));
  if (spec_.monitoring_views) {
    ViewDef mid = hp_view("hp_mid", CmpOp::kGe, 30.0, AggKind::kCount);
    mid.where.push_back({"Health", "hp", CmpOp::kLt, 70.0});
    views.push_back(std::move(mid));
    views.push_back(hp_view("hp_high", CmpOp::kGe, 70.0, AggKind::kMax));
    const AggKind faction_agg[] = {AggKind::kAvg, AggKind::kSum,
                                   AggKind::kNone, AggKind::kMin};
    for (int32_t team = 0; team < 4; ++team) {
      ViewDef f;
      f.name = "faction_" + std::to_string(team);
      f.where = {{"Faction", "team", CmpOp::kEq, int64_t{team}}};
      f.aggregate = faction_agg[team];
      if (f.aggregate != AggKind::kNone) {
        f.with = {"Health"};
        f.agg_component = "Health";
        f.agg_field = "hp";
      }
      views.push_back(std::move(f));
    }
  }
  for (ViewDef& v : views) {
    GAMEDB_RETURN_NOT_OK(catalog_.Register(std::move(v)).status());
  }

  gamedb::replication::SyncOptions sopts;
  sopts.strategy = gamedb::replication::SyncStrategy::kInterestView;
  sopts.interest_radius = kInterestRadius;
  sopts.view_catalog = &catalog_;
  sync_ = std::make_unique<gamedb::replication::SyncServer>(&world_, sopts);

  // WAL + checkpoints under loadgen's importance-aware HybridPolicy, with
  // group commit on the WAL.
  gamedb::persist::PersistenceOptions popts;
  popts.mode = gamedb::persist::DurabilityMode::kWalAndCheckpoint;
  popts.wal.sync_every_n = 16;
  gamedb::persist::Storage* device =
      counting_storage_ != nullptr
          ? static_cast<gamedb::persist::Storage*>(counting_storage_.get())
          : &storage_;
  persistence_ = std::make_unique<gamedb::persist::PersistenceManager>(
      device,
      std::make_unique<gamedb::persist::HybridPolicy>(
          /*max_interval_ticks=*/25, /*accumulate_threshold=*/60.0,
          /*urgent_threshold=*/40.0),
      popts);

  if (spec_.txns_per_tick > 0) {
    gamedb::txn::BubbleOptions bopts;
    bopts.interaction_radius = kActionRange;
    executor_ = std::make_unique<gamedb::txn::BubbleExecutor>(bopts);
    txn_pool_ = std::make_unique<gamedb::ThreadPool>(2);
  }

  gamedb::script::ScriptHostOptions hopts;
  hopts.num_threads = spec_.script_threads;
  hopts.planner = hook_ != nullptr
                      ? static_cast<gamedb::QueryPlanHook*>(hook_.get())
                      : &planner_;
  hopts.views = &catalog_;
  hopts.interpreter.rng_seed = seed_ ^ 0x5ca1ab1eULL;
  host_ = std::make_unique<gamedb::script::ScriptHost>(&world_, hopts);
  host_->OnChannel("damage", [this](EntityId e, double total) {
    bool dead = false;
    world_.Patch<gamedb::Health>(e, [&](gamedb::Health& h) {
      h.hp -= static_cast<float>(total);
      dead = h.hp <= 0.0f;
    });
    if (dead) world_.Destroy(e);
  });
  host_->OnChannel("regen", [this](EntityId e, double total) {
    world_.Patch<gamedb::Health>(e, [&](gamedb::Health& h) {
      h.hp = std::min(h.hp + static_cast<float>(total), h.max_hp);
    });
  });
  return host_->Load(kLoadgenCombatScript, kLoadgenCombatScriptName);
}

void Shard::LoginAll() {
  while (clients_.size() < spec_.clients) Login(DrawAvatar());
}

Shard::Counters Shard::ReadCounters() const {
  Counters c;
  c.catalog = catalog_.stats();
  c.stats_refreshes = planner_.stats_refreshes();
  if (hook_ != nullptr) {
    c.executes = hook_->executes();
    c.exec_ns = hook_->exec_ns();
    c.rows_out = hook_->rows_out();
  }
  if (counting_storage_ != nullptr) {
    c.storage_bytes = counting_storage_->bytes_written();
  }
  c.syncs = storage_.syncs();
  if (persistence_ != nullptr) {
    c.wal_bytes = persistence_->metrics().wal_bytes;
    c.checkpoint_bytes = persistence_->metrics().checkpoint_bytes;
  }
  world_.ForEachStore(
      [&](const gamedb::TypeInfo&, const gamedb::ComponentStore& store) {
        c.versions += store.last_version();
      });
  return c;
}

Status Shard::Tick(bool traced, TickSample* s) {
  *s = TickSample{};
  s->traced = traced;
  current_ = s;
  SpanRecorder* rec = traced ? rec_ : nullptr;
  if (rec_ != nullptr) rec_->set_enabled(traced);
  if (hook_ != nullptr) hook_->set_armed(traced);
  PrepareActions();
  DrawMutations(world_.tick() + 1);
  const Counters before = ReadCounters();
  Status status = Status::OK();
  auto keep = [&status](const Status& st) {
    if (status.ok() && !st.ok()) status = st;
  };

  const uint64_t t0 = Now();
  world_.AdvanceTick();
  const uint64_t tick = world_.tick();
  s->tick = tick;
  const int32_t root = rec != nullptr ? rec->Open("tick", tick, t0) : -1;

  // 1. Workload mutations (logins/logouts record their own spans).
  uint64_t a = Now();
  const int32_t mutate =
      rec != nullptr ? rec->Open("core.mutate", tick, a) : -1;
  ApplyMutations();
  uint64_t b = Now();
  if (rec != nullptr) rec->Close(mutate, b);
  s->mutate_ns = b - a;

  // 2. Scripted parallel tick; the host's own phase timings split it.
  a = Now();
  const uint64_t allocs0 = alloc::Count();
  if (traced) alloc::Arm(true);
  auto stats = host_->RunTickOver("tick", "Combat");
  if (traced) alloc::Arm(false);
  s->allocs = traced ? alloc::Count() - allocs0 : 0;
  b = Now();
  s->script_ns = b - a;
  keep(stats.status());
  if (stats.ok()) {
    s->entities = stats->entities;
    s->effects = stats->effect_contributions;
    s->script_errors = stats->script_errors;
    if (stats->script_errors > 0) keep(stats->first_error);
    s->quiescent_ns = stats->quiescent_ns;
    s->script_maintain_ns = stats->maintain_ns;
    s->query_ns = stats->query_phase_ns;
    s->apply_ns = stats->apply_phase_ns;
    if (rec != nullptr) {
      const int32_t parent = rec->Add("script.tick", a, b, tick);
      uint64_t at = a;
      const std::pair<const char*, uint64_t> phases[] = {
          {"planner.quiescent", s->quiescent_ns},
          {"views.maintain", s->script_maintain_ns},
          {"script.query", s->query_ns},
          {"script.apply", s->apply_ns}};
      for (const auto& [name, ns] : phases) {
        rec->Add(name, at, at + ns, tick, parent);
        at += ns;
      }
    }
  }

  // 3. Game events feed the checkpoint policy and the WAL: loadgen's mix
  //    (autosave marks, 2% boss kills, 20% quest steps) on a fixed schedule,
  //    so every run checkpoints on the same ticks.
  a = Now();
  if (tick % 10 == 0) {
    keep(persistence_->OnEvent(tick, 1.0, "autosave_mark"));
  }
  if (tick % 50 == 25) {
    keep(persistence_->OnEvent(tick, 50.0, "boss_kill"));
  } else if (tick % 5 == 3) {
    keep(persistence_->OnEvent(tick, 1.0, "quest_step"));
  }
  b = Now();
  s->events_ns = b - a;
  if (rec != nullptr) rec->Add("persist.events", a, b, tick);

  // 4. Player actions: bubble-isolated execution, then WAL logging.
  if (!actions_.empty()) {
    a = Now();
    const gamedb::txn::ExecStats es =
        executor_->ExecuteBatch(&world_, actions_, txn_pool_.get());
    gamedb::txn::PublishBatchDirty(&world_, actions_);
    b = Now();
    s->txn_ns = b - a;
    s->txn_committed = es.committed;
    s->bubbles = es.bubble_count;
    s->cross_bubble = es.cross_bubble_txns;
    if (rec != nullptr) rec->Add("txn.exec", a, b, tick);
    a = Now();
    for (const gamedb::txn::GameTxn& t : actions_) {
      keep(persistence_->OnTxn(t, tick));
    }
    b = Now();
    s->txn_log_ns = b - a;
    txns_since_checkpoint_ += actions_.size();
    if (rec != nullptr) rec->Add("persist.txn_log", a, b, tick);
  }

  // 5. Client sync; its first step is the second view maintenance round.
  a = Now();
  keep(sync_->SyncAll(&sync_stats_));
  b = Now();
  s->sync_ns = b - a;
  s->sync_maintain_ns = catalog_.stats().last_round_ns;
  if (rec != nullptr) {
    const int32_t parent = rec->Add("replication.sync", a, b, tick);
    rec->Add("views.maintain", a, a + s->sync_maintain_ns, tick, parent);
  }
  for (const auto& st : sync_stats_) {
    s->rows_sent += st.rows_sent;
    s->removals_sent += st.removals_sent;
    s->bytes_sent += st.bytes_sent;
  }
  s->clients = sync_->connected_count();

  // 6. End-of-tick persistence (the checkpoint policy).
  a = Now();
  auto checkpointed = persistence_->OnTickEnd(world_);
  b = Now();
  s->tick_end_ns = b - a;
  keep(checkpointed.status());
  s->checkpointed = checkpointed.ok() && *checkpointed;
  if (rec != nullptr) {
    rec->Add(s->checkpointed ? "persist.checkpoint" : "persist.tick_end", a,
             b, tick);
    rec->Close(root, b);
  }
  s->tick_ns = b - t0;
  if (s->checkpointed) {
    txns_since_checkpoint_ = 0;
    ticks_since_checkpoint_ = 0;
  } else {
    ++ticks_since_checkpoint_;
  }

  // Counter deltas, read outside the timed window.
  const Counters after = ReadCounters();
  s->views_maintain_ns = after.catalog.maintain_ns - before.catalog.maintain_ns;
  s->view_changes =
      after.catalog.change_records - before.catalog.change_records;
  s->stats_refreshes = after.stats_refreshes - before.stats_refreshes;
  s->planner_executes = after.executes - before.executes;
  s->planner_exec_ns = after.exec_ns - before.exec_ns;
  s->planner_rows_out = after.rows_out - before.rows_out;
  s->storage_bytes = after.storage_bytes - before.storage_bytes;
  s->syncs = after.syncs - before.syncs;
  s->wal_bytes = after.wal_bytes - before.wal_bytes;
  s->checkpoint_bytes = after.checkpoint_bytes - before.checkpoint_bytes;
  s->rows_written = after.versions - before.versions;
  s->alive = world_.AliveCount();
  if (traced) {
    for (const Client& c : clients_) {
      if (!c.connected) continue;
      s->replica_entities +=
          sync_->client(c.sync_index).world().AliveCount();
      if (const auto* view = InterestView(c.sync_index)) {
        s->interest_members += view->size();
      }
    }
    rec_->Count("replication.rows_sent", t0, double(s->rows_sent));
    rec_->Count("views.change_records", t0, double(s->view_changes));
    rec_->Count("planner.executes", t0, double(s->planner_executes));
    rec_->Count("core.rows_written", t0, double(s->rows_written));
    rec_->Count("core.alive_entities", t0, double(s->alive));
    rec_->Count("persist.wal_bytes", t0, double(s->wal_bytes));
    rec_->Count("script.allocs", t0, double(s->allocs));
  }
  if (hook_ != nullptr) hook_->set_armed(false);
  current_ = nullptr;
  return status;
}

// --- Player actions ----------------------------------------------------------

void Shard::PrepareActions() {
  actions_.clear();
  if (spec_.txns_per_tick == 0) return;
  // Bucket live NPCs on a grid of action-range cells so partners can be
  // drawn among nearby entities.
  const size_t cols = static_cast<size_t>(std::ceil(kArena / kActionRange)) + 1;
  std::vector<int32_t> head(cols * cols, -1);
  std::vector<int32_t> next;
  std::vector<EntityId> live;
  std::vector<Vec3> pos;
  auto cell_of = [&](const Vec3& p) {
    const size_t cx = std::min(cols - 1, static_cast<size_t>(p.x / kActionRange));
    const size_t cz = std::min(cols - 1, static_cast<size_t>(p.z / kActionRange));
    return cz * cols + cx;
  };
  for (EntityId e : npcs_) {
    const gamedb::Position* p = world_.Get<gamedb::Position>(e);
    if (p == nullptr) continue;
    const size_t c = cell_of(p->value);
    next.push_back(head[c]);
    head[c] = static_cast<int32_t>(live.size());
    live.push_back(e);
    pos.push_back(p->value);
  }
  if (live.size() < 2) return;
  gamedb::Rng& r = action_rng_;
  for (size_t k = 0; k < spec_.txns_per_tick; ++k) {
    const size_t i = static_cast<size_t>(r.NextBounded(live.size()));
    gamedb::txn::GameTxn t;
    t.a = live[i];
    EntityId partner = EntityId::Invalid();
    for (int32_t j = head[cell_of(pos[i])]; j >= 0; j = next[size_t(j)]) {
      if (size_t(j) != i &&
          pos[i].DistanceSquaredTo(pos[size_t(j)]) <=
              kActionRange * kActionRange) {
        partner = live[size_t(j)];
        break;
      }
    }
    const double roll = r.NextDouble();
    if (partner.valid() && roll < 0.5) {
      t.type = gamedb::txn::TxnType::kAttack;
      t.b = partner;
    } else if (partner.valid() && roll < 0.7) {
      t.type = gamedb::txn::TxnType::kTrade;
      t.b = partner;
      t.amount = r.NextFloat(1.0f, 20.0f);
    } else {
      t.type = gamedb::txn::TxnType::kMove;
      const float h = kActionRange / 2;
      t.dest = {std::clamp(pos[i].x + r.NextFloat(-h, h), 0.0f, kArena), 0.0f,
                std::clamp(pos[i].z + r.NextFloat(-h, h), 0.0f, kArena)};
    }
    actions_.push_back(std::move(t));
  }
}

// --- Workload mutations ------------------------------------------------------

void Shard::DrawMutations(uint64_t tick) {
  Mutations& m = mutations_;
  m.moves.clear();
  m.hp.clear();
  m.targets.clear();
  m.spawns.clear();
  m.despawns = 0;
  m.logout_from = -1;
  m.logins.clear();

  // Loadgen's steady_state NPC mix: 20% jitter, hp churn, 3% retarget.
  constexpr float kJitter = 10.0f;
  for (EntityId e : npcs_) {
    if (!world_.Alive(e) || !rng_.NextBool(0.20)) continue;
    Vec3 p = world_.Get<gamedb::Position>(e)->value;
    p.x = std::clamp(p.x + rng_.NextFloat(-kJitter, kJitter), 0.0f, kArena);
    p.z = std::clamp(p.z + rng_.NextFloat(-kJitter, kJitter), 0.0f, kArena);
    m.moves.emplace_back(e, p);
  }
  for (EntityId e : npcs_) {
    if (!world_.Alive(e) || !rng_.NextBool(spec_.health_churn)) continue;
    m.hp.emplace_back(e, rng_.NextFloat(5.0f, 100.0f));
  }
  for (EntityId e : npcs_) {
    if (!world_.Alive(e) || !rng_.NextBool(0.03)) continue;
    EntityId target = RandomLiveNpc();
    if (target == e || !target.valid()) continue;
    m.targets.emplace_back(e, target);
  }
  if (spec_.roaming_avatars) {
    for (Client& c : clients_) {
      const gamedb::Position* p =
          c.connected ? world_.Get<gamedb::Position>(c.avatar) : nullptr;
      if (p == nullptr) continue;
      const Vec3 d{c.waypoint.x - p->value.x, 0.0f, c.waypoint.z - p->value.z};
      const float len = std::sqrt(d.x * d.x + d.z * d.z);
      if (len <= kAvatarStep) {
        m.moves.emplace_back(c.avatar, c.waypoint);
        c.waypoint = RandomPoint();
      } else {
        m.moves.emplace_back(c.avatar,
                             Vec3{p->value.x + d.x / len * kAvatarStep,
                                  p->value.y,
                                  p->value.z + d.z / len * kAvatarStep});
      }
    }
  }
  if (spec_.spawn_waves) {
    const size_t wave = std::max<size_t>(1, spec_.npcs / 8);
    if (tick % 8 == 2) {
      for (size_t i = 0; i < wave; ++i) m.spawns.push_back(DrawNpc());
    }
    if (tick % 8 == 6 && npcs_.size() > spec_.npcs) m.despawns += wave;
  }
  // Trickle spawns/despawns and connection churn at loadgen's steady_state
  // rates (a quarter per tick; one client in twenty ticks), on a fixed
  // schedule: the seed picks who and where, never how much load a run gets.
  if (tick % 4 == 0) m.spawns.push_back(DrawNpc());
  if (tick % 4 == 2) m.despawns += 1;
  if (tick % 20 == 10) {
    if (!clients_.empty()) {
      m.logout_from = static_cast<int64_t>(rng_.NextBounded(clients_.size()));
    }
    m.logins.push_back(DrawAvatar());
  }
}

void Shard::ApplyMutations() {
  const Mutations& m = mutations_;
  for (const auto& [e, p] : m.moves) {
    world_.Patch<gamedb::Position>(e, [&](gamedb::Position& v) { v.value = p; });
  }
  for (const auto& [e, hp] : m.hp) {
    world_.Patch<gamedb::Health>(e, [&](gamedb::Health& h) { h.hp = hp; });
  }
  for (const auto& [e, target] : m.targets) {
    world_.Patch<gamedb::Combat>(e,
                                 [&](gamedb::Combat& c) { c.target = target; });
  }
  for (const NpcDraw& d : m.spawns) SpawnNpc(d);
  DespawnNpcs(m.despawns);
  if (m.logout_from >= 0) LogoutFrom(static_cast<size_t>(m.logout_from));
  for (const AvatarDraw& d : m.logins) Login(d);
}

Shard::NpcDraw Shard::DrawNpc() {
  NpcDraw d;
  d.pos = RandomPoint();
  d.hp = rng_.NextFloat(40.0f, 100.0f);
  d.attack = rng_.NextFloat(1.0f, 4.0f);
  return d;
}

Shard::AvatarDraw Shard::DrawAvatar() {
  // Avatars start a full interest radius inside the arena, so with few
  // stationary clients the seed does not decide how much of each interest
  // circle the arena edge cuts off.
  AvatarDraw d;
  d.start = {rng_.NextFloat(kInterestRadius, kArena - kInterestRadius), 0.0f,
             rng_.NextFloat(kInterestRadius, kArena - kInterestRadius)};
  d.waypoint = RandomPoint();
  return d;
}

EntityId Shard::SpawnNpc(const NpcDraw& d) {
  EntityId e = world_.Create();
  world_.Set(e, gamedb::Position{d.pos});
  world_.Set(e, gamedb::Health{d.hp, 100.0f});
  gamedb::Combat c;
  c.attack = d.attack;
  c.range = kActionRange;
  world_.Set(e, c);
  world_.Set(e, gamedb::Faction{static_cast<int32_t>(spawns_ % 4)});
  if (spec_.txns_per_tick > 0) {
    // Trade actions move gold between NPCs.
    gamedb::Actor a;
    a.gold = 100;
    world_.Set(e, a);
  }
  npcs_.push_back(e);
  ++spawns_;
  return e;
}

void Shard::DespawnNpcs(size_t n) {
  size_t killed = 0;
  size_t scan = 0;
  while (killed < n && scan < npcs_.size()) {
    EntityId e = npcs_[scan++];
    if (!world_.Alive(e)) continue;
    world_.Destroy(e);
    ++killed;
  }
  npcs_.erase(npcs_.begin(), npcs_.begin() + static_cast<ptrdiff_t>(scan));
}

void Shard::Login(const AvatarDraw& d) {
  EntityId avatar = world_.Create();
  world_.Set(avatar, gamedb::Position{d.start});
  world_.Set(avatar, gamedb::Health{100.0f, 100.0f});
  gamedb::Combat c;
  c.attack = 2.0f;
  c.range = 8.0f;
  world_.Set(avatar, c);
  gamedb::Actor actor;
  actor.account_id = static_cast<int64_t>(logins_++);
  actor.is_player = true;
  world_.Set(avatar, actor);
  Client client;
  client.avatar = avatar;
  client.waypoint = d.waypoint;
  client.connected = true;
  const uint64_t b = Now();
  client.sync_index = sync_->AddClient(avatar);
  const uint64_t end = Now();
  clients_.push_back(client);
  if (current_ != nullptr) {
    current_->connect_ns += end - b;
    if (current_->traced && rec_ != nullptr) {
      rec_->Add("replication.connect", b, end, current_->tick);
    }
  }
}

void Shard::LogoutFrom(size_t start) {
  const size_t n = clients_.size();
  for (size_t k = 0; k < n; ++k) {
    Client& slot = clients_[(start + k) % n];
    if (!slot.connected) continue;
    const uint64_t a = Now();
    sync_->RemoveClient(slot.sync_index);
    const uint64_t b = Now();
    if (current_ != nullptr) {
      current_->connect_ns += b - a;
      if (current_->traced && rec_ != nullptr) {
        rec_->Add("replication.connect", a, b, current_->tick);
      }
    }
    if (world_.Alive(slot.avatar)) world_.Destroy(slot.avatar);
    slot.connected = false;
    return;
  }
}

EntityId Shard::RandomLiveNpc() {
  if (npcs_.empty()) return EntityId::Invalid();
  for (int tries = 0; tries < 8; ++tries) {
    EntityId e = npcs_[rng_.NextBounded(npcs_.size())];
    if (world_.Alive(e)) return e;
  }
  return EntityId::Invalid();
}

Vec3 Shard::RandomPoint() {
  return {rng_.NextFloat(0.0f, kArena), 0.0f, rng_.NextFloat(0.0f, kArena)};
}

// --- Output checks -----------------------------------------------------------

const gamedb::views::LiveView* Shard::InterestView(size_t client) const {
  const std::string prefix = "__sync_interest_";
  const std::string suffix = "_" + std::to_string(client);
  for (const std::string& name : catalog_.ViewNames()) {
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        name.find('_', prefix.size()) == name.size() - suffix.size()) {
      return catalog_.Find(name);
    }
  }
  return nullptr;
}

Status Shard::CheckReplicas() const {
  for (const Client& c : clients_) {
    if (!c.connected) continue;
    const gamedb::World& replica = sync_->client(c.sync_index).world();
    const gamedb::views::LiveView* view = InterestView(c.sync_index);
    if (view == nullptr) {
      return Status::NotFound("no interest view for client " +
                              std::to_string(c.sync_index));
    }
    const auto d = gamedb::replication::MeasureDivergence(world_, replica);
    if (d.position_rmse != 0.0 || d.max_position_error != 0.0 ||
        d.hp_mean_abs_error != 0.0 || d.compared != view->size() ||
        replica.AliveCount() != view->size()) {
      return Status::Corruption(
          "client " + std::to_string(c.sync_index) + " diverged: rmse " +
          std::to_string(d.position_rmse) + ", hp err " +
          std::to_string(d.hp_mean_abs_error) + ", compared " +
          std::to_string(d.compared) + ", replica " +
          std::to_string(replica.AliveCount()) + ", interest " +
          std::to_string(view->size()));
    }
  }
  return Status::OK();
}

Status Shard::ForceCheckpoint() {
  GAMEDB_RETURN_NOT_OK(persistence_->ForceCheckpoint(world_));
  txns_since_checkpoint_ = 0;
  ticks_since_checkpoint_ = 0;
  return Status::OK();
}

uint32_t HashWorld(const gamedb::World& world) {
  std::string snapshot;
  gamedb::EncodeWorldSnapshot(world, &snapshot);
  return gamedb::Crc32c(snapshot.data(), snapshot.size());
}

}  // namespace perfbench
