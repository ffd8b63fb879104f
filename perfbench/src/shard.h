#pragma once

/// \file shard.h
/// A full gamedb shard driven through the public API of each layer: World
/// (core), QueryPlanner (planner, with its spatial indexes), ViewCatalog
/// (views), ScriptHost (script), interest-view SyncServer (replication),
/// PersistenceManager over MemStorage (persist) and a BubbleExecutor (txn).
///
/// One tick runs in the loadgen order: workload mutations, then
/// ScriptHost::RunTickOver, then game events and player transactions, then
/// SyncServer::SyncAll, then PersistenceManager::OnTickEnd. The shard times
/// every call into a layer from outside and takes sub-phase splits from the
/// stats structs those calls return. Every random decision comes from the
/// workload seed, so a (workload, seed, tick) triple fixes the world state.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/world.h"
#include "persist/manager.h"
#include "persist/storage.h"
#include "planner/planner.h"
#include "probes.h"
#include "replication/sync.h"
#include "script/host.h"
#include "trace.h"
#include "txn/bubbles.h"
#include "views/maintainer.h"

namespace perfbench {

/// One benchmark workload. All use a 1000x1000 arena and interest radius
/// 80; the NPC mix is loadgen's steady_state (jitter, health churn,
/// retargeting, trickle spawns/despawns, logins/logouts). Why each workload
/// exists is recorded in BENCHMARK.json and perfbench/README.md.
struct WorkloadSpec {
  std::string name;
  size_t clients = 0;
  size_t npcs = 0;
  size_t script_threads = 1;
  /// Avatars walk every tick, so every interest view recenters every tick.
  bool roaming_avatars = false;
  /// Fraction of NPCs whose hp is rewritten each tick.
  double health_churn = 0.05;
  /// Waves of npcs/8 spawned every 8 ticks, despawned 4 ticks later.
  bool spawn_waves = false;
  /// Six global monitoring views on top of the two the script reads.
  bool monitoring_views = false;
  /// Player actions per tick through the BubbleExecutor, WAL-logged; 0
  /// leaves the txn layer idle.
  size_t txns_per_tick = 0;
  /// Steady-state ticks per second of run time: a run of S seconds
  /// measures S * ticks_per_second ticks, about the rate this workload
  /// keeps on a 4-CPU host while other tenants slow it down. Fixing the
  /// tick count (not the wall time) gives every run of a seed the same work.
  double ticks_per_second = 10.0;
};

/// The registered workloads: crowd, horde, churn.
const std::vector<WorkloadSpec>& Workloads();
/// nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
/// `spec` with clients, NPCs and actions divided by `divisor` (smoke runs).
WorkloadSpec Reduced(const WorkloadSpec& spec, size_t divisor);

/// What one tick did, measured from outside the layers. Durations are
/// steady_clock nanoseconds; counts are this tick's deltas.
struct TickSample {
  uint64_t tick = 0;
  bool traced = false;
  bool checkpointed = false;
  uint64_t tick_ns = 0;

  // Top-level spans (their sum plus the unattributed gap is tick_ns).
  uint64_t mutate_ns = 0;    ///< workload mutations (includes connect_ns)
  uint64_t connect_ns = 0;   ///< SyncServer AddClient/RemoveClient
  uint64_t script_ns = 0;    ///< ScriptHost::RunTickOver
  uint64_t events_ns = 0;    ///< PersistenceManager::OnEvent
  uint64_t txn_ns = 0;       ///< BubbleExecutor batch + dirty publish
  uint64_t txn_log_ns = 0;   ///< PersistenceManager::OnTxn per action
  uint64_t sync_ns = 0;      ///< SyncServer::SyncAll
  uint64_t tick_end_ns = 0;  ///< PersistenceManager::OnTickEnd

  // Sub-phase splits from the layers' stats structs.
  uint64_t quiescent_ns = 0;        ///< ScriptTickStats (planner refresh)
  uint64_t script_maintain_ns = 0;  ///< ScriptTickStats (view round 1)
  uint64_t query_ns = 0;            ///< ScriptTickStats
  uint64_t apply_ns = 0;            ///< ScriptTickStats
  uint64_t sync_maintain_ns = 0;    ///< CatalogStats (view round 2)
  uint64_t views_maintain_ns = 0;   ///< CatalogStats delta, both rounds
  uint64_t view_changes = 0;        ///< CatalogStats delta

  uint64_t entities = 0;  ///< scripted entity-ticks
  uint64_t effects = 0;
  uint64_t script_errors = 0;
  uint64_t allocs = 0;  ///< operator new calls in RunTickOver (traced only)

  uint64_t clients = 0;  ///< connected clients synced this tick
  uint64_t rows_sent = 0;
  uint64_t removals_sent = 0;
  uint64_t bytes_sent = 0;

  // Counting wrappers (zero without them).
  uint64_t planner_executes = 0;
  uint64_t planner_exec_ns = 0;
  uint64_t planner_rows_out = 0;
  uint64_t storage_bytes = 0;
  uint64_t stats_refreshes = 0;

  uint64_t rows_written = 0;  ///< tracked row writes, all tables
  uint64_t alive = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t syncs = 0;
  uint64_t txn_committed = 0;
  uint64_t bubbles = 0;
  uint64_t cross_bubble = 0;

  // Read after the tick, traced ticks only.
  uint64_t replica_entities = 0;
  uint64_t interest_members = 0;

  /// Σ of the top-level spans, i.e. the attributed part of tick_ns.
  uint64_t attributed_ns() const {
    return mutate_ns + script_ns + events_ns + txn_ns + txn_log_ns +
           sync_ns + tick_end_ns;
  }
};

/// CRC-32C of the encoded world snapshot.
uint32_t HashWorld(const gamedb::World& world);

class Shard {
 public:
  /// `counting_wrappers` puts the CountingPlanHook in front of the planner
  /// and the CountingStorage in front of the storage device. `rec` (may be
  /// null) receives spans on traced ticks.
  Shard(const WorkloadSpec& spec, uint64_t seed, bool counting_wrappers,
        SpanRecorder* rec);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Initial NPC population, planner Analyze, global views, sync server,
  /// persistence and script load.
  gamedb::Status Populate();
  /// Connects every client (registers and populates its interest view).
  void LoginAll();
  /// Runs one tick; `traced` records spans and arms the counters.
  gamedb::Status Tick(bool traced, TickSample* out);

  /// Every connected client's replica equals the server over its interest
  /// set (replication::MeasureDivergence is 0 and the replica holds exactly
  /// the interest view's members).
  gamedb::Status CheckReplicas() const;
  gamedb::Status ForceCheckpoint();
  uint32_t WorldHash() const { return HashWorld(world_); }

  gamedb::World& world() { return world_; }
  const gamedb::persist::Storage& storage() const { return storage_; }
  /// Transactions WAL-logged since the last checkpoint: what a recovery
  /// from the current storage image must replay.
  uint64_t txns_since_checkpoint() const { return txns_since_checkpoint_; }
  uint64_t ticks_since_checkpoint() const { return ticks_since_checkpoint_; }
  uint64_t storage_bytes_written() const {
    return storage_.bytes_written();
  }
  uint64_t counted_storage_bytes() const {
    return counting_storage_ != nullptr ? counting_storage_->bytes_written()
                                        : 0;
  }

 private:
  struct Counters;
  Counters ReadCounters() const;
  void PrepareActions();
  const gamedb::views::LiveView* InterestView(size_t client) const;

  /// The seed's draws for one new NPC or avatar.
  struct NpcDraw {
    gamedb::Vec3 pos;
    float hp = 0.0f;
    float attack = 0.0f;
  };
  struct AvatarDraw {
    gamedb::Vec3 start;
    gamedb::Vec3 waypoint;
  };
  /// One tick's workload mutations (loadgen's vocabulary), drawn from the
  /// seed before the tick is timed, so the timed window holds only the World
  /// and SyncServer calls that apply them.
  struct Mutations {
    std::vector<std::pair<gamedb::EntityId, gamedb::Vec3>> moves;
    std::vector<std::pair<gamedb::EntityId, float>> hp;
    std::vector<std::pair<gamedb::EntityId, gamedb::EntityId>> targets;
    std::vector<NpcDraw> spawns;
    size_t despawns = 0;
    /// Clients are scanned from here for one to log out; -1 = none.
    int64_t logout_from = -1;
    std::vector<AvatarDraw> logins;
  };
  void DrawMutations(uint64_t tick);
  void ApplyMutations();

  NpcDraw DrawNpc();
  AvatarDraw DrawAvatar();
  gamedb::EntityId SpawnNpc(const NpcDraw& d);
  void DespawnNpcs(size_t n);
  void Login(const AvatarDraw& d);
  void LogoutFrom(size_t start);
  gamedb::EntityId RandomLiveNpc();
  gamedb::Vec3 RandomPoint();

  struct Client {
    size_t sync_index = 0;
    gamedb::EntityId avatar;
    gamedb::Vec3 waypoint;
    bool connected = false;
  };

  WorkloadSpec spec_;
  uint64_t seed_;
  SpanRecorder* rec_;
  gamedb::Rng rng_;
  gamedb::Rng action_rng_;
  gamedb::World world_;
  gamedb::planner::QueryPlanner planner_;
  std::unique_ptr<CountingPlanHook> hook_;
  gamedb::views::ViewCatalog catalog_;
  gamedb::persist::MemStorage storage_;
  std::unique_ptr<CountingStorage> counting_storage_;
  std::unique_ptr<gamedb::persist::PersistenceManager> persistence_;
  std::unique_ptr<gamedb::replication::SyncServer> sync_;
  std::unique_ptr<gamedb::script::ScriptHost> host_;
  std::unique_ptr<gamedb::txn::BubbleExecutor> executor_;
  std::unique_ptr<gamedb::ThreadPool> txn_pool_;

  std::vector<Client> clients_;
  std::vector<gamedb::EntityId> npcs_;
  std::vector<gamedb::txn::GameTxn> actions_;
  Mutations mutations_;
  std::vector<gamedb::replication::SyncStats> sync_stats_;
  TickSample* current_ = nullptr;  ///< sample of the tick in progress
  uint64_t logins_ = 0;
  uint64_t spawns_ = 0;
  uint64_t txns_since_checkpoint_ = 0;
  uint64_t ticks_since_checkpoint_ = 0;
};

}  // namespace perfbench
