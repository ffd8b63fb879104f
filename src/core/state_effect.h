#pragma once

/// \file state_effect.h
/// The state-effect execution pattern from the authors' SGL work [13],
/// which the tutorial presents as the declarative answer to parallel script
/// processing ("the techniques game programmers use on GPUs look very
/// similar to join processing").
///
/// A tick is split into two phases:
///   1. Query phase — every entity's behavior runs against the *tick-start*
///      state. Reads are unrestricted; writes are forbidden. Instead,
///      behaviors emit *effects*: (target entity, value) contributions into
///      commutative-monoid accumulators (total damage, summed flocking
///      forces, ...). Because effects commute, the query phase parallelizes
///      embarrassingly — this is the join-processing shape.
///   2. Apply phase — each accumulator combines its contributions per entity
///      and a (sequential, deterministic) apply function writes the combined
///      value back into the component tables.
///
/// Benchmarked against an unordered read-modify-write script loop in E4.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/query.h"
#include "core/world.h"

namespace gamedb {

/// Commutative-monoid effect accumulator keyed by target entity.
///
/// Contributions are collected into per-shard buffers (no synchronization on
/// the hot path); Drain merges shards in shard order and invokes the
/// consumer per distinct entity, so results are deterministic for a fixed
/// shard assignment.
template <typename V>
class Effect {
 public:
  /// Combines a contribution into the accumulated value, e.g.
  /// `[](double& acc, const double& v) { acc += v; }` (the default).
  using Combine = std::function<void(V&, const V&)>;

  explicit Effect(size_t shards, Combine combine = DefaultCombine())
      : shards_(shards), combine_(std::move(combine)) {
    GAMEDB_CHECK(shards >= 1);
  }

  /// Records a contribution from `shard` (the executor's chunk index).
  void Contribute(size_t shard, EntityId target, V value) {
    GAMEDB_DCHECK(shard < shards_.size());
    shards_[shard].emplace_back(target, std::move(value));
  }

  /// Total contributions currently buffered (pre-merge).
  size_t contribution_count() const {
    size_t n = 0;
    for (const auto& s : shards_) n += s.size();
    return n;
  }

  /// Merges all shards and calls fn(EntityId, const V&) once per distinct
  /// target (in first-contribution order), then clears the buffers.
  ///
  /// The merge scratch (open-addressing slot table + merged rows) is owned
  /// by the Effect and reused across calls, so a steady-state per-tick
  /// drain performs no allocations once capacities are warm. Consequently
  /// Drain is not reentrant and must run on one thread at a time — which
  /// the apply phase is by construction.
  template <typename Fn>
  void Drain(Fn&& fn) {
    size_t total = contribution_count();
    // Load factor <= 1/2; assign() keeps the capacity of earlier drains.
    int bits = 4;
    while ((size_t{1} << bits) < 2 * total) ++bits;
    drain_table_.assign(size_t{1} << bits, 0);
    const size_t mask = (size_t{1} << bits) - 1;
    drain_merged_.clear();
    drain_merged_.reserve(total);
    for (auto& shard : shards_) {
      for (auto& [e, v] : shard) {
        // The top bits of the Fibonacci-scrambled id pick the bucket.
        size_t b = static_cast<size_t>(
            static_cast<uint64_t>(std::hash<EntityId>()(e)) >> (64 - bits));
        // Linear probing; a bucket holds 1 + the row's drain_merged_ index.
        while (drain_table_[b] != 0 &&
               !(drain_merged_[drain_table_[b] - 1].first == e)) {
          b = (b + 1) & mask;
        }
        if (drain_table_[b] == 0) {
          drain_merged_.emplace_back(e, std::move(v));
          drain_table_[b] = drain_merged_.size();
        } else {
          combine_(drain_merged_[drain_table_[b] - 1].second, v);
        }
      }
      shard.clear();
    }
    for (auto& [e, v] : drain_merged_) fn(e, static_cast<const V&>(v));
  }

  /// Discards buffered contributions.
  void Clear() {
    for (auto& s : shards_) s.clear();
  }

 private:
  static Combine DefaultCombine() {
    return [](V& acc, const V& v) { acc += v; };
  }

  std::vector<std::vector<std::pair<EntityId, V>>> shards_;
  Combine combine_;
  // Reusable Drain scratch (see Drain); kept warm across ticks.
  std::vector<size_t> drain_table_;
  std::vector<std::pair<EntityId, V>> drain_merged_;
};

/// Runs query phases in parallel over a World.
///
/// The executor owns a thread pool; shard ids passed to the query callback
/// index Effect accumulators sized with `shard_count()`.
class StateEffectExecutor {
 public:
  /// \param num_threads worker count; 1 gives a sequential (but still
  ///        deterministic and effect-isolated) executor.
  explicit StateEffectExecutor(size_t num_threads) : pool_(num_threads) {}
  GAMEDB_DISALLOW_COPY(StateEffectExecutor);

  /// Number of shards the query phase may use (chunk indexes are < this).
  size_t shard_count() const { return pool_.num_threads(); }
  size_t num_threads() const { return pool_.num_threads(); }
  ThreadPool& pool() { return pool_; }

  /// Query phase over all entities holding every component in Ts...:
  /// fn(shard, EntityId, const Ts&...) runs in parallel against tick-start
  /// state. `fn` must not write to the World (emit effects instead).
  template <typename... Ts, typename Fn>
  void QueryPhase(World& world, Fn&& fn) {
    View<Ts...> view(world);
    scratch_entities_ = view.Entities();
    auto tables = std::tuple<SparseSet<Ts>*...>{&world.Table<Ts>()...};
    pool_.ParallelForChunks(
        scratch_entities_.size(),
        [&](size_t chunk, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            EntityId e = scratch_entities_[i];
            fn(chunk, e,
               *static_cast<const Ts*>(
                   static_cast<const ComponentStore*>(
                       std::get<SparseSet<Ts>*>(tables))
                       ->Find(e))...);
          }
        });
  }

  /// Convenience: parallel read-only pass over a snapshot vector of items.
  template <typename Item, typename Fn>
  void ParallelOver(const std::vector<Item>& items, Fn&& fn) {
    pool_.ParallelForChunks(items.size(),
                            [&](size_t chunk, size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                fn(chunk, items[i]);
                              }
                            });
  }

 private:
  ThreadPool pool_;
  std::vector<EntityId> scratch_entities_;
};

}  // namespace gamedb
