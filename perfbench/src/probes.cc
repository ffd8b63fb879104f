#include "probes.h"

#include "common/percentile.h"

namespace perfbench {

gamedb::Status CountingPlanHook::Execute(
    const gamedb::DynamicQuery& q,
    const std::function<void(gamedb::EntityId)>& fn) {
  if (!armed_.load(std::memory_order_relaxed)) return inner_->Execute(q, fn);
  const uint64_t t0 = gamedb::MonotonicNanos();
  uint64_t rows = 0;
  gamedb::Status st = inner_->Execute(q, [&](gamedb::EntityId e) {
    ++rows;
    fn(e);
  });
  exec_ns_.fetch_add(gamedb::MonotonicNanos() - t0, std::memory_order_relaxed);
  executes_.fetch_add(1, std::memory_order_relaxed);
  rows_out_.fetch_add(rows, std::memory_order_relaxed);
  return st;
}

}  // namespace perfbench
