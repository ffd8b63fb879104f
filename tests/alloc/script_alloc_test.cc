// Heap allocations of the scripted tick, counted by a global operator new
// replacement (which is why this suite is a binary of its own).
//
// The shipped combat behavior (assets/scripts/loadgen_combat.gsl) runs
// through ScriptHost::RunTick. Once warm, a tick over 4N entities must
// allocate no more than a tick over N: the per-entity call path — call
// arguments, locals, the entry call, get/emit/view_count name resolution
// and the effect drain — allocates nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/reflect.h"
#include "loadgen_combat_gsl.h"
#include "script/host.h"
#include "views/maintainer.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// GCC flags free() on memory from operator new once it inlines these
// replacements into call sites; here both sides are malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace gamedb::script {
namespace {

constexpr size_t kSmall = 256;  // N
constexpr size_t kLarge = 4 * kSmall;

struct AllocCase {
  size_t threads;
  Strictness strictness;  // binding must not depend on the verifier
};

class ScriptAllocTest : public ::testing::TestWithParam<AllocCase> {
 protected:
  void SetUp() override {
    RegisterStandardComponents();
    for (size_t i = 0; i < kLarge; ++i) {
      EntityId e = world_.Create();
      // Every branch of the behavior runs: hp < 30 puts a third of the
      // entities in the view, hp < 95 takes the regen branch.
      world_.Set(e, Health{float(i % 3) * 40.0f + 10.0f, 100.0f});
      ids_.push_back(e);
    }
    for (size_t i = 0; i < kLarge; ++i) {
      Combat c;
      c.attack = 1.0f + float(i % 5);
      c.target = ids_[(i * 7 + 3) % kLarge];
      world_.Set(ids_[i], c);
    }
    views::ViewDef wounded;
    wounded.name = "loadgen_wounded";
    wounded.where = {{"Health", "hp", CmpOp::kLt, 30.0}};
    ASSERT_TRUE(catalog_.Register(std::move(wounded)).ok());

    ScriptHostOptions opts;
    opts.num_threads = GetParam().threads;
    opts.strictness = GetParam().strictness;
    opts.views = &catalog_;
    host_ = std::make_unique<ScriptHost>(&world_, opts);
    // Sum the effects instead of writing them back: the world stays put,
    // so every measured tick does the same work.
    host_->OnChannel("damage", [this](EntityId, double v) { damage_ += v; });
    host_->OnChannel("regen", [this](EntityId, double v) { regen_ += v; });
    ASSERT_TRUE(
        host_->Load(kLoadgenCombatScript, kLoadgenCombatScriptName).ok());
  }

  /// Allocations of one RunTick over the first `n` entities.
  uint64_t AllocsOfTick(size_t n) {
    const std::vector<EntityId> entities(ids_.begin(), ids_.begin() + n);
    world_.AdvanceTick();
    const uint64_t before = g_allocs.load();
    g_counting.store(true);
    Result<ScriptTickStats> stats = host_->RunTick("tick", entities);
    g_counting.store(false);
    const uint64_t allocs = g_allocs.load() - before;
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) {
      EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
      EXPECT_EQ(stats->entities, n);
    }
    return allocs;
  }

  World world_;
  views::ViewCatalog catalog_{&world_};
  std::unique_ptr<ScriptHost> host_;
  std::vector<EntityId> ids_;
  double damage_ = 0;
  double regen_ = 0;
};

TEST_P(ScriptAllocTest, WarmTickAllocatesNothingPerEntity) {
  // Warm-up: grow every reusable buffer to the large tick's size.
  for (int i = 0; i < 3; ++i) {
    AllocsOfTick(kLarge);
    AllocsOfTick(kSmall);
  }
  // Per-tick constants (the pool's task queue refills a block every few
  // ticks) are not per-entity work; the minimum over several ticks drops
  // them.
  uint64_t small = ~uint64_t{0};
  uint64_t large = ~uint64_t{0};
  for (int i = 0; i < 8; ++i) {
    small = std::min(small, AllocsOfTick(kSmall));
    large = std::min(large, AllocsOfTick(kLarge));
  }
  EXPECT_LE(large, small) << "a tick over " << kLarge << " entities made "
                          << large << " allocations, one over " << kSmall
                          << " made " << small;
  const double per_entity_tick =
      double(large > small ? large - small : 0) / double(kLarge - kSmall);
  EXPECT_EQ(per_entity_tick, 0.0);
  EXPECT_GT(damage_, 0.0);
  EXPECT_GT(regen_, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ScriptAllocTest,
    ::testing::Values(AllocCase{1, Strictness::kWarn},
                      AllocCase{2, Strictness::kWarn},
                      AllocCase{1, Strictness::kOff}),
    [](const ::testing::TestParamInfo<AllocCase>& info) {
      return "threads_" + std::to_string(info.param.threads) + "_" +
             StrictnessName(info.param.strictness);
    });

}  // namespace
}  // namespace gamedb::script
