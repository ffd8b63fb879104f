// Global operator new replacement that counts allocations while armed.
// Linked into the benchmark executables only; disarmed it costs one relaxed
// load per allocation.

#include <atomic>
#include <cstdlib>
#include <new>

#include "probes.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_count{0};

void* CountedAlloc(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

namespace perfbench::alloc {

void Arm(bool on) { g_armed.store(on, std::memory_order_relaxed); }
uint64_t Count() { return g_count.load(std::memory_order_relaxed); }

}  // namespace perfbench::alloc

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
