#pragma once

/// \file probes.h
/// Counting wrappers that forward to the real layer objects, so the
/// benchmark can count a layer's work from outside it:
///  - CountingPlanHook sits in front of the QueryPlanner and is what the
///    ScriptHost and ViewCatalog are given;
///  - CountingStorage sits in front of MemStorage and is what the
///    PersistenceManager writes to;
///  - alloc::Arm counts global operator new calls (alloc_counter.cc) while
///    armed; the shard arms it only around ScriptHost::RunTickOver.
/// Each wrapper only observes: a run with the wrappers in place produces
/// the same world as a run without them (checked by the self-tests and by
/// every traced run).

#include <atomic>
#include <cstdint>

#include "core/query.h"
#include "persist/storage.h"

namespace perfbench {

namespace alloc {
void Arm(bool on);
uint64_t Count();
}  // namespace alloc

/// QueryPlanHook forwarding to `inner`. While armed, Execute counts calls,
/// emitted rows and wall time summed over the calling threads.
class CountingPlanHook final : public gamedb::QueryPlanHook {
 public:
  explicit CountingPlanHook(gamedb::QueryPlanHook* inner) : inner_(inner) {}

  void set_armed(bool on) { armed_.store(on, std::memory_order_relaxed); }
  uint64_t executes() const { return executes_.load(); }
  uint64_t rows_out() const { return rows_out_.load(); }
  uint64_t exec_ns() const { return exec_ns_.load(); }

  bool PlanningEnabled() const override { return inner_->PlanningEnabled(); }
  gamedb::Status Execute(
      const gamedb::DynamicQuery& q,
      const std::function<void(gamedb::EntityId)>& fn) override;
  gamedb::Result<std::string> ExplainQuery(
      const gamedb::DynamicQuery& q) override {
    return inner_->ExplainQuery(q);
  }
  void OnQuiescent() override { inner_->OnQuiescent(); }
  size_t ChooseViewDriver(const uint32_t* type_ids, size_t n) const override {
    return inner_->ChooseViewDriver(type_ids, n);
  }

 private:
  gamedb::QueryPlanHook* inner_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> executes_{0};
  std::atomic<uint64_t> rows_out_{0};
  std::atomic<uint64_t> exec_ns_{0};
};

/// Storage forwarding to `inner`, counting bytes handed to Write/Append.
/// Sync counts come from the inner device.
class CountingStorage final : public gamedb::persist::Storage {
 public:
  explicit CountingStorage(gamedb::persist::Storage* inner) : inner_(inner) {}

  uint64_t bytes_written() const { return bytes_written_; }

  gamedb::Status Write(const std::string& name,
                       std::string_view data) override {
    bytes_written_ += data.size();
    return inner_->Write(name, data);
  }
  gamedb::Status Append(const std::string& name,
                        std::string_view data) override {
    bytes_written_ += data.size();
    return inner_->Append(name, data);
  }
  gamedb::Status Read(const std::string& name,
                      std::string* out) const override {
    return inner_->Read(name, out);
  }
  gamedb::Status Remove(const std::string& name) override {
    return inner_->Remove(name);
  }
  gamedb::Status Sync(const std::string& name) override {
    return inner_->Sync(name);
  }
  gamedb::Status Rename(const std::string& from,
                        const std::string& to) override {
    return inner_->Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return inner_->Exists(name);
  }
  std::vector<std::string> List() const override { return inner_->List(); }
  uint64_t TotalBytes() const override { return inner_->TotalBytes(); }
  uint64_t syncs() const override { return inner_->syncs(); }

 private:
  gamedb::persist::Storage* inner_;
  uint64_t bytes_written_ = 0;
};

}  // namespace perfbench
