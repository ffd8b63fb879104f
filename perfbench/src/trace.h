#pragma once

/// \file trace.h
/// The benchmark's own span recorder. Spans are taken from outside the
/// program, around each call into a layer, and kept in memory; WriteChrome
/// renders them once at exit as Chrome trace_event JSON (chrome://tracing,
/// Perfetto). Every span carries its parent and the tick it belongs to.
/// Single-threaded: every layer call is made from the tick thread.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index into SpanRecorder::spans(), -1 for roots
  uint64_t tick = 0;
};

/// A per-tick counter sample (Chrome "C" event).
struct CounterSample {
  const char* name = "";
  uint64_t ts_ns = 0;
  double value = 0.0;
};

class SpanRecorder {
 public:
  /// While disabled, Open/Add record nothing and return -1.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span starting at `start_ns` whose parent is the innermost
  /// open span.
  int32_t Open(const char* name, uint64_t tick, uint64_t start_ns);
  void Close(int32_t id, uint64_t end_ns);
  /// Records a closed span with explicit bounds (sub-phase splits taken
  /// from a layer's stats struct). `parent` -1 means the innermost open
  /// span.
  int32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
              uint64_t tick, int32_t parent = -1);
  void Count(const char* name, uint64_t ts_ns, double value);

  const std::vector<Span>& spans() const { return spans_; }
  gamedb::Status WriteChrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<CounterSample> counters_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench
