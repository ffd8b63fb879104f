#pragma once

/// \file bench.h
/// One benchmark run: set a shard up several times, take a recovery image,
/// measure a fixed number of steady-state ticks in blocks with a burst of
/// timed recoveries after each block, check every output and reduce the raw
/// samples to metrics.
///
/// Untraced runs report the end-to-end metrics. Traced runs alternate
/// traced and untraced ticks: traced ticks record spans, arm the counting
/// wrappers and give the per-layer metrics; the untraced ticks in between
/// give the tracing overhead. The first set-up of a traced run is plain and
/// the others run their warm-up ticks traced, so the warm-up world hashes
/// show that the armed wrappers only observe.

#include <cstdint>
#include <string>
#include <vector>

#include "shard.h"

namespace perfbench {

struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  /// Steady-state ticks to measure, rounded up to whole blocks (at least
  /// two blocks).
  size_t ticks = 100;
  /// Wall-time cap on the steady state; a run that hits it reports the
  /// ticks it measured.
  double max_seconds = 120.0;
  bool trace = false;
  /// Chrome trace_event JSON written at exit by traced runs ("" = none).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t ticks_attempted = 0;
  /// Ticks that failed (a layer call returned non-OK or a script error
  /// occurred), plus one for each failed set-up, image, recovery or
  /// end-of-run check.
  uint64_t ticks_failed = 0;
  std::vector<std::string> problems;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
  /// World hash after warm-up of each set-up.
  std::vector<uint32_t> warmup_hashes;
  uint32_t final_hash = 0;
  uint64_t storage_bytes = 0;
  uint64_t counted_storage_bytes = 0;
  size_t measured_ticks = 0;
};

RunReport RunBenchmark(const RunOptions& options);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunReport& report);

}  // namespace perfbench
