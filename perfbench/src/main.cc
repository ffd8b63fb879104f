// shard_bench: one benchmark run of one workload.
//
//   shard_bench --workload crowd|horde|churn --seed N --seconds S
//               --trace 0|1 [--trace-out trace.json]
//
// Prints notes, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics. Exits 1 when an output check
// failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "shard_bench: %s\nusage: shard_bench --workload "
               "crowd|horde|churn --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  double seconds = 0.0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && seconds > 0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-out") {
      opt.trace_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  opt.spec = *spec;
  // The run's work is fixed by --seconds at the workload's reference tick
  // rate; the wall-time cap keeps a much slower build inside the run limit.
  opt.ticks = static_cast<size_t>(seconds * spec->ticks_per_second + 0.5);
  opt.max_seconds = 1.25 * seconds;

  const perfbench::RunReport report = perfbench::RunBenchmark(opt);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# world hash after warm-up:");
  for (uint32_t h : report.warmup_hashes) std::printf(" %08x", h);
  std::printf("; at end %08x\n", report.final_hash);
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "shard_bench: FAILED %s\n", p.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(report).c_str());
  return report.correct ? 0 : 1;
}
