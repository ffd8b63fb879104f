// Self-tests of the shard benchmark: the exact statistics against known
// answers, the counting wrappers against direct calls, and a reduced-size
// run of every workload that must pass all of its output checks.
//
//   python3 perfbench/run.py --selftest
//
// Prints one line per failed check and exits non-zero when any failed.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/query.h"
#include "planner/planner.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  using perfbench::Median;
  using perfbench::Percentile;
  CHECK(Percentile({}, 50) == 0.0);
  CHECK(Percentile({5.0}, 99) == 5.0);
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  std::vector<double> hundred_one;
  for (int i = 101; i >= 1; --i) hundred_one.push_back(i);
  CHECK(Near(Percentile(hundred_one, 90), 91.0));
  CHECK(Near(Percentile(hundred_one, 0), 1.0));
  CHECK(Near(Percentile(hundred_one, 100), 101.0));
  CHECK(Near(Percentile({10.0, 20.0}, 25), 12.5));
  CHECK(Near(perfbench::Mean({1.0, 2.0, 6.0}), 3.0));
}

void TestTail() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  perfbench::Tail t = perfbench::TailPercentile(v, 10);
  CHECK(t.ok);
  CHECK(t.value == 90.0);  // exactly ten samples (91..100) lie beyond it
  CHECK(Near(t.percentile, 100.0 * 89.0 / 99.0));
  CHECK(t.samples == 100 && t.beyond == 10);
  // The reported percentile reproduces the value through Percentile().
  CHECK(Near(perfbench::Percentile(v, t.percentile), t.value));

  std::vector<double> ten(10, 1.0);
  CHECK(!perfbench::TailPercentile(ten, 10).ok);
  std::vector<double> eleven = {5, 1, 9, 3, 7, 11, 2, 8, 4, 10, 6};
  t = perfbench::TailPercentile(eleven, 10);
  CHECK(t.ok && t.value == 1.0 && t.percentile == 0.0);
  // Ties: ten larger samples exist even when the tail value repeats.
  std::vector<double> ties(20, 2.0);
  for (int i = 0; i < 10; ++i) ties[i] = 3.0;
  t = perfbench::TailPercentile(ties, 10);
  CHECK(t.ok && t.value == 2.0);
}

void TestPlanHookForwards() {
  using namespace gamedb;
  RegisterStandardComponents();
  World world;
  for (int i = 0; i < 200; ++i) {
    EntityId e = world.Create();
    world.Set(e, Position{Vec3{float(i % 20) * 5, 0, float(i / 20) * 5}});
    world.Set(e, Health{float(i % 100), 100.0f});
  }
  planner::QueryPlanner planner(&world);
  planner.Analyze();
  perfbench::CountingPlanHook hook(&planner);

  auto run = [&](QueryPlanHook* via) {
    DynamicQuery q(&world);
    q.With("Health").WhereField("Health", "hp", CmpOp::kLt, 30.0);
    q.WithinRadius("Position", "value", Vec3{40, 0, 20}, 30.0f);
    q.SetPlanner(via);
    std::vector<uint64_t> ids;
    Status st = via->Execute(q, [&](EntityId e) { ids.push_back(e.Raw()); });
    CHECK(st.ok());
    return ids;
  };
  const std::vector<uint64_t> direct = run(&planner);
  CHECK(!direct.empty());
  CHECK(run(&hook) == direct);  // disarmed: forwards, counts nothing
  CHECK(hook.executes() == 0);
  hook.set_armed(true);
  CHECK(run(&hook) == direct);
  CHECK(hook.executes() == 1);
  CHECK(hook.rows_out() == direct.size());
  CHECK(hook.PlanningEnabled() == planner.PlanningEnabled());
}

void TestStorageForwards() {
  gamedb::persist::MemStorage direct, inner;
  perfbench::CountingStorage counting(&inner);
  for (gamedb::persist::Storage* s :
       {static_cast<gamedb::persist::Storage*>(&direct),
        static_cast<gamedb::persist::Storage*>(&counting)}) {
    CHECK(s->Write("a", "hello").ok());
    CHECK(s->Append("a", " world").ok());
    CHECK(s->Append("b", "xyz").ok());
    CHECK(s->Sync("a").ok());
    CHECK(s->Rename("b", "c").ok());
    CHECK(s->Remove("missing").ok());
  }
  std::string got, want;
  CHECK(counting.Read("a", &got).ok() && direct.Read("a", &want).ok());
  CHECK(got == want);
  CHECK(counting.List() == direct.List());
  CHECK(counting.TotalBytes() == direct.TotalBytes());
  CHECK(counting.syncs() == direct.syncs());
  CHECK(counting.bytes_written() == direct.bytes_written());
  CHECK(inner.bytes_written() == direct.bytes_written());
}

void TestTraceFile() {
  perfbench::SpanRecorder rec;
  CHECK(rec.Open("off", 1, 0) == -1);  // disabled records nothing
  rec.set_enabled(true);
  const int32_t root = rec.Open("tick", 1, 1000);
  const int32_t child = rec.Add("script.tick", 1100, 1900, 1);
  rec.Add("script.query", 1100, 1500, 1, child);
  rec.Close(root, 2000);
  rec.Count("core.rows_written", 1000, 42);
  CHECK(rec.spans().size() == 3);
  CHECK(rec.spans()[size_t(child)].parent == root);
  CHECK(rec.spans()[2].parent == child);
  const std::string path = "selftest_trace.json";
  CHECK(rec.WriteChrome(path).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  CHECK(json.rfind("{\"displayTimeUnit\"", 0) == 0);
  CHECK(json.find("\"name\":\"script.query\",\"ph\":\"X\"") !=
        std::string::npos);
  CHECK(json.find("\"parent\":1,\"tick\":1") != std::string::npos);
  CHECK(json.find("\"ph\":\"C\"") != std::string::npos);
  std::remove(path.c_str());
}

/// A reduced run of each workload, untraced and traced with the same seed:
/// every output check passes, and the traced run (counting wrappers in
/// place) ends on the same world with the same bytes written.
void TestSmokeRuns() {
  for (const perfbench::WorkloadSpec& full : perfbench::Workloads()) {
    perfbench::RunOptions opt;
    opt.spec = perfbench::Reduced(full, 8);
    opt.seed = 7;
    opt.ticks = 24;
    const perfbench::RunReport plain = perfbench::RunBenchmark(opt);
    opt.trace = true;
    const perfbench::RunReport traced = perfbench::RunBenchmark(opt);
    for (const perfbench::RunReport* r : {&plain, &traced}) {
      for (const std::string& p : r->problems) {
        std::printf("  %s: %s\n", full.name.c_str(), p.c_str());
      }
      CHECK(r->correct);
      CHECK(r->ticks_failed == 0);
      CHECK(r->ticks_attempted >= opt.ticks);
      CHECK(r->warmup_hashes.size() > 1);
    }
    CHECK(plain.warmup_hashes == traced.warmup_hashes);
    CHECK(plain.final_hash == traced.final_hash);
    CHECK(plain.storage_bytes == traced.storage_bytes);
    CHECK(traced.counted_storage_bytes == traced.storage_bytes);
    CHECK(plain.metrics.size() == 7);
    CHECK(traced.metrics.size() == 40);
    for (const perfbench::Metric& m : plain.metrics) {
      CHECK(m.value > 0.0);  // end-to-end metrics are never 0
    }
    std::printf("smoke %s: %zu ticks, world %08x\n", full.name.c_str(),
                plain.measured_ticks, plain.final_hash);
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestTail();
  TestPlanHookForwards();
  TestStorageForwards();
  TestTraceFile();
  TestSmokeRuns();
  if (g_failures > 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
