#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

int32_t SpanRecorder::Open(const char* name, uint64_t tick,
                           uint64_t start_ns) {
  const int32_t id = Add(name, start_ns, start_ns, tick);
  if (id >= 0) open_.push_back(id);
  return id;
}

void SpanRecorder::Close(int32_t id, uint64_t end_ns) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t SpanRecorder::Add(const char* name, uint64_t start_ns,
                          uint64_t end_ns, uint64_t tick, int32_t parent) {
  if (!enabled_) return -1;
  if (parent < 0 && !open_.empty()) parent = open_.back();
  spans_.push_back(Span{name, start_ns, end_ns, parent, tick});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::Count(const char* name, uint64_t ts_ns, double value) {
  if (enabled_) counters_.push_back(CounterSample{name, ts_ns, value});
}

gamedb::Status SpanRecorder::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return gamedb::Status::IOError("cannot open " + path);
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  auto us = [base](uint64_t ns) {
    return static_cast<double>(ns - std::min(ns, base)) / 1000.0;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId32 ",\"tick\":%" PRIu64 "}}",
                 first ? "" : ",\n", s.name, us(s.start_ns),
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i,
                 s.parent, s.tick);
    first = false;
  }
  for (const CounterSample& c : counters_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                 "\"args\":{\"value\":%.17g}}",
                 first ? "" : ",\n", c.name, us(c.ts_ns), c.value);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fflush(f) == 0;
  return std::fclose(f) == 0 && ok
             ? gamedb::Status::OK()
             : gamedb::Status::IOError("cannot write " + path);
}

}  // namespace perfbench
