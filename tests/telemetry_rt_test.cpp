// Integration tests: the cascade runtime's telemetry instrumentation.
//
// A real CascadeExecutor with an attached EventLog must produce a coherent
// phase timeline: run begin/end markers, one token-acquire/exec-begin/
// exec-end/token-pass quartet per chunk, and — the paper's core invariant —
// execution phases that never overlap across workers (exactly one worker
// holds the token at any instant).  Failure paths must leave evidence:
// abort events from throwing phases, watchdog events from expiry, and the
// newest events embedded in the state-dump render.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/state_dump.hpp"
#include "casc/telemetry/event_log.hpp"
#include "casc/telemetry/trace_json.hpp"

namespace {

using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::FaultPlan;
using casc::rt::WatchdogExpired;
using casc::telemetry::Event;
using casc::telemetry::EventKind;
using casc::telemetry::EventLog;

constexpr std::uint64_t kIters = 1000;
constexpr std::uint64_t kChunkIters = 50;  // 20 chunks
constexpr std::uint64_t kChunks = kIters / kChunkIters;

std::vector<Event> events_of_kind(const std::vector<Event>& events, EventKind kind) {
  std::vector<Event> out;
  for (const Event& e : events) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(TelemetryRt, SuccessfulRunRecordsFullTimeline) {
  const unsigned kThreads = 4;
  EventLog log(kThreads, 1024);
  ExecutorConfig config{kThreads};
  config.event_log = &log;
  CascadeExecutor ex(config);

  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(kIters, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
  });

  const std::vector<Event> events = log.snapshot();
  EXPECT_EQ(events_of_kind(events, EventKind::kRunBegin).size(), 1u);
  EXPECT_EQ(events_of_kind(events, EventKind::kRunEnd).size(), 1u);
  EXPECT_EQ(events_of_kind(events, EventKind::kExecBegin).size(), kChunks);
  EXPECT_EQ(events_of_kind(events, EventKind::kExecEnd).size(), kChunks);
  EXPECT_EQ(events_of_kind(events, EventKind::kTokenAcquire).size(), kChunks);
  EXPECT_EQ(events_of_kind(events, EventKind::kTokenPass).size(), kChunks);
  EXPECT_TRUE(events_of_kind(events, EventKind::kAbort).empty());
  EXPECT_TRUE(events_of_kind(events, EventKind::kWatchdog).empty());
  EXPECT_EQ(log.dropped(), 0u);

  // Every chunk executed on worker (chunk mod P).
  for (const Event& e : events_of_kind(events, EventKind::kExecBegin)) {
    EXPECT_EQ(e.worker, e.chunk % kThreads);
  }
}

TEST(TelemetryRt, ExecPhasesNeverOverlapAcrossWorkers) {
  const unsigned kThreads = 4;
  EventLog log(kThreads, 1024);
  ExecutorConfig config{kThreads};
  config.event_log = &log;
  CascadeExecutor ex(config);

  // Helpered run: jump-outs and staging make phase interleaving maximally
  // adversarial for the invariant.
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
      },
      [&](std::uint64_t b, std::uint64_t e, const casc::rt::TokenWatch& watch) {
        for (std::uint64_t i = b; i < e; ++i) {
          if (watch.signalled()) return false;
        }
        return true;
      });

  // Pair ExecBegin/ExecEnd by chunk, then require the intervals to be
  // totally ordered in time: chunk c's end precedes chunk c+1's begin.
  // The events carry one shared steady-clock axis, and each end/begin pair
  // is separated by a release/acquire token hand-off, so a violation here
  // is a real mutual-exclusion bug, not clock skew.
  struct Interval {
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    bool has_begin = false;
    bool has_end = false;
  };
  std::vector<Interval> intervals(kChunks);
  for (const Event& e : log.snapshot()) {
    if (e.kind == EventKind::kExecBegin) {
      ASSERT_LT(e.chunk, kChunks);
      intervals[e.chunk].begin_ns = e.ns;
      intervals[e.chunk].has_begin = true;
    } else if (e.kind == EventKind::kExecEnd) {
      ASSERT_LT(e.chunk, kChunks);
      intervals[e.chunk].end_ns = e.ns;
      intervals[e.chunk].has_end = true;
    }
  }
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    ASSERT_TRUE(intervals[c].has_begin) << "chunk " << c;
    ASSERT_TRUE(intervals[c].has_end) << "chunk " << c;
    EXPECT_LE(intervals[c].begin_ns, intervals[c].end_ns) << "chunk " << c;
    if (c > 0) {
      EXPECT_LE(intervals[c - 1].end_ns, intervals[c].begin_ns)
          << "exec phases of chunks " << c - 1 << " and " << c << " overlap";
    }
  }

  // And the exporter sees the same timeline: at least one slice per exec
  // phase (plus helper slices) makes it into the trace document.
  casc::telemetry::TraceWriter trace;
  trace.append_event_log(log);
  EXPECT_GE(trace.num_slices(), kChunks);
}

TEST(TelemetryRt, ThrowingExecRecordsAbortEvent) {
  const unsigned kThreads = 2;
  EventLog log(kThreads, 256);
  ExecutorConfig config{kThreads};
  config.event_log = &log;
  CascadeExecutor ex(config);

  const FaultPlan plan = FaultPlan::throw_in_exec(3, kChunkIters);
  EXPECT_THROW(
      ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {})),
      std::runtime_error);

  const std::vector<Event> events = log.snapshot();
  const std::vector<Event> aborts = events_of_kind(events, EventKind::kAbort);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].chunk, 3u);
  EXPECT_EQ(aborts[0].worker, 3u % kThreads);
  // The run-end marker still lands (run() rethrows after quiescing).
  EXPECT_EQ(events_of_kind(events, EventKind::kRunEnd).size(), 1u);
  // Chunk 3's exec began but never completed.
  for (const Event& e : events_of_kind(events, EventKind::kExecEnd)) {
    EXPECT_NE(e.chunk, 3u);
  }
}

TEST(TelemetryRt, WatchdogExpiryRecordsWatchdogEvent) {
  const unsigned kThreads = 4;
  EventLog log(kThreads, 256);
  ExecutorConfig config{kThreads};
  config.watchdog = std::chrono::milliseconds(100);
  config.event_log = &log;
  CascadeExecutor ex(config);

  const FaultPlan plan =
      FaultPlan::stall_in_exec(1, kChunkIters, std::chrono::milliseconds(400));
  EXPECT_THROW(
      ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {})),
      WatchdogExpired);
  EXPECT_FALSE(events_of_kind(log.snapshot(), EventKind::kWatchdog).empty());
}

TEST(TelemetryRt, SnapshotRenderIncludesRecentEvents) {
  const unsigned kThreads = 2;
  EventLog log(kThreads, 256);
  ExecutorConfig config{kThreads};
  config.event_log = &log;
  CascadeExecutor ex(config);

  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(kIters, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
  });

  const casc::rt::CascadeStateDump dump = ex.snapshot();
  ASSERT_FALSE(dump.recent_events.empty());
  EXPECT_LE(dump.recent_events.size(), casc::rt::CascadeStateDump::kRecentEvents);

  const std::string text = casc::rt::render(dump);
  EXPECT_NE(text.find("recent events"), std::string::npos);
  EXPECT_NE(text.find("run_end"), std::string::npos);
}

TEST(TelemetryRt, NoEventLogMeansNoEvents) {
  // The default config records nothing and must still run correctly.
  CascadeExecutor ex(ExecutorConfig{2});
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(kIters, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
  });
  const casc::rt::CascadeStateDump dump = ex.snapshot();
  EXPECT_TRUE(dump.recent_events.empty());
}

TEST(TelemetryRt, EventLogReusableAcrossRuns) {
  const unsigned kThreads = 2;
  EventLog log(kThreads, 1024);
  ExecutorConfig config{kThreads};
  config.event_log = &log;
  CascadeExecutor ex(config);

  std::vector<std::uint64_t> out(kIters, 0);
  const auto body = [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
  };
  ex.run(kIters, kChunkIters, body);
  ex.run(kIters, kChunkIters, body);
  const std::vector<Event> events = log.snapshot();
  EXPECT_EQ(events_of_kind(events, EventKind::kRunBegin).size(), 2u);
  EXPECT_EQ(events_of_kind(events, EventKind::kExecEnd).size(), 2 * kChunks);
}

}  // namespace
