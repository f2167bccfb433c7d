// The span tracer: the disabled path records nothing, the merge order is
// a pure function of the recorded data, and the Chrome trace-event
// export is well-formed.

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "skute/obs/trace.h"
#include "testutil/temp_dir.h"

namespace skute::obs {
namespace {

// The global tracer is process-wide state; every test brackets its own
// session and stops the tracer on exit so tests stay order-independent.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Global().Stop(); }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.Stop();  // clean empty session
  const size_t before = tracer.event_count();
  ASSERT_FALSE(Tracer::Enabled());
  {
    TraceSpan a("test", "quiet");
    TraceSpan b("test", "quiet_arg", 7);
  }
  EXPECT_EQ(tracer.event_count(), before);
}

TEST_F(TraceTest, StartClearsThePreviousSession) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { TraceSpan span("test", "old_session"); }
  EXPECT_GE(tracer.event_count(), 1u);
  tracer.Start();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST_F(TraceTest, NestedSpansMergeParentFirst) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  {
    TraceSpan outer("test", "outer");
    TraceSpan inner("test", "inner");
  }  // inner closes first but started after outer
  tracer.Stop();
  const std::vector<TraceEvent> events = tracer.MergedEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_LE(events[0].start, events[1].start);
  EXPECT_GE(events[0].end, events[1].end);
}

TEST_F(TraceTest, MergeTieBreaksByDurationThenName) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  // Hand-crafted events with identical timestamps: order must come from
  // the recorded data alone, never from insertion order.
  const TimePoint t0 = Now();
  const TimePoint t1 = t0 + std::chrono::microseconds(50);
  const TimePoint t2 = t0 + std::chrono::microseconds(100);
  TraceEvent shorter;
  shorter.name = "a_short";
  shorter.category = "test";
  shorter.start = t0;
  shorter.end = t1;
  TraceEvent longer;
  longer.name = "z_long";
  longer.category = "test";
  longer.start = t0;
  longer.end = t2;
  TraceEvent twin;  // same start+end as `shorter`, later name
  twin.name = "b_short";
  twin.category = "test";
  twin.start = t0;
  twin.end = t1;
  tracer.Record(shorter);
  tracer.Record(longer);
  tracer.Record(twin);
  tracer.Stop();
  const std::vector<TraceEvent> events = tracer.MergedEvents();
  ASSERT_EQ(events.size(), 3u);
  // Equal starts: the longest (enclosing) span first, then name order.
  EXPECT_STREQ(events[0].name, "z_long");
  EXPECT_STREQ(events[1].name, "a_short");
  EXPECT_STREQ(events[2].name, "b_short");
}

TEST_F(TraceTest, WorkerThreadSpansMergeIntoOneSession) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { TraceSpan span("test", "main_span"); }
  std::thread worker([] { TraceSpan span("test", "worker_span", 3); });
  worker.join();  // join = quiescent point; worker spans now visible
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 2u);
  bool saw_main = false;
  bool saw_worker = false;
  for (const TraceEvent& e : tracer.MergedEvents()) {
    if (std::string(e.name) == "main_span") saw_main = true;
    if (std::string(e.name) == "worker_span") {
      saw_worker = true;
      EXPECT_TRUE(e.has_arg);
      EXPECT_EQ(e.arg, 3u);
    }
  }
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_worker);
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  {
    TraceSpan outer("stage", "route_queries", 12);
    TraceSpan inner("shard", "route.shard", 0);
  }
  tracer.Stop();
  std::ostringstream out;
  tracer.WriteChromeTrace(&out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("\"name\":\"route_queries\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"i\":12}"), std::string::npos);
  // Balanced braces/brackets — the cheap well-formedness proxy (the CI
  // trace-smoke job runs a real JSON parser over a full scenario trace).
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

/// The exported `ts` of the span named `name` (the number after
/// `"ts":` on its line of the Chrome trace).
double ExportedTs(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"name\":\"" + name + "\"");
  EXPECT_NE(at, std::string::npos) << name;
  const size_t ts = json.find("\"ts\":", at);
  EXPECT_NE(ts, std::string::npos) << name;
  return std::stod(json.substr(ts + 5));
}

TEST_F(TraceTest, ChromeTraceKeepsMicrosecondsPastOneSecond) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  const TimePoint t0 = Now();  // no earlier than the session origin
  TraceEvent parent;
  parent.name = "parent";
  parent.category = "test";
  parent.start = t0 + std::chrono::milliseconds(1500);
  parent.end = parent.start + std::chrono::milliseconds(1);
  TraceEvent child;
  child.name = "child";
  child.category = "test";
  child.start = parent.start + std::chrono::microseconds(1);
  child.end = child.start + std::chrono::microseconds(10);
  tracer.Record(parent);
  tracer.Record(child);
  tracer.Stop();
  std::ostringstream out;
  tracer.WriteChromeTrace(&out);
  const std::string json = out.str();
  // 1.5 s into the session, the child still starts 1.000 µs after its
  // parent; 6 significant digits would print both as 1.5e+06.
  EXPECT_NEAR(ExportedTs(json, "child") - ExportedTs(json, "parent"), 1.0,
              1e-6);
  EXPECT_EQ(json.find("e+"), std::string::npos);
}

TEST_F(TraceTest, FileExportWritesAndRejectsBadPaths) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { TraceSpan span("test", "to_file"); }
  tracer.Stop();
  testutil::ScopedTempDir tmp("trace_export");
  const std::string path = tmp.Sub("trace.json");
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("to_file"), std::string::npos);

  EXPECT_TRUE(tracer.WriteChromeTrace("").IsInvalidArgument());
  EXPECT_TRUE(tracer.WriteChromeTrace("/nonexistent_dir_skute/t.json")
                  .IsUnavailable());
}

}  // namespace
}  // namespace skute::obs
