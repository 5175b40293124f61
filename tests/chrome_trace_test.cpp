// Chrome trace exporter coverage: slice/counter/instant bookkeeping, the
// trace_event JSON shape, and end-to-end capture from a batch-system run.
#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_system.h"
#include "core/scheduler.h"
#include "stats/chrome_trace.h"
#include "stats/telemetry.h"
#include "test_support.h"

namespace elastisim::telemetry {
namespace {

using core::BatchSystem;
using core::make_scheduler;
using test::rigid_job;
using test::tiny_platform;

// Parsed view of the emitted trace for structural assertions.
struct ParsedTrace {
  json::Value root;
  const json::Array* events = nullptr;

  explicit ParsedTrace(const ChromeTraceBuilder& builder) {
    std::ostringstream out;
    builder.write(out);
    root = json::parse(out.str());
    const json::Value* list = root.find("traceEvents");
    EXPECT_NE(list, nullptr) << "trace lacks traceEvents";
    static const json::Array empty;
    events = list ? &list->as_array() : &empty;
  }

  std::size_t count_phase(const std::string& phase) const {
    std::size_t n = 0;
    for (const json::Value& event : *events) {
      if (event.member_or("ph", "") == phase) ++n;
    }
    return n;
  }

  const json::Value* first_named(const std::string& name) const {
    for (const json::Value& event : *events) {
      if (event.member_or("name", "") == name) return &event;
    }
    return nullptr;
  }
};

TEST(ChromeTrace, NodeSlicesBecomeCompleteEvents) {
  ChromeTraceBuilder builder;
  builder.begin_node_slice(3, 7, "job seven", 10.0);
  EXPECT_TRUE(builder.node_busy(3));
  builder.end_node_slice(3, 25.0);
  EXPECT_FALSE(builder.node_busy(3));

  ParsedTrace trace(builder);
  const json::Value* slice = trace.first_named("job seven");
  ASSERT_NE(slice, nullptr);
  EXPECT_EQ(slice->member_or("ph", ""), "X");
  EXPECT_EQ(slice->member_or("pid", std::int64_t{0}), 1);
  EXPECT_EQ(slice->member_or("tid", std::int64_t{-1}), 3);
  EXPECT_DOUBLE_EQ(slice->member_or("ts", 0.0), 10.0 * 1e6);   // microseconds
  EXPECT_DOUBLE_EQ(slice->member_or("dur", 0.0), 15.0 * 1e6);
}

TEST(ChromeTrace, EndOnIdleNodeIsNoop) {
  ChromeTraceBuilder builder;
  builder.end_node_slice(0, 5.0);
  EXPECT_EQ(builder.event_count(), 0u);
}

TEST(ChromeTrace, CloseOpenSlicesFinishesStuckJobs) {
  ChromeTraceBuilder builder;
  builder.begin_node_slice(0, 1, "stuck", 0.0);
  builder.begin_node_slice(1, 1, "stuck", 0.0);
  builder.close_open_slices(100.0);
  EXPECT_FALSE(builder.node_busy(0));
  ParsedTrace trace(builder);
  EXPECT_EQ(trace.count_phase("X"), 2u);
}

TEST(ChromeTrace, CountersDedupAndEmitPerName) {
  ChromeTraceBuilder builder;
  builder.counter("queue depth", 0.0, 4.0);
  builder.counter("free nodes", 0.0, 8.0);
  builder.counter("queue depth", 1.0, 4.0);  // unchanged: dropped
  builder.counter("free nodes", 1.0, 6.0);   // changed: kept
  builder.counter("queue depth", 2.0, 3.0);  // changed: kept

  ParsedTrace trace(builder);
  EXPECT_EQ(trace.count_phase("C"), 4u);
  const json::Value* sample = trace.first_named("queue depth");
  ASSERT_NE(sample, nullptr);
  const json::Value* args = sample->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->member_or("value", -1.0), 4.0);
}

TEST(ChromeTrace, InstantsLandOnTheClusterTrack) {
  ChromeTraceBuilder builder;
  builder.instant("node 2 failed", 30.0);

  ParsedTrace trace(builder);
  const json::Value* instant = trace.first_named("node 2 failed");
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->member_or("ph", ""), "i");
  EXPECT_EQ(instant->member_or("pid", std::int64_t{0}), 1);
  EXPECT_DOUBLE_EQ(instant->member_or("ts", 0.0), 30.0 * 1e6);
}

TEST(ChromeTrace, MetadataNamesProcessesAndNodeTracks) {
  ChromeTraceBuilder builder;
  builder.begin_node_slice(2, 1, "j", 0.0);
  builder.end_node_slice(2, 1.0);
  ParsedTrace trace(builder);
  // One process (the simulated cluster); thread_name for node tracks 0..2.
  std::size_t process_names = 0;
  std::size_t thread_names = 0;
  for (const json::Value& event : *trace.events) {
    if (event.member_or("ph", "") != "M") continue;
    EXPECT_EQ(event.member_or("pid", std::int64_t{0}), 1);
    if (event.member_or("name", "") == "process_name") ++process_names;
    if (event.member_or("name", "") == "thread_name") ++thread_names;
  }
  EXPECT_EQ(process_names, 1u);
  EXPECT_EQ(thread_names, 3u);
  EXPECT_EQ(trace.root.member_or("displayTimeUnit", ""), "ms");
}

TEST(ChromeTrace, BatchRunProducesCoherentTrace) {
  telemetry::set_enabled(true);
  Registry::global().clear();

  {
    sim::Engine engine;
    stats::Recorder recorder;
    platform::Cluster cluster(engine, tiny_platform(4));
    BatchSystem batch(engine, cluster, make_scheduler("easy"), recorder);
    ChromeTraceBuilder builder;
    batch.subscribe(&builder);
    for (int i = 1; i <= 5; ++i) {
      batch.submit(rigid_job(i, 2, 10.0, static_cast<double>(i)));
    }
    engine.run();
    builder.close_open_slices(engine.now());

    ParsedTrace trace(builder);
    // Five jobs x two nodes = ten complete slices, all closed.
    EXPECT_EQ(trace.count_phase("X"), 10u);
    EXPECT_GT(trace.count_phase("C"), 0u);
    for (const json::Value& event : *trace.events) {
      if (event.member_or("ph", "") != "X") continue;
      EXPECT_GE(event.member_or("dur", -1.0), 0.0);
      EXPECT_GE(event.member_or("ts", -1.0), 0.0);
    }
  }

  telemetry::set_enabled(false);
  Registry::global().clear();
}

TEST(ChromeTrace, WriteFileThrowsOnUnwritablePath) {
  ChromeTraceBuilder builder;
  EXPECT_THROW(builder.write_file("/nonexistent-dir/trace.json"), std::runtime_error);
}

}  // namespace
}  // namespace elastisim::telemetry
