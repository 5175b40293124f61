// Unit tests for the flight recorder: ring wraparound across capacities,
// phase-stack maintenance (including depth capping and unwind survival),
// the elastisim-postmortem-v2 document from the one (async-signal-safe)
// writer, the SIGABRT path end to end, self-wiring, and end-to-end
// recording through run_simulation.
#include "core/flight_recorder.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "json/json.h"
#include "sim/cancellation.h"
#include "stats/batch_event.h"
#include "stats/profiler.h"
#include "test_support.h"

namespace core = elastisim::core;
namespace json = elastisim::json;
namespace profiler = elastisim::stats::profiler;
using core::FlightKind;
using core::FlightMark;
using core::FlightRecorder;
using elastisim::stats::BatchEventKind;

namespace {

/// A scratch path unique to the running test.
std::string temp_path(const std::string& suffix) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "flight_" + test->test_suite_name() + "_" + test->name() +
         suffix;
}

/// The postmortem `recorder` writes, parsed back.
json::Value postmortem(const FlightRecorder& recorder, const std::string& cause,
                       const std::string& detail = "") {
  const std::string path = temp_path(".json");
  recorder.write_postmortem(path, cause, detail);
  return json::parse_file(path);
}

/// A node event as BatchSystem emits it.
elastisim::stats::BatchEvent node_event(BatchEventKind kind, double time, std::uint32_t node) {
  elastisim::stats::BatchEvent event{kind};
  event.node = node;
  event.time = time;
  return event;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 2U);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2U);
  EXPECT_EQ(FlightRecorder(5).capacity(), 8U);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096U);
  EXPECT_EQ(FlightRecorder(4097).capacity(), 8192U);
}

// Wraparound property: for any capacity and any number of writes, decode()
// returns the most recent min(writes, capacity) records, oldest first, with
// the drop counter accounting for the rest.
TEST(FlightRecorderTest, RingWraparoundKeepsNewestRecordsInOrder) {
  for (const std::size_t capacity : {2U, 4U, 8U, 64U, 1024U}) {
    for (const std::size_t writes :
         {std::size_t{0}, std::size_t{1}, capacity - 1, capacity, capacity + 1,
          2 * capacity, 5 * capacity + 3}) {
      FlightRecorder recorder(capacity);
      for (std::size_t i = 0; i < writes; ++i) {
        recorder.note_engine_event(static_cast<double>(i), i);
      }
      EXPECT_EQ(recorder.recorded(), writes);
      const std::vector<core::FlightRecord> records = recorder.decode();
      const std::size_t live = std::min(writes, capacity);
      ASSERT_EQ(records.size(), live)
          << "capacity " << capacity << ", writes " << writes;
      for (std::size_t i = 0; i < live; ++i) {
        EXPECT_EQ(records[i].b, writes - live + i)
            << "capacity " << capacity << ", writes " << writes << ", slot " << i;
      }
    }
  }
}

TEST(FlightRecorderTest, PhaseStackTracksNestingAndCapsDepth) {
  FlightRecorder recorder(16);
  recorder.on_phase(profiler::Phase::kEngineDispatch, true);
  recorder.on_phase(profiler::Phase::kScheduler, true);
  std::vector<const char*> stack = recorder.phase_stack();
  ASSERT_EQ(stack.size(), 2U);
  EXPECT_STREQ(stack[0], profiler::phase_name(profiler::Phase::kEngineDispatch));
  EXPECT_STREQ(stack[1], profiler::phase_name(profiler::Phase::kScheduler));

  // Push far past the cap: depth bookkeeping must stay balanced so the
  // matching exits drain back to the real stack.
  for (int i = 0; i < 40; ++i) recorder.on_phase(profiler::Phase::kFluidSolve, true);
  EXPECT_EQ(recorder.phase_stack().size(),
            static_cast<std::size_t>(FlightRecorder::kMaxPhaseDepth));
  for (int i = 0; i < 40; ++i) recorder.on_phase(profiler::Phase::kFluidSolve, false);
  stack = recorder.phase_stack();
  ASSERT_EQ(stack.size(), 2U);
  EXPECT_STREQ(stack[1], profiler::phase_name(profiler::Phase::kScheduler));

  recorder.on_phase(profiler::Phase::kScheduler, false);
  recorder.on_phase(profiler::Phase::kEngineDispatch, false);
  EXPECT_TRUE(recorder.phase_stack().empty());
  // The dying-phase fallback: the last phase entered survives the unwind.
  EXPECT_EQ(recorder.last_phase(), static_cast<int>(profiler::Phase::kFluidSolve));
}

TEST(FlightRecorderTest, PostmortemCarriesSchemaAndDecodedRecords) {
  FlightRecorder recorder(64);
  recorder.set_context("scheduler", "fcfs");
  recorder.set_context("scheduler", "easy-malleable");  // overwrite, not duplicate
  recorder.note_mark(0.0, FlightMark::kRunBegin, 7);
  recorder.note_engine_event(1.5, 1);
  recorder.note_scheduler_invoke(1.5, 0, 3, 2, 1);
  elastisim::stats::BatchEvent start{BatchEventKind::kStart};
  elastisim::workload::Job job;
  job.id = 42;
  start.job = &job;
  start.nodes = 4;
  start.time = 1.5;
  recorder.on_event(start);
  recorder.on_event(node_event(BatchEventKind::kNodeRestore, 2.0, 9));
  recorder.note_cancel(2.5, 2, 11);

  core::FlightSnapshot snapshot;
  snapshot.sim_time = 1.5;
  snapshot.jobs_queued = 3;
  snapshot.nodes_total = 8;
  recorder.set_snapshot(snapshot);

  const json::Value doc = postmortem(recorder, "test-cause", "test \"detail\"");
  EXPECT_EQ(doc.member_or("schema", ""), "elastisim-postmortem-v2");
  EXPECT_EQ(doc.member_or("cause", ""), "test-cause");
  EXPECT_EQ(doc.member_or("detail", ""), "test \"detail\"");
  EXPECT_EQ(doc.member_or("cancel_reason", ""), "stalled");
  const json::Value* build = doc.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->as_object().empty());

  const json::Value* context = doc.find("context");
  ASSERT_NE(context, nullptr);
  ASSERT_EQ(context->as_object().size(), 1U);
  EXPECT_EQ(context->member_or("scheduler", ""), "easy-malleable");

  const json::Value* ring = doc.find("ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->member_or("capacity", std::int64_t{0}), 64);
  EXPECT_EQ(ring->member_or("recorded", std::int64_t{0}), 6);
  EXPECT_EQ(ring->member_or("dropped", std::int64_t{0}), 0);
  const json::Value* records = ring->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->as_array().size(), 6U);
  const auto& entries = records->as_array();
  EXPECT_EQ(entries[0].member_or("kind", ""), "batch-event");
  EXPECT_EQ(entries[0].member_or("event", ""), "run-begin");
  EXPECT_EQ(entries[0].member_or("count", std::int64_t{0}), 7);
  EXPECT_EQ(entries[1].member_or("kind", ""), "engine-event");
  EXPECT_EQ(entries[2].member_or("kind", ""), "scheduler-invoke");
  EXPECT_EQ(entries[2].member_or("cause", ""), "submit");
  EXPECT_EQ(entries[2].member_or("rounds", std::int64_t{0}), 2);
  EXPECT_EQ(entries[2].member_or("started", std::int64_t{0}), 1);
  EXPECT_EQ(entries[3].member_or("kind", ""), "batch-event");
  EXPECT_EQ(entries[3].member_or("event", ""), "start");
  EXPECT_EQ(entries[3].member_or("job", std::int64_t{0}), 42);
  EXPECT_EQ(entries[3].member_or("nodes", std::int64_t{0}), 4);
  // The stream's own name, not a private "node-repair".
  EXPECT_EQ(entries[4].member_or("event", ""), "node-restore");
  EXPECT_EQ(entries[4].member_or("node", std::int64_t{0}), 9);
  EXPECT_EQ(entries[5].member_or("kind", ""), "cancel");
  EXPECT_EQ(entries[5].member_or("reason", ""), "stalled");
  EXPECT_DOUBLE_EQ(entries[5].member_or("sim_time", 0.0), 2.5);

  const json::Value* snap = doc.find("snapshot");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->member_or("jobs_queued", std::int64_t{0}), 3);
  EXPECT_EQ(snap->member_or("nodes_total", std::int64_t{0}), 8);
}

// Kinds the ring does not keep (kRelease fires once per node) leave no record.
TEST(FlightRecorderTest, OnEventSkipsKindsItDoesNotRecord) {
  FlightRecorder recorder(16);
  for (const BatchEventKind kind :
       {BatchEventKind::kSubmit, BatchEventKind::kRestart, BatchEventKind::kTarget,
        BatchEventKind::kExpand, BatchEventKind::kShrink, BatchEventKind::kRelease,
        BatchEventKind::kExplain, BatchEventKind::kSample,
        BatchEventKind::kSchedulingBegin}) {
    recorder.on_event(node_event(kind, 1.0, 3));
  }
  EXPECT_EQ(recorder.recorded(), 0U);
  recorder.on_event(node_event(BatchEventKind::kNodeFail, 1.0, 3));
  ASSERT_EQ(recorder.recorded(), 1U);
  const core::FlightRecord record = recorder.decode().front();
  EXPECT_EQ(record.kind, static_cast<std::uint16_t>(FlightKind::kBatchEvent));
  EXPECT_EQ(record.code, static_cast<std::uint16_t>(BatchEventKind::kNodeFail));
  EXPECT_EQ(record.b, 3U);
}

TEST(FlightRecorderTest, ResetClearsEverything) {
  FlightRecorder recorder(8);
  recorder.note_engine_event(1.0, 1);
  recorder.note_cancel(1.0, 1, 1);
  recorder.on_phase(profiler::Phase::kScheduler, true);
  recorder.set_context("k", "v");
  recorder.reset();
  EXPECT_EQ(recorder.recorded(), 0U);
  EXPECT_TRUE(recorder.decode().empty());
  EXPECT_TRUE(recorder.phase_stack().empty());
  EXPECT_EQ(recorder.last_phase(), -1);
  EXPECT_EQ(recorder.cancel_reason(), 0);
  const json::Value doc = postmortem(recorder, "x");
  const json::Value* context = doc.find("context");
  ASSERT_NE(context, nullptr);
  EXPECT_TRUE(context->as_object().empty());
}

// The fd writer straight into a pipe: one record per line, so a dump stays
// greppable.
TEST(FlightRecorderTest, FdDumpParsesAsPostmortemJson) {
  FlightRecorder recorder(16);
  recorder.set_context("scheduler", "fcfs");
  recorder.note_mark(0.0, FlightMark::kRunBegin, 1);
  for (int i = 0; i < 20; ++i) {  // force a wrap
    recorder.note_engine_event(static_cast<double>(i), static_cast<std::uint64_t>(i));
  }
  recorder.on_event(node_event(BatchEventKind::kNodeFail, 3.0, 1));

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::size_t written = recorder.write_postmortem_fd(fds[1], "signal: SIGSEGV");
  ::close(fds[1]);
  ASSERT_GT(written, 0U);
  std::string text(written, '\0');
  std::size_t offset = 0;
  while (offset < written) {
    const ssize_t got = ::read(fds[0], text.data() + offset, written - offset);
    ASSERT_GT(got, 0);
    offset += static_cast<std::size_t>(got);
  }
  ::close(fds[0]);

  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.member_or("schema", ""), "elastisim-postmortem-v2");
  EXPECT_EQ(doc.member_or("cause", ""), "signal: SIGSEGV");
  EXPECT_EQ(doc.member_or("detail", "?"), "");
  const json::Value* ring = doc.find("ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->member_or("dropped", std::int64_t{0}), 6);  // 22 writes, 16 slots
  ASSERT_NE(ring->find("records"), nullptr);
  EXPECT_EQ(ring->find("records")->as_array().size(), 16U);
  std::size_t record_lines = 0;
  for (std::size_t at = text.find("\n{\"seq\":"); at != std::string::npos;
       at = text.find("\n{\"seq\":", at + 1)) {
    ++record_lines;
  }
  EXPECT_EQ(record_lines, 16U);
}

// The signal path end to end: the crash handler's dump of a process killed
// by SIGABRT parses as v2 and names the dying phase and the last record.
TEST(FlightRecorderDeathTest, AbortLeavesParseablePostmortem) {
  const std::string path = temp_path(".json");
  std::filesystem::remove(path);
  EXPECT_EXIT(
      {
        FlightRecorder& recorder = FlightRecorder::thread_current();
        recorder.reset();
        FlightRecorder::install_crash_handler(&recorder, path);
        ELSIM_PROFILE_SCOPE(profiler::Phase::kScheduler);
        recorder.on_event(node_event(BatchEventKind::kNodeFail, 12.5, 17));
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");

  const json::Value doc = json::parse_file(path);
  EXPECT_EQ(doc.member_or("schema", ""), "elastisim-postmortem-v2");
  EXPECT_EQ(doc.member_or("cause", ""), "signal: SIGABRT");
  const json::Value* build = doc.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->as_object().empty());
  if (profiler::compiled()) {
    const json::Value* stack = doc.find("phase_stack");
    ASSERT_NE(stack, nullptr);
    ASSERT_FALSE(stack->as_array().empty());
    EXPECT_EQ(stack->as_array().back().get_or(std::string()),
              profiler::phase_name(profiler::Phase::kScheduler));
  }
  const json::Value* records = doc.find("ring")->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_FALSE(records->as_array().empty());
  const json::Value& last = records->as_array().back();
  EXPECT_EQ(last.member_or("kind", ""), "batch-event");
  EXPECT_EQ(last.member_or("event", ""), "node-fail");
  EXPECT_EQ(last.member_or("node", std::int64_t{0}), 17);
  EXPECT_DOUBLE_EQ(last.member_or("sim_time", 0.0), 12.5);
}

// thread_current() arms its thread's phase tap once; re-arming is a no-op
// and a dying recorder takes its tap with it.
TEST(FlightRecorderTest, ThreadRecorderTapsItsThreadsPhases) {
  std::thread([] {
    ASSERT_EQ(profiler::detail::t_phase_ctx, nullptr);
    FlightRecorder& recorder = FlightRecorder::thread_current();
    EXPECT_EQ(profiler::detail::t_phase_ctx, &recorder);
    const auto previous = recorder.arm_phase_tap();
    EXPECT_EQ(previous.second, &recorder);
    EXPECT_EQ(profiler::detail::t_phase_ctx, &recorder);
    {
      profiler::ScopedPhase scope(profiler::Phase::kScheduler);
      ASSERT_EQ(recorder.phase_stack().size(), 1U);
    }
    EXPECT_TRUE(recorder.phase_stack().empty());
    {
      FlightRecorder local(8);
      local.arm_phase_tap();
    }
    EXPECT_EQ(profiler::detail::t_phase_ctx, nullptr);
  }).join();
}

// End to end: a normal run through run_simulation leaves the thread recorder
// holding the run's trajectory, bracketed by run-begin/run-end marks.
TEST(FlightRecorderTest, RunSimulationRecordsTrajectory) {
  if (!FlightRecorder::enabled()) GTEST_SKIP() << "ELSIM_FLIGHT=0";
  FlightRecorder& recorder = FlightRecorder::thread_current();
  recorder.reset();

  core::SimulationConfig config;
  config.platform = elastisim::test::tiny_platform(4);
  config.scheduler = "fcfs";
  std::vector<elastisim::workload::Job> jobs;
  jobs.push_back(elastisim::test::rigid_job(1, 2, 10.0));
  jobs.push_back(elastisim::test::rigid_job(2, 2, 5.0, 1.0));
  const core::SimulationResult result = core::run_simulation(config, std::move(jobs));
  EXPECT_EQ(result.finished, 2U);

  bool saw_begin = false;
  bool saw_end = false;
  bool saw_engine_event = false;
  bool saw_phase = false;
  bool saw_job_finish = false;
  const auto is_event = [](const core::FlightRecord& record, BatchEventKind kind) {
    return record.kind == static_cast<std::uint16_t>(FlightKind::kBatchEvent) &&
           record.code == static_cast<std::uint16_t>(kind);
  };
  for (const core::FlightRecord& record : recorder.decode()) {
    if (is_event(record, BatchEventKind::kRunBegin)) {
      saw_begin = true;
      EXPECT_EQ(record.b, 2U);  // jobs submitted
    }
    if (is_event(record, BatchEventKind::kRunEnd)) {
      saw_end = true;
      EXPECT_EQ(record.b, result.events_processed);
    }
    // Neither hook is wired by run_simulation itself: set_flight_recorder()
    // takes the engine's, thread_current() the phase tap.
    const auto kind = static_cast<FlightKind>(record.kind);
    if (kind == FlightKind::kEngineEvent) saw_engine_event = true;
    if (kind == FlightKind::kPhaseEnter) saw_phase = true;
    if (is_event(record, BatchEventKind::kFinish)) saw_job_finish = true;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_engine_event);
  EXPECT_EQ(saw_phase, profiler::compiled());
  EXPECT_TRUE(saw_job_finish);

  const json::Value doc = postmortem(recorder, "test");
  const json::Value* context = doc.find("context");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->member_or("scheduler", ""), "fcfs");
}

}  // namespace
