// Event-trace coverage: every batch-system event kind appears in the trace
// with the right ordering and detail strings.
#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_system.h"
#include "core/scheduler.h"
#include "stats/trace.h"
#include "test_support.h"
#include "util/csv.h"

namespace elastisim::stats {
namespace {

using core::BatchConfig;
using core::BatchSystem;
using core::make_scheduler;
using test::compute_job;
using test::rigid_job;
using test::tiny_platform;
using workload::JobType;

TEST(EventTrace, RecordsInOrder) {
  EventTrace trace;
  EXPECT_EQ(trace.record(1.0, BatchEventKind::kSubmit, 1), 1u);
  EXPECT_EQ(trace.record(2.0, BatchEventKind::kStart, 1, "4 nodes"), 2u);
  EXPECT_EQ(trace.record(5.0, BatchEventKind::kFinish, 1), 3u);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.entries()[1].event, BatchEventKind::kStart);
  EXPECT_EQ(trace.entries()[1].detail, "4 nodes");
  // Sequence numbers are 1-based and monotonic — the stable tie-break for
  // same-timestamp events and the key journal verdicts link to.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.entries()[i].seq, i + 1);
  }
}

TEST(EventTrace, FilteredSelectsKind) {
  EventTrace trace;
  trace.record(1.0, BatchEventKind::kSubmit, 1);
  trace.record(2.0, BatchEventKind::kStart, 1);
  trace.record(3.0, BatchEventKind::kSubmit, 2);
  const auto submits = trace.filtered(BatchEventKind::kSubmit);
  ASSERT_EQ(submits.size(), 2u);
  EXPECT_EQ(submits[1].job, 2u);
}

TEST(EventTrace, CsvHasHeaderAndRows) {
  EventTrace trace;
  trace.record(1.5, BatchEventKind::kNodeFail, 0, "node 3");
  std::ostringstream out;
  trace.write_csv(out);
  std::istringstream in(out.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  const auto fields = util::split_csv_line(row);
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "1");
  EXPECT_EQ(fields[2], "node-fail");
  EXPECT_EQ(fields[4], "node 3");
}

TEST(EventTrace, CsvEscapesCommasAndQuotes) {
  EventTrace trace;
  trace.record(1.0, BatchEventKind::kStart, 7, "nodes 1,2,3");
  trace.record(2.0, BatchEventKind::kFinish, 7, "status \"ok\", clean");
  std::ostringstream out;
  trace.write_csv(out);
  std::istringstream in(out.str());
  std::string header, first, second;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  // The raw line is quoted...
  EXPECT_NE(first.find("\"nodes 1,2,3\""), std::string::npos);
  // ...and round-trips through the reader unchanged.
  const auto fields_first = util::split_csv_line(first);
  ASSERT_EQ(fields_first.size(), 5u);
  EXPECT_EQ(fields_first[4], "nodes 1,2,3");
  const auto fields_second = util::split_csv_line(second);
  ASSERT_EQ(fields_second.size(), 5u);
  EXPECT_EQ(fields_second[4], "status \"ok\", clean");
}

TEST(EventTrace, FilteredOnEmptyTraceIsEmpty) {
  EventTrace trace;
  EXPECT_TRUE(trace.filtered(BatchEventKind::kStart).empty());
  std::ostringstream out;
  trace.write_csv(out);
  // Header only.
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1);
}

TEST(EventTrace, EventNamesAreUnique) {
  // The one event vocabulary: trace.csv and postmortems both print these.
  std::set<std::string> names;
  for (int kind = 0; kind <= static_cast<int>(BatchEventKind::kRunEnd); ++kind) {
    const std::string name = to_string(static_cast<BatchEventKind>(kind));
    EXPECT_NE(name, "unknown") << kind;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_STREQ(to_string(BatchEventKind::kNodeRestore), "node-restore");
  EXPECT_STREQ(to_string(BatchEventKind::kKill), "kill");
}

struct Harness {
  explicit Harness(std::size_t nodes, const std::string& scheduler = "fcfs",
                   BatchConfig config = {})
      : cluster(engine, tiny_platform(nodes)),
        batch(engine, cluster, make_scheduler(scheduler), recorder, config) {
    batch.subscribe(&trace);
  }

  sim::Engine engine;
  stats::Recorder recorder;
  EventTrace trace;
  platform::Cluster cluster;
  BatchSystem batch;
};

TEST(BatchTrace, LifecycleEventsEmitted) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 2, 10.0));
  h.engine.run();
  ASSERT_EQ(h.trace.size(), 3u);
  EXPECT_EQ(h.trace.entries()[0].event, BatchEventKind::kSubmit);
  EXPECT_EQ(h.trace.entries()[1].event, BatchEventKind::kStart);
  EXPECT_EQ(h.trace.entries()[2].event, BatchEventKind::kFinish);
  EXPECT_DOUBLE_EQ(h.trace.entries()[2].time, 10.0);
}

TEST(BatchTrace, TimesAreMonotone) {
  Harness h(4, "easy");
  for (int i = 1; i <= 6; ++i) {
    h.batch.submit(rigid_job(i, 1 + i % 3, 10.0 * i, i));
  }
  h.engine.run();
  for (std::size_t i = 1; i < h.trace.size(); ++i) {
    EXPECT_LE(h.trace.entries()[i - 1].time, h.trace.entries()[i].time);
  }
}

TEST(BatchTrace, ExpandShrinkDetailShowsTransition) {
  Harness h(4, "fcfs-malleable");
  auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 4, 0.0, 10);
  job.application.state_bytes_per_node = 0.0;
  h.batch.submit(std::move(job));
  h.batch.submit(rigid_job(2, 2, 10.0, /*submit=*/15.0));
  h.engine.run();
  const auto expands = h.trace.filtered(BatchEventKind::kExpand);
  ASSERT_FALSE(expands.empty());
  EXPECT_EQ(expands[0].detail, "2->4");
  const auto shrinks = h.trace.filtered(BatchEventKind::kShrink);
  ASSERT_FALSE(shrinks.empty());
  EXPECT_EQ(shrinks[0].detail, "4->2");
}

TEST(BatchTrace, WalltimeKillEmitted) {
  Harness h(2);
  auto job = rigid_job(1, 2, 100.0);
  job.walltime_limit = 30.0;
  h.batch.submit(std::move(job));
  h.engine.run();
  ASSERT_EQ(h.trace.filtered(BatchEventKind::kKill).size(), 1u);
  EXPECT_TRUE(h.trace.filtered(BatchEventKind::kFinish).empty());
}

TEST(BatchTrace, FailureAndRequeueEmitted) {
  BatchConfig config;
  config.failure_policy = core::FailurePolicy::kRequeue;
  Harness h(4, "fcfs", config);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.inject_failure(0, 20.0, /*repair=*/30.0);
  h.engine.run();
  EXPECT_EQ(h.trace.filtered(BatchEventKind::kNodeFail).size(), 1u);
  EXPECT_EQ(h.trace.filtered(BatchEventKind::kNodeRestore).size(), 1u);
  EXPECT_EQ(h.trace.filtered(BatchEventKind::kRequeue).size(), 1u);
  // Restart emits a second start event.
  EXPECT_EQ(h.trace.filtered(BatchEventKind::kStart).size(), 2u);
}

TEST(BatchTrace, CheckpointRestartRowReadsRestart) {
  BatchConfig config;
  config.failure_policy = core::FailurePolicy::kRequeueRestart;
  Harness h(4, "fcfs", config);
  // 5 iterations of 10 s, each ending in a checkpoint.
  auto job = rigid_job(1, 2, 10.0, 0.0, 5);
  job.application.phases[0].groups.push_back(
      {workload::Task{"checkpoint",
                      workload::IoTask{true, 0.0, workload::ScalingModel::kStrong,
                                       workload::IoTarget::kPfs, /*checkpoint=*/true}}});
  h.batch.submit(std::move(job));
  h.batch.inject_failure(0, 25.0);
  h.engine.run();
  // The resumed start is its own row, after the requeue, naming the checkpoint.
  const auto restarts = h.trace.filtered(BatchEventKind::kRestart);
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_EQ(restarts[0].detail, "restart from phase 0 iter 2");
  EXPECT_EQ(h.trace.filtered(BatchEventKind::kStart).size(), 2u);
  std::ostringstream csv;
  h.trace.write_csv(csv);
  EXPECT_NE(csv.str().find(",restart,1,restart from phase 0 iter 2"), std::string::npos);
}

TEST(BatchTrace, EvolvingRequestDetail) {
  Harness h(8);
  workload::Job job;
  job.id = 1;
  job.type = JobType::kEvolving;
  job.requested_nodes = 2;
  job.min_nodes = 1;
  job.max_nodes = 8;
  workload::Phase first;
  first.name = "a";
  first.groups.push_back({workload::Task{"d", workload::DelayTask{5.0}}});
  workload::Phase second = first;
  second.name = "b";
  second.evolving_delta = 2;
  job.application.phases.push_back(first);
  job.application.phases.push_back(second);
  h.batch.submit(std::move(job));
  h.engine.run();
  const auto requests = h.trace.filtered(BatchEventKind::kEvolvingRequest);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].detail, "+2 granted");
}

TEST(BatchTrace, NoTraceMeansNoCost) {
  // A batch system without a trace attached must behave identically.
  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, tiny_platform(4));
  BatchSystem batch(engine, cluster, make_scheduler("fcfs"), recorder);
  batch.submit(rigid_job(1, 2, 10.0));
  engine.run();
  EXPECT_EQ(batch.finished_jobs(), 1u);
}

}  // namespace
}  // namespace elastisim::stats
