#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "stats/metrics.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/rng.h"

namespace elastisim::stats {
namespace {

workload::Job job_with_id(workload::JobId id) {
  workload::Job job;
  job.id = id;
  job.name = "j" + std::to_string(id);
  job.type = workload::JobType::kMalleable;
  return job;
}

TEST(JobRecord, WaitAndTurnaround) {
  JobRecord record;
  record.submit_time = 10.0;
  record.start_time = 25.0;
  record.end_time = 100.0;
  EXPECT_DOUBLE_EQ(record.wait_time(), 15.0);
  EXPECT_DOUBLE_EQ(record.turnaround(), 90.0);
  EXPECT_DOUBLE_EQ(record.runtime(), 75.0);
}

TEST(JobRecord, UnstartedJobSentinelValues) {
  JobRecord record;
  record.submit_time = 10.0;
  EXPECT_FALSE(record.started());
  EXPECT_FALSE(record.finished());
  EXPECT_DOUBLE_EQ(record.wait_time(), -1.0);
}

TEST(JobRecord, BoundedSlowdownFloorsAtOne) {
  JobRecord record;
  record.submit_time = 0.0;
  record.start_time = 0.0;
  record.end_time = 100.0;
  EXPECT_DOUBLE_EQ(record.bounded_slowdown(), 1.0);
}

TEST(JobRecord, BoundedSlowdownUsesTauForShortJobs) {
  JobRecord record;
  record.submit_time = 0.0;
  record.start_time = 99.0;
  record.end_time = 100.0;  // 1s runtime, 100s turnaround
  // Without tau this would be 100; with tau=10 it is 10.
  EXPECT_DOUBLE_EQ(record.bounded_slowdown(10.0), 10.0);
}

TEST(Recorder, LifecycleProducesConsistentRecord) {
  Recorder recorder;
  recorder.set_total_nodes(8);
  auto job = job_with_id(1);
  recorder.on_submit(job, 5.0);
  recorder.on_start(1, 10.0, 4);
  recorder.on_finish(1, 30.0, false);
  ASSERT_EQ(recorder.records().size(), 1u);
  const JobRecord& record = recorder.records()[0];
  EXPECT_DOUBLE_EQ(record.wait_time(), 5.0);
  EXPECT_DOUBLE_EQ(record.node_seconds, 80.0);  // 4 nodes x 20 s
  EXPECT_EQ(record.initial_nodes, 4);
  EXPECT_EQ(record.final_nodes, 4);
  EXPECT_FALSE(record.killed);
}

TEST(Recorder, ResizeAccruesNodeSecondsPiecewise) {
  Recorder recorder;
  recorder.set_total_nodes(8);
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 0.0, 2);
  recorder.on_resize(1, 10.0, 6);  // 2 nodes x 10 s
  recorder.on_resize(1, 15.0, 4);  // 6 nodes x 5 s
  recorder.on_finish(1, 25.0, false);  // 4 nodes x 10 s
  const JobRecord& record = recorder.records()[0];
  EXPECT_DOUBLE_EQ(record.node_seconds, 20.0 + 30.0 + 40.0);
  EXPECT_EQ(record.expansions, 1);
  EXPECT_EQ(record.shrinks, 1);
  EXPECT_EQ(record.initial_nodes, 2);
  EXPECT_EQ(record.final_nodes, 4);
}

TEST(Recorder, EvolvingCountersTrackGrants) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_evolving_request(1, true);
  recorder.on_evolving_request(1, false);
  recorder.on_evolving_request(1, true);
  const JobRecord& record = recorder.records()[0];
  EXPECT_EQ(record.evolving_requests, 3);
  EXPECT_EQ(record.evolving_granted, 2);
}

TEST(Recorder, KilledJobMarked) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 0.0, 1);
  recorder.on_finish(1, 60.0, true);
  EXPECT_TRUE(recorder.records()[0].killed);
  EXPECT_EQ(recorder.killed_count(), 1u);
}

TEST(Recorder, AggregatesOverMultipleJobs) {
  Recorder recorder;
  recorder.set_total_nodes(4);
  for (workload::JobId id = 1; id <= 3; ++id) {
    recorder.on_submit(job_with_id(id), 0.0);
  }
  recorder.on_start(1, 0.0, 2);
  recorder.on_start(2, 10.0, 2);
  recorder.on_start(3, 20.0, 2);
  recorder.on_finish(1, 30.0, false);
  recorder.on_finish(2, 40.0, false);
  recorder.on_finish(3, 50.0, false);
  EXPECT_EQ(recorder.finished_count(), 3u);
  EXPECT_DOUBLE_EQ(recorder.makespan(), 50.0);
  EXPECT_DOUBLE_EQ(recorder.mean_wait(), 10.0);     // 0, 10, 20
  EXPECT_DOUBLE_EQ(recorder.median_wait(), 10.0);
  EXPECT_DOUBLE_EQ(recorder.max_wait(), 20.0);
  EXPECT_DOUBLE_EQ(recorder.mean_turnaround(), (30.0 + 40.0 + 50.0) / 3.0);
}

TEST(Recorder, UnfinishedJobsExcludedFromAggregates) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_submit(job_with_id(2), 0.0);
  recorder.on_start(1, 5.0, 1);
  recorder.on_finish(1, 15.0, false);
  recorder.on_start(2, 8.0, 1);  // never finishes
  EXPECT_EQ(recorder.finished_count(), 1u);
  EXPECT_DOUBLE_EQ(recorder.mean_wait(), 5.0);
}

TEST(Recorder, UtilizationIntegralCorrect) {
  Recorder recorder;
  recorder.set_total_nodes(4);
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 0.0, 4);
  recorder.on_finish(1, 10.0, false);
  // 40 node-seconds over 10 s on 4 nodes -> 100%.
  EXPECT_DOUBLE_EQ(recorder.average_utilization(), 1.0);
}

TEST(Recorder, UtilizationHalfWhenHalfAllocated) {
  Recorder recorder;
  recorder.set_total_nodes(4);
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 0.0, 2);
  recorder.on_finish(1, 10.0, false);
  EXPECT_DOUBLE_EQ(recorder.average_utilization(), 0.5);
}

TEST(Recorder, TimelineStepsMatchEvents) {
  Recorder recorder;
  recorder.set_total_nodes(8);
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_submit(job_with_id(2), 0.0);
  recorder.on_start(1, 0.0, 2);
  recorder.on_start(2, 5.0, 3);
  recorder.on_resize(1, 7.0, 4);
  recorder.on_finish(2, 9.0, false);
  recorder.on_finish(1, 12.0, false);
  const auto& timeline = recorder.timeline();
  ASSERT_EQ(timeline.size(), 5u);
  EXPECT_EQ(timeline[0].allocated_nodes, 2);
  EXPECT_EQ(timeline[1].allocated_nodes, 5);
  EXPECT_EQ(timeline[2].allocated_nodes, 7);  // 4 + 3
  EXPECT_EQ(timeline[3].allocated_nodes, 4);
  EXPECT_EQ(timeline[4].allocated_nodes, 0);
}

TEST(Recorder, UtilizationBucketsIntegrateStepFunction) {
  Recorder recorder;
  recorder.set_total_nodes(2);
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 0.0, 2);   // full until t=5
  recorder.on_resize(1, 5.0, 1);  // half from t=5
  recorder.on_finish(1, 10.0, false);
  const auto buckets = recorder.utilization_buckets(5.0);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_NEAR(buckets[0], 1.0, 1e-9);
  EXPECT_NEAR(buckets[1], 0.5, 1e-9);
}

TEST(Recorder, UtilizationBucketsPartialWindow) {
  Recorder recorder;
  recorder.set_total_nodes(1);
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 0.0, 1);
  recorder.on_finish(1, 7.5, false);
  const auto buckets = recorder.utilization_buckets(5.0);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_NEAR(buckets[0], 1.0, 1e-9);
  EXPECT_NEAR(buckets[1], 0.5, 1e-9);  // busy 2.5 of the 5-second window
}

TEST(Recorder, CsvOutputsParse) {
  Recorder recorder;
  recorder.set_total_nodes(2);
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 1.0, 2);
  recorder.on_finish(1, 3.0, false);
  std::ostringstream jobs_csv, timeline_csv;
  recorder.write_jobs_csv(jobs_csv);
  recorder.write_timeline_csv(timeline_csv);

  std::istringstream jobs_in(jobs_csv.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(jobs_in, header));
  ASSERT_TRUE(std::getline(jobs_in, row));
  const auto header_fields = util::split_csv_line(header);
  const auto row_fields = util::split_csv_line(row);
  EXPECT_EQ(header_fields.size(), row_fields.size());
  EXPECT_EQ(row_fields[0], "1");

  std::istringstream timeline_in(timeline_csv.str());
  int lines = 0;
  std::string line;
  while (std::getline(timeline_in, line)) ++lines;
  EXPECT_EQ(lines, 3);  // header + start + finish
}

TEST(Recorder, WaitPercentiles) {
  Recorder recorder;
  for (workload::JobId id = 1; id <= 10; ++id) {
    recorder.on_submit(job_with_id(id), 0.0);
    recorder.on_start(id, static_cast<double>(id), 1);  // waits 1..10
    recorder.on_finish(id, static_cast<double>(id) + 1.0, false);
  }
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(0.9), 9.0);
}

TEST(Recorder, WaitPercentileEmpty) {
  Recorder recorder;
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(0.9), 0.0);
}

TEST(Recorder, CancelledJobRecorded) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 5.0);
  recorder.on_cancel(1, 20.0);
  const JobRecord& record = recorder.records()[0];
  EXPECT_TRUE(record.cancelled);
  EXPECT_FALSE(record.started());
  EXPECT_DOUBLE_EQ(record.end_time, 20.0);
  // A cancelled job never ran: it contributes no node-seconds.
  EXPECT_DOUBLE_EQ(record.node_seconds, 0.0);
}

TEST(Recorder, CancelledJobsDoNotPoisonAggregates) {
  // A cancelled job carries an end_time but never started; its sentinel
  // wait/turnaround values (-1) must stay out of every aggregate.
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 10.0, 1);
  recorder.on_finish(1, 30.0, false);
  recorder.on_submit(job_with_id(2), 0.0);
  recorder.on_cancel(2, 100.0);  // later than the real finish

  EXPECT_EQ(recorder.finished_count(), 1u);
  EXPECT_DOUBLE_EQ(recorder.makespan(), 30.0);  // not the cancel time
  EXPECT_DOUBLE_EQ(recorder.mean_wait(), 10.0);
  EXPECT_DOUBLE_EQ(recorder.median_wait(), 10.0);
  EXPECT_DOUBLE_EQ(recorder.max_wait(), 10.0);
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(0.9), 10.0);
  EXPECT_DOUBLE_EQ(recorder.mean_turnaround(), 30.0);
  EXPECT_GE(recorder.mean_bounded_slowdown(), 1.0);
}

TEST(Recorder, OnlyCancelledJobsMeansZeroAggregates) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_cancel(1, 50.0);
  EXPECT_EQ(recorder.finished_count(), 0u);
  EXPECT_DOUBLE_EQ(recorder.makespan(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.mean_wait(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.median_wait(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(recorder.mean_bounded_slowdown(), 0.0);
}

TEST(Recorder, WaitPercentileClampsOutOfRangeP) {
  Recorder recorder;
  for (workload::JobId id = 1; id <= 3; ++id) {
    recorder.on_submit(job_with_id(id), 0.0);
    recorder.on_start(id, static_cast<double>(id), 1);
    recorder.on_finish(id, static_cast<double>(id) + 1.0, false);
  }
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(1.5), 3.0);
}

TEST(Recorder, EmptyRecorderAggregatesAreZero) {
  Recorder recorder;
  EXPECT_DOUBLE_EQ(recorder.makespan(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.mean_wait(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.median_wait(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.max_wait(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.wait_percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(recorder.mean_turnaround(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.mean_bounded_slowdown(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.average_utilization(), 0.0);
  EXPECT_TRUE(recorder.utilization_buckets(10.0).empty());
}

// The preconditions below hold in release builds: a violation throws instead
// of dereferencing end() or corrupting the per-user index.
TEST(Recorder, EventForUnknownJobThrows) {
  Recorder recorder;
  EXPECT_THROW(recorder.on_start(42, 0.0, 1), util::CheckError);
}

TEST(Recorder, DuplicateSubmitThrows) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  EXPECT_THROW(recorder.on_submit(job_with_id(1), 1.0), util::CheckError);
}

TEST(Recorder, AccrueOnJobThatIsNotRunningThrows) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  EXPECT_THROW(recorder.on_finish(1, 5.0, false), util::CheckError);
}

TEST(Recorder, StartWhileRunningThrows) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 1.0, 2);
  EXPECT_THROW(recorder.on_start(1, 2.0, 2), util::CheckError);
}

TEST(Recorder, CancelWhileRunningThrows) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  recorder.on_start(1, 1.0, 2);
  EXPECT_THROW(recorder.on_cancel(1, 2.0), util::CheckError);
}

TEST(Recorder, NegativeAllocationThrows) {
  Recorder recorder;
  recorder.on_submit(job_with_id(1), 0.0);
  EXPECT_THROW(recorder.on_start(1, 1.0, -1), util::CheckError);
}

// Differential oracle: user_node_seconds() against the whole-table reference
// node_seconds_by_user() (every record, then every running job in job-id
// order) after every operation of randomized lifecycles: starts, resizes,
// requeues, finishes and cancels. The fast path sums only the user's own
// running jobs but must perform the same additions in the same order, so the
// results are compared bit for bit (EXPECT_DOUBLE_EQ would allow 4 ULPs).
// With 40 users a user holds several running jobs at once, started out of id
// order; the recorder's per-user running index must stay consistent too.
void expect_user_node_seconds_match_reference(std::size_t submitters, int steps) {
  // These users submit; the last one never does and must report 0.
  std::vector<std::string> users;
  for (std::size_t i = 0; i < submitters; ++i) users.push_back("user" + std::to_string(i));
  users.push_back("nobody");
  enum class State { kQueued, kRunning, kDone };
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    Recorder recorder;
    std::map<workload::JobId, State> jobs;
    double now = 0.0;
    // A random job in `state`, or 0 when there is none.
    auto pick = [&](State state) -> workload::JobId {
      std::vector<workload::JobId> ids;
      for (const auto& [id, s] : jobs) {
        if (s == state) ids.push_back(id);
      }
      if (ids.empty()) return 0;
      return ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    };
    auto nodes = [&] { return static_cast<int>(rng.uniform_int(1, 64)); };
    for (int step = 0; step < steps; ++step) {
      // Instants repeat about a third of the time and otherwise advance by
      // irregular amounts, so the order of additions shows in the rounding.
      if (rng.uniform() > 0.35) now += rng.uniform(0.0, 700.0);
      const workload::JobId queued = pick(State::kQueued);
      const workload::JobId running = pick(State::kRunning);
      switch (rng.uniform_int(0, 7)) {
        case 0:
        case 1: {
          // Ids are drawn out of order, so job-id order differs from record
          // order and from start order.
          workload::JobId id = 0;
          while (id == 0 || jobs.count(id)) id = rng.uniform_int(1, 100000);
          workload::Job job = job_with_id(id);
          job.user = users[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(submitters) - 1))];
          recorder.on_submit(job, now);
          jobs[id] = State::kQueued;
          break;
        }
        case 2:
        case 3:
          if (queued) {
            recorder.on_start(queued, now, nodes());
            jobs[queued] = State::kRunning;
          }
          break;
        case 4:
          if (running) recorder.on_resize(running, now, nodes());
          break;
        case 5:
          if (running) {
            recorder.on_requeue(running, now, rng.uniform(0.0, 50.0), rng.uniform(0.0, 5.0));
            jobs[running] = State::kQueued;
          }
          break;
        case 6:
          if (running) {
            recorder.on_finish(running, now, /*killed=*/rng.uniform() < 0.3);
            jobs[running] = State::kDone;
          }
          break;
        case 7:
          if (queued) {
            recorder.on_cancel(queued, now);
            jobs[queued] = State::kDone;
          }
          break;
      }
      auto reference = recorder.node_seconds_by_user(now);
      for (const std::string& user : users) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(recorder.user_node_seconds(user, now)),
                  std::bit_cast<std::uint64_t>(reference[user]))
            << "seed " << seed << " step " << step << " user " << user << ": "
            << recorder.user_node_seconds(user, now) << " vs " << reference[user];
      }
      ASSERT_EQ(recorder.check_user_index().value_or("clean"), "clean")
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(Recorder, UserNodeSecondsMatchesReferenceBitForBit) {
  expect_user_node_seconds_match_reference(5, 300);
  expect_user_node_seconds_match_reference(40, 900);
}

}  // namespace
}  // namespace elastisim::stats
