// Run-report generator coverage: required vs optional inputs, the stable
// section ids the smoke tests and docs promise, journal anchors, HTML
// escaping, and self-containment (no external fetches).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "stats/journal.h"
#include "stats/run_report.h"
#include "stats/state_sampler.h"
#include "stats/trace.h"

namespace elastisim::stats {
namespace {

namespace fs = std::filesystem;

class RunReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("elsim_report_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_file(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name);
    out << text;
  }

  // The minimal jobs.csv the renderer needs; column order is intentionally
  // not the writer's (the reader maps columns by header name).
  void write_jobs_csv(const std::string& extra_rows = "") {
    write_file("jobs.csv",
               "id,name,user,type,submit,start,end,initial_nodes,final_nodes,"
               "expansions,shrinks,requeues,killed,cancelled\n"
               "1,alpha,alice,rigid,0,5,65,4,4,0,0,0,false,false\n"
               "2,beta,bob,malleable,10,20,200,2,6,2,1,1,false,false\n" +
               extra_rows);
  }

  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

TEST_F(RunReportTest, ThrowsWithoutJobsCsv) {
  ReportInputs inputs;
  inputs.dir = dir();
  EXPECT_THROW(render_run_report(inputs), std::runtime_error);
}

TEST_F(RunReportTest, ThrowsOnJobsCsvMissingColumn) {
  write_file("jobs.csv", "id,name\n1,alpha\n");
  ReportInputs inputs;
  inputs.dir = dir();
  EXPECT_THROW(render_run_report(inputs), std::runtime_error);
}

TEST_F(RunReportTest, DegradesGracefullyWithOnlyJobsCsv) {
  write_jobs_csv();
  ReportInputs inputs;
  inputs.dir = dir();
  ReportResult result;
  const std::string html = render_run_report(inputs, &result);
  EXPECT_EQ(result.jobs, 2u);
  EXPECT_EQ(result.samples, 0u);
  EXPECT_EQ(result.journal_records, 0u);
  // Every section is present even when its data source is absent...
  for (const char* id :
       {"id=\"summary\"", "id=\"gantt\"", "id=\"utilization\"", "id=\"queue\"",
        "id=\"journal\""}) {
    EXPECT_NE(html.find(id), std::string::npos) << "missing " << id;
  }
  // ...with a pointer at the flag that would populate it.
  EXPECT_NE(html.find("--timeseries"), std::string::npos);
  EXPECT_NE(html.find("--journal"), std::string::npos);
}

TEST_F(RunReportTest, RendersTimelinesAndJournalAnchors) {
  write_jobs_csv();
  StateSampler sampler;
  sampler.sample(0.0, 2, 0, 8, 0, 0, 8);
  sampler.sample(5.0, 1, 1, 4, 0, 0, 8);
  sampler.sample(50.0, 0, 2, 1, 1, 0, 8);  // one node down -> outage band
  sampler.sample(200.0, 0, 0, 8, 0, 0, 8);
  sampler.save(dir() + "/timeseries.csv");
  write_file("summary.json", "{\"scheduler\": \"fcfs\", \"makespan_s\": 200}\n");

  DecisionJournal journal;
  journal.begin(0.0, JournalCause::kSubmit, 1, 0, 8, 8);
  journal.add({1, VerdictAction::kStarted, HoldReason::kNone, 4, 0, "4 nodes free"});
  journal.add({2, VerdictAction::kHeld, HoldReason::kInsufficientNodes, 0, 0,
               "needs 2 nodes, 0 free"});
  journal.commit();
  journal.save(dir() + "/journal.jsonl");

  ReportInputs inputs;
  inputs.dir = dir();
  ReportResult result;
  const std::string html = render_run_report(inputs, &result);
  EXPECT_EQ(result.samples, 4u);
  EXPECT_EQ(result.journal_records, 1u);
  // Gantt row labels link to the per-job journal timelines.
  EXPECT_NE(html.find("href=\"#job-1\""), std::string::npos);
  EXPECT_NE(html.find("<details id=\"job-2\""), std::string::npos);
  EXPECT_NE(html.find("insufficient_nodes"), std::string::npos);
  // The outage sample produces a down-node band.
  EXPECT_NE(html.find("downband"), std::string::npos);
  // Summary values flow through.
  EXPECT_NE(html.find("fcfs"), std::string::npos);
}

// The report reads trace.csv rows by the names EventTrace writes.
TEST_F(RunReportTest, MarksRequeuesAndKillsFromTrace) {
  write_jobs_csv("3,gamma,carol,rigid,0,5,30,2,2,0,0,0,true,false\n");
  EventTrace trace;
  trace.record(40.0, BatchEventKind::kRequeue, 2, "node 1 failed, lost 40 node-seconds");
  trace.record(30.0, BatchEventKind::kKill, 3, "walltime limit 25s exceeded");
  std::ofstream csv(dir() + "/trace.csv");
  trace.write_csv(csv);
  csv.close();

  ReportInputs inputs;
  inputs.dir = dir();
  const std::string html = render_run_report(inputs);
  EXPECT_NE(html.find("job 2 requeued at"), std::string::npos);
  EXPECT_NE(html.find("job 3 killed at"), std::string::npos);
}

TEST_F(RunReportTest, EscapesHtmlInJobFields) {
  write_jobs_csv("3,\"<script>alert(1)</script>\",eve,rigid,0,1,2,1,1,0,0,0,false,false\n");
  ReportInputs inputs;
  inputs.dir = dir();
  const std::string html = render_run_report(inputs);
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
}

TEST_F(RunReportTest, ReportIsSelfContained) {
  write_jobs_csv();
  ReportInputs inputs;
  inputs.dir = dir();
  const std::string html = render_run_report(inputs);
  // No network fetches: the report must open file:// on an air-gapped box.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
}

TEST_F(RunReportTest, WriteRunReportCreatesParentDirectories) {
  write_jobs_csv();
  ReportInputs inputs;
  inputs.dir = dir();
  const std::string out = dir() + "/nested/deep/report.html";
  const ReportResult result = write_run_report(inputs, out);
  EXPECT_TRUE(fs::exists(out));
  EXPECT_EQ(fs::file_size(out), result.html_bytes);
  EXPECT_GT(result.html_bytes, 0u);
}

}  // namespace
}  // namespace elastisim::stats
