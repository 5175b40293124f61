// Run-report generator: turns the artifacts a simulation run leaves in its
// --out-dir (jobs.csv, timeseries.csv, summary.json, and — when present —
// trace.csv, the decision journal, and a failure trace) into one
// self-contained report.html: inline SVG and CSS only, no network fetches,
// no external JS, viewable from a file:// URL on an air-gapped machine.
//
// Sections (each carries a stable id the smoke tests assert on):
//   #summary      headline metrics from summary.json
//   #gantt        per-job Gantt chart, colored by adaptivity class, with
//                 waiting bars, requeue/kill markers, and node-outage ticks
//   #utilization  cluster utilization over time with down-node bands
//   #queue        queue-depth / running-jobs timelines
//   #journal      per-job decision timelines (when a journal is present);
//                 Gantt rows link here via #job-<id> anchors
//
// This is the offline half of the stats::StateSampler pair; `elastisim
// report <out-dir>` is the CLI front end (docs/CLI.md).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace elastisim::stats {

struct ReportInputs {
  /// Directory a simulation run wrote with --out-dir (jobs.csv required;
  /// timeseries.csv strongly recommended — run with --timeseries).
  std::string dir;
  /// Decision journal; empty = probe <dir>/journal.jsonl.
  std::string journal_path;
  /// Failure trace; empty = probe <dir>/failures.json.
  std::string failure_trace_path;
};

struct ReportResult {
  std::size_t jobs = 0;
  std::size_t samples = 0;         // timeseries rows (0 = no timeseries.csv)
  std::size_t journal_records = 0; // 0 = no journal found
  std::size_t trace_entries = 0;   // 0 = no trace.csv
  std::size_t failure_events = 0;  // 0 = no failure trace
  std::size_t html_bytes = 0;
};

/// Renders the report as an HTML string. Throws std::runtime_error when
/// jobs.csv is missing or malformed; every other input degrades gracefully
/// (the report notes what was absent instead of failing).
std::string render_run_report(const ReportInputs& inputs, ReportResult* result = nullptr);

/// Escapes the five HTML-significant characters of user-controlled text
/// (shared by the run and sweep reports).
std::string html_escape(std::string_view text);

/// render_run_report() + write to `html_path`. Throws on I/O failure.
ReportResult write_run_report(const ReportInputs& inputs, const std::string& html_path);

}  // namespace elastisim::stats
