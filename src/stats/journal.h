// Decision journal: a structured, append-only record of *why* the batch
// system did what it did at every scheduling point.
//
// Where the EventTrace answers "what happened" and telemetry answers "how
// much / how long", the journal answers "why": each scheduler invocation
// produces one JournalRecord carrying the invocation cause (submit, finish,
// failure, ...), a queue/cluster snapshot, and one verdict per considered
// job — started, resize target set, or held with a machine-readable reason
// code that schedulers report through SchedulerContext::explain(). Records
// carry a monotonic sequence number and link verdicts to the EventTrace
// entries they caused, so a job's lifecycle reads as a causal chain from
// submission through holds, resizes, evictions, and completion.
//
// The journal serializes as JSONL (one record per line, docs/FORMATS.md) and
// round-trips through read_jsonl(); `elastisim inspect` builds job timelines
// and run diffs on top. A subscriber on the batch event stream
// (BatchSystem::subscribe); it links verdicts to the EventTrace entries of
// the same events when a trace is subscribed before it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stats/batch_event.h"
#include "workload/job.h"

namespace elastisim::stats {

/// What triggered the scheduling point.
enum class JournalCause {
  kSubmit,
  kFinish,
  kWalltime,
  kBoundary,
  kShrinkComplete,
  kFailure,
  kRepair,
  kMaintenance,
  kTimer,
  kCancel,
};

/// What the scheduling point decided about one job.
enum class VerdictAction {
  kStarted,
  kExpandTarget,
  kShrinkTarget,
  kHeld,
  kEvolvingGranted,
  kEvolvingDenied,
  kRequeued,
  kKilled,
};

/// Machine-readable reason a job was held (VerdictAction::kHeld only).
enum class HoldReason {
  kNone,
  /// Not enough free nodes for the job's (minimum) size right now.
  kInsufficientNodes,
  /// A strictly ordered policy (FCFS) never looks past its blocked head.
  kQueuedBehindHead,
  /// Starting the job would delay a reservation held for a blocked leader.
  kBlockedByReservation,
  /// The job fits the spare nodes or the time window before the
  /// reservation's shadow time, but not both.
  kBackfillWindowTooSmall,
  /// Conservative backfilling: no hole in the reservation profile is both
  /// wide enough and long enough for the job's walltime before now.
  kWalltimeExceedsHole,
  /// The max_requeues guard converted a further eviction into a kill.
  kMaxRequeuesReached,
  /// Fallback stamped by the batch system for queued jobs the scheduler gave
  /// no verdict (e.g. a custom scheduler without explain() calls).
  kNotConsidered,
};

/// A static string, so the postmortem writer can print it from a signal handler.
const char* to_string(JournalCause cause) noexcept;
std::string to_string(VerdictAction action);
std::string to_string(HoldReason reason);
std::optional<JournalCause> journal_cause_from_string(std::string_view name);
std::optional<VerdictAction> verdict_action_from_string(std::string_view name);
std::optional<HoldReason> hold_reason_from_string(std::string_view name);

struct JournalVerdict {
  workload::JobId job = 0;
  VerdictAction action = VerdictAction::kHeld;
  /// Non-kNone exactly when action == kHeld (or kKilled by the requeue guard).
  HoldReason reason = HoldReason::kNone;
  /// Start size or resize target; 0 when not applicable.
  int nodes = 0;
  /// Sequence number of the EventTrace entry this decision caused; 0 = none
  /// (no trace attached, or a decision without a trace event).
  std::uint64_t trace_seq = 0;
  /// Free-form human-readable context ("needs 16 nodes, 3 free").
  std::string detail{};

  bool operator==(const JournalVerdict&) const = default;
};

struct JournalRecord {
  /// Monotonic sequence number, 1-based, unique within a run.
  std::uint64_t seq = 0;
  double time = 0.0;
  JournalCause cause = JournalCause::kTimer;
  // Queue/cluster snapshot at the moment the scheduler was invoked.
  int queued = 0;
  int running = 0;
  int free_nodes = 0;
  int total_nodes = 0;
  std::vector<JournalVerdict> verdicts;

  bool operator==(const JournalRecord&) const = default;
};

/// Append-only record store with a begin/add/commit protocol matching the
/// batch system's scheduler invocation: begin() opens a record, add()
/// accumulates verdicts, commit() seals it.
///
/// Two conveniences keep call sites simple:
///   - add() with no open record buffers the verdict; the next begin()
///     adopts it (batch events like evictions precede their scheduling
///     point),
///   - within an open record a held verdict *replaces* an earlier held
///     verdict for the same job (later passes refine the reason), and a
///     non-held verdict erases any held verdict for that job (the job
///     started after all in a later scheduler round).
class DecisionJournal final : public BatchSubscriber {
 public:
  /// Scheduling points open and seal records; lifecycle events and the
  /// scheduler's explanations become verdicts (kNotConsidered by default).
  void on_event(const BatchEvent& event) override;
  bool wants_explanations() const override { return true; }

  void begin(double time, JournalCause cause, int queued, int running, int free_nodes,
             int total_nodes);
  void add(JournalVerdict verdict);
  void commit();

  bool open() const { return open_; }
  /// True when the open record already holds a held verdict for `job`.
  bool has_held_verdict(workload::JobId job) const;

  const std::vector<JournalRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// One compact-JSON record per line.
  void write_jsonl(std::ostream& out) const;
  void save(const std::string& path) const;

  /// Parses JSONL produced by write_jsonl(); throws std::runtime_error on
  /// malformed lines (with the 1-based line number).
  static std::vector<JournalRecord> read_jsonl(std::istream& in);
  static std::vector<JournalRecord> load(const std::string& path);

 private:
  std::vector<JournalRecord> records_;
  std::vector<JournalVerdict> pending_;
  JournalRecord current_;
  std::uint64_t next_seq_ = 1;
  bool open_ = false;
};

/// First point where two journals disagree (`elastisim inspect --diff`).
struct JournalDivergence {
  /// Index into both record vectors (or the length of the shorter one when
  /// one journal is a prefix of the other).
  std::size_t index = 0;
  std::string what;
};

/// std::nullopt when the journals are identical — the property two runs of
/// the same seed must satisfy.
std::optional<JournalDivergence> first_divergence(const std::vector<JournalRecord>& a,
                                                  const std::vector<JournalRecord>& b);

/// One verdict as a timeline line: "t=... #seq [cause] action: reason (N
/// nodes) — detail [trace #seq]".
std::string describe_verdict(const JournalRecord& record, const JournalVerdict& verdict);

/// Human-readable "why did this job wait" timeline: one line per verdict
/// concerning `job`, in record order (`elastisim inspect --job`).
std::vector<std::string> job_timeline(const std::vector<JournalRecord>& records,
                                      workload::JobId job);

}  // namespace elastisim::stats
