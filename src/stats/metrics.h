// Metrics collection: per-job records, cluster utilization timeline, and the
// summary statistics the evaluation reports (makespan, waits, turnaround,
// bounded slowdown, reconfiguration counts).
//
// The batch system drives a Recorder through the on_* hooks; benches and
// examples read the aggregates afterwards. All times are simulation seconds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "workload/job.h"

namespace elastisim::stats {

struct JobRecord {
  workload::JobId id = 0;
  workload::JobType type = workload::JobType::kRigid;
  std::string name;
  std::string user;
  double submit_time = 0.0;
  double start_time = -1.0;  // -1 = never started
  double end_time = -1.0;    // -1 = never finished
  bool killed = false;       // terminated by walltime limit
  bool cancelled = false;    // dependency failed before the job ever ran
  int initial_nodes = 0;
  int final_nodes = 0;
  int expansions = 0;
  int shrinks = 0;
  int evolving_requests = 0;
  int evolving_granted = 0;
  /// Times the job lost its nodes (failure) and re-entered the queue.
  int requeues = 0;
  double node_seconds = 0.0;  // integral of allocation size over runtime
  /// Node-seconds discarded by requeues: allocation size times the span
  /// between the last durable checkpoint (or the attempt's start) and the
  /// eviction. Under plain requeue every attempt is discarded in full;
  /// requeue-restart only loses the tail behind the last checkpoint.
  double lost_node_seconds = 0.0;
  /// Wall-clock seconds of progress the job must re-execute after its
  /// requeues (the same span as lost_node_seconds, not weighted by nodes).
  double redone_seconds = 0.0;

  bool started() const { return start_time >= 0.0; }
  /// Has an end time — includes cancelled jobs, which never ran.
  bool finished() const { return end_time >= 0.0; }
  /// Ran and reached an end (normal finish or walltime/failure kill). This
  /// is the population every aggregate below is computed over: cancelled
  /// jobs have an end_time but no start, so their wait/turnaround would be
  /// the -1 sentinels and must not enter means or percentiles.
  bool completed() const { return finished() && started(); }
  double wait_time() const { return started() ? start_time - submit_time : -1.0; }
  double turnaround() const { return finished() ? end_time - submit_time : -1.0; }
  double runtime() const { return finished() && started() ? end_time - start_time : -1.0; }
  /// Bounded slowdown with threshold tau (seconds): max(1, turnaround /
  /// max(runtime, tau)). The standard metric for short-job fairness.
  double bounded_slowdown(double tau = 10.0) const;
};

/// One step of the cluster-wide allocated-node-count step function.
struct UtilizationPoint {
  double time;
  int allocated_nodes;
};

class Recorder {
 public:
  /// Returns the owner's user slot: users are numbered densely from 0 in
  /// order of their first submit, and a user keeps one slot for the run.
  std::uint32_t on_submit(const workload::Job& job, double time);
  /// The slot on_submit() gave `user`; nullopt for a user with no submit.
  std::optional<std::uint32_t> user_slot(const std::string& user) const;
  /// First call sets start_time/initial_nodes; later calls are restarts
  /// after a requeue and leave the original start in place.
  void on_start(workload::JobId id, double time, int nodes);
  /// Job lost its allocation (node failure) and went back to the queue.
  /// `lost_node_seconds` / `redone_seconds` account the work discarded by
  /// this eviction (zero when unknown).
  void on_requeue(workload::JobId id, double time, double lost_node_seconds = 0.0,
                  double redone_seconds = 0.0);
  /// `granted_evolving` distinguishes scheduler-initiated resizes from
  /// application (evolving) requests for the request/grant counters.
  void on_resize(workload::JobId id, double time, int new_nodes);
  void on_evolving_request(workload::JobId id, bool granted);
  void on_finish(workload::JobId id, double time, bool killed);
  /// Job removed before ever starting (failed dependency).
  void on_cancel(workload::JobId id, double time);

  /// Total nodes in the cluster; needed for utilization percentages.
  void set_total_nodes(int nodes) { total_nodes_ = nodes; }
  int total_nodes() const { return total_nodes_; }

  const std::vector<JobRecord>& records() const { return records_; }
  const std::vector<UtilizationPoint>& timeline() const { return timeline_; }

  // --- Aggregates ----------------------------------------------------------
  // All aggregates are computed over *completed* jobs (ran to an end,
  // normally or killed; cancelled jobs are excluded — see
  // JobRecord::completed()). With zero completed jobs every aggregate
  // deterministically returns 0.0 (never NaN, never a read past the end of
  // an empty vector); callers that need to distinguish "no jobs" from
  // "zero seconds" check finished_count() first.
  /// Number of completed jobs (cancelled jobs are not counted).
  std::size_t finished_count() const;
  std::size_t killed_count() const;
  /// Last completion time (0 when nothing completed).
  double makespan() const;
  double mean_wait() const;
  double median_wait() const;
  double max_wait() const;
  /// Wait-time percentile over completed jobs; p is clamped to [0, 1]
  /// (0.9 = p90).
  double wait_percentile(double p) const;
  double mean_turnaround() const;
  double mean_bounded_slowdown(double tau = 10.0) const;
  int total_expansions() const;
  int total_shrinks() const;
  int total_requeues() const;
  /// Node-seconds discarded across all requeues (resilience experiments).
  double total_lost_node_seconds() const;
  double total_redone_seconds() const;
  /// Node-seconds used by jobs divided by (makespan * total_nodes).
  double average_utilization() const;
  /// Mean allocated-node fraction inside [t, t + bucket) windows covering
  /// [0, makespan); for utilization-over-time plots.
  std::vector<double> utilization_buckets(double bucket_seconds) const;

  /// Node-seconds consumed per user up to `now` (finished work plus the
  /// accrued share of still-running allocations). O(all records + running
  /// jobs) per call: the reference user_node_seconds() must match bit for bit.
  std::map<std::string, double> node_seconds_by_user(double now) const;
  /// `node_seconds_by_user(now)[user]` with the same floating-point additions
  /// in the same order (0 for unknown users); the fair-share signal. O(the
  /// user's running jobs) per call, plus one refold of the user's records
  /// after one of that user's jobs accrued. The refold updates a cache, so
  /// unlike the other const queries two calls must not run concurrently.
  double user_node_seconds(const std::string& user, double now) const;

  /// Jobs currently counted as running (started, not yet finished or
  /// requeued).
  std::size_t running_count() const { return running_.size(); }
  bool is_running(workload::JobId id) const { return running_.count(id) != 0; }
  /// Re-derives the per-user running index that user_node_seconds() sums
  /// from the running jobs: each user's list is in ascending job id, holds
  /// only running jobs charged to that user, under the slot of their
  /// record's user, and the lists together hold every running job. Returns
  /// the first broken rule, formatted only then.
  std::optional<std::string> check_user_index() const;

  // --- Output --------------------------------------------------------------
  void write_jobs_csv(std::ostream& out) const;
  void write_timeline_csv(std::ostream& out) const;

 private:
  JobRecord& record_for(workload::JobId id);
  void change_allocation(double time, int delta);
  void accrue(workload::JobId id, double time);

  /// Takes a requeued or finished job off the running jobs at `time`.
  void stop_running(workload::JobId id, double time);

  std::vector<JobRecord> records_;
  std::map<workload::JobId, std::size_t> index_;
  // Running jobs: current size, the time of the last size change and the
  // owner's slot in users_.
  struct Running {
    int nodes;
    double since;
    std::uint32_t user;
  };
  using RunningMap = std::map<workload::JobId, Running>;
  RunningMap running_;
  // One user's records and `settled`, the left fold of their node_seconds in
  // record order. A running `+=` total would reorder the additions against
  // node_seconds_by_user(), so accrue() only marks the fold stale and the next
  // query refolds it. A new record adds 0.0, which leaves the fold unchanged.
  // `running` lists the user's entries of running_ in job-id order, the order
  // node_seconds_by_user() adds their terms in.
  struct UserUsage {
    std::vector<std::size_t> records;
    std::vector<RunningMap::const_iterator> running;
    mutable double settled = 0.0;
    mutable bool stale = false;
  };
  std::vector<UserUsage> users_;
  std::map<std::string, std::uint32_t> user_slot_;  // user -> index in users_
  std::vector<UtilizationPoint> timeline_;
  int allocated_now_ = 0;
  int total_nodes_ = 0;
};

}  // namespace elastisim::stats
