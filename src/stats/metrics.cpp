#include "stats/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/check.h"
#include "util/csv.h"
#include "util/fmt.h"

namespace elastisim::stats {

double JobRecord::bounded_slowdown(double tau) const {
  if (!completed()) return -1.0;
  const double denom = std::max(runtime(), tau);
  return std::max(1.0, turnaround() / denom);
}

JobRecord& Recorder::record_for(workload::JobId id) {
  auto it = index_.find(id);
  ELSIM_CHECK(it != index_.end(), "job event for unknown job {} (missed on_submit)", id);
  return records_[it->second];
}

std::uint32_t Recorder::on_submit(const workload::Job& job, double time) {
  ELSIM_CHECK(!index_.count(job.id), "duplicate submit of job {}", job.id);
  JobRecord record;
  record.id = job.id;
  record.type = job.type;
  record.name = job.name;
  record.user = job.user;
  record.submit_time = time;
  index_[job.id] = records_.size();
  const auto slot =
      user_slot_.try_emplace(job.user, static_cast<std::uint32_t>(users_.size())).first->second;
  if (slot == users_.size()) users_.emplace_back();
  users_[slot].records.push_back(records_.size());
  records_.push_back(std::move(record));
  return slot;
}

void Recorder::change_allocation(double time, int delta) {
  allocated_now_ += delta;
  ELSIM_CHECK(allocated_now_ >= 0, "negative allocation ({} nodes) at t={}", allocated_now_,
              time);
  // elsim-lint: allow(float-equality) -- same-instant samples coalesce exactly
  if (!timeline_.empty() && timeline_.back().time == time) {
    timeline_.back().allocated_nodes = allocated_now_;
  } else {
    timeline_.push_back({time, allocated_now_});
  }
}

void Recorder::accrue(workload::JobId id, double time) {
  auto it = running_.find(id);
  ELSIM_CHECK(it != running_.end(), "accrue on job {}, which is not running", id);
  record_for(id).node_seconds += it->second.nodes * (time - it->second.since);
  it->second.since = time;
  users_[it->second.user].stale = true;
}

void Recorder::on_start(workload::JobId id, double time, int nodes) {
  JobRecord& record = record_for(id);
  ELSIM_CHECK(!running_.count(id), "job {} started while already running", id);
  if (!record.started()) {
    record.start_time = time;
    record.initial_nodes = nodes;
  }
  record.final_nodes = nodes;
  const std::uint32_t user = user_slot_.at(record.user);
  const auto entry = running_.emplace(id, Running{nodes, time, user}).first;
  std::vector<RunningMap::const_iterator>& running = users_[user].running;
  running.insert(std::ranges::upper_bound(running, id, {}, [](auto it) { return it->first; }),
                 entry);
  change_allocation(time, nodes);
}

void Recorder::stop_running(workload::JobId id, double time) {
  const auto entry = running_.find(id);
  change_allocation(time, -entry->second.nodes);
  std::erase(users_[entry->second.user].running, entry);
  running_.erase(entry);
}

void Recorder::on_requeue(workload::JobId id, double time, double lost_node_seconds,
                          double redone_seconds) {
  accrue(id, time);
  JobRecord& record = record_for(id);
  ++record.requeues;
  record.lost_node_seconds += lost_node_seconds;
  record.redone_seconds += redone_seconds;
  stop_running(id, time);
}

void Recorder::on_resize(workload::JobId id, double time, int new_nodes) {
  accrue(id, time);
  JobRecord& record = record_for(id);
  Running& running = running_.at(id);
  if (new_nodes > running.nodes) {
    ++record.expansions;
  } else if (new_nodes < running.nodes) {
    ++record.shrinks;
  }
  change_allocation(time, new_nodes - running.nodes);
  running.nodes = new_nodes;
  record.final_nodes = new_nodes;
}

void Recorder::on_evolving_request(workload::JobId id, bool granted) {
  JobRecord& record = record_for(id);
  ++record.evolving_requests;
  if (granted) ++record.evolving_granted;
}

void Recorder::on_finish(workload::JobId id, double time, bool killed) {
  accrue(id, time);
  JobRecord& record = record_for(id);
  record.end_time = time;
  record.killed = killed;
  stop_running(id, time);
}

void Recorder::on_cancel(workload::JobId id, double time) {
  JobRecord& record = record_for(id);
  ELSIM_CHECK(!running_.count(id), "cancel on running job {} (use on_finish)", id);
  record.end_time = time;
  record.cancelled = true;
}

std::size_t Recorder::finished_count() const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [](const JobRecord& r) { return r.completed(); }));
}

std::size_t Recorder::killed_count() const {
  return static_cast<std::size_t>(std::count_if(
      records_.begin(), records_.end(), [](const JobRecord& r) { return r.killed; }));
}

double Recorder::makespan() const {
  double last = 0.0;
  for (const JobRecord& record : records_) {
    if (record.completed()) last = std::max(last, record.end_time);
  }
  return last;
}

namespace {
// Aggregation population: jobs that ran to an end. Cancelled jobs carry an
// end_time but never started, so their wait/turnaround are the -1 sentinels;
// averaging them in would drag every mean below its true value (or negative).
template <typename Fn>
double mean_over_completed(const std::vector<JobRecord>& records, Fn&& value) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const JobRecord& record : records) {
    if (!record.completed()) continue;
    sum += value(record);
    ++count;
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

/// A per-job field summed over every record, in record order.
template <typename T>
T sum_over(const std::vector<JobRecord>& records, T JobRecord::*field) {
  T total{};
  for (const JobRecord& record : records) total += record.*field;
  return total;
}
}  // namespace

double Recorder::mean_wait() const {
  return mean_over_completed(records_, [](const JobRecord& r) { return r.wait_time(); });
}

double Recorder::median_wait() const {
  std::vector<double> waits;
  for (const JobRecord& record : records_) {
    if (record.completed()) waits.push_back(record.wait_time());
  }
  if (waits.empty()) return 0.0;
  const std::size_t mid = waits.size() / 2;
  std::nth_element(waits.begin(), waits.begin() + mid, waits.end());
  return waits[mid];
}

double Recorder::wait_percentile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  std::vector<double> waits;
  for (const JobRecord& record : records_) {
    if (record.completed()) waits.push_back(record.wait_time());
  }
  if (waits.empty()) return 0.0;
  std::sort(waits.begin(), waits.end());
  const auto index = static_cast<std::size_t>(p * static_cast<double>(waits.size() - 1));
  return waits[index];
}

double Recorder::max_wait() const {
  double worst = 0.0;
  for (const JobRecord& record : records_) {
    if (record.completed()) worst = std::max(worst, record.wait_time());
  }
  return worst;
}

double Recorder::mean_turnaround() const {
  return mean_over_completed(records_, [](const JobRecord& r) { return r.turnaround(); });
}

double Recorder::mean_bounded_slowdown(double tau) const {
  return mean_over_completed(records_,
                            [tau](const JobRecord& r) { return r.bounded_slowdown(tau); });
}

int Recorder::total_expansions() const { return sum_over(records_, &JobRecord::expansions); }
int Recorder::total_shrinks() const { return sum_over(records_, &JobRecord::shrinks); }
int Recorder::total_requeues() const { return sum_over(records_, &JobRecord::requeues); }

double Recorder::total_lost_node_seconds() const {
  return sum_over(records_, &JobRecord::lost_node_seconds);
}

double Recorder::total_redone_seconds() const {
  return sum_over(records_, &JobRecord::redone_seconds);
}

double Recorder::average_utilization() const {
  const double span = makespan();
  if (span <= 0.0 || total_nodes_ <= 0) return 0.0;
  return sum_over(records_, &JobRecord::node_seconds) / (span * total_nodes_);
}

std::vector<double> Recorder::utilization_buckets(double bucket_seconds) const {
  std::vector<double> buckets;
  const double span = makespan();
  if (span <= 0.0 || total_nodes_ <= 0 || bucket_seconds <= 0.0 || timeline_.empty()) {
    return buckets;
  }
  buckets.assign(static_cast<std::size_t>(std::ceil(span / bucket_seconds)), 0.0);
  // Integrate the step function into the buckets.
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const double begin = timeline_[i].time;
    const double end = i + 1 < timeline_.size() ? timeline_[i + 1].time : span;
    const int level = timeline_[i].allocated_nodes;
    double cursor = begin;
    while (cursor < end) {
      const auto bucket = static_cast<std::size_t>(cursor / bucket_seconds);
      if (bucket >= buckets.size()) break;
      const double bucket_end = static_cast<double>(bucket + 1) * bucket_seconds;
      const double slice = std::min(end, bucket_end) - cursor;
      buckets[bucket] += slice * level;
      cursor += slice;
    }
  }
  for (double& value : buckets) value /= bucket_seconds * total_nodes_;
  return buckets;
}

std::map<std::string, double> Recorder::node_seconds_by_user(double now) const {
  std::map<std::string, double> usage;
  for (const JobRecord& record : records_) usage[record.user] += record.node_seconds;
  for (const auto& [id, running] : running_) {
    const JobRecord& record = records_[index_.at(id)];
    usage[record.user] += running.nodes * (now - running.since);
  }
  return usage;
}

std::optional<std::uint32_t> Recorder::user_slot(const std::string& user) const {
  const auto slot = user_slot_.find(user);
  if (slot == user_slot_.end()) return std::nullopt;
  return slot->second;
}

double Recorder::user_node_seconds(const std::string& user, double now) const {
  const auto slot = user_slot_.find(user);
  if (slot == user_slot_.end()) return 0.0;
  const UserUsage& usage = users_[slot->second];
  if (usage.stale) {
    double settled = 0.0;
    for (std::size_t index : usage.records) settled += records_[index].node_seconds;
    usage.settled = settled;
    usage.stale = false;
  }
  // Running terms in job-id order, as node_seconds_by_user() adds them.
  double total = usage.settled;
  for (const RunningMap::const_iterator entry : usage.running) {
    total += entry->second.nodes * (now - entry->second.since);
  }
  return total;
}

std::optional<std::string> Recorder::check_user_index() const {
  std::size_t listed = 0;
  for (std::uint32_t slot = 0; slot < users_.size(); ++slot) {
    const std::vector<RunningMap::const_iterator>& running = users_[slot].running;
    for (std::size_t i = 0; i < running.size(); ++i) {
      const workload::JobId id = running[i]->first;
      const auto entry = running_.find(id);
      if (entry != running[i]) {
        return util::fmt("user slot {} lists job {}, which is not running", slot, id);
      }
      if (i > 0 && running[i - 1]->first >= id) {
        return util::fmt("user slot {} lists job {} after job {}", slot, id,
                         running[i - 1]->first);
      }
      const std::uint32_t owner = user_slot_.at(records_[index_.at(id)].user);
      if (entry->second.user != slot || owner != slot) {
        return util::fmt("user slot {} lists job {}, charged to slot {} and owned by slot {}",
                         slot, id, entry->second.user, owner);
      }
    }
    listed += running.size();
  }
  if (listed != running_.size()) {
    return util::fmt("the user index lists {} running jobs, {} are running", listed,
                     running_.size());
  }
  return std::nullopt;
}

void Recorder::write_jobs_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.typed_row("id", "name", "user", "type", "submit", "start", "end", "wait", "turnaround",
                "bounded_slowdown", "initial_nodes", "final_nodes", "expansions", "shrinks",
                "evolving_requests", "evolving_granted", "requeues", "node_seconds",
                "lost_node_seconds", "redone_seconds", "killed", "cancelled");
  for (const JobRecord& record : records_) {
    csv.typed_row(record.id, record.name, record.user, workload::to_string(record.type), record.submit_time,
                  record.start_time, record.end_time, record.wait_time(), record.turnaround(),
                  record.bounded_slowdown(), record.initial_nodes, record.final_nodes,
                  record.expansions, record.shrinks, record.evolving_requests,
                  record.evolving_granted, record.requeues, record.node_seconds,
                  record.lost_node_seconds, record.redone_seconds,
                  record.killed ? "true" : "false", record.cancelled ? "true" : "false");
  }
}

void Recorder::write_timeline_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.typed_row("time", "allocated_nodes");
  for (const UtilizationPoint& point : timeline_) {
    csv.typed_row(point.time, point.allocated_nodes);
  }
}

}  // namespace elastisim::stats
