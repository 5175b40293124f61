#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/schedulers.h"

namespace elastisim::core {

QueuedJob queued_job(const workload::Job& job, std::uint32_t user) {
  const bool rigid = job.type == workload::JobType::kRigid;
  return {.job = &job,
          .min_start = rigid ? job.requested_nodes : job.min_nodes,
          .preferred_start = rigid ? job.requested_nodes
                                   : std::min(job.requested_nodes, job.max_nodes),
          .walltime_limit = job.walltime_limit,
          .user = user};
}

double estimated_remaining(const RunningJob& running, double now) {
  if (!std::isfinite(running.job->walltime_limit)) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(0.0, running.start_time + running.job->walltime_limit - now);
}

bool Scheduler::on_evolving_request(SchedulerContext& ctx, workload::JobId id, int delta) {
  (void)id;
  if (delta <= 0) return true;  // shrinks always welcome
  return ctx.free_nodes() >= delta;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "fcfs") return std::make_unique<FcfsScheduler>();
  if (name == "easy") return std::make_unique<EasyBackfillScheduler>();
  if (name == "conservative") return std::make_unique<ConservativeBackfillScheduler>();
  if (name == "fcfs-malleable") return std::make_unique<FcfsMalleableScheduler>();
  if (name == "easy-malleable") return std::make_unique<EasyMalleableScheduler>();
  if (name == "equal-share") return std::make_unique<EqualShareScheduler>();
  if (name == "priority") return std::make_unique<PriorityScheduler>();
  if (name == "fair-share") return std::make_unique<FairShareScheduler>();
  return nullptr;
}

std::vector<std::string> scheduler_names() {
  return {"fcfs",           "easy",        "conservative", "fcfs-malleable",
          "easy-malleable", "equal-share", "priority",     "fair-share"};
}

}  // namespace elastisim::core
