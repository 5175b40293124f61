#include "sim/fluid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/engine.h"
#include "stats/profiler.h"
#include "util/check.h"
#include "util/fmt.h"
#include "util/log.h"

namespace elastisim::sim {

namespace {
// Tolerances for the progressive-filling freeze decisions. Relative where
// possible so that simulations in FLOP/s (1e12) and bytes/s (1e9) behave
// identically.
constexpr double kRelEps = 1e-9;
constexpr double kAbsEps = 1e-12;

bool leq_tol(double a, double b) { return a <= b * (1.0 + kRelEps) + kAbsEps; }
}  // namespace

ResourceId FluidModel::add_resource(std::string name, double capacity) {
  assert(capacity >= 0.0 && "resource capacity must be non-negative");
  resources_.push_back(Resource{std::move(name), capacity, 0.0});
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FluidModel::set_capacity(ResourceId resource, double capacity) {
  assert(resource < resources_.size());
  assert(capacity >= 0.0);
  settle();
  resources_[resource].capacity = capacity;
  rebalance();
}

double FluidModel::capacity(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].capacity;
}

const std::string& FluidModel::resource_name(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].name;
}

double FluidModel::consumption(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].consumption;
}

ActivityId FluidModel::start(ActivitySpec spec, std::function<void()> on_complete) {
  for (const Demand& demand : spec.demands) {
    ELSIM_CHECK(demand.resource < resources_.size(), "demand references unknown resource {}",
                demand.resource);
    ELSIM_CHECK(demand.weight > 0.0, "demand weight must be positive, got {}", demand.weight);
  }
  assert((!spec.demands.empty() || std::isfinite(spec.rate_cap)) &&
         "an activity without demands needs a finite rate cap");
  assert(spec.rate_cap > 0.0 && "rate cap must be positive");

  settle();
  const ActivityId id = next_activity_id_++;
  Activity activity;
  activity.remaining = std::max(spec.work, 0.0);
  activity.spec = std::move(spec);
  activity.on_complete = std::move(on_complete);
  activities_.emplace(id, std::move(activity));
  order_.push_back(id);
  rebalance();
  return id;
}

bool FluidModel::cancel(ActivityId id) {
  auto it = activities_.find(id);
  if (it == activities_.end()) return false;
  settle();
  if (it->second.completion_event != kInvalidEventId) {
    engine_->cancel(it->second.completion_event);
  }
  activities_.erase(it);
  order_.erase(std::find(order_.begin(), order_.end(), id));
  rebalance();
  return true;
}

bool FluidModel::is_active(ActivityId id) const { return activities_.count(id) > 0; }

double FluidModel::remaining_work(ActivityId id) const {
  auto it = activities_.find(id);
  if (it == activities_.end()) return 0.0;  // completed, cancelled, or unknown
  const Activity& activity = it->second;
  const double elapsed = engine_->now() - last_settle_;
  return std::max(0.0, activity.remaining - activity.rate * elapsed);
}

double FluidModel::rate(ActivityId id) const {
  auto it = activities_.find(id);
  if (it == activities_.end()) return 0.0;  // completed, cancelled, or unknown
  return it->second.rate;
}

std::optional<std::string> FluidModel::check_invariants() const {
  if (order_.size() != activities_.size()) {
    return util::fmt("fluid model: {} activities in insertion order but {} in the table",
                     order_.size(), activities_.size());
  }
  for (ActivityId id : order_) {
    const auto it = activities_.find(id);
    if (it == activities_.end()) {
      return util::fmt("fluid model: activity {} in insertion order but not in the table",
                       id);
    }
    const Activity& activity = it->second;
    const char* label =
        activity.spec.label.empty() ? "<unnamed>" : activity.spec.label.c_str();
    if (!(activity.remaining >= 0.0)) {
      return util::fmt("fluid activity '{}' has negative remaining work {}", label,
                       activity.remaining);
    }
    if (activity.spec.work > 0.0 &&
        activity.remaining > activity.spec.work * (1.0 + kRelEps) + kAbsEps) {
      return util::fmt("fluid activity '{}' progress outside [0, 1]: remaining {} of {}",
                       label, activity.remaining, activity.spec.work);
    }
    if (!(activity.rate >= 0.0) || !std::isfinite(activity.rate)) {
      return util::fmt("fluid activity '{}' has invalid rate {}", label, activity.rate);
    }
    if (std::isfinite(activity.spec.rate_cap) &&
        activity.rate > activity.spec.rate_cap * (1.0 + kRelEps) + kAbsEps) {
      return util::fmt("fluid activity '{}' rate {} exceeds its cap {}", label,
                       activity.rate, activity.spec.rate_cap);
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const Resource& resource = resources_[r];
    if (!leq_tol(resource.consumption, resource.capacity)) {
      return util::fmt("fluid resource '{}' oversubscribed: consumption {} > capacity {}",
                       resource.name, resource.consumption, resource.capacity);
    }
  }
  return std::nullopt;
}

// elsim-hot: runs before every rate change; touches every live activity.
void FluidModel::settle() {
  // Deliberately unscoped: settle runs ~once per solve and its own time is a
  // fraction of a percent of a run, so a scope here would cost more than the
  // attribution is worth. Settle time bills to the enclosing phase (usually
  // fluid.solve or engine.dispatch); Phase::kFluidSettle stays in the schema
  // for call sites that want to opt a hot path back in.
  const SimTime now = engine_->now();
  const double elapsed = now - last_settle_;
  if (elapsed > 0.0) {
    for (ActivityId id : order_) {
      Activity& activity = activities_.at(id);
      activity.remaining = std::max(0.0, activity.remaining - activity.rate * elapsed);
    }
  }
  last_settle_ = now;
}

// elsim-hot: the progressive-filling solve; reruns on every share change.
void FluidModel::rebalance() {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFluidSolve);
  ++rebalance_count_;
  activities_touched_ += order_.size();
  // Working state for progressive filling, kept in member scratch buffers so
  // steady-state solves do not allocate.
  std::vector<double>& avail = scratch_avail_;
  std::vector<double>& weight_sum = scratch_weight_sum_;
  avail.assign(resources_.size(), 0.0);
  weight_sum.assign(resources_.size(), 0.0);
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    avail[r] = resources_[r].capacity;
    resources_[r].consumption = 0.0;
  }

  std::vector<ActivityId>& unfrozen = scratch_unfrozen_;
  unfrozen.clear();
  unfrozen.reserve(order_.size());
  for (ActivityId id : order_) {
    Activity& activity = activities_.at(id);
    if (activity.spec.demands.empty()) {
      // No shared resources: runs at its cap unconditionally.
      activity.rate = activity.spec.rate_cap;
      continue;
    }
    unfrozen.push_back(id);
    for (const Demand& demand : activity.spec.demands) {
      weight_sum[demand.resource] += demand.weight;
    }
  }

  // Progressive filling: raise a common water level; freeze activities at
  // their cap or when a resource they use saturates.
  while (!unfrozen.empty()) {
    double lambda_res = kTimeInfinity;
    for (std::size_t r = 0; r < resources_.size(); ++r) {
      if (weight_sum[r] > kAbsEps) {
        lambda_res = std::min(lambda_res, std::max(avail[r], 0.0) / weight_sum[r]);
      }
    }
    double lambda_cap = kTimeInfinity;
    for (ActivityId id : unfrozen) {
      lambda_cap = std::min(lambda_cap, activities_.at(id).spec.rate_cap);
    }
    const double lambda = std::min(lambda_res, lambda_cap);

    // Identify the freeze set at this level; subtract each frozen activity's
    // consumption from the pools as it freezes (single pass, no membership
    // lookups).
    std::vector<ActivityId>& still_unfrozen = scratch_next_unfrozen_;
    still_unfrozen.clear();
    still_unfrozen.reserve(unfrozen.size());
    std::size_t frozen_this_round = 0;
    const bool cap_binding = lambda_cap <= lambda_res;
    for (ActivityId id : unfrozen) {
      Activity& activity = activities_.at(id);
      bool freeze = false;
      if (cap_binding) {
        freeze = leq_tol(activity.spec.rate_cap, lambda);
      } else {
        for (const Demand& demand : activity.spec.demands) {
          const double share = std::max(avail[demand.resource], 0.0) /
                               std::max(weight_sum[demand.resource], kAbsEps);
          if (leq_tol(share, lambda)) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        activity.rate = std::min(lambda, activity.spec.rate_cap);
        for (const Demand& demand : activity.spec.demands) {
          avail[demand.resource] -= demand.weight * activity.rate;
          weight_sum[demand.resource] -= demand.weight;
        }
        ++frozen_this_round;
      } else {
        still_unfrozen.push_back(id);
      }
    }
    if (frozen_this_round == 0) {
      // Numerical corner: make progress by freezing everything at lambda.
      for (ActivityId id : still_unfrozen) {
        Activity& activity = activities_.at(id);
        activity.rate = std::min(lambda, activity.spec.rate_cap);
      }
      break;
    }
    unfrozen.swap(still_unfrozen);  // ping-pong the scratch buffers, no realloc
  }

  // Refresh per-resource consumption and reschedule completion events.
  for (ActivityId id : order_) {
    Activity& activity = activities_.at(id);
    for (const Demand& demand : activity.spec.demands) {
      resources_[demand.resource].consumption += demand.weight * activity.rate;
    }
    schedule_completion(id, activity);
  }
}

void FluidModel::schedule_completion(ActivityId id, Activity& activity) {
  if (activity.completion_event != kInvalidEventId) {
    engine_->cancel(activity.completion_event);
    activity.completion_event = kInvalidEventId;
  }
  SimTime finish;
  if (activity.remaining <= kWorkEpsilon) {
    finish = engine_->now();
  } else if (activity.rate > 0.0) {
    finish = engine_->now() + activity.remaining / activity.rate;
  } else {
    return;  // stalled: no completion until a rebalance grants a rate
  }
  activity.completion_event =
      engine_->schedule_at(finish, [this, id] { on_activity_complete(id); });
}

void FluidModel::on_activity_complete(ActivityId id) {
  auto it = activities_.find(id);
  if (it == activities_.end()) return;  // raced with cancel (should not happen)
  settle();
  ELSIM_TRACE("activity '{}' complete at t={}", it->second.spec.label, engine_->now());
  std::function<void()> callback = std::move(it->second.on_complete);
  activities_.erase(it);
  order_.erase(std::find(order_.begin(), order_.end(), id));
  rebalance();
  if (callback) callback();
}

}  // namespace elastisim::sim
