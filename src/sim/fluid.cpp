#include "sim/fluid.h"

#include <algorithm>
#include <bit>
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

constexpr std::size_t kWordBits = 64;
}  // namespace

ResourceId FluidModel::add_resource(std::string name, double capacity) {
  ELSIM_CHECK(capacity >= 0.0, "resource '{}' capacity must be non-negative, got {}", name,
              capacity);
  resources_.push_back(Resource{std::move(name), capacity});
  avail_.push_back(0.0);
  weight_sum_.push_back(0.0);
  demanded_.resize((resources_.size() + kWordBits - 1) / kWordBits, 0);
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FluidModel::set_capacity(ResourceId resource, double capacity) {
  assert(resource < resources_.size());
  ELSIM_CHECK(capacity >= 0.0, "resource '{}' capacity must be non-negative, got {}",
              resources_[resource].name, capacity);
  settle();
  resources_[resource].capacity = capacity;
  solve_pending_ = true;
}

double FluidModel::capacity(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].capacity;
}

const std::string& FluidModel::resource_name(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].name;
}

double FluidModel::consumption(ResourceId resource) {
  assert(resource < resources_.size());
  solve_if_pending();
  double total = 0.0;
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
    for (const Demand& demand : activity.spec.demands) {
      if (demand.resource == resource) total += demand.weight * activity.rate;
    }
  }
  return total;
}

ActivityId FluidModel::start(ActivitySpec spec, std::function<void()> on_complete) {
  for (const Demand& demand : spec.demands) {
    ELSIM_CHECK(demand.resource < resources_.size(), "demand references unknown resource {}",
                demand.resource);
    ELSIM_CHECK(demand.weight > 0.0, "demand weight must be positive, got {}", demand.weight);
  }
  ELSIM_CHECK(spec.rate_cap > 0.0, "activity '{}' rate cap must be positive, got {}",
              spec.label, spec.rate_cap);
  ELSIM_CHECK(!spec.demands.empty() || std::isfinite(spec.rate_cap),
              "activity '{}' has no demands, so it needs a finite rate cap", spec.label);
  ELSIM_CHECK(!std::isnan(spec.work), "activity '{}' work is NaN", spec.label);

  settle();
  const ActivityId id = next_activity_id_++;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(activities_.size());
    activities_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Activity& activity = activities_[slot];
  activity.id = id;
  activity.remaining = std::max(spec.work, 0.0);
  activity.spec = std::move(spec);
  activity.on_complete = std::move(on_complete);
  slot_of_.emplace(id, slot);
  order_.push_back(slot);
  solve_pending_ = true;
  return id;
}

bool FluidModel::cancel(ActivityId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  const std::uint32_t slot = it->second;
  settle();
  remove(id, slot);
  solve_pending_ = true;
  return true;
}

const FluidModel::Activity* FluidModel::find(ActivityId id) const {
  const auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &activities_[it->second];
}

void FluidModel::remove(ActivityId id, std::uint32_t slot) {
  slot_of_.erase(id);
  order_.erase(std::find(order_.begin(), order_.end(), slot));
  activities_[slot] = Activity{};
  free_slots_.push_back(slot);
}

bool FluidModel::is_active(ActivityId id) const { return slot_of_.count(id) > 0; }

double FluidModel::remaining_work(ActivityId id) {
  solve_if_pending();
  const Activity* activity = find(id);
  if (activity == nullptr) return 0.0;  // completed, cancelled, or unknown
  const double elapsed = engine_->now() - last_settle_;
  return std::max(0.0, activity->remaining - activity->rate * elapsed);
}

double FluidModel::rate(ActivityId id) {
  solve_if_pending();
  const Activity* activity = find(id);
  return activity == nullptr ? 0.0 : activity->rate;  // 0 when completed/cancelled/unknown
}

std::optional<std::string> FluidModel::check_invariants() {
  solve_if_pending();
  if (order_.size() != slot_of_.size()) {
    return util::fmt("fluid model: {} activities in insertion order but {} in the table",
                     order_.size(), slot_of_.size());
  }
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
    if (find(activity.id) != &activity) {
      return util::fmt("fluid model: activity {} in insertion order but not in the table",
                       activity.id);
    }
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
  // The same sums as consumption(), for every resource in one pass.
  std::vector<double> consumption(resources_.size(), 0.0);
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
    for (const Demand& demand : activity.spec.demands) {
      consumption[demand.resource] += demand.weight * activity.rate;
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const Resource& resource = resources_[r];
    if (!leq_tol(consumption[r], resource.capacity)) {
      return util::fmt("fluid resource '{}' oversubscribed: consumption {} > capacity {}",
                       resource.name, consumption[r], resource.capacity);
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
    // The rates below must be the solved ones for the interval that ends now.
    ELSIM_CHECK(!solve_pending_, "simulated time advanced from {} to {} over a pending fluid solve",
                last_settle_, now);
    for (std::uint32_t slot : order_) {
      Activity& activity = activities_[slot];
      activity.remaining = std::max(0.0, activity.remaining - activity.rate * elapsed);
    }
  }
  last_settle_ = now;
}

// elsim-hot: the progressive-filling solve; runs once per batch of changes.
void FluidModel::solve() {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFluidSolve);
  solve_pending_ = false;
  ++rebalance_count_;
  activities_touched_ += order_.size();
  // Working state for progressive filling, kept in member buffers so
  // steady-state solves do not allocate. A resource's pools are reset at the
  // first demand on it in this solve, which also sets its demanded_ bit.
  std::vector<double>& avail = avail_;
  std::vector<double>& weight_sum = weight_sum_;
  std::vector<std::uint32_t>& unfrozen = scratch_unfrozen_;
  unfrozen.clear();
  unfrozen.reserve(order_.size());
  // The lowest rate cap among `unfrozen`, folded in list order as the list is
  // built.
  double lambda_cap = kTimeInfinity;
  for (std::uint32_t slot : order_) {
    Activity& activity = activities_[slot];
    if (activity.spec.demands.empty()) {
      // No shared resources: runs at its cap unconditionally.
      activity.rate = activity.spec.rate_cap;
      continue;
    }
    unfrozen.push_back(slot);
    lambda_cap = std::min(lambda_cap, activity.spec.rate_cap);
    for (const Demand& demand : activity.spec.demands) {
      const ResourceId r = demand.resource;
      std::uint64_t& word = demanded_[r / kWordBits];
      const std::uint64_t bit = std::uint64_t{1} << (r % kWordBits);
      if ((word & bit) == 0) {
        word |= bit;
        avail[r] = resources_[r].capacity;
        weight_sum[r] = 0.0;
      }
      weight_sum[r] += demand.weight;
    }
  }

  // Progressive filling: raise a common water level; freeze activities at
  // their cap or when a resource they use saturates.
  std::vector<std::uint32_t>& still_unfrozen = scratch_next_unfrozen_;
  std::vector<std::uint32_t>& frozen = scratch_frozen_;
  still_unfrozen.reserve(order_.size());
  frozen.reserve(order_.size());
  while (!unfrozen.empty()) {
    // The resource-limited level, over the demanded resources in ascending
    // id: the operands, in the order, of a scan over every resource (an
    // undemanded one has a zero weight sum and would be skipped). The order
    // is part of the result: std::min keeps its first operand when the two
    // are unordered (a NaN pool, from an infinite pool minus an infinite
    // rate) or equal (0.0 against -0.0).
    double lambda_res = kTimeInfinity;
    for (std::size_t w = 0; w < demanded_.size(); ++w) {
      for (std::uint64_t bits = demanded_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t r = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        if (weight_sum[r] > kAbsEps) {
          lambda_res = std::min(lambda_res, std::max(avail[r], 0.0) / weight_sum[r]);
        }
      }
    }
    const double lambda = std::min(lambda_res, lambda_cap);

    // Split the round's list into the activities that freeze at this level
    // and the rest, folding the next round's lambda_cap over the rest.
    still_unfrozen.clear();
    double next_lambda_cap = kTimeInfinity;
    std::size_t frozen_this_round = 0;
    if (lambda_cap <= lambda_res) {
      // Cap-binding: the freezes depend on the caps alone, so decide them all
      // before touching the pools. A round that freezes every remaining
      // activity is the last one, and nothing reads the pools after it.
      frozen.clear();
      for (std::uint32_t slot : unfrozen) {
        Activity& activity = activities_[slot];
        if (leq_tol(activity.spec.rate_cap, lambda)) {
          activity.rate = std::min(lambda, activity.spec.rate_cap);
          frozen.push_back(slot);
        } else {
          still_unfrozen.push_back(slot);
          next_lambda_cap = std::min(next_lambda_cap, activity.spec.rate_cap);
        }
      }
      if (still_unfrozen.empty()) break;
      // The pool updates in the order the frozen activities were listed, as
      // freezing them one at a time would apply them.
      for (std::uint32_t slot : frozen) {
        const Activity& activity = activities_[slot];
        for (const Demand& demand : activity.spec.demands) {
          avail[demand.resource] -= demand.weight * activity.rate;
          weight_sum[demand.resource] -= demand.weight;
        }
      }
      frozen_this_round = frozen.size();
    } else {
      // Resource-binding: an activity freezes when one of its resources is
      // saturated at this level, which each freeze before it can change, so
      // decide and subtract one activity at a time (single pass, no
      // membership lookups).
      for (std::uint32_t slot : unfrozen) {
        Activity& activity = activities_[slot];
        bool freeze = false;
        for (const Demand& demand : activity.spec.demands) {
          const double share = std::max(avail[demand.resource], 0.0) /
                               std::max(weight_sum[demand.resource], kAbsEps);
          if (leq_tol(share, lambda)) {
            freeze = true;
            break;
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
          still_unfrozen.push_back(slot);
          next_lambda_cap = std::min(next_lambda_cap, activity.spec.rate_cap);
        }
      }
    }
    if (frozen_this_round == 0) {
      // Numerical corner: make progress by freezing everything at lambda.
      for (std::uint32_t slot : still_unfrozen) {
        Activity& activity = activities_[slot];
        activity.rate = std::min(lambda, activity.spec.rate_cap);
      }
      break;
    }
    unfrozen.swap(still_unfrozen);  // ping-pong the scratch buffers, no realloc
    lambda_cap = next_lambda_cap;
  }
  std::fill(demanded_.begin(), demanded_.end(), 0);

  // The earliest finish, computed per activity as one completion event per
  // activity would be timed; an equal time keeps the activity inserted first,
  // which is the one whose event would have drawn the lower sequence number.
  const SimTime now = engine_->now();
  SimTime first_finish = kTimeInfinity;
  next_slot_ = kNoSlot;
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
    SimTime finish;
    if (activity.remaining <= kWorkEpsilon) {
      finish = now;
    } else if (activity.rate > 0.0) {
      finish = now + activity.remaining / activity.rate;
    } else {
      continue;  // stalled: no completion until a solve grants a rate
    }
    if (next_slot_ == kNoSlot || finish < first_finish) {
      first_finish = finish;
      next_slot_ = slot;
    }
  }
  if (next_slot_ == kNoSlot) {
    if (completion_event_ != kInvalidEventId) {
      engine_->cancel(completion_event_);
      completion_event_ = kInvalidEventId;
    }
    return;
  }
  // Move the pending event in place; it takes a fresh FIFO sequence number,
  // exactly as cancel + push would.
  if (completion_event_ != kInvalidEventId &&
      engine_->reschedule(completion_event_, first_finish)) {
    return;
  }
  completion_event_ = engine_->schedule_at(first_finish, [this] { complete_next(); });
}

void FluidModel::complete_next() {
  // The engine solves before every pop, so next_slot_ is current.
  assert(!solve_pending_ && next_slot_ != kNoSlot);
  completion_event_ = kInvalidEventId;  // this event has been popped
  const std::uint32_t slot = next_slot_;
  settle();
  ELSIM_TRACE("activity '{}' complete at t={}", activities_[slot].spec.label, engine_->now());
  // elsim-lint: allow(hot-alloc) -- moves the slot's callback out; a move never allocates
  std::function<void()> callback = std::move(activities_[slot].on_complete);
  remove(activities_[slot].id, slot);
  solve_pending_ = true;
  if (callback) callback();
}

}  // namespace elastisim::sim
