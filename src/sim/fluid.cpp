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

/// Resource ids per block of the index.
constexpr std::size_t kBlock = 64;

/// A resource's share at the current level: the freeze test's left operand.
/// With weight_sum > kAbsEps it is also the operand of the water level.
double share_of(double avail, double weight_sum) {
  return std::max(avail, 0.0) / std::max(weight_sum, kAbsEps);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

ResourceId FluidModel::add_resource(std::string name, double capacity) {
  ELSIM_CHECK(capacity >= 0.0, "resource '{}' capacity must be non-negative, got {}", name,
              capacity);
  Resource resource;
  resource.name = std::move(name);
  resource.capacity = capacity;
  resources_.push_back(std::move(resource));
  // No users: both keys are +inf, so the block minima stand.
  level_key_.push_back(kTimeInfinity);
  saturation_key_.push_back(kTimeInfinity);
  if (block_level_.size() * kBlock < resources_.size()) {
    block_level_.push_back(kTimeInfinity);
    block_saturation_.push_back(kTimeInfinity);
    block_dirty_.push_back(0);
    dirty_blocks_.push_back(0);
  }
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FluidModel::set_capacity(ResourceId resource, double capacity) {
  assert(resource < resources_.size());
  ELSIM_CHECK(capacity >= 0.0, "resource '{}' capacity must be non-negative, got {}",
              resources_[resource].name, capacity);
  settle();
  resources_[resource].capacity = capacity;
  mark_dirty(resource);
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
  // The list holds the demands on this resource in insertion order, each
  // activity's in its demand order: the order of a walk over every live
  // activity's demands.
  double total = 0.0;
  for (std::uint32_t at = resources_[resource].head; at != kNoEntry; at = entries_[at].next) {
    total += entries_[at].weight * activities_[entries_[at].slot].rate;
  }
  return total;
}

// elsim-hot: every task launch starts its activity here.
ActivityId FluidModel::start(const ActivitySpec& spec, std::function<void()> on_complete) {
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
    // elsim-lint: allow(hot-container-growth) -- one slot per peak live activity; freed slots are reused, so it stops growing
    activities_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Activity& activity = activities_[slot];
  activity.id = id;
  // Copy-assignment reuses the slot's demand vector and label storage.
  activity.spec = spec;
  activity.remaining = std::max(spec.work, 0.0);
  activity.rate = 0.0;
  activity.frozen_in = 0;
  activity.candidate_in = 0;
  activity.on_complete = std::move(on_complete);
  // elsim-lint: allow(hot-container-growth) -- grows to the most live activities, then stops allocating
  order_.push_back(slot);
  if (activity.spec.demands.empty()) {
    // No shared resources: runs at its cap unconditionally.
    activity.rate = activity.spec.rate_cap;
  } else {
    for (const Demand& demand : activity.spec.demands) {
      std::uint32_t entry = free_entry_;
      if (entry == kNoEntry) {
        entry = static_cast<std::uint32_t>(entries_.size());
        // elsim-lint: allow(hot-container-growth) -- one entry per peak live demand; freed entries are reused, so it stops growing
        entries_.emplace_back();
      } else {
        free_entry_ = entries_[entry].next;
      }
      entries_[entry] = Entry{slot, kNoEntry, demand.weight};
      Resource& resource = resources_[demand.resource];
      (resource.tail == kNoEntry ? resource.head : entries_[resource.tail].next) = entry;
      resource.tail = entry;
      // Appending extends the left fold by one addition; a pending refold
      // recomputes it anyway.
      resource.fold += demand.weight;
      ++resource.users;
      mark_dirty(demand.resource);
    }
    if (!cap_floor_stale_) count_cap(activity.spec.rate_cap);
  }
  solve_pending_ = true;
  return id;
}

bool FluidModel::cancel(ActivityId id) {
  const auto at = position(id);
  if (at == order_.end()) return false;
  settle();
  remove(at);
  solve_pending_ = true;
  return true;
}

std::vector<std::uint32_t>::const_iterator FluidModel::position(ActivityId id) const {
  const auto at = std::lower_bound(
      order_.begin(), order_.end(), id,
      [this](std::uint32_t slot, ActivityId wanted) { return activities_[slot].id < wanted; });
  return at != order_.end() && id == activities_[*at].id ? at : order_.end();
}

const FluidModel::Activity* FluidModel::find(ActivityId id) const {
  const auto at = position(id);
  return at == order_.end() ? nullptr : &activities_[*at];
}

// elsim-hot: every completion and cancel frees its activity's slot here.
void FluidModel::remove(std::vector<std::uint32_t>::const_iterator at) {
  const std::uint32_t slot = *at;
  Activity& activity = activities_[slot];
  for (const Demand& demand : activity.spec.demands) {
    Resource& resource = resources_[demand.resource];
    // Unlinks both entries of an activity that demands the resource twice
    // (the second pass finds none), keeping the others in order.
    std::uint32_t prev = kNoEntry;
    for (std::uint32_t entry = resource.head; entry != kNoEntry;) {
      const std::uint32_t next = entries_[entry].next;
      if (slot == entries_[entry].slot) {
        (prev == kNoEntry ? resource.head : entries_[prev].next) = next;
        if (resource.tail == entry) resource.tail = prev;
        entries_[entry].next = free_entry_;
        free_entry_ = entry;
        --resource.users;
      } else {
        prev = entry;
      }
      entry = next;
    }
    resource.refold = true;
    mark_dirty(demand.resource);
  }
  // Caps are positive and never NaN, so "not above the floor" is "at it".
  if (!activity.spec.demands.empty() && !cap_floor_stale_ &&
      !(cap_floor_ < activity.spec.rate_cap) && --cap_floor_count_ == 0) {
    cap_floor_stale_ = true;
  }
  order_.erase(at);
  // The slot keeps its spec's storage for the next start; only the callback
  // (and whatever it captured) goes now.
  activity.on_complete = nullptr;
  // elsim-lint: allow(hot-container-growth) -- holds at most one entry per slot, so it stops growing with the slots
  free_slots_.push_back(slot);
}

bool FluidModel::is_active(ActivityId id) const { return position(id) != order_.end(); }

const ActivitySpec* FluidModel::spec(ActivityId id) const {
  const Activity* activity = find(id);
  return activity == nullptr ? nullptr : &activity->spec;
}

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

std::optional<std::string> FluidModel::check_invariants(bool kept_state) {
  solve_if_pending();
  // The by-id calls binary-search the insertion order, so its ids must rise.
  for (std::size_t i = 1; i < order_.size(); ++i) {
    const ActivityId before = activities_[order_[i - 1]].id;
    const ActivityId after = activities_[order_[i]].id;
    if (!(before < after)) {
      return util::fmt("fluid model: activity {} follows activity {} in insertion order", after,
                       before);
    }
  }
  // The fill's kept state is checked before the rates, so a run whose rates
  // break a bound has had its index cross-checked all the same.
  if (kept_state) {
    if (auto error = check_kept_state()) return error;
  }
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
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
    const double used = consumption(static_cast<ResourceId>(r));
    if (!leq_tol(used, resource.capacity)) {
      return util::fmt("fluid resource '{}' oversubscribed: consumption {} > capacity {}",
                       resource.name, used, resource.capacity);
    }
  }
  return std::nullopt;
}

std::optional<std::string> FluidModel::check_kept_state() const {
  // One pass over every live demand, in insertion order, re-derives each
  // resource's user list and fold entry by entry.
  struct Derived {
    double fold = 0.0;
    std::uint32_t users = 0;
    std::uint32_t next = kNoEntry;  // the list entry the next demand must be
    std::uint32_t last = kNoEntry;  // the list entry the last demand was
  };
  std::vector<Derived> derived(resources_.size());
  for (std::size_t r = 0; r < resources_.size(); ++r) derived[r].next = resources_[r].head;
  double cap_floor = kTimeInfinity;
  std::size_t at_floor = 0;
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
    for (const Demand& demand : activity.spec.demands) {
      Derived& seen = derived[demand.resource];
      const Entry* entry = seen.next == kNoEntry ? nullptr : &entries_[seen.next];
      if (entry == nullptr || entry->slot != slot || !same_bits(entry->weight, demand.weight)) {
        return util::fmt("fluid resource '{}': user list entry {} is not activity {}'s demand",
                         resources_[demand.resource].name, seen.users, activity.id);
      }
      ++seen.users;
      seen.last = seen.next;
      seen.next = entry->next;
      seen.fold += demand.weight;
    }
    if (activity.spec.demands.empty()) continue;
    const double cap = activity.spec.rate_cap;
    at_floor = cap < cap_floor ? 1 : at_floor + !(cap_floor < cap);
    cap_floor = std::min(cap_floor, cap);
  }
  if (!cap_floor_stale_ && (!same_bits(cap_floor_, cap_floor) || cap_floor_count_ != at_floor)) {
    return util::fmt("fluid model: kept lowest rate cap {} ({} at it), the live activities' {} ({})",
                     cap_floor_, cap_floor_count_, cap_floor, at_floor);
  }
  std::size_t dirty = 0;
  for (std::size_t b = 0; b < block_level_.size(); ++b) {
    // A block without a dirty resource holds the minima of its keys.
    double block_level = kTimeInfinity;
    double block_saturation = kTimeInfinity;
    bool pending = block_dirty_[b] != 0;
    for (std::size_t r = b * kBlock; r < std::min(resources_.size(), (b + 1) * kBlock); ++r) {
      const Resource& resource = resources_[r];
      const Derived& d = derived[r];
      if (d.next != kNoEntry || resource.tail != d.last || d.users != resource.users) {
        return util::fmt("fluid resource '{}' lists {} users, the live activities {}",
                         resource.name, resource.users, d.users);
      }
      if (resource.pool != kNoPool) {
        return util::fmt("fluid resource '{}' pool still drawn after the solve", resource.name);
      }
      if (!resource.refold && !same_bits(resource.fold, d.fold)) {
        return util::fmt("fluid resource '{}' keeps weight sum {}, the live demands {}",
                         resource.name, resource.fold, d.fold);
      }
      if (level_key_[r] < block_level) block_level = level_key_[r];
      if (saturation_key_[r] < block_saturation) block_saturation = saturation_key_[r];
      if (resource.dirty) {
        ++dirty;
        pending = true;
        continue;
      }
      // Without users the fold is 0.0, so both keys are +inf.
      double level = kTimeInfinity;
      double saturation = kTimeInfinity;
      if (resource.users > 0) {
        saturation = share_of(resource.capacity, resource.fold);
        if (resource.fold > kAbsEps) level = saturation;
      }
      if (!same_bits(level_key_[r], level) || !same_bits(saturation_key_[r], saturation)) {
        return util::fmt("fluid resource '{}' index keys {} / {}, derived {} / {}", resource.name,
                         level_key_[r], saturation_key_[r], level, saturation);
      }
    }
    if (!pending && (!same_bits(block_level_[b], block_level) ||
                     !same_bits(block_saturation_[b], block_saturation))) {
      return util::fmt("fluid index block {} minima {} / {}, derived {} / {}", b,
                       block_level_[b], block_saturation_[b], block_level, block_saturation);
    }
  }
  if (dirty != dirty_.size() || !pools_.empty()) {
    return util::fmt("fluid model: {} resources flagged dirty, {} queued, {} pools drawn", dirty,
                     dirty_.size(), pools_.size());
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

void FluidModel::count_cap(double cap) {
  if (cap < cap_floor_) {
    cap_floor_ = cap;
    cap_floor_count_ = 1;
  } else if (!(cap_floor_ < cap)) {  // caps are never NaN: this is "at the floor"
    ++cap_floor_count_;
  }
}

void FluidModel::mark_dirty(ResourceId resource) {
  Resource& r = resources_[resource];
  if (r.dirty) return;
  r.dirty = true;
  // elsim-lint: allow(hot-container-growth) -- the dirty flag admits each resource once, so it stops growing at the resource count
  dirty_.push_back(resource);
}

FluidModel::Pool FluidModel::pool_of(ResourceId resource) const {
  const Resource& r = resources_[resource];
  return r.pool == kNoPool ? Pool{r.capacity, r.fold, r.users, resource} : pools_[r.pool];
}

void FluidModel::flush_dirty() {
  std::size_t blocks = 0;
  for (const ResourceId id : dirty_) {
    Resource& resource = resources_[id];
    resource.dirty = false;
    if (resource.refold) {
      // A user left: the sum a full scan starts from is the left fold of the
      // remaining weights, which no subtraction reproduces.
      double fold = 0.0;
      for (std::uint32_t at = resource.head; at != kNoEntry; at = entries_[at].next) {
        fold += entries_[at].weight;
      }
      resource.fold = fold;
      resource.refold = false;
      demands_examined_ += resource.users;
    }
    ++demands_examined_;
    const Pool pool = pool_of(id);
    const double share = share_of(pool.avail, pool.weight_sum);
    level_key_[id] = pool.weight_sum > kAbsEps ? share : kTimeInfinity;
    saturation_key_[id] = pool.unfrozen > 0 ? share : kTimeInfinity;
    const std::size_t block = id / kBlock;
    if (block_dirty_[block] == 0) {
      block_dirty_[block] = 1;
      dirty_blocks_[blocks++] = static_cast<std::uint32_t>(block);
    }
  }
  dirty_.clear();
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t block = dirty_blocks_[i];
    block_dirty_[block] = 0;
    // Strict comparisons from +inf, in ascending id: the leftmost of equal
    // keys wins (0.0 against -0.0) and a NaN key never does.
    double level = kTimeInfinity;
    double saturation = kTimeInfinity;
    const std::size_t end = std::min(resources_.size(), (block + 1) * kBlock);
    for (std::size_t r = block * kBlock; r < end; ++r) {
      if (level_key_[r] < level) level = level_key_[r];
      if (saturation_key_[r] < saturation) saturation = saturation_key_[r];
    }
    block_level_[block] = level;
    block_saturation_[block] = saturation;
  }
}

void FluidModel::freeze(Activity& activity) {
  activity.frozen_in = rebalance_count_;
  for (const Demand& demand : activity.spec.demands) {
    Resource& resource = resources_[demand.resource];
    if (resource.pool == kNoPool) {
      resource.pool = static_cast<std::uint32_t>(pools_.size());
      // elsim-lint: allow(hot-container-growth) -- cleared per solve, never shrunk: it grows to the most pools one solve draws, then stops allocating
      pools_.push_back({resource.capacity, resource.fold, resource.users, demand.resource});
    }
    Pool& pool = pools_[resource.pool];
    pool.avail -= demand.weight * activity.rate;
    pool.weight_sum -= demand.weight;
    --pool.unfrozen;
    mark_dirty(demand.resource);
  }
  demands_examined_ += activity.spec.demands.size();
}

void FluidModel::list_users(ResourceId resource, ActivityId after) {
  const Resource& r = resources_[resource];
  for (std::uint32_t at = r.head; at != kNoEntry; at = entries_[at].next) {
    Activity& activity = activities_[entries_[at].slot];
    if (activity.frozen_in != rebalance_count_ && activity.id > after) {
      activity.candidate_in = round_;
    }
  }
  demands_examined_ += r.users;
}

bool FluidModel::saturated(const Activity& activity, double lambda) {
  for (const Demand& demand : activity.spec.demands) {
    ++demands_examined_;
    const Pool pool = pool_of(demand.resource);
    if (leq_tol(share_of(pool.avail, pool.weight_sum), lambda)) return true;
  }
  return false;
}

void FluidModel::restore_pools() {
  for (const Pool& pool : pools_) {
    resources_[pool.resource].pool = kNoPool;
    mark_dirty(pool.resource);
  }
  demands_examined_ += pools_.size();
  pools_.clear();
}

// elsim-hot: the progressive-filling solve; runs once per batch of changes.
void FluidModel::solve() {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFluidSolve);
  solve_pending_ = false;
  ++rebalance_count_;
  activities_touched_ += order_.size();
  if (cap_floor_stale_) {
    // The last activity at the lowest cap left: refold the floor.
    cap_floor_ = kTimeInfinity;
    cap_floor_count_ = 0;
    for (std::uint32_t slot : order_) {
      if (!activities_[slot].spec.demands.empty()) count_cap(activities_[slot].spec.rate_cap);
    }
    cap_floor_stale_ = false;
  }

  // Progressive filling: raise a common water level; freeze activities at
  // their cap or when a resource they use saturates. The first round's list
  // is every live activity in insertion order, where the ones without
  // demands are skipped: they got their cap as their rate at start().
  const std::vector<std::uint32_t>* unfrozen = &order_;
  std::vector<std::uint32_t>* still_unfrozen = &scratch_next_unfrozen_;
  std::vector<std::uint32_t>* spare = &scratch_unfrozen_;
  std::vector<std::uint32_t>& frozen = scratch_frozen_;
  still_unfrozen->reserve(order_.size());
  spare->reserve(order_.size());
  frozen.reserve(order_.size());
  double lambda_cap = cap_floor_;
  while (!unfrozen->empty()) {
    flush_dirty();
    // The resource-limited level: the leftmost minimum of the water-level
    // keys, block by block, as a scan over every resource in ascending id
    // takes it. The order is part of the result: std::min keeps its first
    // operand when the two are equal (0.0 against -0.0).
    double lambda_res = kTimeInfinity;
    for (const double level : block_level_) {
      if (level < lambda_res) lambda_res = level;
    }
    const double lambda = std::min(lambda_res, lambda_cap);
    ++round_;

    // Split the round's list into the activities that freeze at this level
    // and the rest, folding the next round's lambda_cap over the rest.
    still_unfrozen->clear();
    double next_lambda_cap = kTimeInfinity;
    std::size_t frozen_this_round = 0;
    if (lambda_cap <= lambda_res) {
      // Cap-binding: the freezes depend on the caps alone, so decide them all
      // before touching the pools. A round that freezes every remaining
      // activity is the last one, and nothing reads the pools after it.
      frozen.clear();
      for (std::uint32_t slot : *unfrozen) {
        Activity& activity = activities_[slot];
        if (activity.spec.demands.empty()) continue;
        if (leq_tol(activity.spec.rate_cap, lambda)) {
          activity.rate = std::min(lambda, activity.spec.rate_cap);
          frozen.push_back(slot);
        } else {
          still_unfrozen->push_back(slot);
          next_lambda_cap = std::min(next_lambda_cap, activity.spec.rate_cap);
        }
      }
      if (still_unfrozen->empty()) break;
      // The pool updates in the order the frozen activities were listed, as
      // freezing them one at a time would apply them.
      for (std::uint32_t slot : frozen) freeze(activities_[slot]);
      frozen_this_round = frozen.size();
    } else {
      // Resource-binding: an activity freezes when one of its resources is
      // saturated at this level, which each freeze before it can change, so
      // decide and draw down one activity at a time, in list order. Only the
      // users of a saturated resource can pass the test: those of resources
      // saturated now, and those after a freeze that saturates one of its
      // resources (the users before it were tested already).
      const double threshold = lambda * (1.0 + kRelEps) + kAbsEps;  // leq_tol(key, lambda)
      for (std::size_t b = 0; b < block_saturation_.size(); ++b) {
        if (!(block_saturation_[b] <= threshold)) continue;
        const std::size_t end = std::min(resources_.size(), (b + 1) * kBlock);
        for (std::size_t r = b * kBlock; r < end; ++r) {
          if (saturation_key_[r] <= threshold) {
            list_users(static_cast<ResourceId>(r), kInvalidActivityId);
          }
        }
      }
      // Within the round, a saturation key at or under the threshold marks a
      // listed resource: the keys read fresh at its start, and a resource
      // listed after a freeze (drawn, so dirty, and re-keyed next round)
      // has its key set to -inf.
      for (std::uint32_t slot : *unfrozen) {
        Activity& activity = activities_[slot];
        if (activity.spec.demands.empty()) continue;
        if (activity.candidate_in == round_ && saturated(activity, lambda)) {
          activity.rate = std::min(lambda, activity.spec.rate_cap);
          freeze(activity);
          ++frozen_this_round;
          for (const Demand& demand : activity.spec.demands) {
            const Pool& pool = pools_[resources_[demand.resource].pool];
            if (!(saturation_key_[demand.resource] <= threshold) && pool.unfrozen > 0 &&
                leq_tol(share_of(pool.avail, pool.weight_sum), lambda)) {
              saturation_key_[demand.resource] = -kTimeInfinity;
              list_users(demand.resource, activity.id);
            }
          }
        } else {
          still_unfrozen->push_back(slot);
          next_lambda_cap = std::min(next_lambda_cap, activity.spec.rate_cap);
        }
      }
    }
    if (frozen_this_round == 0) {
      // Numerical corner: make progress by freezing everything at lambda.
      for (std::uint32_t slot : *still_unfrozen) {
        Activity& activity = activities_[slot];
        activity.rate = std::min(lambda, activity.spec.rate_cap);
      }
      break;
    }
    unfrozen = still_unfrozen;  // ping-pong the scratch buffers, no realloc
    std::swap(still_unfrozen, spare);
    lambda_cap = next_lambda_cap;
  }
  restore_pools();

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
  remove(position(activities_[slot].id));
  solve_pending_ = true;
  if (callback) callback();
}

}  // namespace elastisim::sim
