// Fluid resource-sharing model (the SimGrid-LMM substitute).
//
// Resources have finite capacities (a node's FLOP/s, a link's bytes/s, the
// PFS's aggregate bytes/s). Activities carry a total amount of work and a
// set of weighted demands on resources: an activity progressing at rate x
// consumes weight*x of each resource it touches. Rates are assigned by
// *bounded max-min fairness* via progressive filling: a common "water level"
// rises until either a resource saturates (freezing the activities through
// it) or an activity reaches its rate cap.
//
// Whenever the active set or a capacity changes, the model settles accrued
// progress and marks a solve pending; it does not solve yet. The pending
// solve runs once for the whole batch of changes, just before the engine
// next draws a FIFO sequence number (schedule_at, schedule_in, reschedule),
// tests or pops its queue, or reports pending_events(), and whenever a rate
// is read (rate, remaining_work, consumption, check_invariants). Simulated
// time never advances over a pending solve; settle() checks it. Within one
// instant a solve depends only on the live activities, in insertion order,
// and the capacities, so solving once after the last change gives the rates
// a solve after every change would end with.
//
// The model owns one engine event for all of its completions. Each solve
// moves it (Engine::reschedule) to the earliest finish time, ties going to
// the activity inserted first, and it fires exactly where the first of one
// event per activity, all rescheduled in insertion order by the same solve,
// would have fired. This reproduces the contention-aware completion times
// that the original system obtains from SimGrid's fluid models.
//
// The fill is incremental (SimGrid's selective update) and bit-identical to
// a full scan over every resource in every filling round. Across solves each
// resource keeps its users, a list of (activity slot, weight) in insertion
// order, and the in-order fold of those weights; a two-level minimum index
// (per resource, then per block of 64 resource ids, the leftmost value
// winning ties) holds each resource's water-level key and saturation key.
// start, cancel, a completion and set_capacity only mark the resources they
// touch dirty. Each filling round first re-keys its dirty resources and
// re-minimises their blocks once, then reads the resource-limited level from
// the block minima; a resource-binding round tests, in insertion order, only
// the users of resources that are saturated at the round's start or become
// saturated through an earlier freeze in the round. A solve restores the
// pools it drew down and marks them dirty for the next one.
// consumption(resource) sums that resource's own list.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace elastisim::sim {

class Engine;

using ResourceId = std::uint32_t;
using ActivityId = std::uint64_t;
inline constexpr ActivityId kInvalidActivityId = 0;

/// One weighted demand: the owning activity at rate x consumes weight*x of
/// this resource.
struct Demand {
  ResourceId resource;
  double weight = 1.0;
};

/// Immutable-per-start description of an activity.
struct ActivitySpec {
  /// Total work in resource units (FLOPs for compute, bytes for transfers).
  double work = 0.0;
  /// Weighted demands; may be empty, in which case the activity progresses
  /// at exactly `rate_cap` (which must then be finite and positive).
  std::vector<Demand> demands;
  /// Upper bound on the activity's rate (e.g. a rank cannot exceed the speed
  /// of the cores it owns). Infinity means unbounded.
  double rate_cap = kTimeInfinity;
  /// Debug label surfaced in traces and error messages.
  std::string label;
};

class FluidModel {
 public:
  explicit FluidModel(Engine& engine) : engine_(&engine) {}

  FluidModel(const FluidModel&) = delete;
  FluidModel& operator=(const FluidModel&) = delete;

  /// Registers a resource with the given capacity (units/s). Capacity zero is
  /// legal (activities through it stall); a negative or NaN capacity throws
  /// util::CheckError.
  ResourceId add_resource(std::string name, double capacity);

  /// Adjusts capacity at runtime (e.g. throttled node) and marks a solve
  /// pending. Same capacity rules as add_resource().
  void set_capacity(ResourceId resource, double capacity);

  double capacity(ResourceId resource) const;
  const std::string& resource_name(ResourceId resource) const;
  std::size_t resource_count() const { return resources_.size(); }

  /// Total consumption currently placed on a resource (<= capacity + eps):
  /// weight * rate summed over the resource's users in insertion order, when
  /// called. Runs a pending solve first.
  double consumption(ResourceId resource);

  /// Starts an activity; `on_complete` fires from the engine loop when the
  /// work is exhausted. Work <= 0 completes at the current time (the callback
  /// still fires asynchronously, never inside start()). A NaN work, a rate
  /// cap that is not positive, or an infinite cap on an activity without
  /// demands throws util::CheckError. The spec is copied into a slot that
  /// keeps its storage across activities, so a caller relaunching a stored
  /// spec allocates nothing once the slot has held one as large.
  ActivityId start(const ActivitySpec& spec, std::function<void()> on_complete);

  /// Aborts an activity; its completion callback will not fire.
  /// Returns false if the activity already completed or was cancelled.
  bool cancel(ActivityId activity);

  /// True if the activity is still running.
  bool is_active(ActivityId activity) const;

  /// Remaining work of a running activity (settled to the current instant);
  /// 0 for completed/cancelled/unknown ids. Runs a pending solve first.
  double remaining_work(ActivityId activity);

  /// Current fair-share rate of a running activity; 0 for completed/
  /// cancelled/unknown ids. Runs a pending solve first.
  double rate(ActivityId activity);

  /// The spec a running activity was started with; nullptr for completed/
  /// cancelled/unknown ids. Valid until the next start() or removal.
  const ActivitySpec* spec(ActivityId activity) const;

  std::size_t active_count() const { return order_.size(); }

  /// Runs the pending solve, if any. The engine calls this before every
  /// sequence-number draw and every pop.
  // elsim-hot: the pending-solve check, one branch per push, reschedule and pop.
  void solve_if_pending() {
    if (solve_pending_) solve();
  }

  /// Number of solves performed, one per batch of changes (for performance
  /// benches).
  std::uint64_t rebalance_count() const { return rebalance_count_; }

  /// Cumulative activities examined across all solves — the work metric
  /// behind the "make the solve incremental" optimization: divide by
  /// rebalance_count() for the mean activities touched per solve.
  std::uint64_t activities_touched() const { return activities_touched_; }

  /// Cumulative work of the incremental fill, in demand entries and resource
  /// keys: list entries refolded after a removal, users listed when their
  /// resource saturates, demands tested and pools drawn down by a freeze, and
  /// one per resource re-keyed or restored. It follows the changes between
  /// solves, not the live count.
  std::uint64_t demands_examined() const { return demands_examined_; }

  /// Total activities ever started (allocation tally for the profiler).
  std::uint64_t activities_started() const { return next_activity_id_ - 1; }

  /// Validates internal consistency: every activity's remaining work within
  /// [0, total work] (progress in [0, 1]), rates non-negative, finite, and
  /// within their caps, and per-resource consumption within capacity. With
  /// `kept_state`, it first re-derives the fill's kept state from the live
  /// activities: each resource's users and their fold, the lowest rate cap,
  /// the pools at rest, and every index key and block minimum not awaiting a
  /// re-key. Returns a description of the first broken invariant, or nullopt
  /// when all hold (core::InvariantChecker under --validate). Runs a pending
  /// solve first, so it checks solved rates.
  std::optional<std::string> check_invariants(bool kept_state);

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;
  static constexpr std::uint32_t kNoEntry = 0xffffffffU;
  static constexpr std::uint32_t kNoPool = 0xffffffffU;

  /// One demand entry in a resource's list of users: the lists share one
  /// pool and link their entries in insertion order.
  struct Entry {
    std::uint32_t slot;
    std::uint32_t next;
    double weight;
  };

  struct Resource {
    std::string name;
    double capacity = 0.0;
    /// The left fold of the users' weights, in list order, from 0.0: the
    /// weight sum a full scan starts each solve from.
    double fold = 0.0;
    /// The demand entries of the live activities on this resource, first and
    /// last in insertion order (an activity demanding it twice has two).
    std::uint32_t head = kNoEntry;
    std::uint32_t tail = kNoEntry;
    std::uint32_t users = 0;
    /// The resource's entry in pools_ while this solve draws it down, else
    /// kNoPool: its pool is then its capacity, fold and users.
    std::uint32_t pool = kNoPool;
    /// Queued for a re-key at the next filling round.
    bool dirty = false;
    /// A user left the list, so `fold` is refolded at the re-key.
    bool refold = false;
  };

  /// A resource's pool while a solve draws it down.
  struct Pool {
    /// Capacity less what the activities frozen so far consume.
    double avail;
    /// The fold less the weights frozen so far.
    double weight_sum;
    /// Users not yet frozen.
    std::uint32_t unfrozen;
    ResourceId resource;
  };

  struct Activity {
    ActivityId id = kInvalidActivityId;
    ActivitySpec spec;
    double remaining = 0.0;
    double rate = 0.0;
    /// The solve that froze this activity's rate (its rebalance count).
    std::uint64_t frozen_in = 0;
    /// The resource-binding round that made it a candidate for a freeze.
    std::uint64_t candidate_in = 0;
    std::function<void()> on_complete;
  };

  /// Accrues progress since the last settle instant.
  void settle();
  /// Recomputes all rates (progressive filling) and moves the completion
  /// event to the earliest finish.
  void solve();
  /// The completion event's callback: completes the activity the last solve
  /// chose.
  void complete_next();
  /// The position of `id` in order_, or order_.end() for completed/
  /// cancelled/unknown ids: a binary search, since insertion order is
  /// ascending id.
  std::vector<std::uint32_t>::const_iterator position(ActivityId id) const;
  /// The live slot of `id`, or nullptr for completed/cancelled/unknown ids.
  const Activity* find(ActivityId id) const;
  /// Takes a live activity out of the model and frees its slot, which keeps
  /// its demand vector's and label's capacity for the next start.
  void remove(std::vector<std::uint32_t>::const_iterator at);
  /// The kept-state half of check_invariants().
  std::optional<std::string> check_kept_state() const;

  /// Counts a rate cap into the lowest cap over the activities with demands
  /// and its multiplicity.
  void count_cap(double cap);
  /// Queues a resource for a re-key at the next filling round.
  void mark_dirty(ResourceId resource);
  /// Re-keys the dirty resources and re-minimises their blocks.
  void flush_dirty();
  /// Freezes a live activity at its already-set rate and draws its demands
  /// from the pools.
  void freeze(Activity& activity);
  /// Makes the unfrozen users of `resource` inserted after `after` candidates
  /// of the current round.
  void list_users(ResourceId resource, ActivityId after);
  /// True when one of the activity's resources is saturated at `lambda`:
  /// the freeze test of a resource-binding round.
  bool saturated(const Activity& activity, double lambda);
  /// A resource's pool at this point of the solve.
  Pool pool_of(ResourceId resource) const;
  /// Restores the pools this solve drew down.
  void restore_pools();

  Engine* engine_;
  std::vector<Resource> resources_;
  /// Every resource's user entries; a freed entry heads free_entry_'s chain.
  std::vector<Entry> entries_;
  std::uint32_t free_entry_ = kNoEntry;
  /// Dense activity slots; a freed slot goes on free_slots_ for reuse.
  std::vector<Activity> activities_;
  std::vector<std::uint32_t> free_slots_;
  /// Live slots in insertion order, for deterministic filling. Ids are
  /// handed out in increasing order, so this is ascending id too, and the
  /// by-id calls binary-search it.
  std::vector<std::uint32_t> order_;
  ActivityId next_activity_id_ = 1;
  SimTime last_settle_ = 0.0;
  /// Set by every change, cleared by solve().
  bool solve_pending_ = false;
  /// The one pending completion event, or kInvalidEventId while every live
  /// activity is stalled (or none is live).
  EventId completion_event_ = kInvalidEventId;
  /// The slot whose activity completion_event_ completes.
  std::uint32_t next_slot_ = kNoSlot;
  std::uint64_t rebalance_count_ = 0;
  std::uint64_t activities_touched_ = 0;
  std::uint64_t demands_examined_ = 0;
  /// The lowest rate cap over the live activities with demands, and how many
  /// have it; refolded at the next solve once the last of those leaves.
  double cap_floor_ = kTimeInfinity;
  std::size_t cap_floor_count_ = 0;
  bool cap_floor_stale_ = false;
  /// Filling rounds so far, across solves: the stamp of the current round.
  std::uint64_t round_ = 0;
  /// The index. Per resource, its water-level key (max(avail, 0) /
  /// weight_sum, or +inf while weight_sum <= kAbsEps) and its saturation key
  /// (max(avail, 0) / max(weight_sum, kAbsEps), or +inf without unfrozen
  /// users); per block of 64 resource ids, the minimum of each. Current
  /// except for the dirty resources and their blocks.
  std::vector<double> level_key_;
  std::vector<double> saturation_key_;
  std::vector<double> block_level_;
  std::vector<double> block_saturation_;
  /// The dirty resources, then the blocks a re-key touched; a flag keeps an
  /// id from entering twice, and dirty_blocks_ has room for every block.
  std::vector<ResourceId> dirty_;
  std::vector<std::uint32_t> dirty_blocks_;
  std::vector<std::uint8_t> block_dirty_;
  /// The pools this solve drew down, in the order it first drew them.
  std::vector<Pool> pools_;
  /// Scratch lists for the rounds after the first, reused across solves.
  std::vector<std::uint32_t> scratch_unfrozen_;
  std::vector<std::uint32_t> scratch_next_unfrozen_;
  std::vector<std::uint32_t> scratch_frozen_;
};

}  // namespace elastisim::sim
