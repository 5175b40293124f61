// Time-ordered event queue with stable FIFO tie-breaking and in-place
// cancellation and rescheduling.
//
// Events scheduled for the same instant fire in scheduling order, which makes
// simulations deterministic regardless of heap internals: every entry is
// keyed by (time, seq), where seq is a counter drawn on each push() and each
// reschedule(), so the key order is total and the pop order is fixed by it.
//
// The heap is an indexed 4-ary min-heap of small {time, seq, slot} entries.
// Each pending event owns a slot in a dense vector that holds its callback,
// its current heap position and a generation; freed slots are threaded onto
// an intrusive free list and reused. cancel() and reschedule() find the entry
// through the slot and restore the heap in place, so the heap only ever holds
// live events. An EventId is `generation << 32 | (slot + 1)`; the generation
// is bumped whenever a slot is freed, so an id that fired or was cancelled
// does not reach the slot's next event (until the 32-bit generation of that
// one slot wraps).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace elastisim::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Enqueues a callback at absolute time `when`. Returns a handle usable
  /// with cancel() and reschedule(). `when` may equal the current simulation
  /// time.
  EventId push(SimTime when, Callback callback);

  /// Cancels a pending event and releases its callback. Cancelling an
  /// already-fired or already-cancelled event is a harmless no-op. Returns
  /// true if the event was still pending.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `when`. The event takes a fresh
  /// sequence number from the counter push() uses, so it orders exactly as
  /// cancel(id) followed by push(when, callback) would, but keeps its id and
  /// callback. Returns false (and does nothing) if the event already fired or
  /// was cancelled.
  bool reschedule(EventId id, SimTime when);

  /// True if no live events remain.
  bool empty() const { return heap_.empty(); }

  /// Number of live (non-cancelled, non-fired) events.
  std::size_t size() const { return heap_.size(); }

  // Lifetime tallies for the profiler and the perf-trajectory benches; kept
  // always-on (one increment / compare per operation, negligible next to the
  // heap work they count).

  /// Total push() calls; reschedules move an event and are not counted.
  std::uint64_t pushes() const { return pushes_; }

  /// Total live events ever popped (cancellations excluded).
  std::uint64_t pops() const { return pops_; }

  /// High-water mark of the live event count.
  std::size_t peak_size() const { return peak_size_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  SimTime next_time() const { return heap_.empty() ? kTimeInfinity : heap_.front().time; }

  /// Removes and returns the earliest live event's callback, along with its
  /// time. Throws util::CheckError when the queue is empty.
  std::pair<SimTime, Callback> pop();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    /// The heap key: earlier time first, then lower sequence number (FIFO).
    bool before(const Entry& other) const {
      // elsim-lint: allow(float-equality) -- heap ordering wants exact times
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  struct Slot {
    Callback callback;
    /// Heap position while the event is pending; the next free slot (or
    /// kNoSlot) while the slot is on the free list.
    std::uint32_t link = 0;
    std::uint32_t generation = 0;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  /// The slot of a pending event, or kNoSlot if `id` fired, was cancelled or
  /// was never issued.
  std::uint32_t live_slot(EventId id) const;
  /// Bumps the slot's generation and puts it on the free list.
  void release(std::uint32_t slot);
  /// Removes the heap entry at `pos`, refilling the hole from the back.
  void remove_at(std::size_t pos);
  /// Restores the heap order around an entry whose key changed at `pos`.
  void restore(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].link = static_cast<std::uint32_t>(pos);
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace elastisim::sim
