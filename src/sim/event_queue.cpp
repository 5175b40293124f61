#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace elastisim::sim {

namespace {

constexpr std::size_t kArity = 4;

std::size_t parent_of(std::size_t pos) { return (pos - 1) / kArity; }

}  // namespace

// elsim-hot: every new event passes through here.
EventId EventQueue::push(SimTime when, Callback callback) {
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    ELSIM_CHECK(slots_.size() < kNoSlot, "event queue exhausted its {} slots", slots_.size());
    slot = static_cast<std::uint32_t>(slots_.size());
    // elsim-lint: allow(hot-container-growth) -- amortised; freed slots are reused, so the vector only grows with the peak live count
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].link;
  }
  slots_[slot].callback = std::move(callback);
  // elsim-lint: allow(hot-container-growth) -- amortised; pops keep the capacity, so the heap only grows with the peak live count
  heap_.push_back(Entry{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++pushes_;
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
  return (static_cast<EventId>(slots_[slot].generation) << 32) | (slot + 1);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return false;
  // Destroy the callback only after the queue is consistent again: its
  // captures' destructors may run arbitrary code.
  const Callback callback = std::move(slots_[slot].callback);
  const std::size_t pos = slots_[slot].link;
  release(slot);
  remove_at(pos);
  return true;
}

// elsim-hot: every fluid solve moves the fluid model's completion event here.
bool EventQueue::reschedule(EventId id, SimTime when) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return false;
  const std::size_t pos = slots_[slot].link;
  heap_[pos].time = when;
  heap_[pos].seq = next_seq_++;
  restore(pos);
  return true;
}

// elsim-hot: every dispatched event passes through here.
std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  ELSIM_CHECK(!heap_.empty(), "pop() on an empty event queue");
  const Entry top = heap_.front();
  Callback callback = std::move(slots_[top.slot].callback);
  release(top.slot);
  remove_at(0);
  ++pops_;
  return {top.time, std::move(callback)};
}

std::uint32_t EventQueue::live_slot(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id) - 1U;  // id 0 wraps to kNoSlot
  if (slot >= slots_.size()) return kNoSlot;
  // A freed slot's generation has moved past every id issued for it.
  const std::uint32_t generation = slots_[slot].generation;
  return generation == static_cast<std::uint32_t>(id >> 32) ? slot : kNoSlot;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& freed = slots_[slot];
  ++freed.generation;
  freed.link = free_head_;
  free_head_ = slot;
}

void EventQueue::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, last);
  restore(pos);
}

void EventQueue::restore(std::size_t pos) {
  if (pos > 0 && heap_[pos].before(heap_[parent_of(pos)])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const Entry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = parent_of(pos);
    if (!entry.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::sift_down(std::size_t pos) {
  const Entry entry = heap_[pos];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= size) break;
    const std::size_t last = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (heap_[child].before(heap_[best])) best = child;
    }
    if (!heap_[best].before(entry)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

}  // namespace elastisim::sim
