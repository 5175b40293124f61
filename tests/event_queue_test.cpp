#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/rng.h"

namespace elastisim::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(1.0, [&] { order.push_back(1); });
  const EventId id = queue.push(2.0, [&] { order.push_back(2); });
  queue.push(3.0, [&] { order.push_back(3); });
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 2u);
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  queue.push(5.0, [] {});
  queue.cancel(id);
  EXPECT_DOUBLE_EQ(queue.next_time(), 5.0);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue queue;
  queue.push(4.25, [] {});
  auto [time, callback] = queue.pop();
  EXPECT_DOUBLE_EQ(time, 4.25);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue queue;
  std::vector<double> times;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    queue.push(t, [&times, t] { times.push_back(t); });
  }
  while (!queue.empty()) queue.pop().second();
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW(queue.pop(), util::CheckError);
  queue.push(1.0, [] {});
  queue.pop();
  EXPECT_THROW(queue.pop(), util::CheckError);
  const EventId id = queue.push(2.0, [] {});
  queue.cancel(id);
  EXPECT_THROW(queue.pop(), util::CheckError);
}

TEST(EventQueue, RescheduleMovesEventAndTakesFreshSeq) {
  EventQueue queue;
  std::vector<int> order;
  const EventId a = queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  queue.push(3.0, [&] { order.push_back(3); });
  // Same time as event 2 but a later seq: fires after it (FIFO), as a
  // cancel + push would.
  EXPECT_TRUE(queue.reschedule(a, 2.0));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pushes(), 3u);  // a reschedule is not a push
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(queue.pops(), 3u);
  EXPECT_EQ(queue.peak_size(), 3u);
}

TEST(EventQueue, RescheduleEarlierAndLater) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(queue.push(10.0 + i, [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(queue.reschedule(ids[19], 0.5));  // last becomes first
  EXPECT_TRUE(queue.reschedule(ids[0], 100.0));  // first becomes last
  EXPECT_DOUBLE_EQ(queue.next_time(), 0.5);
  while (!queue.empty()) queue.pop().second();
  std::vector<int> expected = {19};
  for (int i = 1; i < 19; ++i) expected.push_back(i);
  expected.push_back(0);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, StaleIdsMissReusedSlots) {
  EventQueue queue;
  std::vector<int> fired;
  // The low 32 bits of an id name its slot; the high bits its generation.
  const auto slot_of = [](EventId id) { return id & 0xffffffffU; };
  const EventId popped = queue.push(1.0, [&] { fired.push_back(1); });
  queue.pop().second();
  const EventId reused_after_pop = queue.push(2.0, [&] { fired.push_back(2); });
  EXPECT_EQ(slot_of(reused_after_pop), slot_of(popped));
  EXPECT_NE(reused_after_pop, popped);
  EXPECT_FALSE(queue.cancel(popped));
  EXPECT_FALSE(queue.reschedule(popped, 0.0));

  const EventId cancelled = queue.push(3.0, [&] { fired.push_back(3); });
  EXPECT_TRUE(queue.cancel(cancelled));
  const EventId reused_after_cancel = queue.push(4.0, [&] { fired.push_back(4); });
  EXPECT_EQ(slot_of(reused_after_cancel), slot_of(cancelled));
  EXPECT_NE(reused_after_cancel, cancelled);
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_FALSE(queue.reschedule(cancelled, 0.0));
  EXPECT_FALSE(queue.cancel(kInvalidEventId));
  EXPECT_FALSE(queue.reschedule(kInvalidEventId, 0.0));

  EXPECT_EQ(queue.size(), 2u);
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
}

// The lazy-deletion queue the indexed heap replaced, kept as the reference:
// a priority_queue of (time, seq, id) entries plus an id -> callback table.
// Cancelled entries stay in the heap and are skipped on pop; a reschedule is
// a cancel followed by a push of the same callback.
class LazyDeletionQueue {
 public:
  using Callback = std::function<void()>;

  EventId push(SimTime when, Callback callback) {
    const EventId id = next_id_++;
    heap_.push(Entry{when, next_seq_++, id});
    callbacks_.emplace(id, std::move(callback));
    if (++live_count_ > peak_size_) peak_size_ = live_count_;
    return id;
  }

  bool cancel(EventId id) { return take(id) != nullptr; }

  /// Returns the new id, or kInvalidEventId if `id` was not pending.
  EventId reschedule(EventId id, SimTime when) {
    Callback callback = take(id);
    if (callback == nullptr) return kInvalidEventId;
    return push(when, std::move(callback));
  }

  std::size_t size() const { return live_count_; }
  std::uint64_t pops() const { return pops_; }
  std::size_t peak_size() const { return peak_size_; }

  SimTime next_time() {
    drop_cancelled();
    return heap_.empty() ? kTimeInfinity : heap_.top().time;
  }

  std::pair<SimTime, Callback> pop() {
    drop_cancelled();
    const Entry entry = heap_.top();
    heap_.pop();
    Callback callback = take(entry.id);
    ++pops_;
    return {entry.time, std::move(callback)};
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  Callback take(EventId id) {
    auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return nullptr;
    Callback callback = std::move(it->second);
    callbacks_.erase(it);
    --live_count_;
    return callback;
  }

  void drop_cancelled() {
    while (!heap_.empty() && callbacks_.count(heap_.top().id) == 0) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_map<EventId, Callback> callbacks_;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  std::size_t live_count_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t pops_ = 0;
};

// Event times for the differential driver: a handful of values, so that
// equal-time ties dominate (including 0.0 against -0.0, which compare equal).
constexpr double kDiffTimes[] = {0.0, -0.0, 1.0, 1.0, 2.5, 2.5, 7.0, kTimeInfinity};
constexpr double kDiffDelays[] = {0.0, 0.0, 0.0, 1.0, 1.5};

// One queue under the differential driver. Events are named by logical
// handles (their index in `ids`), so both queues see the same operations
// whatever ids they hand out. Each popped event logs its time bits and
// payload, and some payloads push, cancel or reschedule while dispatched.
template <typename Queue>
struct DifferentialSide {
  Queue queue;
  std::vector<EventId> ids;
  std::vector<std::uint64_t> log;  // time bits, payload, and op results
  SimTime now = 0.0;
  std::uint64_t push_calls = 0;

  void push(SimTime when, int payload) {
    ++push_calls;
    ids.push_back(queue.push(when, [this, payload] { dispatch(payload); }));
  }

  void cancel(std::size_t handle) { log.push_back(queue.cancel(ids[handle]) ? 1 : 0); }

  void reschedule(std::size_t handle, SimTime when) {
    if constexpr (std::is_same_v<Queue, LazyDeletionQueue>) {
      const EventId moved = queue.reschedule(ids[handle], when);
      log.push_back(moved != kInvalidEventId ? 1 : 0);
      if (moved != kInvalidEventId) ids[handle] = moved;
    } else {
      log.push_back(queue.reschedule(ids[handle], when) ? 1 : 0);
    }
  }

  void pop() {
    auto [time, callback] = queue.pop();
    now = time;
    log.push_back(std::bit_cast<std::uint64_t>(time));
    callback();
  }

  void dispatch(int payload) {
    log.push_back(static_cast<std::uint64_t>(payload));
    const std::size_t handles = ids.size();
    if (payload % 3 == 0) push(now + kDiffDelays[payload % 5], payload * 7 + 1);
    if (payload % 4 == 1) cancel(static_cast<std::size_t>(payload) % handles);
    if (payload % 5 == 2) {
      reschedule(static_cast<std::size_t>(payload) * 3 % handles, now + kDiffDelays[payload % 4]);
    }
  }
};

TEST(EventQueue, MatchesLazyDeletionReference) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    DifferentialSide<LazyDeletionQueue> reference;
    DifferentialSide<EventQueue> indexed;
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    int next_payload = 1;
    for (int step = 0; step < 600; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.35 || reference.ids.empty()) {
        const SimTime when = kDiffTimes[pick(std::size(kDiffTimes))];
        reference.push(when, next_payload);
        indexed.push(when, next_payload);
        ++next_payload;
      } else if (roll < 0.5) {
        const std::size_t handle = pick(reference.ids.size());
        reference.cancel(handle);
        indexed.cancel(handle);
      } else if (roll < 0.75) {
        const std::size_t handle = pick(reference.ids.size());
        const SimTime when = kDiffTimes[pick(std::size(kDiffTimes))];
        reference.reschedule(handle, when);
        indexed.reschedule(handle, when);
      } else if (reference.queue.size() > 0) {
        reference.pop();
        indexed.pop();
      }
      ASSERT_EQ(indexed.log, reference.log) << "step " << step;
      ASSERT_EQ(indexed.ids.size(), reference.ids.size());
      ASSERT_EQ(indexed.queue.size(), reference.queue.size());
      ASSERT_EQ(indexed.queue.empty(), reference.queue.size() == 0);
      ASSERT_EQ(indexed.queue.pops(), reference.queue.pops());
      ASSERT_EQ(indexed.queue.peak_size(), reference.queue.peak_size());
      ASSERT_EQ(indexed.queue.pushes(), indexed.push_calls);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(indexed.queue.next_time()),
                std::bit_cast<std::uint64_t>(reference.queue.next_time()));
    }
    while (reference.queue.size() > 0) {
      reference.pop();
      indexed.pop();
      ASSERT_EQ(indexed.log, reference.log);
      ASSERT_EQ(indexed.queue.size(), reference.queue.size());
    }
    EXPECT_TRUE(indexed.queue.empty());
    EXPECT_EQ(indexed.queue.pops(), reference.queue.pops());
  }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(10.0, [&] { seen = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_in(2.5, [&] { seen = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Engine, PastEventsClampToNow) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(10.0, [&] {
    engine.schedule_at(3.0, [&] { seen = engine.now(); });  // in the past
  });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  engine.schedule_at(3.0, [&] { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline fire
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(42.0);
  EXPECT_DOUBLE_EQ(engine.now(), 42.0);
}

TEST(Engine, StepProcessesOneEvent) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, CancelWorksThroughEngine) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RescheduleClampsToNow) {
  Engine engine;
  std::vector<std::pair<int, double>> seen;
  const EventId late = engine.schedule_at(50.0, [&] { seen.emplace_back(2, engine.now()); });
  engine.schedule_at(10.0, [&] {
    seen.emplace_back(1, engine.now());
    EXPECT_TRUE(engine.reschedule(late, 3.0));  // in the past: fires now
  });
  engine.run();
  EXPECT_EQ(seen, (std::vector<std::pair<int, double>>{{1, 10.0}, {2, 10.0}}));
  EXPECT_EQ(engine.queue().pushes(), 2u);
}

TEST(Engine, StaleIdsMissReusedSlots) {
  Engine engine;
  int fired = 0;
  const EventId first = engine.schedule_at(1.0, [&] { ++fired; });
  engine.run();
  const EventId second = engine.schedule_at(2.0, [&] { fired += 10; });
  EXPECT_FALSE(engine.cancel(first));
  EXPECT_FALSE(engine.reschedule(first, 5.0));
  EXPECT_TRUE(engine.cancel(second));
  const EventId third = engine.schedule_at(3.0, [&] { fired += 100; });
  EXPECT_FALSE(engine.cancel(second));
  EXPECT_FALSE(engine.reschedule(second, 5.0));
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);
  engine.run();
  EXPECT_EQ(fired, 101);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, CountsProcessedEvents) {
  Engine engine;
  for (int i = 0; i < 5; ++i) engine.schedule_at(i, [] {});
  engine.run();
  EXPECT_EQ(engine.events_processed(), 5u);
}

TEST(Engine, SelfSchedulingChainTerminates) {
  Engine engine;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) engine.schedule_in(1.0, tick);
  };
  engine.schedule_in(1.0, tick);
  engine.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 100.0);
}

}  // namespace
}  // namespace elastisim::sim
