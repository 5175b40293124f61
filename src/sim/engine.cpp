#include "sim/engine.h"

#include <cassert>

#include "stats/profiler.h"

namespace elastisim::sim {

Engine::Engine() : fluid_(std::make_unique<FluidModel>(*this)) {}

EventId Engine::schedule_at(SimTime when, EventQueue::Callback callback) {
  fluid_->solve_if_pending();
  if (when < now_) when = now_;
  return queue_.push(when, std::move(callback));
}

EventId Engine::schedule_in(SimTime delay, EventQueue::Callback callback) {
  assert(delay >= 0.0 && "negative delay");
  return schedule_at(now_ + delay, std::move(callback));
}

bool Engine::step() {
  fluid_->solve_if_pending();
  if (queue_.empty()) return false;
  auto [time, callback] = queue_.pop();
  assert(time + kTimeEpsilon >= now_ && "event queue returned an event in the past");
  if (time > now_) now_ = time;
  ++events_processed_;
  if (event_hook_ != nullptr) event_hook_(event_hook_ctx_, now_, events_processed_);
  callback();
  if (validator_) validator_(now_);
  return true;
}

// elsim-hot: the per-event dispatch loop; everything here runs once per event.
SimTime Engine::run() {
  // One dispatch scope for the whole drain, not one per event: nested phases
  // (fluid solves, scheduler, sinks, faults) attribute identically, per-event
  // counts live in events_processed(), and the profiler costs nothing in the
  // per-event hot path. The engine.dispatch exclusive time is the event loop
  // minus its instrumented children.
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kEngineDispatch);
  if (cancel_ == nullptr) {
    while (step()) {
    }
    return now_;
  }
  // Cancellation-aware drain: the token is consulted between events (a run
  // never stops inside a callback) and fed the progress counters a stall
  // watchdog samples.
  while (!cancel_->cancelled() && step()) {
    cancel_->note_progress(events_processed_, now_);
  }
  return now_;
}

// elsim-hot: bounded variant of the dispatch loop.
SimTime Engine::run_until(SimTime deadline) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kEngineDispatch);
  for (;;) {
    // A pending solve places the fluid completion before next_time() is read.
    fluid_->solve_if_pending();
    if (queue_.empty() || !(queue_.next_time() <= deadline)) break;
    if (cancel_ != nullptr && cancel_->cancelled()) return now_;
    step();
    if (cancel_ != nullptr) cancel_->note_progress(events_processed_, now_);
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace elastisim::sim
