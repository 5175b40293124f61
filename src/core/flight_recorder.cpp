#include "core/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "sim/cancellation.h"
#include "stats/journal.h"

namespace elastisim::core {

namespace {

double wall_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t round_up_pow2(std::size_t value) {
  std::size_t rounded = 2;
  while (rounded < value) rounded <<= 1U;
  return rounded;
}

const char* phase_name_checked(std::uint16_t code) noexcept {
  if (code >= static_cast<std::uint16_t>(stats::profiler::kPhaseCount)) return "unknown";
  return stats::profiler::phase_name(static_cast<stats::profiler::Phase>(code));
}

std::string journal_cause_name(std::uint16_t code) {
  if (code > static_cast<std::uint16_t>(stats::JournalCause::kCancel)) return "unknown";
  return stats::to_string(static_cast<stats::JournalCause>(code));
}

std::string cancel_reason_name(std::uint16_t code) {
  if (code > static_cast<std::uint16_t>(sim::CancelReason::kInterrupted)) return "unknown";
  return sim::to_string(static_cast<sim::CancelReason>(code));
}

}  // namespace

const char* to_string(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::kEngineEvent: return "engine-event";
    case FlightKind::kPhaseEnter: return "phase-enter";
    case FlightKind::kPhaseExit: return "phase-exit";
    case FlightKind::kSchedulerInvoke: return "scheduler-invoke";
    case FlightKind::kJobState: return "job-state";
    case FlightKind::kFault: return "fault";
    case FlightKind::kCancel: return "cancel";
    case FlightKind::kMark: return "mark";
  }
  return "unknown";
}

const char* to_string(FlightJobState state) noexcept {
  switch (state) {
    case FlightJobState::kQueued: return "queued";
    case FlightJobState::kHeld: return "held";
    case FlightJobState::kRunning: return "running";
    case FlightJobState::kBoundary: return "boundary";
    case FlightJobState::kFinished: return "finished";
    case FlightJobState::kKilled: return "killed";
    case FlightJobState::kRequeued: return "requeued";
    case FlightJobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

const char* to_string(FlightFault fault) noexcept {
  switch (fault) {
    case FlightFault::kNodeFail: return "node-fail";
    case FlightFault::kNodeRepair: return "node-repair";
    case FlightFault::kNodeDrain: return "node-drain";
    case FlightFault::kNodeUndrain: return "node-undrain";
  }
  return "unknown";
}

const char* to_string(FlightMark mark) noexcept {
  switch (mark) {
    case FlightMark::kRunBegin: return "run-begin";
    case FlightMark::kRunEnd: return "run-end";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(round_up_pow2(capacity)), mask_(ring_.size() - 1) {
  window_start_ticks_ = stats::profiler::detail::tick_now();
  window_start_wall_ = wall_now();
}

bool FlightRecorder::enabled() noexcept {
  static const bool on = [] {
    const char* env = std::getenv("ELSIM_FLIGHT");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return on;
}

FlightRecorder& FlightRecorder::thread_current() {
  thread_local FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::reset() {
  head_ = 0;
  last_sim_time_ = 0.0;
  cancel_reason_ = 0;
  snapshot_ = FlightSnapshot{};
  phase_depth_ = 0;
  last_phase_ = -1;
  context_.clear();
  window_start_ticks_ = stats::profiler::detail::tick_now();
  window_start_wall_ = wall_now();
}

void FlightRecorder::on_event(const stats::BatchEvent& event) {
  using K = stats::BatchEventKind;
  using S = FlightJobState;
  const double t = event.time;
  const std::uint64_t job = event.job_id();
  const stats::BatchState& state = event.state;
  const auto u32 = [](int value) { return static_cast<std::uint32_t>(value); };
  switch (event.kind) {
    case K::kHeld: return note_job_state(t, S::kHeld, job);
    case K::kQueued: return note_job_state(t, S::kQueued, job);
    case K::kCancel: return note_job_state(t, S::kCancelled, job);
    case K::kStart:
      ++started_in_point_;
      return note_job_state(t, S::kRunning, job, u32(event.nodes));
    case K::kBoundary: return note_job_state(t, S::kBoundary, job, u32(event.nodes));
    case K::kFinish: return note_job_state(t, S::kFinished, job);
    case K::kKill: return note_job_state(t, S::kKilled, job);
    case K::kRequeue: return note_job_state(t, S::kRequeued, job, u32(event.previous_nodes));
    case K::kNodeFail: return note_fault(t, FlightFault::kNodeFail, event.node);
    case K::kNodeRestore: return note_fault(t, FlightFault::kNodeRepair, event.node);
    case K::kNodeDrain: return note_fault(t, FlightFault::kNodeDrain, event.node);
    case K::kNodeUndrain: return note_fault(t, FlightFault::kNodeUndrain, event.node);
    case K::kSchedulingBegin: started_in_point_ = 0; return;
    case K::kSchedulingEnd:
      note_scheduler_invoke(t, static_cast<std::uint16_t>(event.cause), u32(state.queued),
                            event.rounds, started_in_point_);
      return set_snapshot({t, event.count, event.pending_events, u32(state.queued),
                           u32(state.running), u32(state.free_nodes), u32(state.failed),
                           u32(state.drained), u32(state.in_service())});
    case K::kRunBegin: return note_mark(t, FlightMark::kRunBegin, event.count);
    case K::kRunEnd:
      if (event.cancel_reason != 0) return note_cancel(t, event.cancel_reason, event.count);
      return note_mark(t, FlightMark::kRunEnd, event.count);
    default: return;
  }
}

namespace {
void phase_tap_trampoline(void* ctx, stats::profiler::Phase phase, bool enter) {
  static_cast<FlightRecorder*>(ctx)->on_phase(phase, enter);
}
}  // namespace

std::pair<stats::profiler::detail::PhaseHook, void*>
FlightRecorder::arm_phase_tap() noexcept {
  return stats::profiler::set_phase_hook(&phase_tap_trampoline, this);
}

void FlightRecorder::on_phase(stats::profiler::Phase phase, bool enter) noexcept {
  const int code = static_cast<int>(phase);
  if (enter) {
    if (phase_depth_ < kMaxPhaseDepth) phase_stack_[phase_depth_] = code;
    ++phase_depth_;
    last_phase_ = code;
    note(FlightKind::kPhaseEnter, last_sim_time_, static_cast<std::uint16_t>(code), 0, 0);
  } else {
    if (phase_depth_ > 0) --phase_depth_;
    note(FlightKind::kPhaseExit, last_sim_time_, static_cast<std::uint16_t>(code), 0, 0);
  }
}

void FlightRecorder::set_context(const std::string& key, const std::string& value) {
  for (auto& [existing_key, existing_value] : context_) {
    if (existing_key == key) {
      existing_value = value;
      return;
    }
  }
  context_.emplace_back(key, value);
}

std::size_t FlightRecorder::size() const noexcept {
  return head_ < ring_.size() ? static_cast<std::size_t>(head_) : ring_.size();
}

std::vector<FlightRecord> FlightRecorder::decode() const {
  std::vector<FlightRecord> records;
  const std::size_t live = size();
  records.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    records.push_back(ring_[(head_ - live + i) & mask_]);
  }
  return records;
}

std::vector<const char*> FlightRecorder::phase_stack() const {
  std::vector<const char*> names;
  const int depth = phase_depth_ < kMaxPhaseDepth ? phase_depth_ : kMaxPhaseDepth;
  names.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    names.push_back(phase_name_checked(static_cast<std::uint16_t>(phase_stack_[i])));
  }
  return names;
}

double FlightRecorder::ticks_per_second() const noexcept {
  const double wall = wall_now() - window_start_wall_;
  if (wall <= 1e-9) return 0.0;
  const auto ticks = static_cast<double>(stats::profiler::detail::tick_now() -
                                         window_start_ticks_);
  return ticks / wall;
}

json::Value FlightRecorder::to_json(std::string_view cause,
                                    std::string_view detail) const {
  json::Object out;
  out["schema"] = "elastisim-postmortem-v1";
  out["cause"] = cause;
  out["detail"] = detail;
  out["build"] = stats::profiler::build_info_json();
  json::Object context;
  for (const auto& [key, value] : context_) context[key] = value;
  out["context"] = json::Value(std::move(context));
  out["peak_rss_bytes"] = stats::profiler::peak_rss_bytes();
  out["sim_time"] = last_sim_time_;
  if (cancel_reason_ != 0) {
    out["cancel_reason"] = cancel_reason_name(static_cast<std::uint16_t>(cancel_reason_));
  }
  if (last_phase_ >= 0) {
    out["last_phase"] = phase_name_checked(static_cast<std::uint16_t>(last_phase_));
  }
  json::Array stack;
  for (const char* name : phase_stack()) stack.emplace_back(name);
  out["phase_stack"] = json::Value(std::move(stack));
  json::Object snapshot;
  snapshot["sim_time"] = snapshot_.sim_time;
  snapshot["events"] = snapshot_.events;
  snapshot["pending_events"] = snapshot_.pending_events;
  snapshot["jobs_queued"] = static_cast<std::uint64_t>(snapshot_.jobs_queued);
  snapshot["jobs_running"] = static_cast<std::uint64_t>(snapshot_.jobs_running);
  snapshot["nodes_free"] = static_cast<std::uint64_t>(snapshot_.nodes_free);
  snapshot["nodes_failed"] = static_cast<std::uint64_t>(snapshot_.nodes_failed);
  snapshot["nodes_drained"] = static_cast<std::uint64_t>(snapshot_.nodes_drained);
  snapshot["nodes_total"] = static_cast<std::uint64_t>(snapshot_.nodes_total);
  out["snapshot"] = json::Value(std::move(snapshot));

  const double tps = ticks_per_second();
  const std::vector<FlightRecord> records = decode();
  json::Object ring;
  ring["capacity"] = ring_.size();
  ring["recorded"] = head_;
  ring["dropped"] = head_ > ring_.size() ? head_ - ring_.size() : 0;
  json::Array decoded;
  const std::uint64_t first_seq = head_ - records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FlightRecord& record = records[i];
    json::Object entry;
    entry["seq"] = first_seq + i;
    const auto tick_delta =
        static_cast<double>(static_cast<std::int64_t>(record.ticks - window_start_ticks_));
    entry["wall_s"] = tps > 0.0 ? tick_delta / tps : 0.0;
    entry["sim_time"] = record.sim_time;
    const auto kind = static_cast<FlightKind>(record.kind);
    entry["kind"] = to_string(kind);
    switch (kind) {
      case FlightKind::kEngineEvent:
        entry["events"] = record.b;
        break;
      case FlightKind::kPhaseEnter:
      case FlightKind::kPhaseExit:
        entry["phase"] = phase_name_checked(record.code);
        break;
      case FlightKind::kSchedulerInvoke:
        entry["cause"] = journal_cause_name(record.code);
        entry["queued"] = static_cast<std::uint64_t>(record.a);
        entry["rounds"] = static_cast<std::uint64_t>(record.b >> 32U);
        entry["started"] = static_cast<std::uint64_t>(record.b & 0xffffffffULL);
        break;
      case FlightKind::kJobState:
        entry["state"] = to_string(static_cast<FlightJobState>(record.code));
        entry["job"] = record.b;
        entry["nodes"] = static_cast<std::uint64_t>(record.a);
        break;
      case FlightKind::kFault:
        entry["event"] = to_string(static_cast<FlightFault>(record.code));
        entry["node"] = record.b;
        break;
      case FlightKind::kCancel:
        entry["reason"] = cancel_reason_name(record.code);
        entry["events"] = record.b;
        break;
      case FlightKind::kMark:
        entry["mark"] = to_string(static_cast<FlightMark>(record.code));
        entry["value"] = record.b;
        break;
    }
    decoded.emplace_back(std::move(entry));
  }
  ring["records"] = json::Value(std::move(decoded));
  out["ring"] = json::Value(std::move(ring));
  return json::Value(std::move(out));
}

void FlightRecorder::write_postmortem(const std::string& path, std::string_view cause,
                                      std::string_view detail) const {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  json::write_file(path, to_json(cause, detail));
}

// --- async-signal-safe dump -------------------------------------------------

namespace {

/// Buffered fd writer usable from a signal handler: fixed stack state, no
/// allocation, number formatting by hand, partial writes retried.
class FdWriter {
 public:
  explicit FdWriter(int fd) noexcept : fd_(fd) {}

  void text(const char* s) noexcept {
    while (*s != '\0') put(*s++);
  }

  void escaped(const char* s) noexcept {
    put('"');
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        put('\\');
        put(static_cast<char>(c));
      } else if (c >= 0x20) {
        put(static_cast<char>(c));
      } else {
        put(' ');
      }
    }
    put('"');
  }

  void u64(std::uint64_t value) noexcept {
    char digits[20];
    int count = 0;
    do {
      digits[count++] = static_cast<char>('0' + value % 10);
      value /= 10;
      // elsim-lint: allow(float-equality) -- value is an integer digit accumulator
    } while (value != 0 && count < 20);
    while (count > 0) put(digits[--count]);
  }

  /// Fixed-point with 6 decimals; NaN/inf degrade to 0.
  void fixed(double value) noexcept {
    if (std::isnan(value) || std::isinf(value)) {
      text("0");
      return;
    }
    if (value < 0.0) {
      put('-');
      value = -value;
    }
    const auto whole = static_cast<std::uint64_t>(value);
    u64(whole);
    put('.');
    double frac = value - static_cast<double>(whole);
    for (int i = 0; i < 6; ++i) {
      frac *= 10.0;
      auto digit = static_cast<int>(frac);
      if (digit > 9) digit = 9;
      put(static_cast<char>('0' + digit));
      frac -= digit;
    }
  }

  std::size_t finish() noexcept {
    drain();
    return failed_ ? 0 : total_;
  }

 private:
  void put(char c) noexcept {
    buffer_[length_++] = c;
    if (length_ == sizeof(buffer_)) drain();
  }

  void drain() noexcept {
    std::size_t offset = 0;
    while (offset < length_ && !failed_) {
      const ssize_t written = ::write(fd_, buffer_ + offset, length_ - offset);
      if (written <= 0) {
        failed_ = true;
        break;
      }
      offset += static_cast<std::size_t>(written);
    }
    total_ += offset;
    length_ = 0;
  }

  int fd_;
  char buffer_[512];
  std::size_t length_ = 0;
  std::size_t total_ = 0;
  bool failed_ = false;
};

/// Build provenance pre-rendered at handler-install time (building it live
/// allocates, which a signal handler must not).
// elsim-lint: allow(mutable-static) -- crash-handler scratch; written only at install time, read only inside the signal handler
char g_crash_build_json[1024] = {0};
// elsim-lint: allow(mutable-static) -- crash-handler scratch; written only at install time, read only inside the signal handler
FlightRecorder* g_crash_recorder = nullptr;
// elsim-lint: allow(mutable-static) -- crash-handler scratch; written only at install time, read only inside the signal handler
char g_crash_path[512] = {0};

}  // namespace

std::size_t FlightRecorder::write_postmortem_fd(int fd, const char* cause) const noexcept {
  FdWriter out(fd);
  out.text("{\"schema\":\"elastisim-postmortem-v1\",\"cause\":");
  out.escaped(cause);
  out.text(",\"detail\":\"\",\"build\":");
  out.text(g_crash_build_json[0] != '\0' ? g_crash_build_json : "{}");
  out.text(",\"context\":{");
  for (std::size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) out.text(",");
    out.escaped(context_[i].first.c_str());
    out.text(":");
    out.escaped(context_[i].second.c_str());
  }
  out.text("},\"peak_rss_bytes\":");
  out.u64(stats::profiler::peak_rss_bytes());
  out.text(",\"sim_time\":");
  out.fixed(last_sim_time_);
  if (cancel_reason_ != 0) {
    out.text(",\"cancel_reason\":");
    out.escaped(cancel_reason_name(static_cast<std::uint16_t>(cancel_reason_)).c_str());
  }
  if (last_phase_ >= 0) {
    out.text(",\"last_phase\":");
    out.escaped(phase_name_checked(static_cast<std::uint16_t>(last_phase_)));
  }
  out.text(",\"phase_stack\":[");
  const int depth = phase_depth_ < kMaxPhaseDepth ? phase_depth_ : kMaxPhaseDepth;
  for (int i = 0; i < depth; ++i) {
    if (i > 0) out.text(",");
    out.escaped(phase_name_checked(static_cast<std::uint16_t>(phase_stack_[i])));
  }
  out.text("],\"snapshot\":{\"sim_time\":");
  out.fixed(snapshot_.sim_time);
  out.text(",\"events\":");
  out.u64(snapshot_.events);
  out.text(",\"pending_events\":");
  out.u64(snapshot_.pending_events);
  out.text(",\"jobs_queued\":");
  out.u64(snapshot_.jobs_queued);
  out.text(",\"jobs_running\":");
  out.u64(snapshot_.jobs_running);
  out.text(",\"nodes_free\":");
  out.u64(snapshot_.nodes_free);
  out.text(",\"nodes_failed\":");
  out.u64(snapshot_.nodes_failed);
  out.text(",\"nodes_drained\":");
  out.u64(snapshot_.nodes_drained);
  out.text(",\"nodes_total\":");
  out.u64(snapshot_.nodes_total);
  out.text("},\"ring\":{\"capacity\":");
  out.u64(ring_.size());
  out.text(",\"recorded\":");
  out.u64(head_);
  out.text(",\"dropped\":");
  out.u64(head_ > ring_.size() ? head_ - ring_.size() : 0);
  out.text(",\"records\":[");
  const double tps = ticks_per_second();
  const std::size_t live = size();
  const std::uint64_t first_seq = head_ - live;
  for (std::size_t i = 0; i < live; ++i) {
    const FlightRecord& record = ring_[(head_ - live + i) & mask_];
    if (i > 0) out.text(",");
    out.text("{\"seq\":");
    out.u64(first_seq + i);
    out.text(",\"wall_s\":");
    const auto tick_delta =
        static_cast<double>(static_cast<std::int64_t>(record.ticks - window_start_ticks_));
    out.fixed(tps > 0.0 ? tick_delta / tps : 0.0);
    out.text(",\"sim_time\":");
    out.fixed(record.sim_time);
    const auto kind = static_cast<FlightKind>(record.kind);
    out.text(",\"kind\":");
    out.escaped(to_string(kind));
    switch (kind) {
      case FlightKind::kEngineEvent:
        out.text(",\"events\":");
        out.u64(record.b);
        break;
      case FlightKind::kPhaseEnter:
      case FlightKind::kPhaseExit:
        out.text(",\"phase\":");
        out.escaped(phase_name_checked(record.code));
        break;
      case FlightKind::kSchedulerInvoke:
        out.text(",\"cause\":");
        out.escaped(journal_cause_name(record.code).c_str());
        out.text(",\"queued\":");
        out.u64(record.a);
        out.text(",\"rounds\":");
        out.u64(record.b >> 32U);
        out.text(",\"started\":");
        out.u64(record.b & 0xffffffffULL);
        break;
      case FlightKind::kJobState:
        out.text(",\"state\":");
        out.escaped(to_string(static_cast<FlightJobState>(record.code)));
        out.text(",\"job\":");
        out.u64(record.b);
        out.text(",\"nodes\":");
        out.u64(record.a);
        break;
      case FlightKind::kFault:
        out.text(",\"event\":");
        out.escaped(to_string(static_cast<FlightFault>(record.code)));
        out.text(",\"node\":");
        out.u64(record.b);
        break;
      case FlightKind::kCancel:
        out.text(",\"reason\":");
        out.escaped(cancel_reason_name(record.code).c_str());
        out.text(",\"events\":");
        out.u64(record.b);
        break;
      case FlightKind::kMark:
        out.text(",\"mark\":");
        out.escaped(to_string(static_cast<FlightMark>(record.code)));
        out.text(",\"value\":");
        out.u64(record.b);
        break;
    }
    out.text("}");
  }
  out.text("]}}\n");
  return out.finish();
}

namespace {

void crash_signal_handler(int signal_number) {
  // Restore default disposition first: if anything below faults again, the
  // process dies the normal way instead of recursing.
  std::signal(signal_number, SIG_DFL);
  FlightRecorder* recorder = g_crash_recorder;
  if (recorder != nullptr && g_crash_path[0] != '\0') {
    const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const char* cause = signal_number == SIGSEGV   ? "signal: SIGSEGV"
                          : signal_number == SIGABRT ? "signal: SIGABRT"
                                                     : "signal";
      recorder->write_postmortem_fd(fd, cause);
      ::close(fd);
    }
  }
  std::raise(signal_number);
}

}  // namespace

void FlightRecorder::install_crash_handler(FlightRecorder* recorder,
                                           const std::string& path) {
  if (recorder == nullptr) {
    g_crash_recorder = nullptr;
    g_crash_path[0] = '\0';
    std::signal(SIGSEGV, SIG_DFL);
    std::signal(SIGABRT, SIG_DFL);
    return;
  }
  const std::string build = json::dump(stats::profiler::build_info_json());
  std::strncpy(g_crash_build_json, build.c_str(), sizeof(g_crash_build_json) - 1);
  g_crash_build_json[sizeof(g_crash_build_json) - 1] = '\0';
  std::strncpy(g_crash_path, path.c_str(), sizeof(g_crash_path) - 1);
  g_crash_path[sizeof(g_crash_path) - 1] = '\0';
  g_crash_recorder = recorder;
  std::signal(SIGSEGV, crash_signal_handler);
  std::signal(SIGABRT, crash_signal_handler);
}

}  // namespace elastisim::core
