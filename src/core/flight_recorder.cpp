#include "core/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "json/json.h"
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

/// Build provenance, rendered by the first recorder of the process so the
/// writer can print it without allocating.
const char* rendered_build_info() {
  static const std::string rendered = json::dump(stats::profiler::build_info_json());
  return rendered.c_str();
}

}  // namespace

const char* to_string(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::kEngineEvent: return "engine-event";
    case FlightKind::kPhaseEnter: return "phase-enter";
    case FlightKind::kPhaseExit: return "phase-exit";
    case FlightKind::kSchedulerInvoke: return "scheduler-invoke";
    case FlightKind::kBatchEvent: return "batch-event";
    case FlightKind::kCancel: return "cancel";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(round_up_pow2(capacity)), mask_(ring_.size() - 1) {
  rendered_build_info();
  window_start_ticks_ = stats::profiler::detail::tick_now();
  window_start_wall_ = wall_now();
}

FlightRecorder::~FlightRecorder() {
  // A tap left on a dead recorder would crash the thread's next phase scope.
  if (stats::profiler::detail::t_phase_ctx == this) {
    stats::profiler::set_phase_hook(nullptr, nullptr);
  }
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
  [[maybe_unused]] thread_local const bool tapped = (recorder.arm_phase_tap(), true);
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
  const double t = event.time;
  const stats::BatchState& state = event.state;
  const auto u32 = [](int value) { return static_cast<std::uint32_t>(value); };
  std::uint32_t nodes = 0;
  std::uint64_t value = 0;  // job id, node id or count: see FlightKind::kBatchEvent
  switch (event.kind) {
    case K::kStart: ++started_in_point_; [[fallthrough]];
    case K::kBoundary: nodes = u32(event.nodes); [[fallthrough]];
    case K::kHeld:
    case K::kQueued:
    case K::kCancel:
    case K::kFinish:
    case K::kKill: value = event.job_id(); break;
    case K::kRequeue:
      nodes = u32(event.previous_nodes);
      value = event.job_id();
      break;
    case K::kNodeFail:
    case K::kNodeRestore:
    case K::kNodeDrain:
    case K::kNodeUndrain: value = event.node; break;
    case K::kRunEnd:
      if (event.cancel_reason != 0) return note_cancel(t, event.cancel_reason, event.count);
      [[fallthrough]];
    case K::kRunBegin: value = event.count; break;
    case K::kSchedulingBegin: started_in_point_ = 0; return;
    case K::kSchedulingEnd:
      note_scheduler_invoke(t, static_cast<std::uint16_t>(event.cause), u32(state.queued),
                            event.rounds, started_in_point_);
      return set_snapshot({t, event.count, event.pending_events, u32(state.queued),
                           u32(state.running), u32(state.free_nodes), u32(state.failed),
                           u32(state.drained), u32(state.in_service())});
    default: return;
  }
  note(FlightKind::kBatchEvent, t, static_cast<std::uint16_t>(event.kind), nodes, value);
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

// --- the postmortem writer (async-signal-safe) -------------------------------

namespace {

/// Buffered fd writer usable from a signal handler: fixed stack state, no
/// allocation, number formatting by hand, partial writes retried.
class FdWriter {
 public:
  explicit FdWriter(int fd) noexcept : fd_(fd) {}

  void text(std::string_view s) noexcept {
    for (const char c : s) put(c);
  }

  void escaped(std::string_view s) noexcept {
    put('"');
    for (const char raw : s) {
      const auto c = static_cast<unsigned char>(raw);
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

// elsim-lint: allow(mutable-static) -- crash-handler scratch; written only at install time, read only inside the signal handler
FlightRecorder* g_crash_recorder = nullptr;
// elsim-lint: allow(mutable-static) -- crash-handler scratch; written only at install time, read only inside the signal handler
char g_crash_path[512] = {0};

/// One ring record as a JSON object: the members every record has, then
/// the ones its kind adds.
void write_record(FdWriter& out, const FlightRecord& record, std::uint64_t seq,
                  double wall_s) noexcept {
  out.text("{\"seq\":");
  out.u64(seq);
  out.text(",\"wall_s\":");
  out.fixed(wall_s);
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
      out.escaped(stats::to_string(static_cast<stats::JournalCause>(record.code)));
      out.text(",\"queued\":");
      out.u64(record.a);
      out.text(",\"rounds\":");
      out.u64(record.b >> 32U);
      out.text(",\"started\":");
      out.u64(record.b & 0xffffffffULL);
      break;
    case FlightKind::kBatchEvent: {
      using K = stats::BatchEventKind;
      const auto event = static_cast<K>(record.code);
      out.text(",\"event\":");
      out.escaped(stats::to_string(event));
      switch (event) {
        case K::kNodeFail:
        case K::kNodeRestore:
        case K::kNodeDrain:
        case K::kNodeUndrain: out.text(",\"node\":"); break;
        case K::kRunBegin:
        case K::kRunEnd: out.text(",\"count\":"); break;
        default:
          out.text(",\"nodes\":");
          out.u64(record.a);
          out.text(",\"job\":");
          break;
      }
      out.u64(record.b);
      break;
    }
    case FlightKind::kCancel:
      out.text(",\"reason\":");
      out.escaped(sim::to_string(static_cast<sim::CancelReason>(record.code)));
      out.text(",\"events\":");
      out.u64(record.b);
      break;
  }
  out.text("}");
}

}  // namespace

std::size_t FlightRecorder::write_postmortem_fd(int fd, std::string_view cause,
                                                std::string_view detail) const noexcept {
  FdWriter out(fd);
  out.text("{\"schema\":\"elastisim-postmortem-v2\",\"cause\":");
  out.escaped(cause);
  out.text(",\"detail\":");
  out.escaped(detail);
  out.text(",\"build\":");
  out.text(rendered_build_info());
  out.text(",\"context\":{");
  for (std::size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) out.text(",");
    out.escaped(context_[i].first);
    out.text(":");
    out.escaped(context_[i].second);
  }
  out.text("},\"peak_rss_bytes\":");
  out.u64(stats::profiler::peak_rss_bytes());
  out.text(",\"sim_time\":");
  out.fixed(last_sim_time_);
  if (cancel_reason_ != 0) {
    out.text(",\"cancel_reason\":");
    out.escaped(sim::to_string(static_cast<sim::CancelReason>(cancel_reason_)));
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
    const auto tick_delta =
        static_cast<double>(static_cast<std::int64_t>(record.ticks - window_start_ticks_));
    out.text(i > 0 ? ",\n" : "\n");
    write_record(out, record, first_seq + i, tps > 0.0 ? tick_delta / tps : 0.0);
  }
  out.text("\n]}}\n");
  return out.finish();
}

void FlightRecorder::write_postmortem(const std::string& path, std::string_view cause,
                                      std::string_view detail) const {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot write postmortem to " + path);
  const std::size_t written = write_postmortem_fd(fd, cause, detail);
  ::close(fd);
  if (written == 0) throw std::runtime_error("cannot write postmortem to " + path);
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
  std::strncpy(g_crash_path, path.c_str(), sizeof(g_crash_path) - 1);
  g_crash_path[sizeof(g_crash_path) - 1] = '\0';
  g_crash_recorder = recorder;
  std::signal(SIGSEGV, crash_signal_handler);
  std::signal(SIGABRT, crash_signal_handler);
}

}  // namespace elastisim::core
