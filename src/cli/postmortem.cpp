#include "cli/postmortem.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "json/json.h"
#include "util/flags.h"

namespace elastisim::cli {

namespace {

/// One line of detail for a ring record, keyed by its "kind". Unknown kinds
/// degrade to an empty detail string instead of failing the render.
std::string record_detail(const json::Value& entry) {
  const std::string kind = entry.member_or("kind", "");
  char buffer[160];
  if (kind == "engine-event") {
    std::snprintf(buffer, sizeof(buffer), "event #%lld",
                  static_cast<long long>(entry.member_or("events", std::int64_t{0})));
  } else if (kind == "phase-enter" || kind == "phase-exit") {
    std::snprintf(buffer, sizeof(buffer), "%s", entry.member_or("phase", "?").c_str());
  } else if (kind == "scheduler-invoke") {
    std::snprintf(buffer, sizeof(buffer), "cause=%s queued=%lld rounds=%lld started=%lld",
                  entry.member_or("cause", "?").c_str(),
                  static_cast<long long>(entry.member_or("queued", std::int64_t{0})),
                  static_cast<long long>(entry.member_or("rounds", std::int64_t{0})),
                  static_cast<long long>(entry.member_or("started", std::int64_t{0})));
  } else if (kind == "batch-event") {
    const std::string event = entry.member_or("event", "?");
    if (entry.find("node") != nullptr) {
      std::snprintf(buffer, sizeof(buffer), "%s node %lld", event.c_str(),
                    static_cast<long long>(entry.member_or("node", std::int64_t{0})));
    } else if (entry.find("count") != nullptr) {
      std::snprintf(buffer, sizeof(buffer), "%s count=%lld", event.c_str(),
                    static_cast<long long>(entry.member_or("count", std::int64_t{0})));
    } else {
      std::snprintf(buffer, sizeof(buffer), "%s job %lld (%lld nodes)", event.c_str(),
                    static_cast<long long>(entry.member_or("job", std::int64_t{0})),
                    static_cast<long long>(entry.member_or("nodes", std::int64_t{0})));
    }
  } else if (kind == "cancel") {
    std::snprintf(buffer, sizeof(buffer), "reason=%s after %lld events",
                  entry.member_or("reason", "?").c_str(),
                  static_cast<long long>(entry.member_or("events", std::int64_t{0})));
  } else {
    buffer[0] = '\0';
  }
  return buffer;
}

void print_record_row(const json::Value& entry) {
  std::printf("  %8lld %10.4f %12.3f %-17s %s\n",
              static_cast<long long>(entry.member_or("seq", std::int64_t{0})),
              entry.member_or("wall_s", 0.0), entry.member_or("sim_time", 0.0),
              entry.member_or("kind", "?").c_str(), record_detail(entry).c_str());
}

}  // namespace

int run_postmortem(const util::Flags& flags) {
  const auto& positional = flags.positional();
  if (positional.size() != 2) {  // "postmortem" <file>
    std::fprintf(stderr, "usage: %s postmortem <postmortem.json>\n",
                 flags.program().c_str());
    return 2;
  }
  const std::string& path = positional[1];

  json::Value root;
  try {
    root = json::parse_file(path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", path.c_str(), error.what());
    return 1;
  }
  constexpr const char* kSchema = "elastisim-postmortem-v2";
  const std::string schema = root.member_or("schema", "");
  if (schema != kSchema) {
    std::fprintf(stderr, "error: %s: schema \"%s\" is not supported (this build reads %s)\n",
                 path.c_str(), schema.c_str(), kSchema);
    return 1;
  }
  const json::Value* ring = root.find("ring");
  if (ring == nullptr || !ring->is_object()) {
    std::fprintf(stderr, "error: %s: missing \"ring\" object\n", path.c_str());
    return 1;
  }
  const json::Value* records = ring->find("records");
  if (records == nullptr || !records->is_array()) {
    std::fprintf(stderr, "error: %s: missing \"ring.records\" array\n", path.c_str());
    return 1;
  }

  std::printf("postmortem: %s\n", path.c_str());
  std::printf("cause: %s\n", root.member_or("cause", "?").c_str());
  const std::string detail = root.member_or("detail", "");
  if (!detail.empty()) std::printf("detail: %s\n", detail.c_str());
  const std::string cancel_reason = root.member_or("cancel_reason", "");
  if (!cancel_reason.empty()) std::printf("cancel reason: %s\n", cancel_reason.c_str());
  if (const json::Value* build = root.find("build"); build != nullptr) {
    std::printf("build: %s, %s\n", build->member_or("compiler", "?").c_str(),
                build->member_or("build_type", "?").c_str());
  }
  if (const json::Value* context = root.find("context");
      context != nullptr && context->is_object() && !context->as_object().empty()) {
    std::printf("context:");
    for (const auto& [key, value] : context->as_object()) {
      std::printf(" %s=%s", key.c_str(), value.get_or(std::string("?")).c_str());
    }
    std::printf("\n");
  }
  std::printf("sim time at death: %.3f s, peak rss %.1f MiB\n",
              root.member_or("sim_time", 0.0),
              root.member_or("peak_rss_bytes", 0.0) / (1024.0 * 1024.0));

  // The dying phase: innermost frame of the live stack if the dump ran while
  // phases were still open (signal path); otherwise stack unwinding popped
  // them and "last_phase" — the last phase ever entered — names it instead.
  if (const json::Value* stack = root.find("phase_stack");
      stack != nullptr && stack->is_array() && !stack->as_array().empty()) {
    std::string rendered;
    for (const json::Value& frame : stack->as_array()) {
      if (!rendered.empty()) rendered += " > ";
      rendered += frame.get_or(std::string("?"));
    }
    std::printf("phase stack at death: %s (dying in \"%s\")\n", rendered.c_str(),
                stack->as_array().back().get_or(std::string("?")).c_str());
  } else if (const std::string last_phase = root.member_or("last_phase", "");
             !last_phase.empty()) {
    std::printf("phase stack at death: (unwound) — dying in \"%s\"\n", last_phase.c_str());
  } else {
    std::printf("phase stack at death: (empty)\n");
  }

  if (const json::Value* snapshot = root.find("snapshot");
      snapshot != nullptr && snapshot->is_object()) {
    std::printf(
        "last scheduler snapshot: t=%.3f, %lld events (%lld pending), "
        "%lld queued / %lld running jobs, nodes %lld free / %lld failed / "
        "%lld drained of %lld\n",
        snapshot->member_or("sim_time", 0.0),
        static_cast<long long>(snapshot->member_or("events", std::int64_t{0})),
        static_cast<long long>(snapshot->member_or("pending_events", std::int64_t{0})),
        static_cast<long long>(snapshot->member_or("jobs_queued", std::int64_t{0})),
        static_cast<long long>(snapshot->member_or("jobs_running", std::int64_t{0})),
        static_cast<long long>(snapshot->member_or("nodes_free", std::int64_t{0})),
        static_cast<long long>(snapshot->member_or("nodes_failed", std::int64_t{0})),
        static_cast<long long>(snapshot->member_or("nodes_drained", std::int64_t{0})),
        static_cast<long long>(snapshot->member_or("nodes_total", std::int64_t{0})));
  }

  const json::Array& entries = records->as_array();
  std::printf("ring: %lld records captured, %lld dropped, %zu decoded\n",
              static_cast<long long>(ring->member_or("recorded", std::int64_t{0})),
              static_cast<long long>(ring->member_or("dropped", std::int64_t{0})),
              entries.size());

  // Timeline of notable records (everything except the per-event heartbeat,
  // which would drown the signal; the raw events reappear in the tail table).
  std::vector<const json::Value*> notable;
  for (const json::Value& entry : entries) {
    if (entry.member_or("kind", "") != "engine-event") notable.push_back(&entry);
  }
  if (!notable.empty()) {
    std::printf("\ntimeline (%zu notable records):\n", notable.size());
    std::printf("  %8s %10s %12s %-17s %s\n", "seq", "wall(s)", "sim_time", "kind",
                "detail");
    for (const json::Value* entry : notable) print_record_row(*entry);
  }

  constexpr std::size_t kTail = 20;
  const std::size_t shown = std::min(kTail, entries.size());
  std::printf("\nlast %zu events before death:\n", shown);
  std::printf("  %8s %10s %12s %-17s %s\n", "seq", "wall(s)", "sim_time", "kind",
              "detail");
  for (std::size_t i = entries.size() - shown; i < entries.size(); ++i) {
    print_record_row(entries[i]);
  }
  return 0;
}

}  // namespace elastisim::cli
