#include "cli/inspect.h"

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "stats/journal.h"
#include "util/flags.h"

namespace elastisim::cli {

namespace {

void inspect_usage(const std::string& program) {
  std::fprintf(stderr,
               "usage: %s inspect --job <id> <journal.jsonl>\n"
               "       %s inspect --diff <a.jsonl> <b.jsonl>\n",
               program.c_str(), program.c_str());
}

int print_timeline(const std::string& path, workload::JobId job) {
  const std::vector<stats::JournalRecord> records = stats::DecisionJournal::load(path);
  const std::vector<std::string> lines = stats::job_timeline(records, job);
  if (lines.empty()) {
    // Distinct exit code (3) so scripts can tell "job absent from journal"
    // apart from runtime errors (1) and usage errors (2).
    std::fprintf(stderr, "no decisions recorded for job %lld in %s (%zu records)\n",
                 static_cast<long long>(job), path.c_str(), records.size());
    return 3;
  }
  std::printf("job %lld decision timeline (%s, %zu records):\n",
              static_cast<long long>(job), path.c_str(), records.size());
  for (const std::string& line : lines) {
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}

int print_diff(const std::string& path_a, const std::string& path_b) {
  const std::vector<stats::JournalRecord> a = stats::DecisionJournal::load(path_a);
  const std::vector<stats::JournalRecord> b = stats::DecisionJournal::load(path_b);
  const auto divergence = stats::first_divergence(a, b);
  if (!divergence) {
    std::printf("journals identical (%zu records)\n", a.size());
    return 0;
  }
  std::printf("first divergence at record %zu:\n  %s\n", divergence->index,
              divergence->what.c_str());
  return 0;
}

}  // namespace

int run_inspect(const util::Flags& flags) {
  // positional()[0] is the "inspect" subcommand word itself. The flag parser
  // consumes the token after --job / --diff as that flag's value, so the
  // journal paths arrive as one flag value plus trailing positionals.
  const std::vector<std::string>& positional = flags.positional();
  // Outside the try: a malformed --job is a usage error (exit 2), not a
  // failed inspection.
  const std::int64_t job = flags.get("job", std::int64_t{-1});
  try {
    if (flags.has("job")) {
      if (job < 0 || positional.size() < 2) {
        inspect_usage(flags.program());
        return 2;
      }
      return print_timeline(positional[1], static_cast<workload::JobId>(job));
    }
    if (flags.has("diff")) {
      const std::string path_a = flags.get("diff", std::string());
      if (path_a.empty() || path_a == "true" || positional.size() < 2) {
        inspect_usage(flags.program());
        return 2;
      }
      return print_diff(path_a, positional[1]);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  inspect_usage(flags.program());
  return 2;
}

}  // namespace elastisim::cli
