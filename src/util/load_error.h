// Structured diagnostics for malformed configuration input.
//
// The input loaders throw LoadError (through json::Reader) instead of bare
// std::runtime_error so the CLI can print a diagnostic that names the file,
// the JSON path of the offending member ("$.jobs[3].application.phases"),
// and what was expected versus found — and so tests can assert on each part
// instead of substring-matching a prose message. Inner parse layers usually
// know the path but not the file; load_* entry points annotate the file on
// the way out via with_file().
//
// Derives from std::runtime_error, so call sites that catch std::exception
// (every CLI and test today) keep working unchanged.
#pragma once

#include <stdexcept>
#include <string>

namespace elastisim::util {

class LoadError : public std::runtime_error {
 public:
  /// `path` uses JSONPath-style notation rooted at "$"; `expected` may be
  /// empty when the problem is not a type/shape mismatch (then `found`
  /// carries the whole message).
  LoadError(std::string file, std::string json_path, std::string expected,
            std::string found);

  const std::string& file() const { return file_; }
  const std::string& json_path() const { return json_path_; }
  const std::string& expected() const { return expected_; }
  const std::string& found() const { return found_; }

  /// Returns a copy with the file name filled in (no-op when already set);
  /// used by load_* entry points to annotate errors from pure parsers.
  LoadError with_file(const std::string& file) const;

 private:
  static std::string format(const std::string& file, const std::string& json_path,
                            const std::string& expected, const std::string& found);

  std::string file_;
  std::string json_path_;
  std::string expected_;
  std::string found_;
};

}  // namespace elastisim::util
