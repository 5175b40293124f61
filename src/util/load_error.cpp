#include "util/load_error.h"

namespace elastisim::util {

LoadError::LoadError(std::string file, std::string json_path, std::string expected,
                     std::string found)
    : std::runtime_error(format(file, json_path, expected, found)),
      file_(std::move(file)),
      json_path_(std::move(json_path)),
      expected_(std::move(expected)),
      found_(std::move(found)) {}

LoadError LoadError::with_file(const std::string& file) const {
  if (!file_.empty()) return *this;
  return LoadError(file, json_path_, expected_, found_);
}

std::string LoadError::format(const std::string& file, const std::string& json_path,
                              const std::string& expected, const std::string& found) {
  std::string out = "config error";
  if (!file.empty()) out += " in " + file;
  if (!json_path.empty()) out += " at " + json_path;
  out += ": ";
  if (!expected.empty()) {
    out += "expected " + expected + ", found " + found;
  } else {
    out += found;
  }
  return out;
}

}  // namespace elastisim::util
