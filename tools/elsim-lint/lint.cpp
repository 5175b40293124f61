#include "elsim-lint/lint.h"

#include <algorithm>
#include <cctype>

#include "elsim-lint/internal.h"
#include "json/json.h"

namespace elsimlint {

namespace json = elastisim::json;

namespace detail {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool word_at(const std::string& code, std::size_t pos, const std::string& word) {
  if (code.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_ident(code[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= code.size() || !is_ident(code[end]);
}

std::size_t skip_space(const std::string& code, std::size_t pos) {
  while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos]))) ++pos;
  return pos;
}

std::string read_ident(const std::string& code, std::size_t pos) {
  if (pos >= code.size() || !is_ident_start(code[pos])) return "";
  std::size_t end = pos;
  while (end < code.size() && is_ident(code[end])) ++end;
  return code.substr(pos, end - pos);
}

std::size_t match_forward(const std::string& code, std::size_t open, char open_c,
                          char close_c) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == open_c) ++depth;
    if (code[i] == close_c && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t enclosing_block_end(const std::string& code, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}' && --depth < 0) return i;
  }
  return code.size();
}

LineMap::LineMap(const std::string& code) {
  starts_.push_back(0);
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '\n') starts_.push_back(i + 1);
  }
}

std::size_t LineMap::line_of(std::size_t pos) const {
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), pos);
  return static_cast<std::size_t>(it - starts_.begin());
}

void add_finding(Context& ctx, std::size_t pos, const std::string& rule,
                 std::string message) {
  Finding finding;
  finding.file = ctx.file.path;
  finding.line = ctx.lines.line_of(pos);
  finding.rule = rule;
  finding.message = std::move(message);
  if (finding.line >= 1 && finding.line <= ctx.file.lines.size()) {
    finding.snippet = trim(ctx.file.lines[finding.line - 1]);
  }
  ctx.findings.push_back(std::move(finding));
}

}  // namespace detail

using namespace detail;  // NOLINT: the rule engines live on these helpers

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"unordered-iteration", "determinism", "error",
       "iteration over a std::unordered_{map,set} (hash order is not deterministic "
       "across implementations; sort or use an ordered container before output)"},
      {"raw-random", "determinism", "error",
       "entropy source outside util::Rng (rand, std::random_device, mt19937, "
       "time(nullptr), system_clock; breaks seeded reproducibility)"},
      {"pointer-order", "determinism", "error",
       "ordering or hashing by pointer value (allocation addresses differ between "
       "runs; key by a stable id instead)"},
      {"float-equality", "determinism", "error",
       "== or != on floating-point values (round-off makes exact equality "
       "run-to-run fragile; compare with a tolerance or suppress if exactness is "
       "intended)"},
      {"enum-switch", "determinism", "error",
       "switch over a project enum missing enumerators and without a default "
       "(a newly added value would fall through silently)"},
      {"mutable-static", "concurrency", "error",
       "mutable static or namespace-scope state (sweep workers share library "
       "code; make it const, thread_local, std::atomic, or suppress with a "
       "rationale)"},
      {"raw-memory-order", "concurrency", "error",
       "explicit std::memory_order argument outside sim/cancellation.* and "
       "core/sweep_runner.* (relaxed orderings are audited there only; use the "
       "seq_cst default elsewhere)"},
      {"lock-order", "concurrency", "error",
       "nested lock_guard/unique_lock on distinct mutexes (a second site locking "
       "in the opposite order deadlocks; take both with one std::scoped_lock)"},
      {"signal-unsafe", "concurrency", "error",
       "non-async-signal-safe call (allocation, stdio, std::string construction) "
       "inside a function registered as a signal handler"},
      {"hot-alloc", "hot-path", "error",
       "heap allocation (new, make_unique/shared, container or string "
       "construction, std::function, string concatenation) inside an elsim-hot "
       "region"},
      {"hot-container-growth", "hot-path", "error",
       "push_back/emplace_back in an elsim-hot region without a visible reserve "
       "on the same container in the same function"},
      {"hot-virtual-loop", "hot-path", "error",
       "virtual dispatch inside a loop in an elsim-hot region (an indirect "
       "branch per iteration; hoist the call or devirtualize)"},
  };
  return kRules;
}

const RuleInfo* find_rule(const std::string& name) {
  for (const RuleInfo& info : rules()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const std::string& rule_family(const std::string& rule) {
  static const std::string kUnknown = "unknown";
  const RuleInfo* info = find_rule(rule);
  return info != nullptr ? info->family : kUnknown;
}

SourceFile preprocess(std::string path, const std::string& text) {
  SourceFile file;
  file.path = std::move(path);

  // Split raw lines for snippets.
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      file.lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  file.comments.assign(file.lines.size(), "");

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for raw strings: the ")delim" terminator
  std::size_t line = 0;
  file.code.reserve(text.size());

  auto emit_blank = [&file](char c) { file.code.push_back(c == '\n' ? '\n' : ' '); };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          emit_blank(c);
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else if (c == '"') {
          // Raw string? The opening quote is preceded by R (possibly u8R,
          // uR, LR); scan the delimiter up to '('.
          if (i > 0 && text[i - 1] == 'R' && (i < 2 || !is_ident(text[i - 2]) ||
                                              text[i - 2] == '8' || text[i - 2] == 'u' ||
                                              text[i - 2] == 'L')) {
            std::size_t paren = i + 1;
            while (paren < text.size() && text[paren] != '(') ++paren;
            raw_delim = ")" + text.substr(i + 1, paren - i - 1) + "\"";
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          // Keep the delimiter so rules can recognise literal operands.
          file.code.push_back('"');
        } else if (c == '\'') {
          state = State::kChar;
          file.code.push_back('\'');
        } else {
          file.code.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          file.code.push_back('\n');
        } else {
          file.comments[line].push_back(c);
          emit_blank(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else {
          if (c != '\n') file.comments[line].push_back(c);
          emit_blank(c);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          file.code.push_back('"');
        } else {
          if (c == '\n') state = State::kCode;  // unterminated: recover
          emit_blank(c);
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          file.code.push_back('\'');
        } else {
          if (c == '\n') state = State::kCode;
          emit_blank(c);
        }
        break;
      case State::kRawString:
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k + 1 < raw_delim.size(); ++k) emit_blank(text[i + k]);
          file.code.push_back('"');
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          emit_blank(c);
        }
        break;
    }
    if (c == '\n') ++line;
  }
  return file;
}

namespace {

/// Walks backwards from `pos` (exclusive) over whitespace, then over one
/// balanced ()-group if present, and returns the identifier that precedes —
/// the "tail name" of the left operand of a comparison. Empty if none.
std::string left_operand_name(const std::string& code, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  // A ')' before the operator means the operand is a call or a parenthesized
  // expression — its type is unknowable lexically, so claim nothing.
  if (i > 0 && code[i - 1] == ')') return "";
  std::size_t end = i;
  while (i > 0 && is_ident(code[i - 1])) --i;
  if (i == end) return "";
  return code.substr(i, end - i);
}

/// True when the token starting at `pos` is a floating-point literal: a
/// mantissa with at least one digit, and a decimal point, a decimal exponent,
/// or an f/F suffix. A member access such as `.users` or `.frozen_in`, which
/// the left-operand walk meets after a `]`, has no digit before its letters.
bool is_float_literal(const std::string& code, std::size_t pos) {
  std::size_t i = pos;
  if (i < code.size() && (code[i] == '-' || code[i] == '+')) ++i;
  if (i >= code.size()) return false;
  if (std::isdigit(static_cast<unsigned char>(code[i])) == 0 && code[i] != '.') return false;
  if (code.compare(i, 2, "0x") == 0 || code.compare(i, 2, "0X") == 0) return false;
  bool has_digit = false;
  bool has_dot = false;
  bool has_exp = false;
  bool has_suffix = false;
  while (i < code.size()) {
    const char c = code[i];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '\'') {
      has_digit = has_digit || c != '\'';
      ++i;
    } else if (c == '.') {
      has_dot = true;
      ++i;
    } else if ((c == 'e' || c == 'E') && has_digit) {
      has_exp = true;
      ++i;
      if (i < code.size() && (code[i] == '-' || code[i] == '+')) ++i;
    } else if ((c == 'f' || c == 'F') && has_digit) {
      has_suffix = true;
      ++i;
      break;
    } else {
      break;
    }
  }
  return has_digit && (has_dot || has_exp || has_suffix);
}

/// Reads the member chain starting at `pos` (`a.b->c(...).d`) and returns
/// its final member name — the "tail name" of the right operand. When
/// `is_call` is given, it is set to true iff the chain ends in a call
/// (`...end()`), whose result type a lexical scan cannot know.
std::string right_operand_name(const std::string& code, std::size_t pos,
                               bool* is_call = nullptr) {
  std::size_t i = skip_space(code, pos);
  if (i < code.size() && (code[i] == '!' || code[i] == '-' || code[i] == '+' ||
                          code[i] == '*' || code[i] == '&')) {
    i = skip_space(code, i + 1);
  }
  std::string name = read_ident(code, i);
  bool call = false;
  if (name.empty()) return "";
  i += name.size();
  while (i < code.size()) {
    if (code.compare(i, 2, "::") == 0) {
      i += 2;
    } else if (code[i] == '.') {
      i += 1;
    } else if (code.compare(i, 2, "->") == 0) {
      i += 2;
    } else if (code[i] == '(') {
      const std::size_t close = match_forward(code, i, '(', ')');
      if (close == std::string::npos) break;
      i = close + 1;
      call = true;
      continue;  // allow `.x()` followed by `.y`
    } else {
      break;
    }
    const std::string next = read_ident(code, i);
    if (next.empty()) break;
    name = next;
    call = false;
    i += next.size();
  }
  if (is_call != nullptr) *is_call = call;
  return name;
}

/// First template argument of the bracket group opening at `open` ('<').
std::string first_template_arg(const std::string& code, std::size_t open) {
  int depth = 0;
  std::size_t begin = open + 1;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<' || c == '(') ++depth;
    if (c == '>' || c == ')') {
      --depth;
      if (depth == 0) return code.substr(begin, i - begin);
    }
    if (c == ',' && depth == 1) return code.substr(begin, i - begin);
    if (c == ';') break;  // not a template after all (a < b comparison)
  }
  return "";
}

}  // namespace

void index_symbols(const SourceFile& file, SymbolIndex& index) {
  const std::string& code = file.code;

  // Unordered-container declarations: `unordered_map<...> name` (and set).
  for (const std::string& container : {std::string("unordered_map"),
                                       std::string("unordered_set")}) {
    std::size_t pos = 0;
    while ((pos = code.find(container, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += container.size();
      if (!word_at(code, at, container)) continue;
      std::size_t i = skip_space(code, at + container.size());
      if (i >= code.size() || code[i] != '<') continue;
      const std::size_t close = match_forward(code, i, '<', '>');
      if (close == std::string::npos) continue;
      i = skip_space(code, close + 1);
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) i = skip_space(code, i + 1);
      const std::string name = read_ident(code, i);
      if (!name.empty() && name != "const") index.unordered_vars.insert(name);
    }
  }

  // double/float/SimTime declarations (variables, members, parameters, and
  // functions returning them — a call's result is as floating as a variable).
  for (const std::string& type :
       {std::string("double"), std::string("float"), std::string("SimTime")}) {
    std::size_t pos = 0;
    while ((pos = code.find(type, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += type.size();
      if (!word_at(code, at, type)) continue;
      std::size_t i = skip_space(code, at + type.size());
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) i = skip_space(code, i + 1);
      const std::string name = read_ident(code, i);
      if (!name.empty() && name != "const" && name != "operator") {
        index.double_vars.insert(name);
      }
    }
  }

  // enum class definitions.
  std::size_t pos = 0;
  while ((pos = code.find("enum", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 4;
    if (!word_at(code, at, "enum")) continue;
    std::size_t i = skip_space(code, at + 4);
    if (word_at(code, i, "class") || word_at(code, i, "struct")) {
      i = skip_space(code, i + 5 + (code[i] == 's' ? 1 : 0));
    }
    const std::string name = read_ident(code, i);
    if (name.empty()) continue;
    i = skip_space(code, i + name.size());
    if (i < code.size() && code[i] == ':') {  // underlying type
      while (i < code.size() && code[i] != '{' && code[i] != ';') ++i;
    }
    if (i >= code.size() || code[i] != '{') continue;  // forward declaration / use
    const std::size_t close = match_forward(code, i, '{', '}');
    if (close == std::string::npos) continue;
    std::set<std::string>& values = index.enums[name];
    std::size_t j = i + 1;
    while (j < close) {
      j = skip_space(code, j);
      const std::string value = read_ident(code, j);
      if (value.empty()) break;
      values.insert(value);
      j += value.size();
      // Skip an initializer (`= kOther + 1`) up to the separating comma.
      int depth = 0;
      while (j < close) {
        const char c = code[j];
        if (c == '(' || c == '{' || c == '<') ++depth;
        if (c == ')' || c == '}' || c == '>') --depth;
        if (c == ',' && depth == 0) {
          ++j;
          break;
        }
        ++j;
      }
    }
  }

  // Virtual member declarations: `virtual <type> name(...)`. Feeds
  // hot-virtual-loop; destructors and operators are not dispatch hazards a
  // loop body would name.
  pos = 0;
  while ((pos = code.find("virtual", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 7;
    if (!word_at(code, at, "virtual")) continue;
    std::size_t i = at + 7;
    while (i < code.size() && code[i] != '(' && code[i] != ';' && code[i] != '{' &&
           code[i] != '}') {
      ++i;
    }
    if (i >= code.size() || code[i] != '(') continue;
    std::size_t end = i;
    while (end > at && std::isspace(static_cast<unsigned char>(code[end - 1]))) --end;
    std::size_t begin = end;
    while (begin > at && is_ident(code[begin - 1])) --begin;
    if (begin == end) continue;
    if (begin > 0 && code[begin - 1] == '~') continue;
    const std::string name = code.substr(begin, end - begin);
    if (name != "operator") index.virtual_functions.insert(name);
  }
}

namespace {

void rule_unordered_iteration(Context& ctx) {
  const std::string& code = ctx.file.code;

  // Range-for whose range expression is a known unordered container.
  std::size_t pos = 0;
  while ((pos = code.find("for", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 3;
    if (!word_at(code, at, "for")) continue;
    const std::size_t open = skip_space(code, at + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_forward(code, open, '(', ')');
    if (close == std::string::npos) continue;
    // The range-for ':' at top parenthesis depth (ignore "::").
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      const char c = code[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == ':' && depth == 0) {
        if ((i + 1 < close && code[i + 1] == ':') || (i > 0 && code[i - 1] == ':')) continue;
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = right_operand_name(code, colon + 1);
    if (ctx.index.unordered_vars.count(range) != 0) {
      add_finding(ctx, at, "unordered-iteration",
                  "range-for over unordered container '" + range +
                      "' visits elements in hash order");
    }
  }

  // `name.begin()` / `name.cbegin()` on a known unordered container.
  for (const std::string& var : ctx.index.unordered_vars) {
    pos = 0;
    while ((pos = code.find(var, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += var.size();
      if (!word_at(code, at, var)) continue;
      std::size_t i = at + var.size();
      if (code.compare(i, 1, ".") == 0) {
        i += 1;
      } else if (code.compare(i, 2, "->") == 0) {
        i += 2;
      } else {
        continue;
      }
      const std::string member = read_ident(code, i);
      if (member == "begin" || member == "cbegin") {
        add_finding(ctx, at, "unordered-iteration",
                    "'" + var + "." + member +
                        "()' exposes hash order of an unordered container");
      }
    }
  }
}

void rule_raw_random(Context& ctx) {
  const std::string& code = ctx.file.code;
  static const std::vector<std::pair<std::string, std::string>> kBanned = {
      {"rand", "use util::Rng instead of rand()"},
      {"srand", "use a util::Rng seed instead of srand()"},
      {"drand48", "use util::Rng::uniform() instead of drand48()"},
      {"random_device", "std::random_device draws non-reproducible entropy"},
      {"mt19937", "use util::Rng (seeded, split-able) instead of std::mt19937"},
      {"mt19937_64", "use util::Rng instead of std::mt19937_64"},
      {"default_random_engine", "use util::Rng instead of std::default_random_engine"},
      {"random_shuffle", "std::random_shuffle uses unspecified global entropy"},
      {"system_clock", "wall-clock time is not reproducible; simulated time comes "
                       "from sim::Engine::now()"},
  };
  for (const auto& [token, why] : kBanned) {
    std::size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += token.size();
      if (!word_at(code, at, token)) continue;
      // rand/srand/drand48 must be calls; the others are type/name uses.
      if (token == "rand" || token == "srand" || token == "drand48") {
        const std::size_t paren = skip_space(code, at + token.size());
        if (paren >= code.size() || code[paren] != '(') continue;
      }
      add_finding(ctx, at, "raw-random", why);
    }
  }
  // time(nullptr) / time(NULL) / time(0): the classic seed.
  std::size_t pos = 0;
  while ((pos = code.find("time", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 4;
    if (!word_at(code, at, "time")) continue;
    std::size_t i = skip_space(code, at + 4);
    if (i >= code.size() || code[i] != '(') continue;
    i = skip_space(code, i + 1);
    if (word_at(code, i, "nullptr") || word_at(code, i, "NULL") ||
        (code[i] == '0' && skip_space(code, i + 1) < code.size() &&
         code[skip_space(code, i + 1)] == ')')) {
      add_finding(ctx, at, "raw-random",
                  "time(nullptr) reads the wall clock; seeds must be explicit");
    }
  }
}

void rule_pointer_order(Context& ctx) {
  const std::string& code = ctx.file.code;
  static const std::vector<std::string> kContainers = {"set", "map", "unordered_set",
                                                       "unordered_map", "hash", "less",
                                                       "greater"};
  for (const std::string& container : kContainers) {
    std::size_t pos = 0;
    while ((pos = code.find(container, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += container.size();
      if (!word_at(code, at, container)) continue;
      const std::size_t open = at + container.size();
      if (open >= code.size() || code[open] != '<') continue;
      const std::string arg = trim(first_template_arg(code, open));
      if (!arg.empty() && arg.back() == '*') {
        add_finding(ctx, at, "pointer-order",
                    "std::" + container + "<" + arg +
                        "> orders/hashes by pointer value, which differs between "
                        "runs; key by a stable id");
      }
    }
  }
}

void rule_float_equality(Context& ctx) {
  const std::string& code = ctx.file.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const bool eq = code[i] == '=' && code[i + 1] == '=';
    const bool ne = code[i] == '!' && code[i + 1] == '=';
    if (!eq && !ne) continue;
    if (i > 0 && (code[i - 1] == '=' || code[i - 1] == '!' || code[i - 1] == '<' ||
                  code[i - 1] == '>')) {
      continue;
    }
    if (i + 2 < code.size() && code[i + 2] == '=') {  // skip the '==' inside '!=='-ish runs
      continue;
    }
    // A string/char literal on either side means this is not a numeric
    // comparison at all.
    {
      const std::size_t r = skip_space(code, i + 2);
      if (r < code.size() && (code[r] == '"' || code[r] == '\'')) continue;
      std::size_t l = i;
      while (l > 0 && std::isspace(static_cast<unsigned char>(code[l - 1]))) --l;
      if (l > 0 && (code[l - 1] == '"' || code[l - 1] == '\'')) continue;
    }
    // `operator==` / `operator!=` declarations compare whole objects.
    const std::string before = left_operand_name(code, i);
    if (before == "operator") continue;
    bool flagged = false;
    std::string detail;
    if (ctx.index.double_vars.count(before) != 0) {
      flagged = true;
      detail = "'" + before + "' is floating-point";
    }
    const std::size_t rhs = skip_space(code, i + 2);
    if (!flagged && is_float_literal(code, rhs)) {
      flagged = true;
      detail = "right operand is a floating-point literal";
    }
    if (!flagged) {
      bool is_call = false;
      const std::string after = right_operand_name(code, i + 2, &is_call);
      if (!is_call && ctx.index.double_vars.count(after) != 0) {
        flagged = true;
        detail = "'" + after + "' is floating-point";
      }
    }
    if (!flagged) {
      // Left operand a literal: walk back over the token and re-test it.
      std::size_t end = i;
      while (end > 0 && std::isspace(static_cast<unsigned char>(code[end - 1]))) --end;
      std::size_t start = end;
      while (start > 0 && (is_ident(code[start - 1]) || code[start - 1] == '.')) --start;
      if (start < end && is_float_literal(code, start)) {
        flagged = true;
        detail = "left operand is a floating-point literal";
      }
    }
    if (flagged) {
      add_finding(ctx, i, "float-equality",
                  std::string(eq ? "==" : "!=") + " on floating-point values (" + detail +
                      "); compare with a tolerance or suppress if exactness is intended");
    }
  }
}

void rule_enum_switch(Context& ctx) {
  const std::string& code = ctx.file.code;
  std::size_t pos = 0;
  while ((pos = code.find("switch", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 6;
    if (!word_at(code, at, "switch")) continue;
    const std::size_t open = skip_space(code, at + 6);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close_paren = match_forward(code, open, '(', ')');
    if (close_paren == std::string::npos) continue;
    const std::size_t brace = skip_space(code, close_paren + 1);
    if (brace >= code.size() || code[brace] != '{') continue;
    const std::size_t close_brace = match_forward(code, brace, '{', '}');
    if (close_brace == std::string::npos) continue;

    bool has_default = false;
    std::string enum_name;
    std::set<std::string> seen;
    for (std::size_t i = brace + 1; i < close_brace; ++i) {
      if (word_at(code, i, "default")) {
        const std::size_t colon = skip_space(code, i + 7);
        if (colon < code.size() && code[colon] == ':') has_default = true;
        i += 6;
      } else if (word_at(code, i, "case")) {
        std::size_t j = skip_space(code, i + 4);
        const std::string qualifier = read_ident(code, j);
        j += qualifier.size();
        if (code.compare(j, 2, "::") == 0) {
          const std::string value = read_ident(code, j + 2);
          if (ctx.index.enums.count(qualifier) != 0) {
            enum_name = qualifier;
            seen.insert(value);
          }
        }
        i += 3;
      }
    }
    if (has_default || enum_name.empty()) continue;
    const std::set<std::string>& all = ctx.index.enums.at(enum_name);
    std::vector<std::string> missing;
    for (const std::string& value : all) {
      if (seen.count(value) == 0) missing.push_back(value);
    }
    if (missing.empty()) continue;
    std::string list;
    for (const std::string& value : missing) {
      if (!list.empty()) list += ", ";
      list += value;
    }
    add_finding(ctx, at, "enum-switch",
                "switch over " + enum_name + " has no default and misses: " + list);
  }
}

/// Parses "elsim-lint: allow(a, b)" out of a comment; returns the rule list
/// (empty when the marker is absent).
std::vector<std::string> parse_allow(const std::string& comment) {
  std::vector<std::string> allowed;
  const std::size_t marker = comment.find("elsim-lint:");
  if (marker == std::string::npos) return allowed;
  const std::size_t allow = comment.find("allow", marker);
  if (allow == std::string::npos) return allowed;
  const std::size_t open = comment.find('(', allow);
  if (open == std::string::npos) return allowed;
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return allowed;
  std::string list = comment.substr(open + 1, close - open - 1);
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string rule = trim(list.substr(start, comma - start));
    if (!rule.empty()) allowed.push_back(rule);
    start = comma + 1;
  }
  return allowed;
}

bool is_suppressed(const SourceFile& file, const Finding& finding) {
  for (std::size_t line : {finding.line, finding.line - 1}) {
    if (line < 1 || line > file.comments.size()) continue;
    for (const std::string& rule : parse_allow(file.comments[line - 1])) {
      if (rule == "all" || rule == finding.rule) return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Finding> lint_file(const SourceFile& file, const SymbolIndex& index,
                               const std::set<std::string>& enabled) {
  std::vector<Finding> findings;
  const LineMap lines(file.code);
  // Merge this file's own declarations into the shared (header) index:
  // locals in one .cpp must not colour name lookups in another.
  SymbolIndex merged = index;
  index_symbols(file, merged);
  index_functions(file, merged);
  finalize_index(merged);
  const std::vector<FunctionDef> functions = find_functions(file);
  Context ctx{file, merged, lines, functions, findings};

  const auto want = [&enabled](const char* rule) {
    return enabled.empty() || enabled.count(rule) != 0;
  };
  if (want("unordered-iteration")) rule_unordered_iteration(ctx);
  if (want("raw-random")) rule_raw_random(ctx);
  if (want("pointer-order")) rule_pointer_order(ctx);
  if (want("float-equality")) rule_float_equality(ctx);
  if (want("enum-switch")) rule_enum_switch(ctx);
  if (want("mutable-static")) rule_mutable_static(ctx);
  if (want("raw-memory-order")) rule_raw_memory_order(ctx);
  if (want("lock-order")) rule_lock_order(ctx);
  if (want("signal-unsafe")) rule_signal_unsafe(ctx);
  if (want("hot-alloc")) rule_hot_alloc(ctx);
  if (want("hot-container-growth")) rule_hot_container_growth(ctx);
  if (want("hot-virtual-loop")) rule_hot_virtual_loop(ctx);

  for (Finding& finding : findings) {
    finding.suppressed = is_suppressed(file, finding);
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return findings;
}

std::string findings_to_json(const std::vector<Finding>& findings,
                             std::size_t files_scanned) {
  struct Tally {
    std::size_t total = 0;
    std::size_t suppressed = 0;
    std::size_t baselined = 0;
    std::size_t fresh = 0;
  };
  // Family order follows the catalog; every family is always present so
  // per-family diffs against a baseline never chase missing keys.
  std::vector<std::string> family_order;
  std::map<std::string, Tally> tallies;
  for (const RuleInfo& info : rules()) {
    if (tallies.count(info.family) == 0) {
      family_order.push_back(info.family);
      tallies[info.family] = Tally{};
    }
  }

  json::Array items;
  std::size_t suppressed = 0;
  std::size_t baselined = 0;
  for (const Finding& finding : findings) {
    json::Object item;
    item["file"] = finding.file;
    item["line"] = finding.line;
    item["rule"] = finding.rule;
    item["family"] = rule_family(finding.rule);
    item["message"] = finding.message;
    item["snippet"] = finding.snippet;
    item["suppressed"] = finding.suppressed;
    item["baselined"] = finding.baselined;
    items.push_back(json::Value(std::move(item)));
    Tally& tally = tallies[rule_family(finding.rule)];
    ++tally.total;
    if (finding.suppressed) {
      ++suppressed;
      ++tally.suppressed;
    } else if (finding.baselined) {
      ++baselined;
      ++tally.baselined;
    } else {
      ++tally.fresh;
    }
  }
  json::Object families;
  for (const std::string& family : family_order) {
    const Tally& tally = tallies[family];
    json::Object entry;
    entry["findings"] = tally.total;
    entry["suppressed"] = tally.suppressed;
    entry["baselined"] = tally.baselined;
    entry["new"] = tally.fresh;
    families[family] = json::Value(std::move(entry));
  }
  json::Object out;
  out["version"] = 2;
  out["files_scanned"] = files_scanned;
  out["finding_count"] = findings.size();
  out["suppressed_count"] = suppressed;
  out["unsuppressed_count"] = findings.size() - suppressed;
  out["baselined_count"] = baselined;
  out["new_count"] = findings.size() - suppressed - baselined;
  out["families"] = json::Value(std::move(families));
  out["findings"] = json::Value(std::move(items));
  return json::dump_pretty(json::Value(std::move(out)));
}

}  // namespace elsimlint
