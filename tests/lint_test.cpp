// elsim-lint library tests: the lexical preprocessor, the symbol index, each
// rule (determinism, concurrency, hot-path families) against small fixtures
// with known violations, elsim-hot propagation, suppression comments, the
// baseline round trip, and the JSON report schema (via json::parse).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "elsim-lint/lint.h"
#include "json/json.h"

namespace elsimlint {
namespace {

namespace json = elastisim::json;

/// Lints `text` as a fixture at `path`; `header` optionally seeds the shared
/// symbol index the way pass 1 does for real headers. Function-level facts
/// (elsim-hot annotations, signal-handler registrations) are indexed from
/// both files, mirroring the driver.
std::vector<Finding> run_lint_path(const std::string& path, const std::string& text,
                                   const std::string& header = "",
                                   const std::set<std::string>& enabled = {}) {
  SymbolIndex index;
  if (!header.empty()) {
    const SourceFile header_file = preprocess("fixture.h", header);
    index_symbols(header_file, index);
    index_functions(header_file, index);
  }
  const SourceFile file = preprocess(path, text);
  index_functions(file, index);
  finalize_index(index);
  return lint_file(file, index, enabled);
}

std::vector<Finding> run_lint(const std::string& text, const std::string& header = "",
                              const std::set<std::string>& enabled = {}) {
  return run_lint_path("fixture.cpp", text, header, enabled);
}

std::size_t count_rule(const std::vector<Finding>& findings, const std::string& rule,
                       bool include_suppressed = true) {
  std::size_t n = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == rule && (include_suppressed || !finding.suppressed)) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------------

TEST(LintPreprocess, CommentsAreBlankedAndCollected) {
  const SourceFile file = preprocess("f.cpp", "int x; // rand() here\nint y;\n");
  EXPECT_EQ(file.lines.size(), 3u);  // trailing newline yields an empty last line
  EXPECT_NE(file.code.find("int x;"), std::string::npos);
  EXPECT_EQ(file.code.find("rand"), std::string::npos);
  EXPECT_NE(file.comments[0].find("rand() here"), std::string::npos);
}

TEST(LintPreprocess, StringContentsAreBlankedButQuotesKept) {
  const SourceFile file = preprocess("f.cpp", "auto s = \"rand() time(nullptr)\";\n");
  EXPECT_EQ(file.code.find("rand"), std::string::npos);
  EXPECT_NE(file.code.find('"'), std::string::npos);
}

TEST(LintPreprocess, RawStringsAreBlanked) {
  const SourceFile file =
      preprocess("f.cpp", "auto s = R\"css(rand() \" unbalanced)css\";\nint z;\n");
  EXPECT_EQ(file.code.find("rand"), std::string::npos);
  EXPECT_NE(file.code.find("int z;"), std::string::npos);
}

TEST(LintPreprocess, NewlinesPreservedForLineNumbers) {
  const SourceFile file = preprocess("f.cpp", "a\n/* two\nline */\nb\n");
  EXPECT_EQ(std::count(file.code.begin(), file.code.end(), '\n'), 4);
}

// ---------------------------------------------------------------------------
// Symbol index
// ---------------------------------------------------------------------------

TEST(LintIndex, CollectsDeclarations) {
  SymbolIndex index;
  index_symbols(preprocess("f.h",
                           "std::unordered_map<int, double> lookup_;\n"
                           "double progress_;\n"
                           "SimTime deadline;\n"
                           "enum class Color { kRed, kGreen = 4, kBlue };\n"),
                index);
  EXPECT_EQ(index.unordered_vars.count("lookup_"), 1u);
  EXPECT_EQ(index.double_vars.count("progress_"), 1u);
  EXPECT_EQ(index.double_vars.count("deadline"), 1u);
  ASSERT_EQ(index.enums.count("Color"), 1u);
  EXPECT_EQ(index.enums["Color"].size(), 3u);
  EXPECT_EQ(index.enums["Color"].count("kGreen"), 1u);
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

TEST(LintRules, UnorderedIterationFlagged) {
  const auto findings = run_lint(
      "std::unordered_map<int, int> counts_;\n"
      "void f() { for (const auto& [k, v] : counts_) { use(k, v); } }\n");
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 1u);
}

TEST(LintRules, OrderedIterationNotFlagged) {
  const auto findings = run_lint(
      "std::map<int, int> counts_;\n"
      "void f() { for (const auto& [k, v] : counts_) { use(k, v); } }\n");
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 0u);
}

TEST(LintRules, UnorderedBeginFlagged) {
  const auto findings = run_lint(
      "std::unordered_set<int> seen_;\n"
      "int f() { return *seen_.begin(); }\n");
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 1u);
}

TEST(LintRules, UnorderedLookupNotFlagged) {
  const auto findings = run_lint(
      "std::unordered_map<int, int> counts_;\n"
      "int f(int k) { return counts_.at(k); }\n");
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 0u);
}

TEST(LintRules, RawRandomFlagged) {
  const auto findings = run_lint(
      "int a() { return rand(); }\n"
      "std::mt19937 gen_;\n"
      "long b() { return time(nullptr); }\n");
  EXPECT_EQ(count_rule(findings, "raw-random"), 3u);
}

TEST(LintRules, RandAsSubstringNotFlagged) {
  const auto findings = run_lint("int strand_count(); double operand(int rando);\n");
  EXPECT_EQ(count_rule(findings, "raw-random"), 0u);
}

TEST(LintRules, PointerOrderFlagged) {
  const auto findings = run_lint("std::set<Node*> picked_;\nstd::map<int, int> fine_;\n");
  EXPECT_EQ(count_rule(findings, "pointer-order"), 1u);
}

TEST(LintRules, FloatEqualityOnVariableFlagged) {
  const auto findings = run_lint(
      "double progress_;\n"
      "bool f() { return progress_ == 1.5; }\n"
      "bool g(double other) { return progress_ != other; }\n");
  EXPECT_EQ(count_rule(findings, "float-equality"), 2u);
}

TEST(LintRules, FloatEqualityUsesHeaderIndex) {
  const auto findings = run_lint("bool f() { return speed == limit; }\n",
                                 "double speed; int limit;\n");
  EXPECT_EQ(count_rule(findings, "float-equality"), 1u);
}

TEST(LintRules, IteratorEndComparisonNotFlagged) {
  // `.end()` is a call: its result type is unknowable lexically, even when
  // some header declares a `double end`.
  const auto findings = run_lint(
      "bool f() { auto it = m_.find(k); return it != m_.end(); }\n", "double end;\n");
  EXPECT_EQ(count_rule(findings, "float-equality"), 0u);
}

TEST(LintRules, StringComparisonNotFlagged) {
  const auto findings =
      run_lint("bool f() { return *value == \"true\" || *value == \"1\"; }\n",
               "double value;\n");
  EXPECT_EQ(count_rule(findings, "float-equality"), 0u);
}

TEST(LintRules, IntegerComparisonNotFlagged) {
  const auto findings = run_lint("bool f(int a, int b) { return a == b; }\n");
  EXPECT_EQ(count_rule(findings, "float-equality"), 0u);
}

TEST(LintRules, MemberAfterSubscriptIsNotALiteral) {
  // The left-operand walk stops at `]`, so it reads `.users` and `.frozen_in`
  // as tokens: a dot, or an f, without a digit before it is no literal. A
  // literal that starts with its point still is one, on either side.
  const auto clean = run_lint(
      "struct R { int users; long frozen_in; };\n"
      "bool f(const R* a, int i, long n) { return a[i].users == 1 || a[i].frozen_in != n; }\n");
  EXPECT_EQ(count_rule(clean, "float-equality"), 0u);
  const auto flagged = run_lint(
      "bool g(double x) { return .5 == x; }\n"
      "bool h(int x) { return x != .5e3; }\n");
  EXPECT_EQ(count_rule(flagged, "float-equality"), 2u);
}

TEST(LintRules, NonExhaustiveSwitchFlagged) {
  const auto findings = run_lint(
      "enum class Color { kRed, kGreen, kBlue };\n"
      "int f(Color c) { switch (c) { case Color::kRed: return 1;\n"
      "case Color::kGreen: return 2; } return 0; }\n");
  EXPECT_EQ(count_rule(findings, "enum-switch"), 1u);
}

TEST(LintRules, ExhaustiveSwitchNotFlagged) {
  const auto findings = run_lint(
      "enum class Color { kRed, kGreen };\n"
      "int f(Color c) { switch (c) { case Color::kRed: return 1;\n"
      "case Color::kGreen: return 2; } return 0; }\n");
  EXPECT_EQ(count_rule(findings, "enum-switch"), 0u);
}

TEST(LintRules, DefaultedSwitchNotFlagged) {
  const auto findings = run_lint(
      "enum class Color { kRed, kGreen, kBlue };\n"
      "int f(Color c) { switch (c) { case Color::kRed: return 1;\n"
      "default: return 0; } }\n");
  EXPECT_EQ(count_rule(findings, "enum-switch"), 0u);
}

TEST(LintRules, RuleFilterRestrictsScan) {
  const std::string fixture =
      "std::unordered_map<int, int> counts_;\n"
      "void f() { srand(7); for (const auto& [k, v] : counts_) use(k, v); }\n";
  const auto only_random = run_lint(fixture, "", {"raw-random"});
  EXPECT_EQ(count_rule(only_random, "raw-random"), 1u);
  EXPECT_EQ(count_rule(only_random, "unordered-iteration"), 0u);
}

// ---------------------------------------------------------------------------
// Suppression
// ---------------------------------------------------------------------------

TEST(LintSuppress, SameLineCommentSuppresses) {
  const auto findings = run_lint(
      "int f() { return rand(); }  // elsim-lint: allow(raw-random)\n");
  ASSERT_EQ(count_rule(findings, "raw-random"), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

TEST(LintSuppress, PrecedingLineCommentSuppresses) {
  const auto findings = run_lint(
      "// elsim-lint: allow(raw-random) -- fixture explanation\n"
      "int f() { return rand(); }\n");
  ASSERT_EQ(count_rule(findings, "raw-random"), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

TEST(LintSuppress, AllowAllAndListsWork) {
  const auto findings = run_lint(
      "std::unordered_map<int, int> counts_;\n"
      "// elsim-lint: allow(unordered-iteration, raw-random)\n"
      "void f() { srand(time(nullptr)); for (const auto& [k, v] : counts_) use(k); }\n"
      "// elsim-lint: allow(all)\n"
      "int g() { return rand(); }\n",
      "", {"unordered-iteration", "raw-random"});
  for (const Finding& finding : findings) {
    EXPECT_TRUE(finding.suppressed) << finding.rule << " at line " << finding.line;
  }
}

TEST(LintSuppress, WrongRuleDoesNotSuppress) {
  const auto findings = run_lint(
      "// elsim-lint: allow(float-equality)\n"
      "int f() { return rand(); }\n");
  ASSERT_EQ(count_rule(findings, "raw-random"), 1u);
  EXPECT_FALSE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

TEST(LintReport, JsonSchemaRoundTrips) {
  auto findings = run_lint(
      "int f() { return rand(); }  // elsim-lint: allow(raw-random)\n"
      "std::set<Job*> order_;\n",
      "", {"raw-random", "pointer-order"});
  const json::Value report = json::parse(findings_to_json(findings, 1));
  EXPECT_EQ(report.member_or("version", std::int64_t(0)), 2);
  EXPECT_EQ(report.member_or("files_scanned", std::int64_t(0)), 1);
  EXPECT_EQ(report.member_or("finding_count", std::int64_t(0)), 2);
  EXPECT_EQ(report.member_or("suppressed_count", std::int64_t(-1)), 1);
  EXPECT_EQ(report.member_or("unsuppressed_count", std::int64_t(-1)), 1);
  EXPECT_EQ(report.member_or("baselined_count", std::int64_t(-1)), 0);
  EXPECT_EQ(report.member_or("new_count", std::int64_t(-1)), 1);
  const json::Value* items = report.find("findings");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->as_array().size(), 2u);
  const json::Value& first = items->as_array()[0];
  EXPECT_EQ(first.member_or("file", std::string()), "fixture.cpp");
  EXPECT_EQ(first.member_or("line", std::int64_t(0)), 1);
  EXPECT_EQ(first.member_or("rule", std::string()), "raw-random");
  EXPECT_EQ(first.member_or("family", std::string()), "determinism");
  EXPECT_TRUE(first.member_or("suppressed", false));
  EXPECT_FALSE(first.member_or("baselined", true));
  EXPECT_FALSE(first.member_or("message", std::string()).empty());
  EXPECT_FALSE(first.member_or("snippet", std::string()).empty());
}

TEST(LintReport, FamiliesSummaryAlwaysListsEveryFamily) {
  auto findings = run_lint("int f() { return rand(); }\n", "", {"raw-random"});
  const json::Value report = json::parse(findings_to_json(findings, 1));
  const json::Value* families = report.find("families");
  ASSERT_NE(families, nullptr);
  for (const char* family : {"determinism", "concurrency", "hot-path"}) {
    const json::Value* entry = families->find(family);
    ASSERT_NE(entry, nullptr) << family;
    EXPECT_GE(entry->member_or("findings", std::int64_t(-1)), 0) << family;
    EXPECT_GE(entry->member_or("new", std::int64_t(-1)), 0) << family;
  }
  EXPECT_EQ(families->find("determinism")->member_or("new", std::int64_t(0)), 1);
  EXPECT_EQ(families->find("hot-path")->member_or("new", std::int64_t(-1)), 0);
}

TEST(LintReport, RuleCatalogIsStable) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"unordered-iteration", "determinism"}, {"raw-random", "determinism"},
      {"pointer-order", "determinism"},       {"float-equality", "determinism"},
      {"enum-switch", "determinism"},         {"mutable-static", "concurrency"},
      {"raw-memory-order", "concurrency"},    {"lock-order", "concurrency"},
      {"signal-unsafe", "concurrency"},       {"hot-alloc", "hot-path"},
      {"hot-container-growth", "hot-path"},   {"hot-virtual-loop", "hot-path"},
  };
  ASSERT_EQ(rules().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rules()[i].name, expected[i].first);
    EXPECT_EQ(rules()[i].family, expected[i].second);
    EXPECT_EQ(rules()[i].severity, "error");
    EXPECT_FALSE(rules()[i].summary.empty());
  }
  EXPECT_NE(find_rule("mutable-static"), nullptr);
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
  EXPECT_EQ(rule_family("hot-alloc"), "hot-path");
  EXPECT_EQ(rule_family("no-such-rule"), "unknown");
}

// ---------------------------------------------------------------------------
// Family "concurrency"
// ---------------------------------------------------------------------------

TEST(LintConcurrency, MutableStaticLocalFlagged) {
  const auto findings = run_lint("void f() { static int counter = 0; use(counter); }\n");
  EXPECT_EQ(count_rule(findings, "mutable-static"), 1u);
}

TEST(LintConcurrency, ConstAndConstexprStaticsNotFlagged) {
  const auto findings = run_lint(
      "static const int kA = 1;\n"
      "static constexpr double kB = 2.0;\n"
      "constexpr int kC = 3;\n");
  EXPECT_EQ(count_rule(findings, "mutable-static"), 0u);
}

TEST(LintConcurrency, MutableNamespaceScopeFlagged) {
  const auto findings = run_lint(
      "namespace app {\n"
      "int g_count;\n"
      "sim::CancellationToken g_token;\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "mutable-static"), 2u);
}

TEST(LintConcurrency, AtomicThreadLocalAndMutexNotFlagged) {
  const auto findings = run_lint(
      "std::atomic<bool> g_stop{false};\n"
      "thread_local int g_scratch;\n"
      "std::mutex g_mu;\n"
      "std::once_flag g_once;\n");
  EXPECT_EQ(count_rule(findings, "mutable-static"), 0u);
}

TEST(LintConcurrency, FunctionsAndClassMembersNotFlagged) {
  const auto findings = run_lint(
      "int compute();\n"
      "void helper(int x) { use(x); }\n"
      "class Widget { int size_; double scale_; };\n"
      "struct Pod { long a; };\n");
  EXPECT_EQ(count_rule(findings, "mutable-static"), 0u);
}

TEST(LintConcurrency, RawMemoryOrderFlagged) {
  const auto findings = run_lint(
      "void f() { flag_.store(true, std::memory_order_relaxed); }\n"
      "void g() { flag_.load(std::memory_order::acquire); }\n");
  EXPECT_EQ(count_rule(findings, "raw-memory-order"), 2u);
}

TEST(LintConcurrency, MemoryOrderExemptInAuditedKernels) {
  const std::string fixture = "void f() { flag_.store(true, std::memory_order_relaxed); }\n";
  EXPECT_EQ(count_rule(run_lint_path("src/sim/cancellation.cpp", fixture),
                       "raw-memory-order"),
            0u);
  EXPECT_EQ(count_rule(run_lint_path("src/core/sweep_runner.cpp", fixture),
                       "raw-memory-order"),
            0u);
  EXPECT_EQ(count_rule(run_lint_path("src/core/engine.cpp", fixture), "raw-memory-order"),
            1u);
}

TEST(LintConcurrency, NestedDistinctLocksFlagged) {
  const auto findings = run_lint(
      "void f() {\n"
      "  std::lock_guard<std::mutex> a(mu_a_);\n"
      "  std::lock_guard<std::mutex> b(mu_b_);\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "lock-order"), 1u);
}

TEST(LintConcurrency, SequentialScopesNotFlagged) {
  const auto findings = run_lint(
      "void f() {\n"
      "  { std::lock_guard<std::mutex> a(mu_a_); use(a); }\n"
      "  { std::lock_guard<std::mutex> b(mu_b_); use(b); }\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "lock-order"), 0u);
}

TEST(LintConcurrency, SameMutexAndDeferredLocksNotFlagged) {
  const auto findings = run_lint(
      "void f() {\n"
      "  std::lock_guard<std::mutex> a(mu_);\n"
      "  std::lock_guard<std::mutex> b(mu_);\n"
      "}\n"
      "void g() {\n"
      "  std::unique_lock<std::mutex> a(mu_a_);\n"
      "  std::unique_lock<std::mutex> b(mu_b_, std::defer_lock);\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "lock-order"), 0u);
}

TEST(LintConcurrency, SignalHandlerAllocationFlagged) {
  const auto findings = run_lint(
      "void on_signal(int) { std::printf(\"sig\\n\"); }\n"
      "void install() { std::signal(SIGINT, on_signal); }\n");
  EXPECT_EQ(count_rule(findings, "signal-unsafe"), 1u);
}

TEST(LintConcurrency, SigactionStyleRegistrationIndexed) {
  const auto findings = run_lint(
      "void on_crash(int) { std::string detail = describe(); emit(detail); }\n"
      "void install() { struct sigaction sa; sa.sa_handler = on_crash; }\n");
  EXPECT_GE(count_rule(findings, "signal-unsafe"), 1u);
}

TEST(LintConcurrency, AsyncSafeHandlerNotFlagged) {
  const auto findings = run_lint(
      "void on_signal(int) { g_stop.store(true); }\n"
      "void install() { std::signal(SIGTERM, on_signal); }\n");
  EXPECT_EQ(count_rule(findings, "signal-unsafe"), 0u);
}

TEST(LintConcurrency, UnregisteredFunctionNotScanned) {
  const auto findings = run_lint(
      "void report() { std::printf(\"fine outside a handler\\n\"); }\n");
  EXPECT_EQ(count_rule(findings, "signal-unsafe"), 0u);
}

// ---------------------------------------------------------------------------
// Family "hot-path"
// ---------------------------------------------------------------------------

TEST(LintHotPath, AllocationInHotRegionFlagged) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void tick() {\n"
      "  std::vector<int> scratch(7);\n"
      "  auto owned = std::make_unique<Node>();\n"
      "  int* raw = new int(3);\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 3u);
}

TEST(LintHotPath, StringConstructionAndConcatFlagged) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void label(const std::string& base) {\n"
      "  std::string tag = base + \"-suffix\";\n"
      "}\n");
  // Both the std::string declaration and the literal concatenation flag.
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 2u);
}

TEST(LintHotPath, ColdFunctionNotFlagged) {
  const auto findings = run_lint(
      "void tick() { std::vector<int> scratch(7); use(scratch); }\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0u);
}

TEST(LintHotPath, HotnessPropagatesToPlainCallees) {
  const auto findings = run_lint(
      "void helper() { std::vector<int> v(3); use(v); }\n"
      "// elsim-hot\n"
      "void driver() { helper(); }\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 1u);
}

TEST(LintHotPath, MemberAndQualifiedCallsDoNotPropagate) {
  const auto findings = run_lint(
      "void helper() { std::vector<int> v(3); use(v); }\n"
      "// elsim-hot\n"
      "void driver(Obj& o, Obj* p) { o.helper(); p->helper(); util::helper(); }\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0u);
}

TEST(LintHotPath, PropagationStopsAfterOneLevel) {
  const auto findings = run_lint(
      "void leaf() { std::vector<int> v(3); use(v); }\n"
      "void mid() { leaf(); }\n"
      "// elsim-hot\n"
      "void top() { mid(); }\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0u);
}

TEST(LintHotPath, QualifiedAnnotationDoesNotLeakToSameBareName) {
  // Engine::run is hot; SweepRunner::run must not inherit that.
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void Engine::run() { step(); }\n"
      "void SweepRunner::run() { std::vector<int> cells(9); use(cells); }\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0u);
}

TEST(LintHotPath, UnreservedGrowthFlagged) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void collect() { out_.push_back(1); }\n");
  EXPECT_EQ(count_rule(findings, "hot-container-growth"), 1u);
}

TEST(LintHotPath, VisibleReserveSilencesGrowth) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void collect(std::size_t n) { out_.reserve(n); out_.push_back(1); }\n");
  EXPECT_EQ(count_rule(findings, "hot-container-growth"), 0u);
}

TEST(LintHotPath, VirtualDispatchInLoopFlagged) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void drive(Base* b, int n) { for (int i = 0; i < n; ++i) { b->step(); } }\n",
      "struct Base { virtual void step(); };\n");
  EXPECT_EQ(count_rule(findings, "hot-virtual-loop"), 1u);
}

TEST(LintHotPath, VirtualDispatchOutsideLoopNotFlagged) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void once(Base* b) { b->step(); }\n",
      "struct Base { virtual void step(); };\n");
  EXPECT_EQ(count_rule(findings, "hot-virtual-loop"), 0u);
}

TEST(LintHotPath, NonVirtualCallInLoopNotFlagged) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void drive(Thing* t, int n) { for (int i = 0; i < n; ++i) { t->poke(); } }\n",
      "struct Thing { void poke(); };\n");
  EXPECT_EQ(count_rule(findings, "hot-virtual-loop"), 0u);
}

TEST(LintHotPath, SuppressionAppliesToHotRules) {
  const auto findings = run_lint(
      "// elsim-hot\n"
      "void tick() {\n"
      "  // elsim-lint: allow(hot-alloc) -- fixture rationale\n"
      "  std::vector<int> scratch(7);\n"
      "}\n");
  ASSERT_EQ(count_rule(findings, "hot-alloc"), 1u);
  EXPECT_EQ(count_rule(findings, "hot-alloc", /*include_suppressed=*/false), 0u);
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

Finding make_finding(const std::string& file, std::size_t line, const std::string& rule,
                     const std::string& snippet) {
  Finding finding;
  finding.file = file;
  finding.line = line;
  finding.rule = rule;
  finding.snippet = snippet;
  return finding;
}

TEST(LintBaseline, KeyIgnoresLineNumbers) {
  const Finding a = make_finding("a.cpp", 10, "raw-random", "rand();");
  const Finding b = make_finding("a.cpp", 99, "raw-random", "rand();");
  EXPECT_EQ(baseline_key(a), baseline_key(b));
  EXPECT_NE(baseline_key(a), baseline_key(make_finding("b.cpp", 10, "raw-random", "rand();")));
}

TEST(LintBaseline, RoundTripAbsorbsRecordedFindings) {
  auto findings = run_lint("int f() { return rand(); }\n", "", {"raw-random"});
  ASSERT_EQ(findings.size(), 1u);
  const Baseline baseline = parse_baseline(baseline_to_json(findings));
  EXPECT_EQ(apply_baseline(findings, baseline), 1u);
  EXPECT_TRUE(findings[0].baselined);
}

TEST(LintBaseline, SuppressedFindingsAreNotRecorded) {
  auto findings = run_lint(
      "int f() { return rand(); }  // elsim-lint: allow(raw-random)\n", "",
      {"raw-random"});
  ASSERT_EQ(findings.size(), 1u);
  const Baseline baseline = parse_baseline(baseline_to_json(findings));
  EXPECT_TRUE(baseline.accepted.empty());
}

TEST(LintBaseline, EntriesAbsorbAtMostTheirCount) {
  std::vector<Finding> findings = {make_finding("a.cpp", 1, "raw-random", "rand();"),
                                   make_finding("a.cpp", 2, "raw-random", "rand();")};
  Baseline baseline;
  baseline.accepted[baseline_key(findings[0])] = 1;
  EXPECT_EQ(apply_baseline(findings, baseline), 1u);
  EXPECT_TRUE(findings[0].baselined);
  EXPECT_FALSE(findings[1].baselined);
}

TEST(LintBaseline, MalformedInputThrows) {
  EXPECT_THROW(parse_baseline("{not json"), std::runtime_error);
  EXPECT_THROW(parse_baseline("{\"schema\": \"wrong-schema\", \"findings\": []}"),
               std::runtime_error);
  EXPECT_THROW(parse_baseline("{\"schema\": \"elsim-lint-baseline-v1\"}"),
               std::runtime_error);
}

TEST(LintBaseline, BaselinedFindingsCountedInReport) {
  auto findings = run_lint("int f() { return rand(); }\n", "", {"raw-random"});
  apply_baseline(findings, parse_baseline(baseline_to_json(findings)));
  const json::Value report = json::parse(findings_to_json(findings, 1));
  EXPECT_EQ(report.member_or("baselined_count", std::int64_t(-1)), 1);
  EXPECT_EQ(report.member_or("new_count", std::int64_t(-1)), 0);
  const json::Value* families = report.find("families");
  ASSERT_NE(families, nullptr);
  EXPECT_EQ(families->find("determinism")->member_or("baselined", std::int64_t(-1)), 1);
}

}  // namespace
}  // namespace elsimlint
