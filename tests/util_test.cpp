#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "util/csv.h"
#include "util/flags.h"
#include "util/fmt.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/units.h"

namespace elastisim::util {
namespace {

// ---------------------------------------------------------------------------
// fmt
// ---------------------------------------------------------------------------

TEST(Fmt, SubstitutesInOrder) {
  EXPECT_EQ(fmt("a={} b={}", 1, "two"), "a=1 b=two");
}

TEST(Fmt, NoPlaceholders) { EXPECT_EQ(fmt("plain"), "plain"); }

TEST(Fmt, EscapedBraces) { EXPECT_EQ(fmt("{{}} {}", 7), "{} 7"); }

TEST(Fmt, SurplusArgumentsAppended) { EXPECT_EQ(fmt("x={}", 1, 2), "x=12"); }

TEST(Fmt, MissingArgumentsLeavePlaceholder) { EXPECT_EQ(fmt("x={} y={}", 1), "x=1 y={}"); }

TEST(Fmt, FormatsDoubles) {
  EXPECT_EQ(fmt("{}", 2.5), "2.5");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 6));
  EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6}));
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(2.0), 0.0);
}

TEST(Rng, LogUniformWithinBounds) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.log_uniform(2.0, 64.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 64.0 * (1.0 + 1e-12));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  constexpr int kSamples = 40000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double variance = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 3.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(29);
  int hits = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Rng, PowerOfTwoInRange) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.power_of_two(2, 64);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 64);
    EXPECT_EQ(v & (v - 1), 0) << v << " is not a power of two";
  }
}

TEST(Rng, PowerOfTwoRoundsUpWhenRangeHasNoPower) {
  Rng rng(31);
  // [5, 7] contains no power of two; the implementation returns the power
  // of two at/above lo (8), the documented degenerate behavior.
  EXPECT_EQ(rng.power_of_two(5, 7), 8);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(37);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kSamples, 0.75, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentOfLaterDraws) {
  Rng a(99);
  Rng child_a = a.split();
  const double first = child_a.uniform();

  Rng b(99);
  Rng child_b = b.split();
  // Drawing more from the parent does not change what the child yields.
  b.uniform();
  b.uniform();
  EXPECT_EQ(child_b.uniform(), first);
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.typed_row("a", 1, 2.5);
  EXPECT_EQ(out.str(), "a,1,2.5\n");
}

TEST(Csv, QuotesFieldsWithCommas) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(Csv, DoublesEmbeddedQuotes) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, QuotesNewlines) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(Csv, SplitRoundTripsEscaping) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.typed_row("plain", "with,comma", "with\"quote", "multi\nline");
  std::string line = out.str();
  line.pop_back();  // trailing newline
  const auto fields = split_csv_line(line);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with\"quote");
  EXPECT_EQ(fields[3], "multi\nline");
}

TEST(Csv, SplitHandlesEmptyFields) {
  const auto fields = split_csv_line("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(Csv, DoubleFieldRoundTrips) {
  const std::string field = CsvWriter::to_field(0.1);
  EXPECT_EQ(std::stod(field), 0.1);
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(Units, ParseBytesPlain) { EXPECT_DOUBLE_EQ(parse_bytes("1024").value(), 1024.0); }

TEST(Units, ParseBytesDecimalSuffixes) {
  EXPECT_DOUBLE_EQ(parse_bytes("2K").value(), 2000.0);
  EXPECT_DOUBLE_EQ(parse_bytes("2KB").value(), 2000.0);
  EXPECT_DOUBLE_EQ(parse_bytes("1.5G").value(), 1.5e9);
}

TEST(Units, ParseBytesBinarySuffixes) {
  EXPECT_DOUBLE_EQ(parse_bytes("1KiB").value(), 1024.0);
  EXPECT_DOUBLE_EQ(parse_bytes("2GiB").value(), 2.0 * 1024 * 1024 * 1024);
}

TEST(Units, ParseBytesRejectsGarbage) {
  EXPECT_FALSE(parse_bytes("abc").has_value());
  EXPECT_FALSE(parse_bytes("12XB").has_value());
  EXPECT_FALSE(parse_bytes("").has_value());
}

TEST(Units, ParseFlops) {
  EXPECT_DOUBLE_EQ(parse_flops("2.5GF").value(), 2.5e9);
  EXPECT_DOUBLE_EQ(parse_flops("500Mf").value(), 5e8);
  EXPECT_DOUBLE_EQ(parse_flops("1e9").value(), 1e9);
}

TEST(Units, ParseBandwidthBytesPerSecond) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("12.5GBps").value(), 12.5e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth("100MB/s").value(), 1e8);
}

TEST(Units, ParseBandwidthBitsPerSecond) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("100Gbps").value(), 100e9 / 8.0);
  EXPECT_DOUBLE_EQ(parse_bandwidth("10Gb/s").value(), 10e9 / 8.0);
}

TEST(Units, ParseDuration) {
  EXPECT_DOUBLE_EQ(parse_duration("90").value(), 90.0);
  EXPECT_DOUBLE_EQ(parse_duration("250ms").value(), 0.25);
  EXPECT_DOUBLE_EQ(parse_duration("2m").value(), 120.0);
  EXPECT_DOUBLE_EQ(parse_duration("1.5h").value(), 5400.0);
  EXPECT_DOUBLE_EQ(parse_duration("1d").value(), 86400.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.00B");
  EXPECT_EQ(format_bytes(1536), "1.50KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024 * 1024), "3.50GiB");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(0.1234), "123.4ms");
  EXPECT_EQ(format_duration(42.0), "42.0s");
  EXPECT_EQ(format_duration(3723.0), "1h02m03s");
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(Flags, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--nodes=16"};
  Flags flags(2, argv);
  EXPECT_EQ(flags.get("nodes", std::int64_t{0}), 16);
}

TEST(Flags, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--name", "hello"};
  Flags flags(3, argv);
  EXPECT_EQ(flags.get("name", std::string("x")), "hello");
}

TEST(Flags, BooleanPresence) {
  const char* argv[] = {"prog", "--verbose"};
  Flags flags(2, argv);
  EXPECT_TRUE(flags.get("verbose", false));
  EXPECT_FALSE(flags.get("quiet", false));
}

TEST(Flags, Positional) {
  const char* argv[] = {"prog", "input.json", "--n=1", "output.csv"};
  Flags flags(4, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.json");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(Flags, BooleanAllowlistKeepsNextTokenPositional) {
  const char* argv[] = {"prog", "--quiet", "src", "--json", "report.json"};
  Flags flags(5, argv, {"quiet"});
  EXPECT_TRUE(flags.get("quiet", false));
  EXPECT_EQ(flags.get("json", std::string()), "report.json");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "src");
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_DOUBLE_EQ(flags.get("rate", 2.5), 2.5);
  EXPECT_EQ(flags.get("name", std::string("dflt")), "dflt");
}

TEST(Flags, MalformedNumberIsAnError) {
  // A value must parse in full: no silent default, no silently dropped tail.
  const char* argv[] = {"prog",       "--n=abc",  "--interval=5x", "--rate=",
                        "--count=1.5", "--ok=2.5", "--bare"};
  Flags flags(7, argv);
  EXPECT_THROW(flags.get("n", std::int64_t{7}), FlagError);
  EXPECT_THROW(flags.get("n", 7.0), FlagError);
  EXPECT_THROW(flags.get("interval", 0.0), FlagError);
  EXPECT_THROW(flags.get("rate", 1.0), FlagError);
  EXPECT_THROW(flags.get("count", std::int64_t{0}), FlagError);
  EXPECT_THROW(flags.get("bare", 0.0), FlagError);  // a valueless flag reads "true"
  EXPECT_DOUBLE_EQ(flags.get("ok", 0.0), 2.5);
  try {
    flags.get("interval", 0.0);
  } catch (const FlagError& error) {
    EXPECT_STREQ(error.what(), "--interval: expected a number, got \"5x\"");
  }
}

TEST(Flags, UnusedDetectsTypos) {
  const char* argv[] = {"prog", "--nodse=16"};
  Flags flags(2, argv);
  flags.get("nodes", std::int64_t{0});
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "nodse");
}

TEST(Flags, DuplicatesRecordedLastValueWins) {
  const char* argv[] = {"prog", "--seed=1", "--n=2", "--seed=9"};
  Flags flags(4, argv);
  EXPECT_EQ(flags.get("seed", std::int64_t{0}), 9);
  ASSERT_EQ(flags.duplicates().size(), 1u);
  EXPECT_EQ(flags.duplicates()[0], "seed");
}

TEST(Flags, EditDistance) {
  EXPECT_EQ(Flags::edit_distance("scheduler", "scheduler"), 0u);
  EXPECT_EQ(Flags::edit_distance("schedular", "scheduler"), 1u);
  EXPECT_EQ(Flags::edit_distance("sched", "scheduler"), 4u);
  EXPECT_EQ(Flags::edit_distance("", "abc"), 3u);
  EXPECT_EQ(Flags::edit_distance("kitten", "sitting"), 3u);
}

TEST(Flags, UnknownWithSuggestionsFindsCloseName) {
  const char* argv[] = {"prog", "--schedular=fcfs"};
  Flags flags(2, argv);
  flags.get("scheduler", std::string());
  const auto unknown = flags.unknown_with_suggestions();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].first, "schedular");
  EXPECT_EQ(unknown[0].second, "scheduler");
}

TEST(Flags, UnknownWithSuggestionsSkipsFarNames) {
  const char* argv[] = {"prog", "--frobnicate=1"};
  Flags flags(2, argv);
  flags.get("scheduler", std::string());
  const auto unknown = flags.unknown_with_suggestions();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].first, "frobnicate");
  EXPECT_EQ(unknown[0].second, "");
}

TEST(Flags, NoteKnownSuppressesUnknownAndFeedsSuggestions) {
  const char* argv[] = {"prog", "--swf-maleable=0.5"};
  Flags flags(2, argv);
  flags.note_known({"swf-malleable", "swf-cores-per-node"});
  const auto unknown = flags.unknown_with_suggestions();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].second, "swf-malleable");
  // And a noted name itself is never reported unknown.
  const char* argv2[] = {"prog", "--swf-malleable=0.5"};
  Flags flags2(2, argv2);
  flags2.note_known({"swf-malleable"});
  EXPECT_TRUE(flags2.unknown_with_suggestions().empty());
}

// ---------------------------------------------------------------------------
// Log
// ---------------------------------------------------------------------------

TEST(Log, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kWarn);
}

TEST(Log, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

}  // namespace
}  // namespace elastisim::util
