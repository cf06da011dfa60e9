// Unit tests for the common utilities: strings, units, rng, stats, tables,
// CSV, flags, logging.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <set>

#include "common/bytes.hpp"
#include "common/cancel.hpp"
#include "common/csv.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/line_cursor.hpp"
#include "common/rng.hpp"
#include "common/signals.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace osim {
namespace {

// --- strings ---------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleToken) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

// A wall-clock budget too large for the clock is unbounded, not an
// overflowed conversion that fires at once.
TEST(Cancel, DeadlinesSaturate) {
  using Clock = CancelToken::Clock;
  for (const double seconds : {1e9, 1e300}) {
    EXPECT_EQ(deadline_after(seconds), Clock::time_point::max());
  }
  const Clock::time_point before = Clock::now();
  const Clock::time_point soon = deadline_after(2.5);
  EXPECT_GE(soon - before, std::chrono::milliseconds(2500));
  EXPECT_LT(soon - before, std::chrono::seconds(60));
}

TEST(LineCursor, TokensCommentsAndLineNumbers) {
  LineCursor in("magic\n  a \t b\r\n\n# note\n c  # tail\n \t\n", "input");
  in.expect_first_line("magic");
  ASSERT_TRUE(in.next());
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in.token(0), "a");
  EXPECT_EQ(in.token(1), "b");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.size(), 1u);
  EXPECT_EQ(in.token(0), "c");
  in.unread();
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.token(0), "c");
  try {
    in.token(1);
    ADD_FAILURE() << "missing field accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "input line 5: missing field");
  }
  EXPECT_FALSE(in.next());
}

TEST(LineCursor, FieldsMustFitAndBeFinite) {
  LineCursor in("-1 300 4294967296 nan 1e400 2.5 x\n", "input");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.integer<std::int8_t>(0, "k"), -1);
  const auto error = [&](auto read) {
    try {
      read();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error([&] { in.integer<std::uint32_t>(0, "k"); }),
            "input line 1: k: '-1' is outside [0, 4294967295]");
  EXPECT_EQ(error([&] { in.integer<std::int8_t>(1, "k"); }),
            "input line 1: k: '300' is outside [-128, 127]");
  EXPECT_EQ(error([&] { in.integer<std::int32_t>(2, "rank"); }),
            "input line 1: rank: '4294967296' is outside [-2147483648, "
            "2147483647]");
  EXPECT_EQ(in.integer<std::uint64_t>(2, "k"), 4294967296u);
  EXPECT_EQ(error([&] { in.integer<std::uint64_t>(0, "k"); }),
            "input line 1: k: '-1' is not an integer");
  EXPECT_EQ(error([&] { in.number(3, "mips"); }),
            "input line 1: mips: 'nan' is not a finite number");
  EXPECT_EQ(error([&] { in.number(4, "mips"); }),
            "input line 1: mips: '1e400' is not a finite number");
  EXPECT_DOUBLE_EQ(in.number(5, "x"), 2.5);
  EXPECT_EQ(error([&] { in.integer<std::int64_t>(6, "k"); }),
            "input line 1: k: 'x' is not an integer");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-17"), -17);
  EXPECT_EQ(parse_i64(" 3 "), 3);
  EXPECT_FALSE(parse_i64("3x"));
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("1.5"));
}

TEST(Strings, ParseU64RejectsNegative) {
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Strings, ParseF64) {
  EXPECT_DOUBLE_EQ(*parse_f64("2.5e3"), 2500.0);
  EXPECT_FALSE(parse_f64("abc"));
  EXPECT_FALSE(parse_f64("1.0 trailing"));
  EXPECT_FALSE(parse_f64("nan"));
  EXPECT_FALSE(parse_f64("inf"));
  EXPECT_FALSE(parse_f64("-inf"));
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.0), "0 s");
  EXPECT_NE(format_seconds(1.5e-6).find("us"), std::string::npos);
  EXPECT_NE(format_seconds(2.5e-3).find("ms"), std::string::npos);
  EXPECT_NE(format_seconds(3.0).find(" s"), std::string::npos);
  EXPECT_NE(format_seconds(5e-9).find("ns"), std::string::npos);
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_NE(format_bytes(2.5e6).find("MB"), std::string::npos);
}

// --- units -------------------------------------------------------------------

TEST(Units, BandwidthRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps_to_bytes_per_s(250.0), 250.0e6);
  EXPECT_DOUBLE_EQ(bytes_per_s_to_mbps(mbps_to_bytes_per_s(42.0)), 42.0);
}

TEST(Units, LatencyRoundTrip) {
  EXPECT_DOUBLE_EQ(us_to_s(8.0), 8.0e-6);
  EXPECT_DOUBLE_EQ(s_to_us(us_to_s(3.5)), 3.5);
}

TEST(Units, InstructionsToSeconds) {
  // 2300 MIPS: 2.3e9 instructions per second.
  EXPECT_DOUBLE_EQ(instructions_to_s(2'300'000'000ull, 2300.0), 1.0);
  EXPECT_EQ(s_to_instructions(1.0, 2300.0), 2'300'000'000ull);
  EXPECT_EQ(s_to_instructions(-1.0, 2300.0), 0ull);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformMeanReasonable) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowBounds) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MeanVariance) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
  EXPECT_DOUBLE_EQ(median(xs), 30.0);
}

TEST(Stats, PercentileSingleElement) {
  const double xs[] = {7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 7.0);
}

TEST(Stats, Geomean) {
  const double xs[] = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  RunningStats rs;
  const double xs[] = {3.0, -1.0, 4.0, 1.5};
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 4u);
  EXPECT_DOUBLE_EQ(rs.mean(), mean(xs));
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
}

// --- table -----------------------------------------------------------------------

TEST(Table, RendersAlignedCells) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  // "value" is 5 wide, so "1" is right-aligned with 4 spaces of padding.
  EXPECT_NE(out.find("|     1 |"), std::string::npos);
  EXPECT_NE(out.find("+"), std::string::npos);
}

TEST(Table, TitleShown) {
  TextTable table({"x"});
  table.set_title("My Title");
  EXPECT_EQ(table.render().rfind("My Title", 0), 0u);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(3.14159, 3), "3.14");
  EXPECT_EQ(cell_percent(0.663, 1), "66.3%");
  EXPECT_EQ(cell_percent(1.0, 2), "100.00%");
}

// --- csv ---------------------------------------------------------------------------

TEST(Csv, InMemoryEscaping) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"plain", "with,comma"});
  csv.add_row({"quote\"inside", "multi\nline"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

// Regression: a bare carriage return must be quoted like \n, or a cell
// containing CRLF text splits the row in readers that treat \r as a line
// ending.
TEST(Csv, CarriageReturnIsQuoted) {
  CsvWriter csv({"a"});
  csv.add_row({"line\r\nbreak"});
  csv.add_row({"bare\rreturn"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("\"line\r\nbreak\""), std::string::npos);
  EXPECT_NE(out.find("\"bare\rreturn\""), std::string::npos);
}

TEST(Csv, FileMode) {
  const std::string path = ::testing::TempDir() + "/osim_csv_test.csv";
  {
    CsvWriter csv(path, {"h"});
    csv.add_row({"v"});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "h");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "v");
}

// --- flags -----------------------------------------------------------------------

TEST(Flags, ParsesAllKinds) {
  std::string name = "default";
  std::int64_t count = 1;
  double rate = 0.5;
  bool enabled = false;
  Flags flags("test");
  flags.add("name", &name, "a string");
  flags.add("count", &count, "an int");
  flags.add("rate", &rate, "a double");
  flags.add("enabled", &enabled, "a bool");
  const char* argv[] = {"prog", "--name=zed", "--count", "42",
                        "--rate=2.5", "--enabled"};
  EXPECT_TRUE(flags.parse(6, argv));
  EXPECT_EQ(name, "zed");
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_TRUE(enabled);
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags("test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(Flags, UnknownFlagIsUsageErrorNamingTheFlag) {
  Flags flags("test");
  const char* argv[] = {"prog", "--bogus=1"};
  try {
    flags.parse(2, argv);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
  }
}

TEST(Flags, UnknownFlagSuggestsNearestRegistered) {
  std::string trace;
  std::int64_t jobs = 1;
  Flags flags("test");
  flags.add("trace", &trace, "trace file");
  flags.add("jobs", &jobs, "jobs");
  // One edit away ("trce") and two edits away ("tarce" via transpose =
  // two single-char edits) both get a suggestion.
  for (const char* wrong : {"--trce=x", "--tarce=x", "--job=2"}) {
    const char* argv[] = {"prog", wrong};
    try {
      flags.parse(2, argv);
      FAIL() << wrong << ": expected UsageError";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("did you mean"),
                std::string::npos)
          << wrong << " -> " << e.what();
    }
  }
  // Nothing within distance 2: no suggestion, but still a usage error.
  const char* argv[] = {"prog", "--frobnicate=1"};
  try {
    flags.parse(2, argv);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(Flags, SuggestionApi) {
  std::string trace;
  Flags flags("test");
  flags.add("trace", &trace, "trace file");
  EXPECT_EQ(flags.suggestion("trace"), "trace");   // distance 0
  EXPECT_EQ(flags.suggestion("trqce"), "trace");   // substitution
  EXPECT_EQ(flags.suggestion("trac"), "trace");    // deletion
  EXPECT_EQ(flags.suggestion("xtrace"), "trace");  // insertion
  EXPECT_EQ(flags.suggestion("completely-different"), "");
}

TEST(Flags, BadValueIsUsageErrorNamingTheFlag) {
  std::int64_t count = 0;
  double rate = 0.0;
  bool flag = false;
  Flags flags("test");
  flags.add("count", &count, "int");
  flags.add("rate", &rate, "double");
  flags.add("flag", &flag, "bool");
  const struct {
    const char* arg;
    const char* named;
  } cases[] = {{"--count=abc", "--count"},
               {"--rate=xyz", "--rate"},
               {"--flag=maybe", "--flag"}};
  for (const auto& c : cases) {
    const char* argv[] = {"prog", c.arg};
    try {
      flags.parse(2, argv);
      FAIL() << c.arg << ": expected UsageError";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos)
          << c.arg << " -> " << e.what();
    }
  }
}

TEST(Flags, MissingValueIsUsageError) {
  std::int64_t count = 0;
  Flags flags("test");
  flags.add("count", &count, "int");
  const char* argv[] = {"prog", "--count"};
  EXPECT_THROW(flags.parse(2, argv), UsageError);
}

TEST(Flags, BadValueThrows) {
  std::int64_t count = 0;
  Flags flags("test");
  flags.add("count", &count, "int");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(Flags, BoolExplicitFalse) {
  bool enabled = true;
  Flags flags("test");
  flags.add("enabled", &enabled, "bool");
  const char* argv[] = {"prog", "--enabled=false"};
  EXPECT_TRUE(flags.parse(2, argv));
  EXPECT_FALSE(enabled);
}

TEST(Flags, EmptyValueAfterEqualsSetsEmptyString) {
  std::string name = "default";
  Flags flags("test");
  flags.add("name", &name, "a string");
  const char* argv[] = {"prog", "--name="};
  EXPECT_TRUE(flags.parse(2, argv));
  EXPECT_EQ(name, "");
}

TEST(Flags, BoolExplicitValues) {
  bool enabled = false;
  Flags flags("test");
  flags.add("enabled", &enabled, "bool");

  const char* on_1[] = {"prog", "--enabled=1"};
  EXPECT_TRUE(flags.parse(2, on_1));
  EXPECT_TRUE(enabled);

  const char* off_0[] = {"prog", "--enabled=0"};
  EXPECT_TRUE(flags.parse(2, off_0));
  EXPECT_FALSE(enabled);

  const char* on_true[] = {"prog", "--enabled=true"};
  EXPECT_TRUE(flags.parse(2, on_true));
  EXPECT_TRUE(enabled);

  enabled = false;
  const char* on_bare_eq[] = {"prog", "--enabled="};
  EXPECT_TRUE(flags.parse(2, on_bare_eq));
  EXPECT_TRUE(enabled);  // --enabled= behaves like bare --enabled
}

TEST(Flags, RepeatedFlagLastOccurrenceWins) {
  std::string name = "default";
  std::int64_t count = 0;
  Flags flags("test");
  flags.add("name", &name, "a string");
  flags.add("count", &count, "an int");
  const char* argv[] = {"prog", "--name=first", "--count=1", "--name=second",
                        "--count", "2"};
  EXPECT_TRUE(flags.parse(6, argv));
  EXPECT_EQ(name, "second");
  EXPECT_EQ(count, 2);
}

TEST(Flags, PositionalArgumentRejected) {
  Flags flags("test");
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

// --- signals: the daemon-side child reaper ----------------------------------

// A worker killed with SIGKILL must surface through the reaper: SIGCHLD
// wakes the self-pipe, and reap_children() returns the pid with the
// signal-death status — the exact path osim_serve uses to requeue a dead
// worker's scenarios.
TEST(Signals, ReaperCollectsSigkilledChild) {
  install_child_reaper();
  const int wake_fd = signal_wake_fd();
  ASSERT_GE(wake_fd, 0);
  drain_signal_wake_fd();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: wait to be killed; exit abnormally if the kill never lands.
    for (int i = 0; i < 1000; ++i) usleep(10 * 1000);
    _exit(99);
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);

  // The wake fd must become readable without polling flags in a loop.
  // SIGCHLD landing *during* poll interrupts it with EINTR (the reaper is
  // installed without SA_RESTART so blocking calls wake) — retry, the
  // handler's wake byte is already in the pipe by then.
  struct pollfd pfd = {};
  pfd.fd = wake_fd;
  pfd.events = POLLIN;
  int ready = -1;
  do {
    ready = poll(&pfd, 1, 5000 /* ms */);
  } while (ready < 0 && errno == EINTR);
  ASSERT_EQ(ready, 1) << "SIGCHLD did not wake the self-pipe";
  drain_signal_wake_fd();

  EXPECT_TRUE(child_exit_pending());
  std::vector<ReapedChild> reaped = reap_children();
  // Collect stragglers (the signal may beat the zombie transition).
  for (int i = 0; reaped.empty() && i < 500; ++i) {
    usleep(10 * 1000);
    reaped = reap_children();
  }
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0].pid, static_cast<int>(pid));
  ASSERT_TRUE(WIFSIGNALED(reaped[0].status));
  EXPECT_EQ(WTERMSIG(reaped[0].status), SIGKILL);
  EXPECT_FALSE(child_exit_pending());
  // Nothing left to reap afterwards.
  EXPECT_TRUE(reap_children().empty());
}

TEST(Signals, IgnoreSigpipeSurvivesClosedPipeWrite) {
  ignore_sigpipe();
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  const char byte = 'x';
  // Without SIG_IGN this write would kill the process, not return -1.
  EXPECT_EQ(write(fds[1], &byte, 1), -1);
  EXPECT_EQ(errno, EPIPE);
  close(fds[1]);
}

// --- byte codec varints -----------------------------------------------------

TEST(Bytes, VarintsRoundTripAtTheirLimits) {
  const std::uint64_t unsigned_values[] = {0, 1, 127, 128, 16383, 16384,
                                           std::uint64_t{1} << 63,
                                           ~std::uint64_t{0}};
  const std::int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN,
                                        INT64_MAX};
  std::string data;
  bytes::Writer w(data);
  for (const std::uint64_t v : unsigned_values) w.varint(v);
  for (const std::int64_t v : signed_values) w.svarint(v);
  bytes::Reader r(data);
  for (const std::uint64_t v : unsigned_values) EXPECT_EQ(r.varint(), v);
  for (const std::int64_t v : signed_values) EXPECT_EQ(r.svarint(), v);
  EXPECT_TRUE(r.done());

  std::string one;
  bytes::Writer(one).varint(127);
  EXPECT_EQ(one.size(), 1u);
  std::string ten;
  bytes::Writer(ten).varint(~std::uint64_t{0});
  EXPECT_EQ(ten.size(), 10u);
  std::string small;
  bytes::Writer(small).svarint(-1);  // zigzag keeps small negatives short
  EXPECT_EQ(small, std::string(1, '\x01'));
}

TEST(Bytes, VarintFailuresLatchWhereTheyHappen) {
  // Ten continuation bytes announce more than 64 bits: the eleventh byte
  // is consumed and the overflow latches, as malformed bytes rather than
  // an underrun.
  const std::string overflow = std::string(10, '\x80') + "\x01" + "tail";
  bytes::Reader r(overflow);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.truncated());
  EXPECT_EQ(r.position(), 11u);
  EXPECT_EQ(r.u8(), 0u);  // later reads return zero and do not move
  EXPECT_EQ(r.position(), 11u);

  // Input ending inside a varint is an underrun at the last byte read.
  bytes::Reader cut(std::string_view("\x80\x80"));
  EXPECT_EQ(cut.varint(), 0u);
  EXPECT_FALSE(cut.ok());
  EXPECT_TRUE(cut.truncated());
  EXPECT_EQ(cut.position(), 2u);

  // A fixed-width underrun does not advance either.
  bytes::Reader short_u32(std::string_view("abc"));
  EXPECT_EQ(short_u32.u32(), 0u);
  EXPECT_TRUE(short_u32.truncated());
  EXPECT_EQ(short_u32.position(), 0u);
}

}  // namespace
}  // namespace osim
