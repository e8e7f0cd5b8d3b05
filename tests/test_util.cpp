#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace manet::util {
namespace {

// ------------------------------------------------------------------ table

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.addRow({"a", "1"});
  t.addRow({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  // Header and both rows present; separator line present.
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  // Each line ends right after the last cell (no trailing padding).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) {
      EXPECT_NE(line.back(), ' ');
    }
  }
}

TEST(Table, CsvOutput) {
  Table t({"a", "b", "c"});
  t.addRow({"1", "2", "3"});
  std::ostringstream os;
  t.printCsv(os);
  EXPECT_EQ(os.str(), "a,b,c\n1,2,3\n");
}

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.rowCount(), 0u);
  t.addRow({"1"});
  t.addRow({"2"});
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableDeath, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.addRow({"only-one"}), "Precondition");
}

TEST(TableDeath, RejectsEmptyHeader) {
  EXPECT_DEATH(Table({}), "Precondition");
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Format, Percent) {
  EXPECT_EQ(fmtPercent(0.5), "50.0%");
  EXPECT_EQ(fmtPercent(1.0, 0), "100%");
  EXPECT_EQ(fmtPercent(0.123, 1), "12.3%");
}

// -------------------------------------------------------------------- env

TEST(Env, IntFallbacks) {
  unsetenv("MANET_TEST_ENV_X");
  EXPECT_EQ(envInt("MANET_TEST_ENV_X", 42), 42);
  setenv("MANET_TEST_ENV_X", "17", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_X", 42), 17);
  setenv("MANET_TEST_ENV_X", "", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_X", 42), 42);
  unsetenv("MANET_TEST_ENV_X");
}

TEST(Env, IntRejectsMalformedValues) {
  // A set value must be a whole base-10 integer in range: trailing junk,
  // exponent notation, words and overflow are errors, never a silent
  // prefix ("1e4" is not 1) or the fallback.
  for (const char* bad :
       {"20x", "1e4", "abc", " 7", "99999999999999999999"}) {
    setenv("MANET_TEST_ENV_X", bad, 1);
    try {
      envInt("MANET_TEST_ENV_X", 42);
      ADD_FAILURE() << "accepted \"" << bad << '"';
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MANET_TEST_ENV_X"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  setenv("MANET_TEST_ENV_X", "9223372036854775807", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_X", 42), INT64_MAX);
  unsetenv("MANET_TEST_ENV_X");
}

TEST(Env, NegativeInt) {
  setenv("MANET_TEST_ENV_N", "-5", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_N", 0), -5);
  unsetenv("MANET_TEST_ENV_N");
}

TEST(Env, StringPresence) {
  unsetenv("MANET_TEST_ENV_S");
  EXPECT_FALSE(envString("MANET_TEST_ENV_S").has_value());
  setenv("MANET_TEST_ENV_S", "hello", 1);
  EXPECT_EQ(envString("MANET_TEST_ENV_S").value(), "hello");
  unsetenv("MANET_TEST_ENV_S");
}

// -------------------------------------------------------------------- log

TEST(Log, ThresholdFiltersLevels) {
  const LogLevel old = logLevel();
  setLogLevel(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kError);
  // These must not crash (output is discarded below the threshold).
  logInfo("discarded ", 1);
  logDebug("discarded ", 2.5);
  logWarn("discarded");
  setLogLevel(LogLevel::kOff);
  log(LogLevel::kError, "also discarded");
  setLogLevel(old);
}

TEST(Log, ComposesArguments) {
  // Exercise the variadic formatting path with the threshold open; we can't
  // capture stderr portably here, so this is a smoke test.
  const LogLevel old = logLevel();
  setLogLevel(LogLevel::kOff);
  log(LogLevel::kError, "x=", 42, " y=", 1.5, " z=", "str");
  setLogLevel(old);
}

}  // namespace
}  // namespace manet::util
