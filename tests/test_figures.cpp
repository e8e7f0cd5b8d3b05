// The figure records and their one driver (src/figures): scaling knobs, the
// exit code of a malformed knob, the cell labels the run reports join on,
// and that bench/repro prints exactly the single figure binaries' bytes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "experiment/parallel.hpp"
#include "figures/figure.hpp"

namespace manet::figures {
namespace {

TEST(Integration, BenchScaleReadsEnvironment) {
  // Without env vars set, defaults flow through.
  const Scale s = readScale(33);
  EXPECT_GE(s.broadcasts, 1);
  EXPECT_GE(s.repetitions, 1);
  EXPECT_GE(s.numHosts, 1);
  experiment::ScenarioConfig c;
  applyScale(c, s);
  EXPECT_EQ(c.numBroadcasts, s.broadcasts);
  EXPECT_EQ(c.numHosts, s.numHosts);
}

TEST(Integration, BenchMainPassesTheBodysExitCode) {
  EXPECT_EQ(benchMain([] { return 0; }), 0);
  EXPECT_EQ(benchMain([] { return 3; }), 3);
}

TEST(Integration, BenchMainTurnsAMalformedKnobIntoExitTwo) {
  for (const char* name : {"REPRO_BROADCASTS", "MANET_THREADS"}) {
    ::setenv(name, "4x", 1);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int code = benchMain([] {
      std::cout << "banner\n";
      (void)readScale(60);
      (void)experiment::defaultThreadCount();
      std::cout << "table\n";
      return 0;
    });
    const std::string out = testing::internal::GetCapturedStdout();
    const std::string err = testing::internal::GetCapturedStderr();
    ::unsetenv(name);
    EXPECT_EQ(code, 2) << name;
    EXPECT_EQ(out, "banner\n") << name;
    EXPECT_EQ(err, std::string(name) +
                       "=\"4x\" is not a base-10 integer in range\n");
  }
}

TEST(Integration, BenchMainLetsOtherErrorsThrough) {
  EXPECT_THROW(benchMain([]() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_THROW(
      benchMain([]() -> int { throw std::invalid_argument("not a knob"); }),
      std::invalid_argument);
}

TEST(Integration, PaperMapSizes) {
  EXPECT_EQ(paperMapSizes(), (std::vector<int>{1, 3, 5, 7, 9, 11}));
}

TEST(Figures, CellLabelsAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const Figure* figure : registeredFigures()) {
    SCOPED_TRACE(figure->name);
    EXPECT_TRUE(names.insert(figure->name).second);
    if (!figure->cells) continue;
    std::set<std::string> labels;
    for (const Cell& cell : figure->cells()) {
      EXPECT_FALSE(cell.label.empty());
      EXPECT_TRUE(labels.insert(cell.label).second) << cell.label;
    }
    EXPECT_FALSE(labels.empty());
  }
}

/// Sets (or, with nullptr, unsets) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Figures, ReproPrintsEveryFigureInOrder) {
  const ScopedEnv broadcasts("REPRO_BROADCASTS", "2");
  const ScopedEnv hosts("REPRO_HOSTS", "20");
  const ScopedEnv trials("REPRO_MC_TRIALS", "40");
  const ScopedEnv samples("REPRO_MC_SAMPLES", "64");
  const ScopedEnv reports("MANET_BENCH_JSON", nullptr);

  std::vector<std::string> names;
  for (const Figure* figure : registeredFigures()) {
    names.push_back(figure->name);
  }
  // The README's binary table order.
  EXPECT_EQ(names, (std::vector<std::string>{
                       "fig01_eac", "fig02_contention", "fig05_tune_counter",
                       "fig07_ac_vs_fixed", "fig09_tune_location",
                       "fig10_al_vs_fixed", "fig11_hello_interval",
                       "fig12_nc_dhi", "fig13_overall", "abl_jitter",
                       "abl_collision_model", "ext_density"}));

  std::string serial;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    std::ostringstream all;
    runFigures(registeredFigures(), all, threads);
    std::string singles;
    for (const Figure* figure : registeredFigures()) {
      std::ostringstream one;
      runFigures(std::span(&figure, 1), one, threads);
      EXPECT_EQ(one.str().rfind("=== " + figure->title + " ===\n", 0), 0U);
      singles += one.str();
    }
    EXPECT_EQ(all.str(), singles);
    if (threads == 1) serial = all.str();
    EXPECT_EQ(all.str(), serial);
  }
}

}  // namespace
}  // namespace manet::figures
