#include <gtest/gtest.h>

#include <cmath>

#include "harness/runner.hpp"
#include "support/log.hpp"
#include "tuner/search_space.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec racing_workload() {
  WorkloadSpec w;
  w.name = "racing-test";
  w.total_work = 400;
  w.startup_work = 80;
  w.startup_classes = 1000;
  w.noise_sigma = 0.01;
  return w;
}

class RacingTest : public ::testing::Test {
 protected:
  RacingTest() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;

  BenchmarkRunner make_runner(double racing_factor) {
    RunnerOptions options;
    options.repetitions = 3;
    options.racing_factor = racing_factor;
    return BenchmarkRunner(sim_, racing_workload(), options);
  }
};

TEST_F(RacingTest, DisabledByDefaultRunsAllRepetitions) {
  BenchmarkRunner runner = make_runner(0.0);
  Configuration slow(FlagRegistry::hotspot());
  slow.set_enum("ExecutionMode", "int");
  runner.measure(Configuration(FlagRegistry::hotspot()));
  const Measurement m = runner.measure(slow);
  EXPECT_EQ(m.times_ms.size(), 3u);
  EXPECT_EQ(m.stop, StopReason::kFull);
}

TEST_F(RacingTest, AbandonsClearLosersAfterOneRep) {
  BenchmarkRunner runner = make_runner(1.3);
  // Establish the reference with the defaults.
  const Measurement base = runner.measure(Configuration(FlagRegistry::hotspot()));
  ASSERT_EQ(base.times_ms.size(), 3u);

  Configuration slow(FlagRegistry::hotspot());
  slow.set_enum("ExecutionMode", "int");  // several times slower
  const Measurement m = runner.measure(slow);
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.times_ms.size(), 1u);  // raced out
  EXPECT_EQ(m.stop, StopReason::kRacedOut);
  EXPECT_GT(m.objective(), base.objective());
}

TEST_F(RacingTest, KeepsCompetitiveCandidatesAtFullRepetitions) {
  BenchmarkRunner runner = make_runner(1.3);
  runner.measure(Configuration(FlagRegistry::hotspot()));
  Configuration similar(FlagRegistry::hotspot());
  similar.set_int("NewRatio", 3);  // near-identical performance
  const Measurement m = runner.measure(similar);
  EXPECT_EQ(m.times_ms.size(), 3u);
}

TEST_F(RacingTest, RacingSavesRunsAtEqualEvaluationCount) {
  BenchmarkRunner plain = make_runner(0.0);
  BenchmarkRunner racing = make_runner(1.3);
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(11);
  std::vector<Configuration> candidates;
  candidates.emplace_back(FlagRegistry::hotspot());
  for (int i = 0; i < 30; ++i) {
    candidates.push_back(space.random_config(rng, 0.3));
  }
  for (const auto& c : candidates) {
    plain.measure(c);
    racing.measure(c);
  }
  EXPECT_LT(racing.counters().runs, plain.counters().runs);
}

TEST_F(RacingTest, SessionWithRacingStillValidatesHonestly) {
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.repetitions = 3;
  options.racing_factor = 1.3;
  TuningSession session(sim_, racing_workload(), options);
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);
  EXPECT_TRUE(std::isfinite(outcome.best_ms));
  EXPECT_LE(outcome.best_ms, outcome.default_ms);
  EXPECT_GE(outcome.improvement_frac(), 0.0);
}

}  // namespace
}  // namespace jat
