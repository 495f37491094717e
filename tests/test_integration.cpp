// Cross-module integration tests: the claims the paper's evaluation rests
// on, checked end-to-end at reduced scale.
#include <gtest/gtest.h>

#include <cmath>

#include "support/log.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

class Integration : public ::testing::Test {
 protected:
  Integration() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;

  TuningOutcome tune(const WorkloadSpec& w, SearchStrategy& tuner,
                     double minutes, std::uint64_t seed = 7) {
    SessionOptions options;
    options.budget = SimTime::minutes(minutes);
    options.repetitions = 2;
    options.seed = seed;
    TuningSession session(sim_, w, options);
    return session.run(tuner);
  }
};

TEST_F(Integration, TunerFindsRealImprovementOnStartupWorkload) {
  HierarchicalTuner tuner;
  const TuningOutcome outcome =
      tune(find_workload("startup.compiler.compiler"), tuner, 120);
  EXPECT_GT(outcome.improvement_frac(), 0.10);
}

TEST_F(Integration, TunerFindsRealImprovementOnDacapoWorkload) {
  HierarchicalTuner tuner;
  const TuningOutcome outcome = tune(find_workload("pmd"), tuner, 200);
  EXPECT_GT(outcome.improvement_frac(), 0.10);
}

TEST_F(Integration, WholeJvmTuningBeatsSubsetTuning) {
  // The paper's headline comparison: at equal budget, tuning every flag
  // through the hierarchy beats the classic heap/GC-only subset.
  const WorkloadSpec w = find_workload("startup.xml.transform");
  HierarchicalTuner whole;
  SubsetTuner subset;
  const double whole_best = tune(w, whole, 150).best_ms;
  const double subset_best = tune(w, subset, 150).best_ms;
  EXPECT_LT(whole_best, subset_best);
}

TEST_F(Integration, HierarchyBeatsFlatSearchAtEqualBudget) {
  // The flat baseline is bench_t5's genetic-flat: a search that mutates
  // from the defaults with structure-blind operators. (bench_t5's
  // random-flat is no such baseline here: on this workload and budget it
  // matches the hierarchy and wins at this seed; see EXPERIMENTS.md,
  // "Reading the deltas honestly".)
  const WorkloadSpec w = find_workload("startup.serial");
  HierarchicalTuner gated;
  GeneticTuner flat(/*flat=*/true);
  const double gated_best = tune(w, gated, 100).best_ms;
  const double flat_best = tune(w, flat, 100).best_ms;
  EXPECT_LT(gated_best, flat_best);
}

TEST_F(Integration, BestConfigReproducesItsObjective) {
  // The tuned configuration is a real artifact: re-running it through a
  // fresh runner reproduces the reported objective exactly (same seeds).
  const WorkloadSpec w = find_workload("startup.compress");
  HierarchicalTuner tuner;
  SessionOptions options;
  options.budget = SimTime::minutes(60);
  options.repetitions = 2;
  TuningSession session(sim_, w, options);
  const TuningOutcome outcome = session.run(tuner);

  // The session reports the *validated* objective: fresh seeds derived
  // from (seed, "validation") and at least 5 repetitions.
  RunnerOptions runner_options;
  runner_options.repetitions = 5;
  runner_options.seed = mix64(options.seed, fnv1a64("validation"));
  BenchmarkRunner fresh(sim_, w, runner_options);
  const Measurement m = fresh.measure(outcome.best_config);
  ASSERT_TRUE(m.valid());
  EXPECT_NEAR(m.objective(), outcome.best_ms, outcome.best_ms * 1e-9);
}

TEST_F(Integration, CollectorChoiceMattersPerWorkload) {
  // The simulated collectors trade off differently across workloads: the
  // throughput collector should not dominate everywhere, else GC-choice
  // tuning would be pointless.
  Configuration parallel(FlagRegistry::hotspot());
  Configuration cms(FlagRegistry::hotspot());
  cms.set_bool("UseParallelGC", false);
  cms.set_bool("UseConcMarkSweepGC", true);
  cms.set_bool("UseParNewGC", true);

  int cms_wins = 0;
  int parallel_wins = 0;
  for (const auto& w : dacapo()) {
    const RunResult rp = sim_.run(parallel, w, 5);
    const RunResult rc = sim_.run(cms, w, 5);
    if (rp.crashed || rc.crashed) continue;
    (rc.total_time < rp.total_time ? cms_wins : parallel_wins)++;
  }
  EXPECT_GT(parallel_wins, 0);
  EXPECT_GT(cms_wins, 0);
}

TEST_F(Integration, TunedConfigsDifferAcrossWorkloads) {
  // Per-benchmark tuning is the paper's whole premise: the best flags for
  // a lock-bound program differ from an allocation-bound one.
  HierarchicalTuner t1;
  HierarchicalTuner t2;
  const TuningOutcome a = tune(find_workload("avrora"), t1, 100);
  const TuningOutcome b = tune(find_workload("lusearch"), t2, 100);
  EXPECT_NE(a.best_config.fingerprint(), b.best_config.fingerprint());
}

TEST_F(Integration, BudgetSpentWithinOvershootBound) {
  HierarchicalTuner tuner;
  const TuningOutcome outcome = tune(find_workload("startup.compress"), tuner, 30);
  // The budget may overshoot by at most one candidate measurement.
  EXPECT_LE(outcome.budget_spent.as_minutes(), 30.0 + 2.0);
  EXPECT_GE(outcome.budget_spent.as_minutes(), 29.0);
}

TEST_F(Integration, EveryWorkloadDefaultRunsClean) {
  Configuration defaults(FlagRegistry::hotspot());
  for (const auto& w : specjvm2008_startup()) {
    const RunResult r = sim_.run(defaults, w, 3);
    EXPECT_FALSE(r.crashed) << w.name << ": " << r.crash_reason;
  }
  for (const auto& w : dacapo()) {
    const RunResult r = sim_.run(defaults, w, 3);
    EXPECT_FALSE(r.crashed) << w.name << ": " << r.crash_reason;
  }
}

}  // namespace
}  // namespace jat
