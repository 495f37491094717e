#include "tuner/suite_session.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "determinism_matrix.hpp"
#include "harness/store.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

class SuiteSessionTest : public ::testing::Test {
 protected:
  SuiteSessionTest() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;

  /// Options under which a mini-suite session makes a few dozen commits.
  static SessionOptions smoke_options() {
    SessionOptions options;
    options.budget = SimTime::minutes(30);
    options.repetitions = 2;
    options.seed = 31;
    return options;
  }
};

TEST_F(SuiteSessionTest, DefaultsScoreExactlyOneThousand) {
  SuiteRunner runner(sim_, mini_suite());
  const Measurement m =
      runner.measure(Configuration(FlagRegistry::hotspot()), nullptr);
  ASSERT_TRUE(m.valid());
  EXPECT_NEAR(m.objective(), 1000.0, 1e-6);
}

TEST_F(SuiteSessionTest, EmptySuiteRejected) {
  EXPECT_THROW(SuiteRunner(sim_, {}), TunerError);
}

TEST_F(SuiteSessionTest, CrashOnAnyMemberCrashesTheCandidate) {
  SuiteRunner runner(sim_, mini_suite());
  Configuration bad(FlagRegistry::hotspot());
  bad.set_bool("UseG1GC", true);  // conflicting collectors
  const Measurement m = runner.measure(bad, nullptr);
  EXPECT_TRUE(m.crashed);
}

TEST_F(SuiteSessionTest, MeasureEachReportsPerWorkloadTimes) {
  SuiteRunner runner(sim_, mini_suite());
  const auto times = runner.measure_each(Configuration(FlagRegistry::hotspot()),
                                         nullptr);
  ASSERT_EQ(times.size(), 3u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_TRUE(std::isfinite(times[i]));
    EXPECT_NEAR(times[i], runner.default_times_ms()[i], 1e-9);
  }
}

TEST_F(SuiteSessionTest, BudgetChargedAcrossMembers) {
  SuiteRunner runner(sim_, mini_suite());
  BudgetClock budget(SimTime::minutes(1000));
  Configuration c(FlagRegistry::hotspot());
  c.set_int("NewRatio", 3);  // cache miss: actually runs
  runner.measure(c, &budget);
  // 3 workloads x 3 reps x (run + 2 s overhead).
  EXPECT_GT(budget.spent(), SimTime::seconds(18));
}

// The members of one suite evaluation share its start check and decode.
// Sharing must change nothing a member reports: for startable, refused-start,
// timed-out and repeated configurations, the suite score is the geomean that
// standalone runners with the same options and time limits give, with the
// same budget charge and the same run, simulation and cache-hit totals.
TEST_F(SuiteSessionTest, SharedDecodeChangesNothingAMemberReports) {
  RunnerOptions options;
  options.repetitions = 3;
  options.seed = 41;
  // SPECjvm2008's startup programs, where -Xint outlives the time limit on
  // some members and not on others.
  const std::vector<WorkloadSpec>& members = specjvm2008_startup();
  SuiteRunner suite(sim_, members, options);

  // The suite measures each member's defaults at construction and limits
  // each member to five times its default mean run time; so do the twins.
  std::vector<std::unique_ptr<BenchmarkRunner>> twins;
  std::vector<double> default_values;
  const Configuration defaults(FlagRegistry::hotspot());
  for (const WorkloadSpec& workload : members) {
    twins.push_back(std::make_unique<BenchmarkRunner>(sim_, workload, options));
    const Measurement m = twins.back()->measure(defaults);
    default_values.push_back(m.objective());
    twins.back()->set_time_limit(
        SimTime::millis(static_cast<std::int64_t>(m.summary.mean * 5.0)));
  }
  ASSERT_EQ(default_values, suite.default_times_ms());

  Configuration startable(FlagRegistry::hotspot());
  startable.set_int("NewRatio", 3);
  Configuration tiered(FlagRegistry::hotspot());
  tiered.set_bool("TieredCompilation", false);
  Configuration two_collectors(FlagRegistry::hotspot());
  two_collectors.set_bool("UseG1GC", true);
  Configuration interpreted(FlagRegistry::hotspot());
  interpreted.set_enum("ExecutionMode", "int");
  const std::vector<Configuration> corpus = {
      startable, two_collectors, interpreted, tiered,
      startable, two_collectors, interpreted};

  BudgetClock suite_budget(SimTime::minutes(10000));
  BudgetClock twin_budget(SimTime::minutes(10000));
  int refused = 0;
  int timed_out = 0;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    SCOPED_TRACE("configuration " + std::to_string(c));
    const Measurement m = suite.measure(corpus[c], &suite_budget);

    double log_sum = 0;
    std::string crashed_on;
    for (std::size_t i = 0; i < twins.size(); ++i) {
      const Measurement member = twins[i]->measure(corpus[c], &twin_budget);
      refused += member.crash_reason.starts_with("VM failed to start") ? 1 : 0;
      timed_out += member.crash_reason == "harness timeout" ? 1 : 0;
      const double value = member.objective();
      if (!std::isfinite(value)) {
        if (crashed_on.empty()) crashed_on = twins[i]->workload().name;
        continue;
      }
      log_sum += std::log(value / default_values[i]);
    }
    if (!crashed_on.empty()) {
      EXPECT_TRUE(m.crashed);
      EXPECT_EQ(m.crash_reason, "crashed on " + crashed_on);
    } else {
      ASSERT_TRUE(m.valid());
      const double score =
          1000.0 * std::exp(log_sum / static_cast<double>(twins.size()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.objective()),
                std::bit_cast<std::uint64_t>(score));
    }
    EXPECT_EQ(suite_budget.spent(), twin_budget.spent());

    EvalCounters twin_counters;
    for (const auto& twin : twins) twin_counters += twin->counters();
    const EvalCounters suite_counters = suite.counters();
    EXPECT_EQ(suite_counters.runs, twin_counters.runs);
    EXPECT_EQ(suite_counters.simulations, twin_counters.simulations);
    EXPECT_EQ(suite_counters.cache_hits, twin_counters.cache_hits);
  }
  // The corpus reaches every kind of member outcome.
  EXPECT_GT(refused, 0);
  EXPECT_GT(timed_out, 0);
  EXPECT_LT(timed_out, 2 * static_cast<int>(members.size()));
  EXPECT_GT(suite.counters().cache_hits, 0);
}

TEST_F(SuiteSessionTest, GeneralTuningImprovesTheGeomean) {
  SessionOptions options;
  options.budget = SimTime::minutes(45);
  options.repetitions = 2;
  SuiteTuningSession session(sim_, mini_suite(), options);
  HierarchicalTuner tuner;
  const SuiteOutcome outcome = session.run(tuner);

  EXPECT_LE(outcome.geomean_ratio, 1.0);
  EXPECT_GE(outcome.improvement_frac(), 0.0);
  ASSERT_EQ(outcome.per_workload_improvement.size(), 3u);
  ASSERT_EQ(outcome.workload_names.size(), 3u);
  EXPECT_EQ(outcome.workload_names[0], "mini-alloc");
  EXPECT_GT(outcome.evaluations, 1);
  ASSERT_NE(outcome.db, nullptr);
}

TEST_F(SuiteSessionTest, GeomeanConsistentWithPerWorkloadImprovements) {
  SessionOptions options;
  options.budget = SimTime::minutes(45);
  options.repetitions = 2;
  SuiteTuningSession session(sim_, mini_suite(), options);
  HierarchicalTuner tuner;
  const SuiteOutcome outcome = session.run(tuner);

  double log_sum = 0;
  for (double improvement : outcome.per_workload_improvement) {
    log_sum += std::log(1.0 - improvement);
  }
  const double recomputed =
      std::exp(log_sum / static_cast<double>(outcome.per_workload_improvement.size()));
  EXPECT_NEAR(outcome.geomean_ratio, recomputed, 1e-9);
}

TEST_F(SuiteSessionTest, DeterministicAcrossRuns) {
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.repetitions = 2;
  SuiteTuningSession s1(sim_, mini_suite(), options);
  SuiteTuningSession s2(sim_, mini_suite(), options);
  HillClimber t1;
  HillClimber t2;
  const SuiteOutcome a = s1.run(t1);
  const SuiteOutcome b = s2.run(t2);
  EXPECT_EQ(a.geomean_ratio, b.geomean_ratio);
  EXPECT_EQ(a.best_config.fingerprint(), b.best_config.fingerprint());
}

// The determinism matrix, suite arm: pipelined evaluation must not change
// the suite trajectory.
TEST_F(SuiteSessionTest, OutcomeIdenticalAcrossEvalThreads) {
  DeterminismMatrix matrix;
  matrix.cases = {{.eval_threads = 4}};
  const SuiteOutcome reference = run_determinism_matrix(
      sim_, mini_suite(), smoke_options(),
      [] { return std::make_unique<HierarchicalTuner>(); }, matrix);
  EXPECT_GT(reference.evaluations, 10);
}

// The sandboxed arm, with a store attached: forked workers must report the
// members' store traffic exactly as the in-process session counts it.
TEST_F(SuiteSessionTest, SandboxedSessionMatchesInProcessWithAStore) {
  const std::string dir = ::testing::TempDir() + "jat_suite_store";
  [[maybe_unused]] const int rc = std::system(("rm -rf '" + dir + "'").c_str());
  {
    SessionOptions cold = smoke_options();
    cold.budget = SimTime::minutes(10);
    cold.store = ResultStore::open(dir);
    SuiteTuningSession session(sim_, mini_suite(), cold);
    HierarchicalTuner tuner;
    (void)session.run(tuner);
  }
  SessionOptions base = smoke_options();
  base.store = ResultStore::open(dir, {.read_only = true});
  base.warm_start = 2;
  DeterminismMatrix matrix;
  matrix.cases = {{.eval_threads = 0, .sandbox = true, .sandbox_workers = 2}};
  const SuiteOutcome reference = run_determinism_matrix(
      sim_, mini_suite(), base,
      [] { return std::make_unique<HierarchicalTuner>(); }, matrix);
  EXPECT_GT(reference.store_hits, 0);
  EXPECT_GT(reference.store_appends, 0);
  EXPECT_GT(reference.warm_seeds, 0);
}

TEST_F(SuiteSessionTest, TracedSessionEmitsSessionEventsAndMatchesUntraced) {
  HillClimber untraced_tuner;
  const SuiteOutcome untraced =
      SuiteTuningSession(sim_, mini_suite(), smoke_options())
          .run(untraced_tuner);

  TraceSink sink;
  SessionOptions options = smoke_options();
  options.trace = &sink;
  HillClimber traced_tuner;
  const SuiteOutcome traced =
      SuiteTuningSession(sim_, mini_suite(), options).run(traced_tuner);
  expect_identical_outcome(untraced, traced, DeterminismMatrix{}, "traced");

  std::size_t session_start = 0, baseline = 0, evals = 0, session_end = 0;
  for (const TraceEvent& event : sink.events()) {
    if (event.type == "session_start") ++session_start;
    if (event.type == "baseline") ++baseline;
    if (event.type == "eval") ++evals;
    if (event.type == "session_end") ++session_end;
  }
  EXPECT_EQ(session_start, 1u);
  EXPECT_EQ(baseline, 1u);
  EXPECT_EQ(evals, traced.db->size());
  EXPECT_EQ(session_end, 1u);
}

// Suite members never race: a racing factor is refused, not dropped.
TEST_F(SuiteSessionTest, RacingIsRefusedNamingTheOption) {
  SessionOptions options = smoke_options();
  options.racing_factor = 1.3;
  try {
    SuiteTuningSession session(sim_, mini_suite(), options);
    HillClimber tuner;
    (void)session.run(tuner);
    FAIL() << "a suite session accepted racing_factor";
  } catch (const TunerError& error) {
    EXPECT_NE(std::string(error.what()).find("racing_factor"),
              std::string::npos)
        << error.what();
  }
}

// The resilience layer wraps suite evaluations too, and is journaled.
TEST_F(SuiteSessionTest, ResilienceLayerRetriesSuiteEvaluationsAndIsJournaled) {
  SessionOptions options = smoke_options();
  options.fault_injection.transient_rate = 0.3;
  options.resilient = true;
  SuiteTuningSession session(sim_, mini_suite(), options);
  EXPECT_TRUE(session.journal_meta("hill").resilient);
  EXPECT_NE(session.journal_meta("hill").fault_fingerprint, 0u);
  HillClimber tuner;
  const SuiteOutcome outcome = session.run(tuner);
  int retried = 0;
  for (std::size_t i = 0; i < outcome.db->size(); ++i) {
    if (outcome.db->get(i).attempts > 1) ++retried;
  }
  EXPECT_GT(retried, 0);
}

}  // namespace
}  // namespace jat
