// Failure injection: tuners must survive a hostile evaluator — random
// measurement crashes (flaky benchmark harness), universal failure, and
// pathological noise — without violating their contracts (budget
// accounting, finite incumbents when any finite result exists, termination).
//
// The faults come from the library's own FaultInjectingEvaluator
// (harness/fault.hpp); the recovery machinery under test is
// ResilientEvaluator (harness/resilient.hpp): retry with a re-rolled
// attempt seed for transient failures, per-fingerprint crash quarantine,
// and an evaluator-wide circuit breaker.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "harness/evaluator.hpp"
#include "harness/fault.hpp"
#include "harness/resilient.hpp"
#include "support/log.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/scheduler.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec tiny() {
  WorkloadSpec w;
  w.name = "fi-test";
  w.total_work = 300;
  w.startup_work = 60;
  w.startup_classes = 800;
  w.noise_sigma = 0.01;
  return w;
}

FaultOptions transient_only(double rate, std::uint64_t seed = 99) {
  FaultOptions options;
  options.seed = seed;
  options.transient_rate = rate;
  return options;
}

/// Measures and commits the default configuration as the session baseline
/// (what a session does before its strategy starts).
void commit_defaults(TuningContext& ctx, const SearchSpace& space) {
  ctx.set_phase("default");
  const Configuration defaults(space.registry());
  const std::uint64_t fingerprint = defaults.fingerprint();
  TuningContext::MeasuredEval base = ctx.measure_only(defaults, fingerprint);
  ctx.commit(defaults, fingerprint, base, /*replayed=*/false);
}

class FailureInjection : public ::testing::Test {
 protected:
  FailureInjection() { set_log_level(LogLevel::kOff); }

  Configuration defaults() { return Configuration(FlagRegistry::hotspot()); }

  /// A pool of distinct valid configurations to measure.
  std::vector<Configuration> distinct_configs(int n) {
    std::vector<Configuration> configs;
    for (int i = 0; i < n; ++i) {
      Configuration c(FlagRegistry::hotspot());
      c.set_int("NewRatio", 1 + i % 14);
      c.set_int("SurvivorRatio", 2 + i / 14);
      configs.push_back(std::move(c));
    }
    return configs;
  }

  /// Drives a strategy through a context built on the given evaluator.
  double drive(SearchStrategy& strategy, Evaluator& evaluator,
               SimTime budget_total) {
    BudgetClock budget(budget_total);
    ResultDb db;
    const SearchSpace space(FlagHierarchy::hotspot());
    TuningContext ctx(evaluator, budget, db, space, Rng(3));
    commit_defaults(ctx, space);
    EvalScheduler(ctx).run(strategy);
    EXPECT_GT(db.size(), 0u);
    // Budget never silently ignored: the tuner stopped near exhaustion.
    EXPECT_TRUE(budget.exhausted());
    return ctx.best_objective();
  }

  JvmSimulator sim_;
  WorkloadSpec workload_ = tiny();
};

// ---- the injector itself ----------------------------------------------------

TEST_F(FailureInjection, InjectorIsDeterministic) {
  const std::vector<Configuration> configs = distinct_configs(20);
  auto run_once = [&](FaultStats* stats) {
    BenchmarkRunner runner(sim_, workload_);
    FaultInjectingEvaluator flaky(runner, transient_only(0.5));
    std::vector<double> objectives;
    for (const auto& c : configs) {
      objectives.push_back(flaky.measure(c, nullptr).objective());
    }
    *stats = flaky.stats();
    return objectives;
  };
  FaultStats a_stats, b_stats;
  const auto a = run_once(&a_stats);
  const auto b = run_once(&b_stats);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a_stats.transient, b_stats.transient);
  EXPECT_GT(a_stats.transient, 0);
}

TEST_F(FailureInjection, TransientFaultsRedrawPerAttempt) {
  // Per-attempt keying is what makes retry worthwhile: re-measuring the
  // same fingerprint re-rolls the fault dice.
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(0.5, 12345));
  const Configuration config = defaults();
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    failures += flaky.measure(config, nullptr).crashed ? 1 : 0;
  }
  EXPECT_GT(failures, 5);   // some attempts fail ...
  EXPECT_LT(failures, 35);  // ... and some succeed, for the same config
}

TEST_F(FailureInjection, DeterministicCrashFailsEveryAttempt) {
  BenchmarkRunner runner(sim_, workload_);
  FaultOptions options;
  FaultInjectingEvaluator flaky(runner, options);
  flaky.add_deterministic_crash(defaults().fingerprint());
  for (int i = 0; i < 3; ++i) {
    const Measurement m = flaky.measure(defaults(), nullptr);
    EXPECT_TRUE(m.crashed);
    EXPECT_EQ(m.fault, FaultClass::kDeterministic);
  }
  EXPECT_EQ(flaky.stats().deterministic, 3);
}

TEST_F(FailureInjection, InjectedHangChargesTheTimeout) {
  BenchmarkRunner runner(sim_, workload_);
  FaultOptions options;
  options.hang_rate = 1.0;
  options.hang_timeout = SimTime::seconds(45);
  FaultInjectingEvaluator flaky(runner, options);
  BudgetClock budget(SimTime::minutes(10));
  const Measurement m = flaky.measure(defaults(), &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kTimeout);
  EXPECT_EQ(budget.spent(), SimTime::seconds(45));
}

TEST_F(FailureInjection, LatencySpikeSlowsButStaysValid) {
  BenchmarkRunner clean_runner(sim_, workload_);
  const double clean = clean_runner.measure(defaults()).objective();

  BenchmarkRunner runner(sim_, workload_);
  FaultOptions options;
  options.latency_spike_rate = 1.0;
  options.latency_spike_factor = 4.0;
  FaultInjectingEvaluator flaky(runner, options);
  const Measurement m = flaky.measure(defaults(), nullptr);
  ASSERT_TRUE(m.valid());
  EXPECT_NEAR(m.objective(), clean * 4.0, clean * 0.01);
  EXPECT_EQ(flaky.stats().latency_spikes, 1);
}

TEST_F(FailureInjection, OverchargeDrainsExtraBudget) {
  BenchmarkRunner reference_runner(sim_, workload_);
  BudgetClock reference(SimTime::minutes(10));
  reference_runner.measure(defaults(), &reference);

  BenchmarkRunner runner(sim_, workload_);
  FaultOptions options;
  options.overcharge_rate = 1.0;
  options.overcharge = SimTime::seconds(7);
  FaultInjectingEvaluator flaky(runner, options);
  BudgetClock budget(SimTime::minutes(10));
  flaky.measure(defaults(), &budget);
  EXPECT_EQ(budget.spent(), reference.spent() + SimTime::seconds(7));
}

TEST_F(FailureInjection, FlakyFailuresStillChargeTheBudget) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(1.0, 5));
  BudgetClock budget(SimTime::minutes(1));
  const Measurement m = flaky.measure(defaults(), &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kTransient);
  EXPECT_GT(budget.spent(), SimTime::zero());
}

// ---- retry ------------------------------------------------------------------

TEST_F(FailureInjection, RetryRecoversTransientFailures) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(0.5));
  ResilienceOptions resilience;
  resilience.max_attempts = 4;
  ResilientEvaluator resilient(flaky, resilience);

  int crashed = 0;
  for (const auto& c : distinct_configs(30)) {
    const Measurement m = resilient.measure(c, nullptr);
    crashed += m.crashed ? 1 : 0;
    if (!m.crashed && m.attempts > 1) {
      EXPECT_EQ(m.fault, FaultClass::kTransient);  // taxonomy survives recovery
    }
  }
  // P(4 straight transient failures) = 6.25%: nearly everything recovers.
  EXPECT_LE(crashed, 4);
  EXPECT_GT(resilient.stats().retries, 0);
  EXPECT_GT(resilient.stats().retry_successes, 0);
}

TEST_F(FailureInjection, RetriesAreChargedToTheBudget) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(1.0));
  ResilienceOptions resilience;
  resilience.max_attempts = 3;
  ResilientEvaluator resilient(flaky, resilience);
  BudgetClock budget(SimTime::minutes(10));
  const Measurement m = resilient.measure(defaults(), &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.attempts, 3);
  // Every failed attempt cost its injected failure cost.
  EXPECT_EQ(budget.spent(), flaky.options().failure_cost * 3.0);
}

// ---- quarantine -------------------------------------------------------------

TEST_F(FailureInjection, QuarantineBlacklistsDeterministicCrashers) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, FaultOptions{});
  flaky.add_deterministic_crash(defaults().fingerprint());
  ResilienceOptions resilience;
  resilience.quarantine_threshold = 2;
  ResilientEvaluator resilient(flaky, resilience);

  BudgetClock budget(SimTime::minutes(10));
  // Two real (charged) failures ...
  EXPECT_EQ(resilient.measure(defaults(), &budget).fault,
            FaultClass::kDeterministic);
  EXPECT_EQ(resilient.measure(defaults(), &budget).fault,
            FaultClass::kDeterministic);
  EXPECT_TRUE(resilient.is_quarantined(defaults().fingerprint()));
  const SimTime spent_before = budget.spent();

  // ... then instant answers that no longer reach the harness.
  const Measurement m = resilient.measure(defaults(), &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kQuarantined);
  EXPECT_NE(m.crash_reason.find("quarantined"), std::string::npos);
  EXPECT_LT(budget.spent() - spent_before, SimTime::seconds(1));
  EXPECT_EQ(flaky.stats().deterministic, 2);  // inner evaluator not called again
  EXPECT_EQ(resilient.stats().quarantined, 1);
  EXPECT_EQ(resilient.stats().quarantine_hits, 1);
}

TEST_F(FailureInjection, QuarantineNeverHoldsTransientOnlyConfigs) {
  // Property: a config that only ever failed transiently must never be
  // quarantined, no matter how often it flaked.
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(0.7, 77));
  ResilienceOptions resilience;
  resilience.max_attempts = 2;
  resilience.quarantine_threshold = 1;  // as aggressive as it gets
  ResilientEvaluator resilient(flaky, resilience);

  const auto configs = distinct_configs(15);
  for (int round = 0; round < 5; ++round) {
    for (const auto& c : configs) resilient.measure(c, nullptr);
  }
  EXPECT_GT(flaky.stats().transient, 0);
  EXPECT_EQ(resilient.quarantine_size(), 0u);
}

// ---- circuit breaker --------------------------------------------------------

TEST_F(FailureInjection, CircuitBreakerDegradesToFailFast) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(1.0));
  ResilienceOptions resilience;
  resilience.max_attempts = 3;
  resilience.breaker_threshold = 3;
  ResilientEvaluator resilient(flaky, resilience);

  const auto configs = distinct_configs(6);
  for (const auto& c : configs) resilient.measure(c, nullptr);

  EXPECT_TRUE(resilient.breaker_open());
  EXPECT_EQ(resilient.stats().breaker_trips, 1);
  // First three measurements were retried in full (3 attempts each); after
  // the breaker opened the last three cost a single attempt.
  EXPECT_EQ(flaky.stats().transient, 3 * 3 + 3 * 1);
}

TEST_F(FailureInjection, CircuitBreakerClosesOnSuccess) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, FaultOptions{});
  const auto bad = distinct_configs(3);
  for (const auto& c : bad) flaky.add_deterministic_crash(c.fingerprint());
  ResilienceOptions resilience;
  resilience.breaker_threshold = 3;
  ResilientEvaluator resilient(flaky, resilience);

  for (const auto& c : bad) resilient.measure(c, nullptr);
  EXPECT_TRUE(resilient.breaker_open());
  const Measurement m = resilient.measure(defaults(), nullptr);
  EXPECT_TRUE(m.valid());
  EXPECT_FALSE(resilient.breaker_open());
}

// ---- budget honesty ---------------------------------------------------------

TEST_F(FailureInjection, BudgetNeverOverchargedUnderTotalFailureWithRetries) {
  // Property: even at a 100% failure rate with retries enabled, the clock
  // never overshoots by more than the one attempt in flight when it expired.
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(1.0, 31));
  ResilienceOptions resilience;
  resilience.max_attempts = 3;
  resilience.breaker_threshold = 1000;  // keep retrying to the bitter end
  ResilientEvaluator resilient(flaky, resilience);

  const SimTime total = SimTime::minutes(2);
  BudgetClock budget(total);
  const auto configs = distinct_configs(64);
  for (std::size_t i = 0; !budget.exhausted(); i = (i + 1) % configs.size()) {
    resilient.measure(configs[i], &budget);
  }
  EXPECT_GE(budget.spent(), total);
  EXPECT_LE(budget.spent() - total,
            flaky.options().failure_cost + SimTime::seconds(1));
}

// ---- tuners on a hostile harness -------------------------------------------

TEST_F(FailureInjection, TunersSurviveThirtyPercentFlakiness) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator flaky(runner, transient_only(0.30));
  HierarchicalTuner hier;
  const double best = drive(hier, flaky, SimTime::minutes(15));
  EXPECT_TRUE(std::isfinite(best));
  EXPECT_GT(flaky.stats().transient, 0);
}

TEST_F(FailureInjection, EveryAlgorithmTerminatesUnderFlakiness) {
  BenchmarkRunner runner(sim_, workload_);
  std::vector<std::unique_ptr<SearchStrategy>> tuners;
  tuners.push_back(std::make_unique<RandomSearch>(0.15));
  tuners.push_back(std::make_unique<HillClimber>());
  tuners.push_back(std::make_unique<SimulatedAnnealing>());
  tuners.push_back(std::make_unique<GeneticTuner>());
  tuners.push_back(std::make_unique<BanditEnsemble>());
  tuners.push_back(std::make_unique<IteratedLocalSearch>());
  tuners.push_back(std::make_unique<SubsetTuner>());
  for (auto& tuner : tuners) {
    FaultInjectingEvaluator flaky(runner, transient_only(0.40, 7));
    ResilientEvaluator resilient(flaky);
    const double best = drive(*tuner, resilient, SimTime::minutes(6));
    EXPECT_TRUE(std::isfinite(best)) << tuner->name();
  }
}

TEST_F(FailureInjection, TotalHarnessFailureStillTerminates) {
  BenchmarkRunner runner(sim_, workload_);
  FaultInjectingEvaluator broken(runner, transient_only(1.0, 13));
  ResilientEvaluator resilient(broken);
  HierarchicalTuner tuner;
  BudgetClock budget(SimTime::minutes(5));
  ResultDb db;
  const SearchSpace space(FlagHierarchy::hotspot());
  TuningContext ctx(resilient, budget, db, space, Rng(1));
  commit_defaults(ctx, space);
  EvalScheduler(ctx).run(tuner);  // must not hang or throw
  EXPECT_TRUE(budget.exhausted());
  EXPECT_TRUE(std::isinf(ctx.best_objective()));
  // The incumbent is still retrievable (the crashed default).
  EXPECT_NO_THROW((void)ctx.best_config());
}

TEST_F(FailureInjection, IncumbentFiniteWheneverAnyFiniteResultExists) {
  // Property: whatever the failure pattern, if any evaluation came back
  // finite the session incumbent must be finite too.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    BenchmarkRunner runner(sim_, workload_);
    FaultOptions options = transient_only(0.85, seed);
    options.deterministic_rate = 0.05;
    FaultInjectingEvaluator flaky(runner, options);
    ResilientEvaluator resilient(flaky);
    BudgetClock budget(SimTime::minutes(4));
    ResultDb db;
    const SearchSpace space(FlagHierarchy::hotspot());
    TuningContext ctx(resilient, budget, db, space, Rng(seed));
    commit_defaults(ctx, space);
    HierarchicalTuner tuner;
    EvalScheduler(ctx).run(tuner);
    if (std::isfinite(db.best_objective())) {
      EXPECT_TRUE(std::isfinite(ctx.best_objective())) << "seed " << seed;
      EXPECT_EQ(ctx.best_objective(), db.best_objective()) << "seed " << seed;
    }
  }
}

// ---- whole sessions ---------------------------------------------------------

TEST_F(FailureInjection, SessionSurvivesInjectedFaultsWithResilience) {
  SessionOptions options;
  options.budget = SimTime::minutes(15);
  options.fault_injection = transient_only(0.25);
  options.fault_injection.deterministic_rate = 0.05;
  options.resilient = true;
  TuningSession session(sim_, workload_, options);
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);
  EXPECT_TRUE(std::isfinite(outcome.best_ms));
  EXPECT_GE(outcome.improvement_frac(), 0.0);
  EXPECT_GT(outcome.fault_stats.transient, 0);
  EXPECT_GT(outcome.fault_stats.retry_successes, 0);
  // The taxonomy reached the evaluation log too.
  const FaultStats logged = outcome.db->fault_counts();
  EXPECT_GT(logged.failures() + logged.retries, 0);
}

TEST_F(FailureInjection, ExtremeNoiseDoesNotBreakValidation) {
  WorkloadSpec noisy = workload_;
  noisy.noise_sigma = 0.4;
  SessionOptions options;
  options.budget = SimTime::minutes(10);
  options.repetitions = 3;
  TuningSession session(sim_, noisy, options);
  HillClimber tuner;
  const TuningOutcome outcome = session.run(tuner);
  // Validation clamps to the baseline: never a negative improvement.
  EXPECT_GE(outcome.improvement_frac(), 0.0);
  EXPECT_TRUE(std::isfinite(outcome.best_ms));
}

}  // namespace
}  // namespace jat
