// EvalScheduler contract tests: the ask/tell trajectory is bit-identical
// for any eval_threads at a fixed in-flight window, budget overshoot is
// bounded by one window, BudgetClock charges survive a many-thread hammer,
// and the outcome ratio metrics agree on crashed corners.
#include "tuner/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "determinism_matrix.hpp"
#include "support/log.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec scheduler_workload() {
  WorkloadSpec w;
  w.name = "scheduler-test";
  w.total_work = 500;
  w.startup_work = 100;
  w.startup_classes = 1500;
  w.alloc_rate = 600 * 1024;
  w.method_count = 3000;
  w.noise_sigma = 0.01;
  return w;
}

std::unique_ptr<SearchStrategy> make_strategy(const std::string& name) {
  if (name == "random") return std::make_unique<RandomSearch>(0.15);
  if (name == "hill") return std::make_unique<HillClimber>();
  if (name == "annealing") return std::make_unique<SimulatedAnnealing>();
  if (name == "genetic") return std::make_unique<GeneticTuner>();
  if (name == "bandit") return std::make_unique<BanditEnsemble>();
  if (name == "ils") return std::make_unique<IteratedLocalSearch>();
  if (name == "subset") return std::make_unique<SubsetTuner>();
  if (name == "hierarchical") return std::make_unique<HierarchicalTuner>();
  return nullptr;
}

/// Smoke-scale options under which the determinism contract is exact:
/// single repetitions keep each measurement atomic against mid-measurement
/// budget expiry, and racing off removes the one interleaving-dependent
/// early-stop (both documented in tuner/strategy.hpp).
SessionOptions smoke_options(std::size_t eval_threads) {
  SessionOptions options;
  options.budget = SimTime::minutes(8);
  options.repetitions = 1;
  options.racing_factor = 0.0;
  options.seed = 99;
  options.eval_threads = eval_threads;
  options.inflight = 8;
  return options;
}

class SchedulerDeterminism : public ::testing::TestWithParam<const char*> {
 protected:
  SchedulerDeterminism() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;
};

// The tentpole guarantee: for every native strategy the full outcome —
// incumbent fingerprint, objectives, counters, evaluation log — is
// identical whether evaluations run serially or on 2 or 8 worker threads
// (the shared contract lives in determinism_matrix.hpp).
TEST_P(SchedulerDeterminism, OutcomeIdenticalAcrossEvalThreads) {
  const std::string name = GetParam();
  DeterminismMatrix matrix;
  matrix.cases = {{.eval_threads = 2}, {.eval_threads = 4},
                  {.eval_threads = 8}};
  run_determinism_matrix(
      sim_, scheduler_workload(), smoke_options(0),
      [&] { return make_strategy(name); }, matrix, name);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SchedulerDeterminism,
                         ::testing::Values("random", "hill", "annealing",
                                           "genetic", "bandit", "ils",
                                           "subset", "hierarchical"));

class SchedulerSuite : public ::testing::Test {
 protected:
  SchedulerSuite() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;
};

// Budget property: admission gates on the committed ledger, so the total
// charge can exceed the budget by at most one in-flight window of
// measurements (each itself bounded by the costliest single evaluation).
TEST_F(SchedulerSuite, OvershootBoundedByOneWindow) {
  SessionOptions options = smoke_options(4);
  options.inflight = 8;
  TuningSession session(sim_, scheduler_workload(), options);
  RandomSearch strategy(0.15);
  const TuningOutcome outcome = session.run(strategy);
  ASSERT_NE(outcome.db, nullptr);
  ASSERT_GT(outcome.db->size(), 1u);

  // The costliest single evaluation, read off the log's budget positions.
  SimTime max_eval_cost = outcome.db->get(0).budget_spent;
  for (std::size_t i = 1; i < outcome.db->size(); ++i) {
    const SimTime delta =
        outcome.db->get(i).budget_spent - outcome.db->get(i - 1).budget_spent;
    max_eval_cost = std::max(max_eval_cost, delta);
  }
  const SimTime window_bound = max_eval_cost * double(options.inflight);
  EXPECT_LE(outcome.budget_spent.as_seconds(),
            (options.budget + window_bound).as_seconds())
      << "overshoot " << (outcome.budget_spent - options.budget).to_string()
      << " exceeds one window " << window_bound.to_string();
}

// A tiny window must still make progress and stay within its tighter bound.
TEST_F(SchedulerSuite, SingleSlotWindowDegradesToSerial) {
  SessionOptions options = smoke_options(4);
  options.inflight = 1;
  TuningSession session(sim_, scheduler_workload(), options);
  HillClimber strategy;
  const TuningOutcome outcome = session.run(strategy);
  EXPECT_GE(outcome.evaluations, 2);
  EXPECT_TRUE(std::isfinite(outcome.best_ms));

  // With one slot the outcome equals the serial trajectory at window 1.
  SessionOptions serial = smoke_options(0);
  serial.inflight = 1;
  TuningSession serial_session(sim_, scheduler_workload(), serial);
  HillClimber serial_strategy;
  const TuningOutcome reference = serial_session.run(serial_strategy);
  EXPECT_EQ(reference.best_config.fingerprint(),
            outcome.best_config.fingerprint());
  EXPECT_DOUBLE_EQ(reference.best_ms, outcome.best_ms);
}

// The window size is part of the trajectory, so two different windows are
// allowed to (and at smoke scale, do) explore differently — this guards
// against accidentally serializing every ask.
TEST_F(SchedulerSuite, WindowSizeShapesTheTrajectory) {
  SessionOptions narrow = smoke_options(0);
  narrow.inflight = 1;
  SessionOptions wide = smoke_options(0);
  wide.inflight = 8;
  TuningSession s1(sim_, scheduler_workload(), narrow);
  TuningSession s2(sim_, scheduler_workload(), wide);
  GeneticTuner t1;
  GeneticTuner t2;
  const TuningOutcome a = s1.run(t1);
  const TuningOutcome b = s2.run(t2);
  // Identical measurement semantics, but speculation differs: compare logs.
  ASSERT_GT(a.db->size(), 4u);
  ASSERT_GT(b.db->size(), 4u);
  bool any_difference = a.db->size() != b.db->size();
  for (std::size_t i = 0; !any_difference && i < a.db->size(); ++i) {
    any_difference = a.db->get(i).fingerprint != b.db->get(i).fingerprint;
  }
  EXPECT_TRUE(any_difference);
}

// ---- BudgetClock under concurrent charges -----------------------------------

// Many threads charge one clock concurrently (as pooled evaluations do);
// not a single microsecond may be lost.
TEST_F(SchedulerSuite, ConcurrentChargesSumExactly) {
  const SimTime cost = SimTime::seconds(3);
  BudgetClock clock(SimTime::seconds(1000));
  constexpr int kThreads = 16;
  constexpr int kChargesPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kChargesPerThread; ++i) clock.charge(cost);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(clock.spent(), cost * double(kThreads * kChargesPerThread));
  EXPECT_TRUE(clock.exhausted());
}

// ---- TuningOutcome ratio metrics --------------------------------------------

TEST_F(SchedulerSuite, OutcomeMetricsAgreeOnCrashedCorners) {
  TuningOutcome outcome{.workload_name = "w",
                        .tuner_name = "t",
                        .best_config = Configuration(FlagRegistry::hotspot()),
                        .default_ms = 0,
                        .best_ms = 0,
                        .evaluations = 0,
                        .runs = 0,
                        .cache_hits = 0,
                        .budget_spent = SimTime::zero(),
                        .fault_stats = FaultStats{},
                        .db = nullptr};
  const double inf = std::numeric_limits<double>::infinity();

  // Crashed baseline: previously speedup() returned inf/best (= inf) while
  // improvement_frac() returned a garbage negative; both must now be 0.
  outcome.default_ms = inf;
  outcome.best_ms = 100.0;
  EXPECT_FALSE(outcome.comparable());
  EXPECT_EQ(outcome.improvement_frac(), 0.0);
  EXPECT_EQ(outcome.speedup(), 0.0);

  // Crashed winner.
  outcome.default_ms = 100.0;
  outcome.best_ms = inf;
  EXPECT_FALSE(outcome.comparable());
  EXPECT_EQ(outcome.improvement_frac(), 0.0);
  EXPECT_EQ(outcome.speedup(), 0.0);

  // Zero (unmeasured) sides are not comparable either.
  outcome.default_ms = 0.0;
  outcome.best_ms = 100.0;
  EXPECT_FALSE(outcome.comparable());
  EXPECT_EQ(outcome.speedup(), 0.0);

  // The healthy case still reports the paper's metrics.
  outcome.default_ms = 200.0;
  outcome.best_ms = 100.0;
  EXPECT_TRUE(outcome.comparable());
  EXPECT_DOUBLE_EQ(outcome.improvement_frac(), 0.5);
  EXPECT_DOUBLE_EQ(outcome.speedup(), 2.0);
}

}  // namespace
}  // namespace jat
