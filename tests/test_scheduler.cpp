// EvalScheduler contract tests: the ask/tell trajectory is bit-identical
// for any eval_threads at a fixed in-flight window, budget overshoot is
// bounded by one window, no configuration is measured twice at once,
// BudgetClock charges survive a many-thread hammer, and the outcome ratio
// metrics agree on crashed corners.
#include "tuner/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "determinism_matrix.hpp"
#include "harness/fault.hpp"
#include "harness/resilient.hpp"
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

// ---- one measurement per configuration at a time ----------------------------

// Counts overlapping measure() calls per fingerprint. Each call is held for
// about half a millisecond, so a second call for the same configuration
// would overlap it.
class OverlapProbe final : public Evaluator {
 public:
  explicit OverlapProbe(Evaluator& inner) : inner_(&inner) {}

  Measurement measure(const Configuration& config, std::uint64_t fingerprint,
                      BudgetClock* budget, const EvalHints& hints) override {
    {
      std::lock_guard lock(mutex_);
      max_overlap_ = std::max(max_overlap_, ++active_[fingerprint]);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    Measurement m = inner_->measure(config, fingerprint, budget, hints);
    std::lock_guard lock(mutex_);
    --active_[fingerprint];
    return m;
  }
  using Evaluator::measure;

  EvalCounters counters() const override { return inner_->counters(); }

  int max_overlap() const {
    std::lock_guard lock(mutex_);
    return max_overlap_;
  }

 private:
  Evaluator* inner_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, int> active_;
  int max_overlap_ = 0;
};

// Proposes three configurations round-robin, 48 proposals in all.
class RoundRobinStrategy final : public SearchStrategy {
 public:
  static constexpr int kProposals = 48;

  std::string name() const override { return "round-robin"; }
  void ask(std::vector<Proposal>& out, std::size_t max) override {
    for (; asked_ < kProposals && max > 0; ++asked_, --max) {
      Configuration config(FlagRegistry::hotspot());
      config.set_int("NewRatio", 1 + asked_ % 3);
      out.emplace_back(std::move(config));
    }
  }
  void tell(const Observation&) override { ++told_; }
  int told() const { return told_; }

 private:
  int asked_ = 0;
  int told_ = 0;
};

// The scheduler owns "one measurement per configuration at a time": a
// configuration already in the window is measured at delivery, after the
// earlier proposal committed, so the runner never sees one configuration
// twice at once and each configuration is simulated once.
TEST_F(SchedulerSuite, NeverMeasuresOneConfigurationTwiceAtOnce) {
  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("eval_threads " + std::to_string(threads));
    BenchmarkRunner runner(sim_, scheduler_workload());
    OverlapProbe probe(runner);
    BudgetClock budget(SimTime::minutes(100000));
    ResultDb db;
    const SearchSpace space(FlagHierarchy::hotspot());
    ThreadPool pool(threads);
    TuningContext ctx(probe, budget, db, space, Rng(5), &pool);
    RoundRobinStrategy strategy;
    EvalScheduler(ctx, SchedulerOptions{.inflight = 8}).run(strategy);

    EXPECT_EQ(probe.max_overlap(), 1);
    EXPECT_EQ(strategy.told(), RoundRobinStrategy::kProposals);
    const EvalCounters counters = runner.counters();
    EXPECT_EQ(counters.runs, 3 * 3);
    EXPECT_EQ(counters.cache_hits, RoundRobinStrategy::kProposals - 3);
  }
}

// ---- the dispatch fingerprint, handed down -----------------------------------

// Checks that the fingerprint every call hands down is its configuration's,
// and counts the calls and the top-up requests among them.
class FingerprintProbe final : public Evaluator {
 public:
  explicit FingerprintProbe(Evaluator& inner) : inner_(&inner) {}

  Measurement measure(const Configuration& config, std::uint64_t fingerprint,
                      BudgetClock* budget, const EvalHints& hints) override {
    {
      std::lock_guard lock(mutex_);
      ++calls_;
      if (hints.top_up) ++top_ups_;
      if (fingerprint != config.fingerprint()) ++wrong_;
    }
    return inner_->measure(config, fingerprint, budget, hints);
  }
  using Evaluator::measure;

  EvalCounters counters() const override { return inner_->counters(); }

  int calls() const {
    std::lock_guard lock(mutex_);
    return calls_;
  }
  int top_ups() const {
    std::lock_guard lock(mutex_);
    return top_ups_;
  }
  int wrong() const {
    std::lock_guard lock(mutex_);
    return wrong_;
  }

 private:
  Evaluator* inner_;
  mutable std::mutex mutex_;
  int calls_ = 0;
  int top_ups_ = 0;
  int wrong_ = 0;
};

// No layer fingerprints the configuration it is handed: the scheduler's
// dispatch-time fingerprint travels down through resilience and fault
// injection (retries included) to a real runner, on pool threads and on
// commit's top-up path alike, and it is always the configuration's own.
TEST_F(SchedulerSuite, EveryLayerReceivesTheDispatchFingerprint) {
  // A tight first-repetition racing floor on a noisy workload races out
  // candidates that still beat the incumbent, so commit tops them up.
  WorkloadSpec workload = scheduler_workload();
  workload.noise_sigma = 0.05;
  RunnerOptions runner_options;
  runner_options.policy.adaptive = true;
  runner_options.policy.max_reps = 5;
  runner_options.policy.ci_rel = 0.02;
  runner_options.policy.race_p = 0.05;
  runner_options.racing_factor = 1.02;
  BenchmarkRunner runner(sim_, workload, runner_options);
  FingerprintProbe probe(runner);
  FaultOptions faults;
  faults.transient_rate = 0.1;
  FaultInjectingEvaluator injector(probe, faults);
  ResilientEvaluator resilient(injector);

  BudgetClock budget(SimTime::minutes(30));
  ResultDb db;
  const SearchSpace space(FlagHierarchy::hotspot());
  ThreadPool pool(4);
  TuningContext ctx(resilient, budget, db, space, Rng(11), &pool);
  ctx.set_measurement_policy(runner_options.policy);
  const Configuration defaults(space.registry());
  const std::uint64_t defaults_fp = defaults.fingerprint();
  TuningContext::MeasuredEval base = ctx.measure_only(defaults, defaults_fp);
  ctx.commit(defaults, defaults_fp, base, /*replayed=*/false);
  HierarchicalTuner strategy;
  EvalScheduler(ctx, SchedulerOptions{.inflight = 8}).run(strategy);

  EXPECT_EQ(probe.wrong(), 0) << "of " << probe.calls() << " calls";
  EXPECT_GT(probe.calls(), 50);
  EXPECT_GT(probe.top_ups(), 0) << "commit's top-up path never ran";
  EXPECT_GT(resilient.stats().retries, 0) << "no retry was handed down";
}

// Under the adaptive policy alone, commit never tops up: a Welch-raced
// measurement's mean lies above the dispatch-time incumbent snapshot it
// raced against, and the incumbent only falls before the commit. Only the
// first-repetition racing floor (`--racing`) races out candidates that
// still beat the incumbent, and those are what the top-up path catches.
TEST_F(SchedulerSuite, OnlyTheRacingFloorFeedsTheTopUp) {
  WorkloadSpec workload = scheduler_workload();
  workload.noise_sigma = 0.05;
  for (const char* name : {"hill", "random", "hierarchical"}) {
    for (const double racing_factor : {0.0, 1.02}) {
      RunnerOptions runner_options;
      runner_options.policy.adaptive = true;
      runner_options.policy.max_reps = 5;
      runner_options.policy.ci_rel = 0.02;
      runner_options.policy.race_p = 0.05;
      runner_options.racing_factor = racing_factor;
      BenchmarkRunner runner(sim_, workload, runner_options);
      FingerprintProbe probe(runner);

      BudgetClock budget(SimTime::minutes(30));
      ResultDb db;
      const SearchSpace space(FlagHierarchy::hotspot());
      TuningContext ctx(probe, budget, db, space, Rng(11));
      ctx.set_measurement_policy(runner_options.policy);
      const Configuration defaults(space.registry());
      const std::uint64_t defaults_fp = defaults.fingerprint();
      TuningContext::MeasuredEval base = ctx.measure_only(defaults, defaults_fp);
      ctx.commit(defaults, defaults_fp, base, /*replayed=*/false);
      const auto strategy = make_strategy(name);
      EvalScheduler(ctx).run(*strategy);

      int raced_out = 0;
      for (const EvalRecord& record : db.all()) {
        raced_out += record.stop == StopReason::kRacedOut;
      }
      EXPECT_GT(probe.calls(), 50) << name;
      EXPECT_GT(raced_out, 5) << name << ": nothing raced out";
      if (racing_factor == 0.0) {
        EXPECT_EQ(probe.top_ups(), 0) << name << ": adaptive policy alone";
      } else {
        EXPECT_GT(probe.top_ups(), 0) << name << ": racing floor "
                                      << racing_factor;
      }
    }
  }
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
