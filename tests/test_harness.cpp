#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "harness/budget.hpp"
#include "harness/result_db.hpp"
#include "harness/runner.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec tiny_workload() {
  WorkloadSpec w;
  w.name = "tiny";
  w.total_work = 300;
  w.startup_work = 50;
  w.startup_classes = 500;
  w.noise_sigma = 0.02;
  return w;
}

// ---- BudgetClock -----------------------------------------------------------

TEST(BudgetClock, ChargesAndExpires) {
  BudgetClock budget(SimTime::seconds(10));
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.remaining(), SimTime::seconds(10));
  budget.charge(SimTime::seconds(4));
  EXPECT_EQ(budget.spent(), SimTime::seconds(4));
  EXPECT_EQ(budget.remaining(), SimTime::seconds(6));
  budget.charge(SimTime::seconds(7));
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.remaining(), SimTime::zero());
}

TEST(BudgetClock, ConcurrentChargesAllLand) {
  BudgetClock budget(SimTime::seconds(1000000));
  ThreadPool pool(8);
  pool.parallel_for(1000, [&](std::size_t) { budget.charge(SimTime::millis(3)); });
  EXPECT_EQ(budget.spent(), SimTime::seconds(3));
}

// ---- ResultDb ---------------------------------------------------------------

TEST(ResultDb, RecordsInOrder) {
  ResultDb db;
  EXPECT_EQ(db.record(1, 100.0, SimTime::seconds(1), "-XX:+A", "p1"), 0);
  EXPECT_EQ(db.record(2, 90.0, SimTime::seconds(2), "-XX:+B", "p2"), 1);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.get(1).command_line, "-XX:+B");
  EXPECT_EQ(db.get(0).phase, "p1");
}

TEST(ResultDb, BestObjectiveIgnoresNothing) {
  ResultDb db;
  EXPECT_TRUE(std::isinf(db.best_objective()));
  db.record(1, 100.0, SimTime::seconds(1), "");
  db.record(2, std::numeric_limits<double>::infinity(), SimTime::seconds(2), "");
  db.record(3, 80.0, SimTime::seconds(3), "");
  EXPECT_EQ(db.best_objective(), 80.0);
}

TEST(ResultDb, TrajectoryIsMonotoneStaircase) {
  ResultDb db;
  db.record(1, 100.0, SimTime::seconds(1), "");
  db.record(2, 120.0, SimTime::seconds(2), "");  // worse: no step
  db.record(3, 90.0, SimTime::seconds(3), "");
  db.record(4, 85.0, SimTime::seconds(4), "");
  const auto trajectory = db.best_trajectory();
  ASSERT_EQ(trajectory.size(), 3u);
  EXPECT_EQ(trajectory[0].second, 100.0);
  EXPECT_EQ(trajectory[1].second, 90.0);
  EXPECT_EQ(trajectory[2].second, 85.0);
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    EXPECT_LT(trajectory[i].second, trajectory[i - 1].second);
    EXPECT_GT(trajectory[i].first, trajectory[i - 1].first);
  }
}

TEST(ResultDb, BestAtInterpolatesStaircase) {
  ResultDb db;
  db.record(1, 100.0, SimTime::seconds(10), "");
  db.record(2, 70.0, SimTime::seconds(20), "");
  EXPECT_TRUE(std::isinf(db.best_at(SimTime::seconds(5))));
  EXPECT_EQ(db.best_at(SimTime::seconds(10)), 100.0);
  EXPECT_EQ(db.best_at(SimTime::seconds(15)), 100.0);
  EXPECT_EQ(db.best_at(SimTime::seconds(25)), 70.0);
}

TEST(ResultDb, SaveCsvWritesAllRows) {
  ResultDb db;
  db.record(1, 100.0, SimTime::seconds(1), "-XX:+UseG1GC", "structural");
  const std::string path = ::testing::TempDir() + "/resultdb_test.csv";
  ASSERT_TRUE(db.save_csv(path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("UseG1GC"), std::string::npos);
  EXPECT_NE(content.find("structural"), std::string::npos);
}

TEST(ResultDb, CsvAndCountersCarryFaultTaxonomy) {
  ResultDb db;
  db.record(1, 100.0, SimTime::seconds(1), "-XX:+A", "default");
  db.record(2, std::numeric_limits<double>::infinity(), SimTime::seconds(2),
            "-XX:+B", "structural", FaultClass::kTimeout, "harness timeout", 1);
  db.record(3, 90.0, SimTime::seconds(3), "-XX:+C", "refine",
            FaultClass::kTransient, "", 3);
  EXPECT_EQ(db.get(1).fault, FaultClass::kTimeout);
  EXPECT_EQ(db.get(1).crash_reason, "harness timeout");
  EXPECT_EQ(db.get(2).attempts, 3);

  const FaultStats counts = db.fault_counts();
  EXPECT_EQ(counts.timeouts, 1);
  EXPECT_EQ(counts.transient, 1);
  EXPECT_EQ(counts.retries, 2);         // record 3 took 3 attempts
  EXPECT_EQ(counts.retry_successes, 1); // ... and came back finite

  const std::string path = ::testing::TempDir() + "/resultdb_fault.csv";
  ASSERT_TRUE(db.save_csv(path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find(",fault,stop,attempts,crash_reason,"),
            std::string::npos);
  EXPECT_NE(content.find("timeout"), std::string::npos);
  EXPECT_NE(content.find("harness timeout"), std::string::npos);
}

// Regression: save_csv used to wrap crash_reason/command_line in quotes
// without escaping embedded quotes (and left phase bare), so a crash reason
// like `assert "x" failed` or a phase with a comma produced a malformed
// row. The writer now emits RFC-4180 and the cells round-trip exactly.
TEST(ResultDb, SaveCsvRoundTripsHostileStrings) {
  ResultDb db;
  const std::string reason = "assert \"heap->is_full()\" failed,\ncore dumped";
  const std::string flags = "-XX:OnError=\"gdb, %p\" -XX:+UseG1GC";
  const std::string phase = "refine,\"inner\"";
  db.record(42, 123.5, SimTime::seconds(7), flags, phase,
            FaultClass::kDeterministic, reason, 2);
  db.record(43, 99.0, SimTime::seconds(8), "", "default");

  const std::string path = ::testing::TempDir() + "/resultdb_hostile.csv";
  ASSERT_TRUE(db.save_csv(path));
  const auto rows = parse_csv_file(path);
  ASSERT_EQ(rows.size(), 3u);  // header + 2 records
  const std::vector<std::string> header = {
      "index",       "fingerprint", "objective_ms",
      "budget_spent_s", "phase",    "fault",
      "stop",        "attempts",    "crash_reason",
      "command_line"};
  EXPECT_EQ(rows[0], header);
  ASSERT_EQ(rows[1].size(), header.size());
  EXPECT_EQ(rows[1][0], "0");
  EXPECT_EQ(rows[1][1], "42");
  EXPECT_EQ(rows[1][4], phase);
  EXPECT_EQ(rows[1][6], "full");
  EXPECT_EQ(rows[1][8], reason);
  EXPECT_EQ(rows[1][9], flags);
  ASSERT_EQ(rows[2].size(), header.size());
  EXPECT_EQ(rows[2][8], "");
  EXPECT_EQ(rows[2][9], "");
}

// ---- BenchmarkRunner ---------------------------------------------------------

class RunnerTest : public ::testing::Test {
 protected:
  JvmSimulator sim_;
  Configuration config_{FlagRegistry::hotspot()};
};

TEST_F(RunnerTest, MeasuresRequestedRepetitions) {
  RunnerOptions options;
  options.repetitions = 4;
  BenchmarkRunner runner(sim_, tiny_workload(), options);
  const Measurement m = runner.measure(config_);
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.times_ms.size(), 4u);
  EXPECT_EQ(runner.counters().runs, 4);
  EXPECT_GT(m.objective(), 0.0);
}

TEST_F(RunnerTest, CachesByFingerprint) {
  BenchmarkRunner runner(sim_, tiny_workload());
  const Measurement a = runner.measure(config_);
  const Measurement b = runner.measure(config_);
  EXPECT_EQ(runner.cache_hits(), 1);
  EXPECT_EQ(runner.counters().runs, 3);  // only the first measurement ran
  EXPECT_EQ(a.objective(), b.objective());
}

TEST_F(RunnerTest, MeasurementsAreReproducible) {
  BenchmarkRunner r1(sim_, tiny_workload());
  BenchmarkRunner r2(sim_, tiny_workload());
  EXPECT_EQ(r1.measure(config_).objective(), r2.measure(config_).objective());
}

TEST_F(RunnerTest, BudgetChargedPerRun) {
  BudgetClock budget(SimTime::minutes(1000));
  BenchmarkRunner runner(sim_, tiny_workload());
  const Measurement m = runner.measure(config_, &budget);
  ASSERT_TRUE(m.valid());
  // 3 reps, each charged run time + 2 s overhead.
  EXPECT_GT(budget.spent(), SimTime::seconds(6));
}

TEST_F(RunnerTest, CacheHitChargesOnlyLookupCost) {
  BudgetClock budget(SimTime::minutes(1000));
  BenchmarkRunner runner(sim_, tiny_workload());
  runner.measure(config_, &budget);
  const SimTime after_first = budget.spent();
  runner.measure(config_, &budget);
  EXPECT_LT(budget.spent() - after_first, SimTime::seconds(1));
}

TEST_F(RunnerTest, CrashedConfigFailsFast) {
  config_.set_bool("UseG1GC", true);  // conflicting collectors
  BenchmarkRunner runner(sim_, tiny_workload());
  const Measurement m = runner.measure(config_);
  EXPECT_TRUE(m.crashed);
  EXPECT_TRUE(std::isinf(m.objective()));
  EXPECT_EQ(runner.counters().runs, 1);  // fail-fast
}

TEST_F(RunnerTest, TimeLimitAbandonsSlowRuns) {
  BenchmarkRunner runner(sim_, tiny_workload());
  const Measurement normal = runner.measure(config_);
  ASSERT_TRUE(normal.valid());

  BenchmarkRunner strict(sim_, tiny_workload());
  strict.set_time_limit(SimTime::millis(1));
  BudgetClock budget(SimTime::minutes(1000));
  const Measurement m = strict.measure(config_, &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_NE(m.crash_reason.find("timeout"), std::string::npos);
  // Charged roughly the limit + overhead, not the full run time.
  EXPECT_LT(budget.spent(), SimTime::seconds(5));
}

TEST_F(RunnerTest, ConcurrentMeasurementsAreSafe) {
  BenchmarkRunner runner(sim_, tiny_workload());
  ThreadPool pool(8);
  std::vector<double> objectives(32);
  const auto measure = [&](std::size_t i) {
    Configuration c(FlagRegistry::hotspot());
    c.set_int("NewRatio", static_cast<std::int64_t>(1 + i % 8));
    objectives[i] = runner.measure(c).objective();
  };
  // 8 distinct configurations at once, as the scheduler issues them, then
  // 24 concurrent repeats that the cache answers.
  pool.parallel_for(8, measure);
  pool.parallel_for(24, [&](std::size_t i) { measure(8 + i); });
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    EXPECT_TRUE(std::isfinite(objectives[i]));
    EXPECT_EQ(objectives[i], objectives[i % 8]);
  }
  EXPECT_EQ(runner.counters().runs, 8 * 3);
  EXPECT_EQ(runner.cache_hits(), 24);
}

TEST_F(RunnerTest, FailedMeasurementLeavesNoCacheEntry) {
  // A budget whose charge() throws models any exception escaping a
  // measurement. The caller sees it, and the fingerprint stays uncached so
  // a later call re-measures.
  struct ThrowingBudget final : BudgetClock {
    ThrowingBudget() : BudgetClock(SimTime::minutes(1000)) {}
    void charge(SimTime) override {
      throw std::runtime_error("injected budget failure");
    }
  };
  BenchmarkRunner runner(sim_, tiny_workload());
  ThrowingBudget bad;
  EXPECT_THROW(runner.measure(config_, &bad), std::runtime_error);
  EXPECT_EQ(runner.cache_hits(), 0);
  // No residue: a clean retry of the same fingerprint measures and caches.
  BudgetClock good(SimTime::minutes(1000));
  const Measurement retried = runner.measure(config_, &good);
  EXPECT_TRUE(retried.valid());
  EXPECT_EQ(runner.counters().runs, 1 + 3);
  runner.measure(config_, &good);
  EXPECT_EQ(runner.cache_hits(), 1);
}

TEST_F(RunnerTest, PartialCrashSalvagesValidRepetitions) {
  WorkloadSpec noisy = tiny_workload();
  noisy.noise_sigma = 0.3;
  RunnerOptions options;
  options.repetitions = 5;

  // Probe the per-repetition spread, then set a time limit that the first
  // repetition slower than all before it exceeds and they all meet.
  BenchmarkRunner probe(sim_, noisy, options);
  Measurement clean = probe.measure(config_);
  ASSERT_EQ(clean.times_ms.size(), 5u);
  std::size_t cut = 1;
  while (cut < 5 && clean.times_ms[cut] <= clean.times_ms[cut - 1]) ++cut;
  ASSERT_LT(cut, 5u);  // the noise spread the repetitions out
  const double slowest_before =
      *std::max_element(clean.times_ms.begin(), clean.times_ms.begin() + cut);
  ASSERT_LT(slowest_before, clean.times_ms[cut]);
  const double cut_ms = (slowest_before + clean.times_ms[cut]) / 2.0;

  BenchmarkRunner strict(sim_, noisy, options);
  strict.set_time_limit(SimTime::seconds(cut_ms / 1000.0));
  const Measurement m = strict.measure(config_);
  // The first timeout ends the measurement (fail fast), and the repetitions
  // before it survive: a noisy result, not a crash.
  EXPECT_TRUE(m.valid());
  EXPECT_EQ(m.times_ms.size(), cut);
  EXPECT_EQ(m.failed_reps, 1);
  EXPECT_EQ(m.fault, FaultClass::kTimeout);
  EXPECT_TRUE(std::isfinite(m.objective()));
  EXPECT_EQ(strict.counters().faults.timeouts, 1);
  EXPECT_EQ(strict.counters().faults.salvaged, 1);
  // The repetitions noise one trajectory: the limit cut one of them
  // through its noise alone, and none ran after it.
  EXPECT_EQ(strict.counters().runs, static_cast<std::int64_t>(cut) + 1);
  EXPECT_EQ(strict.counters().simulations, 1);
}

TEST_F(RunnerTest, AllRepetitionsFailedStillReportsCrash) {
  config_.set_bool("UseG1GC", true);  // conflicting collectors
  BenchmarkRunner runner(sim_, tiny_workload());
  const Measurement m = runner.measure(config_);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kDeterministic);
  EXPECT_EQ(m.failed_reps, 1);
  EXPECT_FALSE(m.crash_reason.empty());
  // One refused start ends the measurement, and it was never simulated.
  EXPECT_EQ(runner.counters().runs, 1);
  EXPECT_EQ(runner.counters().simulations, 0);
}

TEST_F(RunnerTest, MetaspaceOomRepetitionsTakeNoNoise) {
  // The early Metaspace OutOfMemoryError reports exactly two seconds at
  // every seed: the repetition of its one simulated trajectory equals the
  // direct run, with no noise although the workload is noisy.
  WorkloadSpec w = tiny_workload();
  w.startup_classes = 20000;
  config_.set_int("MaxMetaspaceSize", 16 * kMiB);
  RunnerOptions options;
  BenchmarkRunner runner(sim_, w, options);
  BudgetClock budget(SimTime::minutes(10));
  const Measurement m = runner.measure(config_, &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.crash_reason, "OutOfMemoryError: Metaspace");
  EXPECT_EQ(m.fault, FaultClass::kDeterministic);
  // The crash ends the measurement at its first repetition.
  EXPECT_EQ(m.failed_reps, 1);
  EXPECT_EQ(runner.counters().runs, 1);
  EXPECT_EQ(runner.counters().simulations, 1);
  EXPECT_EQ(budget.spent(),
            SimTime::seconds(2.0) + SimTime::seconds(options.per_run_overhead_s));

  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    const RunResult direct =
        sim_.run(config_, w,
                 mix64(options.seed, mix64(config_.fingerprint(), rep)));
    EXPECT_EQ(direct.crash_reason, m.crash_reason) << "rep " << rep;
    EXPECT_EQ(direct.total_time, SimTime::seconds(2.0)) << "rep " << rep;
  }
}

}  // namespace
}  // namespace jat
