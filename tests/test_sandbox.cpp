// Out-of-process sandbox: the measurements run in forked workers, so these
// tests exercise real process deaths — SIGKILL mid-measurement, wedged
// busy-loops escalated by the watchdog, torn replies — and pin the
// bit-identity contract against the in-process path.
//
// Kept out of the TSan suite (fork + TSan is undefined territory); names
// deliberately avoid the TSan job's -R filter substrings.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <string>
#include <variant>
#include <vector>

#include "determinism_matrix.hpp"
#include "harness/budget.hpp"
#include "harness/resilient.hpp"
#include "harness/runner.hpp"
#include "harness/sandbox.hpp"
#include "harness/trace_analysis.hpp"
#include "support/log.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec tiny() {
  WorkloadSpec w;
  w.name = "sb-test";
  w.total_work = 300;
  w.startup_work = 60;
  w.startup_classes = 800;
  w.noise_sigma = 0.01;
  return w;
}

class SandboxTest : public ::testing::Test {
 protected:
  SandboxTest() { set_log_level(LogLevel::kOff); }

  Configuration defaults() { return Configuration(FlagRegistry::hotspot()); }

  Configuration with_new_ratio(std::int64_t value) {
    Configuration c(FlagRegistry::hotspot());
    c.set_int("NewRatio", value);
    return c;
  }

  JvmSimulator sim_;
  WorkloadSpec workload_ = tiny();
  SearchSpace space_{FlagHierarchy::hotspot()};
};

TEST_F(SandboxTest, RoundTripMatchesInProcessBitForBit) {
  BenchmarkRunner reference(sim_, workload_);
  BudgetClock reference_budget(SimTime::minutes(100));
  const Measurement expected = reference.measure(defaults(), &reference_budget);

  BenchmarkRunner runner(sim_, workload_);
  SandboxOptions options;
  options.workers = 2;
  SandboxedEvaluator sandbox(runner, space_.registry(), options);
  sandbox.link_runner(&runner);
  BudgetClock budget(SimTime::minutes(100));
  const Measurement m = sandbox.measure(defaults(), &budget);

  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.config_fingerprint, expected.config_fingerprint);
  // Raw doubles over the wire: exact equality, not approximate.
  ASSERT_EQ(m.times_ms, expected.times_ms);
  EXPECT_EQ(m.objective(), expected.objective());
  EXPECT_EQ(m.fault, expected.fault);
  EXPECT_EQ(m.failed_reps, expected.failed_reps);
  // The shadow budget's exact metered cost came back as int64 micros.
  EXPECT_EQ(budget.spent(), reference_budget.spent());
  EXPECT_EQ(sandbox.counters().runs, reference.counters().runs);
  // The worker's trajectory count crosses the pipe with its runs.
  EXPECT_EQ(sandbox.counters().simulations, 1);
  EXPECT_EQ(sandbox.counters().simulations, reference.counters().simulations);
  sandbox.shutdown();
}

TEST_F(SandboxTest, RepeatFingerprintsHitTheWorkerCache) {
  BenchmarkRunner runner(sim_, workload_);
  SandboxOptions options;
  options.workers = 3;
  SandboxedEvaluator sandbox(runner, space_.registry(), options);
  sandbox.link_runner(&runner);
  BudgetClock budget(SimTime::minutes(100));

  const Measurement first = sandbox.measure(defaults(), &budget);
  ASSERT_TRUE(first.valid());
  const SimTime after_first = budget.spent();

  // Fingerprint routing sends the repeat to the same worker, whose private
  // cache answers for the in-process cache-lookup fee.
  const Measurement second = sandbox.measure(defaults(), &budget);
  ASSERT_TRUE(second.valid());
  EXPECT_EQ(second.times_ms, first.times_ms);
  EXPECT_EQ(budget.spent() - after_first, SimTime::seconds(0.05));
  EXPECT_EQ(sandbox.counters().cache_hits, 1);
  EXPECT_EQ(sandbox.counters().runs, 3);  // simulated once, not twice
  sandbox.shutdown();
}

TEST_F(SandboxTest, WorkersInheritNoHighNumberedDescriptor) {
  // A worker that keeps a copy of a pipe's write end hides the hangup from
  // the pipe's reader for as long as the worker lives. Put the write end
  // above 4096, let the sandbox fork its workers, close the parent's copy:
  // the reader must see the hangup at once.
  constexpr int kHighFd = 4200;
  struct LimitGuard {
    struct rlimit saved = {};
    ~LimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } guard;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &guard.saved), 0);
  if (guard.saved.rlim_cur != RLIM_INFINITY && guard.saved.rlim_cur <= kHighFd) {
    if (guard.saved.rlim_max != RLIM_INFINITY &&
        guard.saved.rlim_max <= kHighFd) {
      GTEST_SKIP() << "hard RLIMIT_NOFILE " << guard.saved.rlim_max
                   << " leaves no room for descriptor " << kHighFd;
    }
    struct rlimit raised = guard.saved;
    raised.rlim_cur = kHighFd + 1;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &raised), 0);
  }
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::dup2(fds[1], kHighFd), kHighFd);
  ::close(fds[1]);

  BenchmarkRunner runner(sim_, workload_);
  SandboxOptions options;
  options.workers = 2;
  SandboxedEvaluator sandbox(runner, space_.registry(), options);
  sandbox.link_runner(&runner);
  ASSERT_TRUE(sandbox.measure(defaults()).valid());  // every worker forked
  ::close(kHighFd);

  struct pollfd pfd = {};
  pfd.fd = fds[0];
  pfd.events = POLLIN;
  EXPECT_EQ(::poll(&pfd, 1, 2000), 1);
  EXPECT_NE(pfd.revents & POLLHUP, 0) << "a worker still holds the write end";
  sandbox.shutdown();
  ::close(fds[0]);
}

TEST_F(SandboxTest, KilledWorkerIsClassifiedAsCrashAndRespawned) {
  BenchmarkRunner runner(sim_, workload_);
  const Configuration doomed = with_new_ratio(3);
  SandboxOptions options;
  options.workers = 1;
  options.inject.kill_fingerprints = {doomed.fingerprint()};
  SandboxedEvaluator sandbox(runner, space_.registry(), options);
  sandbox.link_runner(&runner);
  TraceSink trace;
  sandbox.set_trace_sink(&trace);
  BudgetClock budget(SimTime::minutes(100));

  const Measurement m = sandbox.measure(doomed, &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kCrash);
  EXPECT_NE(m.crash_reason.find("killed by"), std::string::npos);
  EXPECT_EQ(budget.spent(), options.crash_cost);
  EXPECT_EQ(sandbox.worker_crashes(), 1);
  EXPECT_EQ(sandbox.counters().faults.crashes, 1);

  // The session survives: the next measurement respawns the worker.
  const Measurement next = sandbox.measure(defaults(), &budget);
  EXPECT_TRUE(next.valid());
  EXPECT_EQ(sandbox.workers_respawned(), 1);

  int exits = 0, respawns = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.type == "worker_exit") ++exits;
    if (e.type == "worker_respawn") ++respawns;
    EXPECT_EQ(validate_trace_event(e), "") << e.type;
  }
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(respawns, 1);
  sandbox.shutdown();
}

TEST_F(SandboxTest, WedgedWorkerIsEscalatedAndClassifiedAsTimeout) {
  BenchmarkRunner runner(sim_, workload_);
  const Configuration doomed = with_new_ratio(4);
  SandboxOptions options;
  options.workers = 1;
  options.eval_deadline_s = 0.3;
  options.kill_grace_ms = 150;
  options.inject.wedge_fingerprints = {doomed.fingerprint()};
  SandboxedEvaluator sandbox(runner, space_.registry(), options);
  sandbox.link_runner(&runner);
  TraceSink trace;
  sandbox.set_trace_sink(&trace);
  BudgetClock budget(SimTime::minutes(100));

  const Measurement m = sandbox.measure(doomed, &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kTimeout);
  EXPECT_NE(m.crash_reason.find("deadline"), std::string::npos);
  // The harness paid for the whole hang, like an injected-hang timeout.
  EXPECT_EQ(budget.spent(), options.hang_cost);
  EXPECT_EQ(sandbox.deadline_kills(), 1);
  EXPECT_EQ(sandbox.counters().faults.timeouts, 1);

  // The wedge ignores SIGTERM, so the watchdog escalated term -> kill.
  std::vector<std::string> stages;
  for (const TraceEvent& e : trace.events()) {
    if (e.type != "sandbox_kill") continue;
    const TraceValue* stage = e.find("stage");
    ASSERT_NE(stage, nullptr);
    stages.push_back(std::get<std::string>(*stage));
  }
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0], "term");
  EXPECT_EQ(stages[1], "kill");

  // Still operational afterwards.
  EXPECT_TRUE(sandbox.measure(defaults(), &budget).valid());
  sandbox.shutdown();
}

TEST_F(SandboxTest, TornReplyIsTransientAndRetryRecovers) {
  BenchmarkRunner runner(sim_, workload_);
  const Configuration flaky = with_new_ratio(5);
  SandboxOptions options;
  options.workers = 1;
  // Generation-0-only injection: the respawned worker answers cleanly.
  options.inject.torn_fingerprints = {flaky.fingerprint()};
  SandboxedEvaluator sandbox(runner, space_.registry(), options);
  sandbox.link_runner(&runner);

  ResilienceOptions resilience;
  resilience.max_attempts = 3;
  ResilientEvaluator resilient(sandbox, resilience);
  BudgetClock budget(SimTime::minutes(100));

  const Measurement m = resilient.measure(flaky, &budget);
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.attempts, 2);                       // one torn reply, one retry
  EXPECT_EQ(m.fault, FaultClass::kTransient);     // taxonomy survives recovery
  EXPECT_EQ(sandbox.torn_replies(), 1);
  EXPECT_EQ(sandbox.workers_respawned(), 1);
  EXPECT_EQ(resilient.stats().retry_successes, 1);
  sandbox.shutdown();
}

TEST_F(SandboxTest, RepeatedCrashesQuarantineTheFingerprint) {
  BenchmarkRunner runner(sim_, workload_);
  const Configuration doomed = with_new_ratio(6);
  SandboxOptions options;
  options.workers = 1;
  options.inject.kill_fingerprints = {doomed.fingerprint()};
  SandboxedEvaluator sandbox(runner, space_.registry(), options);
  sandbox.link_runner(&runner);

  ResilienceOptions resilience;
  resilience.quarantine_threshold = 2;
  ResilientEvaluator resilient(sandbox, resilience);
  BudgetClock budget(SimTime::minutes(100));

  // A process crash is a hard failure: no retry, straight to quarantine
  // accounting.
  EXPECT_EQ(resilient.measure(doomed, &budget).fault, FaultClass::kCrash);
  EXPECT_EQ(resilient.measure(doomed, &budget).fault, FaultClass::kCrash);
  EXPECT_TRUE(resilient.is_quarantined(doomed.fingerprint()));
  const Measurement m = resilient.measure(doomed, &budget);
  EXPECT_EQ(m.fault, FaultClass::kQuarantined);
  EXPECT_EQ(sandbox.worker_crashes(), 2);  // the third never reached a worker
  sandbox.shutdown();
}

TEST_F(SandboxTest, SessionOutcomeIsBitIdenticalWithoutFaults) {
  // Serial sandbox matches the in-process reference including budget
  // positions; pipelined sandbox matches the trajectory and counters (the
  // matrix skips budget comparison for pipelined cells — documented
  // charge-interleave nondeterminism).
  SessionOptions base;
  base.budget = SimTime::minutes(12);
  base.seed = 41;
  DeterminismMatrix matrix;
  matrix.cases = {{.eval_threads = 0, .sandbox = true, .sandbox_workers = 3},
                  {.eval_threads = 2, .sandbox = true, .sandbox_workers = 3}};
  run_determinism_matrix(
      sim_, workload_, base, [] { return std::make_unique<HierarchicalTuner>(); },
      matrix);
}

// The adaptive measurement policy crosses the process boundary whole:
// incumbent snapshots ride the request frame, stop reasons ride the reply,
// and top-ups route to the worker holding the cached partial — so the
// sandboxed trajectory matches the in-process one bit for bit, policy on.
TEST_F(SandboxTest, AdaptivePolicySessionMatchesInProcessBitForBit) {
  auto run_session = [&](bool sandboxed) {
    SessionOptions options;
    options.budget = SimTime::minutes(12);
    options.seed = 41;
    options.sandbox = sandboxed;
    options.sandbox_options.workers = 3;
    options.measurement.adaptive = true;
    options.measurement.max_reps = 6;
    options.measurement.ci_rel = 0.02;
    options.measurement.race_p = 0.05;
    TuningSession session(sim_, workload_, options);
    HierarchicalTuner tuner;
    return session.run(tuner);
  };
  const TuningOutcome expected = run_session(false);
  const TuningOutcome sandboxed = run_session(true);
  ASSERT_EQ(sandboxed.db->size(), expected.db->size());
  for (std::size_t i = 0; i < expected.db->size(); ++i) {
    const EvalRecord a = expected.db->get(i);
    const EvalRecord b = sandboxed.db->get(i);
    EXPECT_EQ(b.fingerprint, a.fingerprint) << "row " << i;
    EXPECT_EQ(b.objective_ms, a.objective_ms) << "row " << i;
    EXPECT_EQ(b.budget_spent, a.budget_spent) << "row " << i;
    EXPECT_EQ(b.stop, a.stop) << "row " << i;
  }
  EXPECT_EQ(sandboxed.best_ms, expected.best_ms);
  EXPECT_EQ(sandboxed.best_config.fingerprint(),
            expected.best_config.fingerprint());
  EXPECT_EQ(sandboxed.runs, expected.runs);
  EXPECT_EQ(sandboxed.budget_spent, expected.budget_spent);
}

TEST_F(SandboxTest, FaultInjectedSessionCompletesWithEveryFailureClassified) {
  SessionOptions options;
  options.budget = SimTime::minutes(15);
  options.seed = 42;
  options.resilient = true;
  options.sandbox = true;
  options.sandbox_options.workers = 3;
  options.sandbox_options.eval_deadline_s = 1.0;
  options.sandbox_options.kill_grace_ms = 150;
  options.sandbox_options.inject.kill_rate = 0.08;
  options.sandbox_options.inject.wedge_rate = 0.02;
  TuningSession session(sim_, workload_, options);
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);

  // The session finished despite real worker deaths, and every failure in
  // the log carries a classification from the taxonomy (kDeterministic is
  // the simulator's own config-caused crashes, not a sandbox fault).
  EXPECT_TRUE(std::isfinite(outcome.best_ms));
  EXPECT_GT(outcome.fault_stats.crashes + outcome.fault_stats.timeouts, 0);
  for (const EvalRecord& rec : outcome.db->all()) {
    if (std::isfinite(rec.objective_ms)) continue;
    EXPECT_NE(rec.fault, FaultClass::kNone)
        << "unclassified failure: " << rec.crash_reason;
    EXPECT_FALSE(rec.crash_reason.empty());
  }
}

}  // namespace
}  // namespace jat
