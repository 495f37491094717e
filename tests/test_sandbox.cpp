// Out-of-process sandbox: the measurements run in forked workers, so these
// tests exercise real process deaths — SIGKILL mid-measurement, wedged
// busy-loops escalated by the watchdog, torn and garbled replies — and pin
// the bit-identity contract against the in-process path and the frame
// codecs against every cut and bit flip.
//
// Kept out of the TSan suite (fork + TSan is undefined territory); names
// deliberately avoid the TSan job's -R filter substrings.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
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

/// The reply pipe, when called inside a worker: the only write-only
/// descriptor above stdio there.
int worker_reply_pipe() {
  for (int fd = 3; fd < 1024; ++fd) {
    const int flags = ::fcntl(fd, F_GETFL);
    if (flags >= 0 && (flags & O_ACCMODE) == O_WRONLY) return fd;
  }
  return -1;
}

/// Clock ticks of CPU time `pid` has used (/proc/<pid>/stat fields 14 and
/// 15), or -1 when it cannot be read.
long cpu_ticks(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat) || stat.rfind(')') == std::string::npos) {
    return -1;
  }
  // After the command name: state, then fields 4..13, then utime, stime.
  std::istringstream fields(stat.substr(stat.rfind(')') + 1));
  std::string state;
  fields >> state;
  long value = 0;
  for (int field = 4; field <= 13; ++field) fields >> value;
  long utime = 0;
  long stime = 0;
  if (!(fields >> utime >> stime)) return -1;
  return utime + stime;
}

/// Wraps an evaluator, and when asked to measure `target` inside a worker
/// first writes `bytes` straight onto the worker's reply pipe, then raises
/// SIGKILL if `die` is set: a worker that garbles or tears its reply.
class ReplyVandal : public Evaluator {
 public:
  ReplyVandal(Evaluator& inner, std::uint64_t target, std::string bytes,
              bool die)
      : inner_(&inner), target_(target), bytes_(std::move(bytes)), die_(die) {}

  Measurement measure(const Configuration& config, std::uint64_t fingerprint,
                      BudgetClock* budget, const EvalHints& hints) override {
    if (fingerprint == target_) {
      const int fd = worker_reply_pipe();
      if (fd >= 0 && ::write(fd, bytes_.data(), bytes_.size()) < 0) ::_exit(9);
      if (die_) ::raise(SIGKILL);
    }
    return inner_->measure(config, fingerprint, budget, hints);
  }
  using Evaluator::measure;
  EvalCounters counters() const override { return inner_->counters(); }

 private:
  Evaluator* inner_;
  std::uint64_t target_;
  std::string bytes_;
  bool die_;
};

/// Cuts `payload` at every byte and flips each of its bits. Every cut must
/// be rejected; every flip rejected, or decoded to a message that encodes
/// back to exactly the flipped bytes. Returns {accepted, rejected} flips.
template <class Message, class Decode, class Encode>
std::pair<int, int> sweep_payload(const std::string& payload, Decode decode,
                                  Encode encode) {
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    Message message;
    EXPECT_FALSE(decode(std::string_view(payload).substr(0, cut), message))
        << "cut at byte " << cut;
  }
  int accepted = 0;
  int rejected = 0;
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::string flipped = payload;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    Message message;
    if (!decode(flipped, message)) {
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_EQ(encode(message), flipped) << "bit " << bit;
  }
  return {accepted, rejected};
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

// A worker dies with its parent. A forked child process starts a sandbox,
// reports its worker's pid, and sends it a configuration that wedges it
// with the watchdog off, so nothing but the worker's end can stop it; then
// the child is SIGKILLed. This process is a child subreaper meanwhile, so
// the orphaned worker is re-parented here, where it can be waited for and,
// should it outlive the deadline, killed.
TEST_F(SandboxTest, WorkerDiesWithAParentKilledMidMeasurement) {
  const Configuration wedged = with_new_ratio(6);
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int report[2] = {-1, -1};
  ASSERT_EQ(::pipe(report), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(report[0]);
    BenchmarkRunner runner(sim_, workload_);
    SandboxOptions options;
    options.workers = 1;
    options.inject.wedge_fingerprints = {wedged.fingerprint()};
    SandboxedEvaluator sandbox(runner, space_.registry(), options);
    sandbox.link_runner(&runner);
    TraceSink trace;
    sandbox.set_trace_sink(&trace);
    if (!sandbox.measure(defaults()).valid()) ::_exit(2);
    const std::vector<TraceEvent> spawns = trace.events_of("sandbox_spawn");
    if (spawns.size() != 1) ::_exit(3);
    const pid_t worker = static_cast<pid_t>(spawns[0].get_int("pid"));
    if (::write(report[1], &worker, sizeof worker) != sizeof worker) ::_exit(4);
    sandbox.measure(wedged);  // never returns
    ::_exit(5);
  }
  ::close(report[1]);
  // Whatever happens below, nothing this test started outlives it.
  struct Cleanup {
    pid_t child;
    pid_t worker = -1;
    int report;
    ~Cleanup() {
      for (const pid_t pid : {child, worker}) {
        if (pid <= 0) continue;
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
      ::close(report);
      ::prctl(PR_SET_CHILD_SUBREAPER, 0);
    }
  } cleanup{child, -1, report[0]};

  pid_t worker = -1;
  ASSERT_EQ(::read(report[0], &worker, sizeof worker),
            static_cast<ssize_t>(sizeof worker));
  ASSERT_GT(worker, 0);
  cleanup.worker = worker;

  // Wait until the worker spins: 20 ticks of CPU time after the report.
  using Clock = std::chrono::steady_clock;
  const long start_ticks = cpu_ticks(worker);
  ASSERT_GE(start_ticks, 0);
  const auto spin_by = Clock::now() + std::chrono::seconds(20);
  while (cpu_ticks(worker) < start_ticks + 20 && Clock::now() < spin_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(cpu_ticks(worker), start_ticks + 20) << "the worker never wedged";

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);
  cleanup.child = -1;

  const auto gone_by = Clock::now() + std::chrono::seconds(5);
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(worker, &status, WNOHANG)) == 0 &&
         Clock::now() < gone_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(reaped, worker) << "the worker outlived its parent by 5 s";
  cleanup.worker = -1;
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
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
  EXPECT_EQ(sandbox.counters().faults.transient, 1);
  EXPECT_EQ(sandbox.workers_respawned(), 1);
  EXPECT_EQ(resilient.stats().retry_successes, 1);
  sandbox.shutdown();
}

// A live worker that sends a garbled frame header is killed by the parent;
// that SIGKILL is the parent's own doing, not the worker's death, so the
// request is a retryable flake.
TEST_F(SandboxTest, GarbledReplyFromALiveWorkerIsTransient) {
  BenchmarkRunner runner(sim_, workload_);
  const Configuration target = with_new_ratio(7);
  ReplyVandal vandal(runner, target.fingerprint(), std::string(16, '\xff'),
                     /*die=*/false);
  SandboxOptions options;
  options.workers = 1;
  SandboxedEvaluator sandbox(vandal, space_.registry(), options);
  sandbox.link_runner(&runner);
  BudgetClock budget(SimTime::minutes(100));

  const Measurement m = sandbox.measure(target, &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kTransient) << m.crash_reason;
  EXPECT_EQ(sandbox.counters().faults.crashes, 0);
  EXPECT_EQ(sandbox.counters().faults.transient, 1);
  EXPECT_EQ(budget.spent(), options.crash_cost);

  // The respawned worker answers the next request.
  EXPECT_TRUE(sandbox.measure(defaults(), &budget).valid());
  EXPECT_EQ(sandbox.workers_respawned(), 1);
  sandbox.shutdown();
}

// A worker killed by a signal halfway through its reply died of its own
// accord: the parent waits for it and reads the signal from its status.
TEST_F(SandboxTest, SignalDeathMidReplyIsACrash) {
  BenchmarkRunner runner(sim_, workload_);
  const Configuration target = with_new_ratio(8);
  ReplyVandal vandal(runner, target.fingerprint(), std::string(8, 'x'),
                     /*die=*/true);
  SandboxOptions options;
  options.workers = 1;
  SandboxedEvaluator sandbox(vandal, space_.registry(), options);
  sandbox.link_runner(&runner);
  BudgetClock budget(SimTime::minutes(100));

  const Measurement m = sandbox.measure(target, &budget);
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.fault, FaultClass::kCrash) << m.crash_reason;
  EXPECT_NE(m.crash_reason.find("killed by signal 9"), std::string::npos)
      << m.crash_reason;
  EXPECT_EQ(sandbox.counters().faults.crashes, 1);
  EXPECT_TRUE(sandbox.measure(defaults(), &budget).valid());
  sandbox.shutdown();
}

// Frames are small, so enumerate rather than sample: every cut and every
// single-bit flip of a real request and a real 6-repetition reply. A flip
// with the frame checksum recomputed reaches exactly this decoder.
TEST_F(SandboxTest, EveryCutOrBitFlipOfAFrameIsRejectedOrRoundTrips) {
  RunnerOptions runner_options;
  runner_options.repetitions = 6;
  BenchmarkRunner runner(sim_, workload_, runner_options);
  const Configuration config = with_new_ratio(3);
  BudgetClock budget(SimTime::minutes(100));

  sandbox_wire::Request request;
  request.seq = 17;
  request.fingerprint = config.fingerprint();
  request.spent_us = budget.spent().as_micros();
  request.total_us = budget.total().as_micros();
  request.time_limit_us = SimTime::seconds(90).as_micros();
  request.racing_floor_ms = 123.25;
  request.hints.incumbent = {4, 101.5, 2.75};
  request.command_line = config.render_command_line();

  sandbox_wire::Reply reply;
  reply.seq = request.seq;
  reply.measurement = runner.measure(config, &budget);
  reply.measurement.crash_reason = R"(salvaged "-XX:NewRatio=3" after a crash)";
  reply.measurement.failed_reps = 1;
  reply.cost_us = budget.spent().as_micros();
  reply.racing_floor_ms = 99.5;
  reply.delta = runner.counters();
  ASSERT_EQ(reply.measurement.times_ms.size(), 6u);
  ASSERT_EQ(reply.measurement.rep_metrics.size(), 6u);

  const std::string request_payload = sandbox_wire::encode_request(request);
  const std::string reply_payload = sandbox_wire::encode_reply(reply);
  sandbox_wire::Request request_back;
  ASSERT_TRUE(sandbox_wire::decode_request(request_payload, request_back));
  EXPECT_EQ(request_back.command_line, request.command_line);
  EXPECT_EQ(request_back.hints.incumbent.m2, request.hints.incumbent.m2);
  sandbox_wire::Reply reply_back;
  ASSERT_TRUE(sandbox_wire::decode_reply(reply_payload, reply_back));
  EXPECT_EQ(reply_back.measurement.times_ms, reply.measurement.times_ms);
  EXPECT_EQ(reply_back.measurement.rep_metrics, reply.measurement.rep_metrics);
  EXPECT_EQ(reply_back.measurement.crash_reason,
            reply.measurement.crash_reason);
  EXPECT_EQ(reply_back.delta.runs, 6);
  EXPECT_EQ(sandbox_wire::encode_reply(reply_back), reply_payload);

  const auto [request_accepted, request_rejected] =
      sweep_payload<sandbox_wire::Request>(request_payload,
                                           sandbox_wire::decode_request,
                                           sandbox_wire::encode_request);
  const auto [reply_accepted, reply_rejected] =
      sweep_payload<sandbox_wire::Reply>(reply_payload,
                                         sandbox_wire::decode_reply,
                                         sandbox_wire::encode_reply);
  // Both outcomes occur: raw doubles take any bits, while bools, enums and
  // counts reject most of theirs.
  EXPECT_GT(request_accepted, 0);
  EXPECT_GT(request_rejected, 0);
  EXPECT_GT(reply_accepted, 0);
  EXPECT_GT(reply_rejected, 0);
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
  // The third never reached a worker.
  EXPECT_EQ(sandbox.counters().faults.crashes, 2);
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
