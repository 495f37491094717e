// Out-of-process evaluation sandbox: true crash/hang isolation.
//
// The paper's harness launches a real JVM child process per candidate, so
// a flag combination that segfaults or wedges the JVM never takes the
// tuner down with it. Everything below this layer has so far executed
// in-process: faults are *modelled* (harness/fault.hpp) and *survived*
// (harness/resilient.hpp), but a genuinely hanging or memory-exploding
// evaluation could only be abandoned logically, never killed. This layer
// closes that gap the way production tuners (BestConfig, OneStopTuner) do:
// the system-under-test lives in its own process.
//
// Architecture
//   SandboxedEvaluator keeps a persistent pool of forked worker processes.
//   Each request travels over a pipe as a length-prefixed, FNV-1a-checksummed
//   binary frame carrying the configuration's command line, fingerprint, and
//   the parent's budget position; the worker re-parses the configuration,
//   runs the wrapped Evaluator against a shadow budget primed to the
//   parent's position, and replies with the serialized Measurement plus its
//   exact metered cost. Requests route to worker `fingerprint % pool_size`,
//   so repeat fingerprints land on the worker whose (copy-on-write) result
//   cache already holds them — cache-hit accounting is bit-identical to the
//   in-process path without duplicating any cache logic in the parent.
//
// Failure handling
//   A worker that dies mid-request (EOF on its reply pipe) is reaped and
//   its exit status classified onto the FaultClass taxonomy (kCrash for
//   signals and bad exits, kTimeout for SIGXCPU); a worker that exceeds the
//   wall-clock deadline is escalated SIGTERM → SIGKILL and classified
//   kTimeout; a torn or checksum-failing reply is kTransient (retryable
//   infrastructure flake) and the babbling worker is killed. In every case
//   the worker is respawned lazily and the classified Measurement flows
//   into ResilientEvaluator's retry/quarantine machinery unchanged.
//
// Determinism
//   On a fault-free run the sandboxed session is bit-identical to the
//   in-process one at fixed seed and window: times are shipped as raw
//   doubles, costs as exact int64 micros, the racing floor is carried
//   request→reply and CAS-merged, and the shadow budget reproduces the
//   runner's mid-measurement expiry cuts.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "harness/evaluator.hpp"
#include "harness/fault.hpp"
#include "harness/runner.hpp"
#include "support/sim_time.hpp"
#include "support/trace.hpp"

namespace jat {

class FlagRegistry;

/// Deterministic sandbox-level fault injection: real process kills, real
/// wedges, real torn replies — exercised by tests and the CI smoke job.
/// Draws are keyed on (seed, fingerprint), so an injected campaign replays
/// identically. The explicit fingerprint lists let tests target one config.
struct SandboxFaultInjection {
  std::uint64_t seed = 0x5a7db0c5;
  /// Per-fingerprint chance the worker raises SIGKILL mid-measurement
  /// (config-caused hard crash; redraws never help).
  double kill_rate = 0.0;
  /// Per-fingerprint chance the worker ignores SIGTERM and spins forever,
  /// forcing the watchdog's SIGTERM→SIGKILL escalation.
  double wedge_rate = 0.0;
  /// Per-(fingerprint, worker-generation) chance of a torn reply: the
  /// worker writes a truncated frame and exits. Generation-keyed, so the
  /// respawned worker answers cleanly — a retryable infrastructure flake.
  double torn_rate = 0.0;
  /// Always-fire lists (test hooks). kill/wedge fire on every generation;
  /// torn fires only on generation 0 (the respawn recovers).
  std::vector<std::uint64_t> kill_fingerprints;
  std::vector<std::uint64_t> wedge_fingerprints;
  std::vector<std::uint64_t> torn_fingerprints;

  bool any() const {
    return kill_rate > 0.0 || wedge_rate > 0.0 || torn_rate > 0.0 ||
           !kill_fingerprints.empty() || !wedge_fingerprints.empty() ||
           !torn_fingerprints.empty();
  }
};

struct SandboxOptions {
  /// Worker processes in the pool. Requests route by fingerprint, so more
  /// workers = more isolation domains and more parallel capacity.
  std::size_t workers = 2;
  /// Wall-clock deadline per measurement in seconds; 0 disables the
  /// watchdog (a worker may then block its pipe indefinitely).
  double eval_deadline_s = 0.0;
  /// Grace between SIGTERM and SIGKILL when the deadline expires.
  int kill_grace_ms = 500;
  /// Per-worker RLIMIT_CPU in seconds (0 = inherit). The kernel delivers
  /// SIGXCPU at the soft limit — classified kTimeout, like a hang.
  long rlimit_cpu_s = 0;
  /// Per-worker RLIMIT_AS in MiB (0 = inherit). A memory-exploding
  /// evaluation dies in its own address space, not the tuner's.
  long rlimit_as_mb = 0;
  /// Simulated budget cost charged for a worker crash (spawn + failure
  /// detection; mirrors FaultOptions::failure_cost).
  SimTime crash_cost = SimTime::seconds(3);
  /// Simulated budget cost charged for a deadline kill (the harness paid
  /// for the full hang; mirrors FaultOptions::hang_timeout).
  SimTime hang_cost = SimTime::seconds(60);
  SandboxFaultInjection inject;
};

/// Evaluator decorator that executes the wrapped evaluator's measure()
/// calls in forked worker processes. Thread-safe: concurrent measurements
/// of different fingerprint residues proceed in parallel (one in-flight
/// request per worker; callers to the same worker serialize, which is
/// exactly the single-flight discipline the in-process cache enforces).
class SandboxedEvaluator : public Evaluator {
 public:
  /// `inner` is the evaluator the *worker* runs (it is never called in the
  /// parent). `registry` parses the configuration command line on the
  /// worker side. Workers are forked lazily on the first measure(), so
  /// state installed before that (seeded caches, time limits) is inherited
  /// copy-on-write.
  SandboxedEvaluator(Evaluator& inner, const FlagRegistry& registry,
                     SandboxOptions options = {});
  ~SandboxedEvaluator() override;

  Measurement measure(const Configuration& config, BudgetClock* budget,
                      const EvalHints& hints) override;
  using Evaluator::measure;

  /// Links the BenchmarkRunner at the bottom of the wrapped chain (when
  /// there is one) so the sandbox can forward parent-side state the session
  /// mutates after the fork: the post-baseline time limit and the racing
  /// floor travel with each request.
  void link_runner(BenchmarkRunner* runner) { runner_ = runner; }

  /// Attaches a trace sink (null to detach): sandbox_spawn / worker_exit /
  /// worker_respawn / sandbox_kill events, plus cache_hit events mirrored
  /// from worker replies so trace reports stay complete.
  void set_trace_sink(TraceSink* trace) { trace_ = trace; }

  /// The wrapped evaluator's parent-side counters, plus the deltas each
  /// worker reply carries of the wrapped evaluator's counters in that
  /// worker (runs, cache and store traffic, rep-level faults), plus the
  /// sandbox's own crash / timeout / torn-reply classifications. Workers
  /// reopen the store's file descriptor after fork, so their appends lock
  /// and land independently of the parent's. Snapshot; thread-safe.
  EvalCounters counters() const override;
  std::int64_t workers_spawned() const;
  std::int64_t workers_respawned() const;
  std::int64_t deadline_kills() const;
  std::int64_t worker_crashes() const;
  std::int64_t torn_replies() const;

  /// Stops all workers: closes request pipes (workers exit on EOF), waits
  /// briefly, SIGKILLs stragglers, reaps everything. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  struct Worker;

  void ensure_started();
  void spawn(Worker& worker);
  void retire(Worker& worker, int kill_sig);
  [[noreturn]] void worker_main(int request_fd, int reply_fd,
                                std::uint64_t generation);
  Measurement classify_death(Worker& worker, std::uint64_t fingerprint,
                             BudgetClock* budget, bool deadline_expired);
  void emit_event(const char* name, const Worker& worker, BudgetClock* budget,
                  const char* key = nullptr, const std::string& value = {});

  Evaluator* inner_;
  const FlagRegistry* registry_;
  SandboxOptions options_;
  BenchmarkRunner* runner_ = nullptr;
  TraceSink* trace_ = nullptr;

  std::mutex start_mutex_;
  bool started_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex stats_mutex_;
  /// Worker reply deltas plus the sandbox's own fault classifications.
  EvalCounters counters_;
  std::int64_t workers_spawned_ = 0;
  std::int64_t workers_respawned_ = 0;
  std::int64_t deadline_kills_ = 0;
  std::int64_t worker_crashes_ = 0;
  std::int64_t torn_replies_ = 0;
};

}  // namespace jat
