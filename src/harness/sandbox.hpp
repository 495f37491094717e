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
//   refuses it unless it reproduces the request's fingerprint, runs the
//   wrapped Evaluator against a shadow budget primed to the parent's
//   position, and replies with the serialized Measurement plus its exact
//   metered cost. A worker dies with the thread that forked it (and so with
//   its parent process). Requests route to worker `fingerprint % pool_size`,
//   so repeat fingerprints land on the worker whose (copy-on-write) result
//   cache already holds them — cache-hit accounting is bit-identical to the
//   in-process path without duplicating any cache logic in the parent.
//
// Failure handling
//   Every failed request ends its worker the same way: the parent reaps
//   it, SIGKILLing it first where the cause calls for that, and classifies
//   the death from the cause it observed. A reply pipe that closes, before
//   or during a frame, means the worker is exiting; its exit status decides
//   (kCrash for signals and bad exits, kTimeout for SIGXCPU, kTransient for
//   a clean exit without a whole reply). An expired wall-clock deadline
//   escalates SIGTERM → SIGKILL and is kTimeout. A whole frame whose magic,
//   length, checksum, payload, seq or fingerprint is wrong gets a live
//   worker killed and is kTransient (a retryable infrastructure flake); a
//   worker that already exited is classified by its own status. In every
//   case the worker is respawned lazily and the classified Measurement
//   flows into ResilientEvaluator's retry/quarantine machinery unchanged.
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
#include <string>
#include <string_view>
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
/// request per worker; callers routed to the same worker serialize).
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

  Measurement measure(const Configuration& config, std::uint64_t fingerprint,
                      BudgetClock* budget, const EvalHints& hints) override;
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
  std::int64_t workers_respawned() const;

  /// Stops all workers: closes request pipes (workers exit on EOF), waits
  /// briefly, SIGKILLs stragglers, reaps everything. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  struct Worker;

  void ensure_started();
  void spawn(Worker& worker);
  [[noreturn]] void worker_main(pid_t parent, int request_fd, int reply_fd,
                                std::uint64_t generation);
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
  std::int64_t workers_respawned_ = 0;
};

/// The two payload codecs, declared for tests that sweep every cut and bit
/// flip of a frame. Each message's fields are listed once, in wire order
/// (sandbox.cpp), and encode and decode both walk that list.
namespace sandbox_wire {

/// Parent to worker: measure one configuration from this budget position.
struct Request {
  std::uint64_t seq = 0;           ///< per-worker request number
  std::uint64_t fingerprint = 0;   ///< of the configuration
  std::int64_t spent_us = 0;       ///< the parent's budget position
  std::int64_t total_us = 0;       ///< the parent's budget size
  std::int64_t time_limit_us = 0;  ///< the runner's time limit
  double racing_floor_ms = 0.0;
  EvalHints hints;
  std::string command_line;  ///< the configuration, re-parsed by the worker
};

/// Worker to parent: the measurement and what it cost.
struct Reply {
  std::uint64_t seq = 0;      ///< the request's
  std::int64_t cost_us = 0;   ///< exact metered budget cost
  double racing_floor_ms = 0.0;
  EvalCounters delta;  ///< change of the wrapped evaluator's counters
  /// Crosses whole except `summary`, which the parent recomputes from
  /// times_ms, as journal replay does.
  Measurement measurement;
};

std::string encode_request(const Request& request);
/// False unless `payload` is exactly the encoding of some request.
bool decode_request(std::string_view payload, Request& request);
std::string encode_reply(const Reply& reply);
/// False unless `payload` is exactly the encoding of some reply.
bool decode_reply(std::string_view payload, Reply& reply);

}  // namespace sandbox_wire

}  // namespace jat
