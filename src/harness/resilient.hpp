// Fault tolerance for the evaluation path: retry, quarantine, and a
// circuit breaker between the tuner and a failure-prone evaluator.
//
// A tuner that treats every failure identically wastes budget three ways:
// it abandons candidates whose only sin was an infrastructure flake, it
// re-runs configurations already known to crash the JVM, and under a fully
// broken harness it keeps paying full price for measurements that cannot
// succeed. ResilientEvaluator addresses each with the standard production
// patterns: bounded retry for transient failures (budget-charged, so the
// accounting stays honest), per-fingerprint crash quarantine (known-bad
// configs are answered instantly), and an evaluator-wide circuit breaker
// (consecutive failures across distinct configs degrade it to fail-fast).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "harness/evaluator.hpp"
#include "harness/fault.hpp"
#include "support/cancellation.hpp"
#include "support/trace.hpp"

namespace jat {

struct ResilienceOptions {
  /// Total attempts per measurement (1 = no retry). Only failures tagged
  /// FaultClass::kTransient are retried; config-caused crashes and
  /// timeouts fail on every attempt, so retrying them burns budget for
  /// nothing.
  int max_attempts = 3;
  /// Hard (deterministic / timeout / process-crash) failures of one
  /// fingerprint before it is quarantined: later measurements are answered
  /// instantly from the blacklist instead of re-running a config known to
  /// crash the JVM.
  int quarantine_threshold = 2;
  /// Consecutive failed measurements (across configurations) before the
  /// circuit breaker opens and retrying stops — when the whole harness is
  /// down, paying the retry tax per candidate only drains the budget
  /// faster. A single success closes the breaker.
  int breaker_threshold = 10;
  /// Nominal cost of a quarantine answer (a result-database lookup).
  double quarantine_answer_cost_s = 0.05;
  /// Per-measurement hang deadline in simulated seconds (0 = off). Each
  /// attempt runs under a MeteredBudget with this deadline: a candidate
  /// that tries to charge more than this — an injected hang burning its
  /// full harness timeout, say — is cut off at the deadline, billed only
  /// the deadline, and classified FaultClass::kTimeout.
  double hang_deadline_s = 0.0;
};

class ResilientEvaluator : public Evaluator {
 public:
  ResilientEvaluator(Evaluator& inner, ResilienceOptions options = {});

  Measurement measure(const Configuration& config, BudgetClock* budget,
                      const EvalHints& hints) override;
  using Evaluator::measure;

  const ResilienceOptions& resilience_options() const { return options_; }
  /// Counters for the recovery actions taken so far (snapshot; thread-safe).
  FaultStats stats() const;
  EvalCounters counters() const override;

  bool breaker_open() const;
  std::size_t quarantine_size() const;
  bool is_quarantined(std::uint64_t fingerprint) const;

  /// Attaches a trace sink (null to detach): retries, quarantine decisions
  /// and answers, and breaker transitions are emitted as typed events and
  /// counted in the sink's metrics.
  void set_trace_sink(TraceSink* trace) { trace_ = trace; }

  /// Attaches a cooperative cancellation token (null to detach): a
  /// cancelled session stops retrying — whatever the current attempt
  /// returns is the measurement.
  void set_cancellation(const CancellationToken* token) { cancel_ = token; }

  /// Replays the bookkeeping of one previously committed measurement
  /// (session resume): quarantine counts, breaker state, and recovery
  /// stats are a function of the final committed measurements, so feeding
  /// them back in commit order rebuilds this evaluator's state without
  /// re-running anything.
  void replay_outcome(const Measurement& measurement);

 private:
  struct CrashRecord {
    int hard_failures = 0;  ///< deterministic/timeout/crash failures seen
    bool quarantined = false;
    std::string reason;  ///< last hard-failure reason, kept for the answer
  };

  Evaluator* inner_;
  ResilienceOptions options_;
  TraceSink* trace_ = nullptr;
  const CancellationToken* cancel_ = nullptr;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, CrashRecord> records_;
  int consecutive_failures_ = 0;
  bool breaker_open_ = false;
  FaultStats stats_;
};

}  // namespace jat
