// Fault injection for the evaluation path.
//
// The paper's tuner survives a hostile real-world harness: JVMs crash on
// invalid flag combinations, hang under pathological configs, and the
// benchmarking infrastructure itself flakes. FaultInjectingEvaluator is a
// seeded, deterministic decorator that reproduces that hostility on top of
// any Evaluator, so resilience machinery (harness/resilient.hpp) and tuners
// can be tested and benchmarked against it. FaultStats is the shared
// failure taxonomy every layer of the evaluation path reports through.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "harness/evaluator.hpp"
#include "support/sim_time.hpp"

namespace jat {

/// Counters over the failure taxonomy plus the recovery actions taken.
/// Each layer of the evaluation path counts only the events it caused or
/// handled itself, so per-layer stats add up without double counting.
struct FaultStats {
  std::int64_t transient = 0;       ///< transient (flake) failures
  std::int64_t deterministic = 0;   ///< config-caused crashes
  std::int64_t timeouts = 0;        ///< hangs cut off at the time limit
  std::int64_t crashes = 0;         ///< evaluating processes that died
  std::int64_t retries = 0;         ///< retry attempts issued
  std::int64_t retry_successes = 0; ///< measurements recovered by a retry
  std::int64_t quarantined = 0;     ///< configs blacklisted so far
  std::int64_t quarantine_hits = 0; ///< measurements answered from quarantine
  std::int64_t breaker_trips = 0;   ///< circuit-breaker openings
  std::int64_t salvaged = 0;        ///< crashed reps absorbed into valid results
  std::int64_t overcharges = 0;     ///< injected budget overcharges
  std::int64_t latency_spikes = 0;  ///< injected slow-but-valid results

  std::int64_t failures() const {
    return transient + deterministic + timeouts + crashes;
  }
  FaultStats& operator+=(const FaultStats& other);
  FaultStats& operator-=(const FaultStats& other);
  /// Compact "transient=3 retried=2 ..." rendering of the non-zero counters.
  std::string to_string() const;
};

/// Calls `visit(name, counter...)` for every FaultStats counter in
/// declaration order, passing that counter of each of `stats`: the one list
/// arithmetic and rendering walk.
template <class Visit, class... Stats>
void for_each_fault_counter(Visit&& visit, Stats&... stats) {
  visit("transient", stats.transient...);
  visit("deterministic", stats.deterministic...);
  visit("timeouts", stats.timeouts...);
  visit("crashes", stats.crashes...);
  visit("retries", stats.retries...);
  visit("retry_successes", stats.retry_successes...);
  visit("quarantined", stats.quarantined...);
  visit("quarantine_hits", stats.quarantine_hits...);
  visit("breaker_trips", stats.breaker_trips...);
  visit("salvaged", stats.salvaged...);
  visit("overcharges", stats.overcharges...);
  visit("latency_spikes", stats.latency_spikes...);
}

/// What an evaluator stack has done so far (Evaluator::counters()). Each
/// layer reports its own events plus those of the layer it wraps, so
/// reading the top of a stack reads the whole stack.
struct EvalCounters {
  std::int64_t runs = 0;           ///< simulated JVM launches, one a repetition
  std::int64_t simulations = 0;    ///< trajectories simulated for those runs
  std::int64_t cache_hits = 0;     ///< answers from a runner's result cache
  std::int64_t store_hits = 0;     ///< misses answered by the result store
  std::int64_t store_appends = 0;  ///< measurements published to the store
  FaultStats faults;

  EvalCounters& operator+=(const EvalCounters& other);
  EvalCounters& operator-=(const EvalCounters& other);
};

/// Calls `visit(name, counter...)` for every EvalCounters counter, the
/// FaultStats ones last, passing that counter of each of `counters`: the one
/// list arithmetic and the sandbox reply frame walk.
template <class Visit, class... Counters>
void for_each_eval_counter(Visit&& visit, Counters&... counters) {
  visit("runs", counters.runs...);
  visit("simulations", counters.simulations...);
  visit("cache_hits", counters.cache_hits...);
  visit("store_hits", counters.store_hits...);
  visit("store_appends", counters.store_appends...);
  for_each_fault_counter(visit, counters.faults...);
}

/// Increments the stats counter matching a measurement's fault class.
void count_fault(FaultStats& stats, FaultClass fault);

/// Which faults to inject, and how hard. All rates are probabilities in
/// [0, 1]; everything is derived deterministically from `seed` and the
/// configuration fingerprint, so an injected campaign replays bit-identically.
struct FaultOptions {
  std::uint64_t seed = 0xfa171;

  /// Per-attempt chance of a transient crash (infrastructure flake). Keyed
  /// on (seed, fingerprint, attempt), so retrying the same configuration
  /// redraws — the derived-seed retry a real harness gets for free.
  double transient_rate = 0.0;
  /// Simulated cost of a crashed attempt (spawn + failure detection).
  SimTime failure_cost = SimTime::seconds(3);

  /// Per-fingerprint chance of a deterministic crash: the config itself is
  /// broken and fails on every attempt (like an invalid flag combination
  /// the validator missed).
  double deterministic_rate = 0.0;

  /// Per-fingerprint chance of a hang: every attempt burns `hang_timeout`
  /// of budget and comes back as a timeout (like -Xint under a harness
  /// watchdog).
  double hang_rate = 0.0;
  SimTime hang_timeout = SimTime::seconds(60);

  /// Per-attempt chance that a valid result comes back `latency_spike_factor`
  /// slower (shared machine interference); still a valid measurement.
  double latency_spike_rate = 0.0;
  double latency_spike_factor = 3.0;

  /// Per-attempt chance of an extra `overcharge` drained from the budget
  /// (harness bookkeeping gone wrong) on an otherwise clean measurement.
  double overcharge_rate = 0.0;
  SimTime overcharge = SimTime::seconds(5);

  bool any() const {
    return transient_rate > 0.0 || deterministic_rate > 0.0 ||
           hang_rate > 0.0 || latency_spike_rate > 0.0 || overcharge_rate > 0.0;
  }
};

/// Decorator that injects faults in front of any Evaluator. Deterministic:
/// the fault drawn for a measurement depends only on (seed, fingerprint,
/// attempt index), never on wall clock or call interleaving. Thread-safe.
class FaultInjectingEvaluator : public Evaluator {
 public:
  FaultInjectingEvaluator(Evaluator& inner, FaultOptions options = {});

  Measurement measure(const Configuration& config, std::uint64_t fingerprint,
                      BudgetClock* budget, const EvalHints& hints) override;
  using Evaluator::measure;

  /// Marks a fingerprint as always-crashing, in addition to the ones the
  /// `deterministic_rate` draw selects.
  void add_deterministic_crash(std::uint64_t fingerprint);

  const FaultOptions& options() const { return options_; }
  /// Counters for the faults injected so far (snapshot; thread-safe).
  FaultStats stats() const;
  EvalCounters counters() const override;

 private:
  Measurement injected_crash(std::uint64_t fingerprint, FaultClass fault,
                             std::string reason, SimTime cost,
                             BudgetClock* budget);

  Evaluator* inner_;
  FaultOptions options_;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> attempts_;
  std::unordered_set<std::uint64_t> crash_set_;
  FaultStats stats_;
};

}  // namespace jat
