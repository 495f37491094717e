// The evaluation interface tuners search against.
//
// A tuner only needs "measure this configuration, charge that budget";
// everything else (simulator vs real JVM, one workload vs a whole suite)
// is the evaluator's business. BenchmarkRunner measures one workload;
// SuiteRunner (tuner/suite_session.hpp) aggregates a set of workloads into
// a single objective for "general configuration" tuning.
#pragma once

#include <cstdint>

#include "flags/configuration.hpp"
#include "harness/budget.hpp"
#include "harness/measure_policy.hpp"
#include "harness/measurement.hpp"

namespace jat {

struct EvalCounters;  // harness/fault.hpp

/// Per-call context the session threads down to the measuring evaluator.
/// Decorators (fault injection, resilience, sandbox) forward it verbatim;
/// only BenchmarkRunner consumes it. Default-constructed hints mean "no
/// incumbent, normal measurement" and reproduce the historical behaviour
/// exactly.
struct EvalHints {
  /// The incumbent's running statistics at dispatch time; the adaptive
  /// policy races candidates against these. count == 0 disables racing.
  IncumbentSnapshot incumbent;
  /// Re-measure a cached raced-out measurement to convergence, merging
  /// the new repetitions into the cached ones, instead of answering from
  /// the cache.
  bool top_up = false;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Measures a configuration, charging `budget` (when given) for the
  /// simulated time actually consumed. Must be thread-safe. `fingerprint`
  /// is `config.fingerprint()`, which the caller already holds: the
  /// scheduler computes it once at dispatch, and every layer hands the one
  /// it received down unchanged instead of recomputing it.
  virtual Measurement measure(const Configuration& config,
                              std::uint64_t fingerprint, BudgetClock* budget,
                              const EvalHints& hints) = 0;

  /// Convenience entries that fingerprint the configuration themselves.
  /// Derived classes re-expose them with `using Evaluator::measure;`.
  Measurement measure(const Configuration& config, BudgetClock* budget,
                      const EvalHints& hints) {
    return measure(config, config.fingerprint(), budget, hints);
  }
  Measurement measure(const Configuration& config,
                      BudgetClock* budget = nullptr) {
    return measure(config, config.fingerprint(), budget, EvalHints{});
  }

  /// This layer's counters plus those of every layer below it. Snapshot;
  /// thread-safe.
  virtual EvalCounters counters() const = 0;
};

}  // namespace jat
