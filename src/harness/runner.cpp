#include "harness/runner.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "flags/validate.hpp"
#include "harness/journal.hpp"
#include "support/rng.hpp"

namespace jat {

namespace {
/// Nominal cost of a result-database lookup; charged on cache hits so a
/// tuner that keeps proposing known configurations still drains its budget.
constexpr double kCacheHitOverheadSeconds = 0.05;
}  // namespace

const std::string& ConfigDecode::fatal() {
  if (!fatal_) fatal_ = first_fatal(*config_);
  return *fatal_;
}

const JvmParams& ConfigDecode::params() {
  if (!params_) params_ = decode_params(*config_);
  return *params_;
}

BenchmarkRunner::BenchmarkRunner(const JvmSimulator& simulator,
                                 WorkloadSpec workload, RunnerOptions options)
    : simulator_(&simulator), workload_(std::move(workload)), options_(options) {
  if (options_.store != nullptr) {
    workload_fp_ = workload_fingerprint(workload_);
  }
}

void BenchmarkRunner::merge_racing_floor_ms(double first_ms) {
  if (first_ms <= 0.0) return;
  double current = best_first_rep_ms_.load(std::memory_order_relaxed);
  while ((current == 0.0 || first_ms < current) &&
         !best_first_rep_ms_.compare_exchange_weak(current, first_ms,
                                                   std::memory_order_relaxed)) {
  }
}

EvalCounters BenchmarkRunner::counters() const {
  std::lock_guard lock(mutex_);
  return EvalCounters{.runs = runs_executed_,
                      .simulations = simulations_,
                      .cache_hits = cache_hits_,
                      .store_hits = store_hits_,
                      .store_appends = store_appends_,
                      .faults = stats_};
}

void BenchmarkRunner::seed_cache(const Measurement& measurement) {
  std::lock_guard lock(mutex_);
  cache_.emplace(measurement.config_fingerprint, measurement);
}

void BenchmarkRunner::reseed_cache(const Configuration& config) {
  {
    std::lock_guard lock(mutex_);
    if (cache_.count(config.fingerprint()) > 0) return;
  }
  // A store-less twin measures it: same options, seeds and time limit, but
  // its budget, counters and store traffic are its own and are dropped.
  RunnerOptions options = options_;
  options.store = nullptr;
  BenchmarkRunner twin(*simulator_, workload_, options);
  twin.time_limit_ = time_limit_;
  seed_cache(twin.measure(config));
}

const Measurement* BenchmarkRunner::store_lookup(const Configuration& config,
                                                 std::uint64_t fingerprint) {
  if (options_.store == nullptr || !options_.store_reads) return nullptr;
  if (!space_fp_known_) {
    space_fp_ = space_fingerprint(config.registry());
    space_fp_known_ = true;
  }
  const std::string& objective_id =
      (options_.objective ? *options_.objective : run_time_objective()).id();
  const StoreRecord* record = options_.store->lookup(
      StoreKey{space_fp_, workload_fp_, fingerprint, objective_id});
  if (record == nullptr) return nullptr;
  const auto [it, inserted] =
      cache_.emplace(fingerprint, record->to_measurement());
  ++store_hits_;
  return &it->second;
}

void BenchmarkRunner::store_put(const Configuration& config,
                                const Measurement& measurement) {
  if (options_.store == nullptr) return;
  // Only trustworthy records transfer: valid and complete. Raced-out,
  // budget-cut, and cancelled measurements are truncated summaries;
  // crashes are workload-specific and cheap to re-discover.
  if (!measurement.valid()) return;
  if (measurement.stop != StopReason::kFull &&
      measurement.stop != StopReason::kConverged) {
    return;
  }
  const Objective& objective =
      options_.objective ? *options_.objective : run_time_objective();
  StoreRecord record;
  record.key.workload_fingerprint = workload_fp_;
  record.key.config_fingerprint = measurement.config_fingerprint;
  record.key.objective = objective.id();
  record.workload = workload_.name;
  record.command_line = config.render_command_line();
  record.objective_value = measurement.objective(objective);
  record.times_ms = measurement.times_ms;
  record.rep_metrics = measurement.rep_metrics;
  record.stop = measurement.stop;
  record.failed_reps = measurement.failed_reps;
  record.seed = options_.seed;
  {
    std::lock_guard lock(mutex_);
    if (!space_fp_known_) {
      space_fp_ = space_fingerprint(config.registry());
      space_fp_known_ = true;
    }
    record.key.space_fingerprint = space_fp_;
    ++store_appends_;
  }
  options_.store->put(std::move(record));
}

Measurement BenchmarkRunner::measure(const Configuration& config,
                                     std::uint64_t fingerprint,
                                     BudgetClock* budget,
                                     const EvalHints& hints) {
  ConfigDecode decode(config);
  return measure_with(config, fingerprint, budget, hints, decode);
}

Measurement BenchmarkRunner::measure_with(const Configuration& config,
                                          std::uint64_t fingerprint,
                                          BudgetClock* budget,
                                          const EvalHints& hints,
                                          ConfigDecode& decode) {
  Measurement base;
  bool continuing = false;
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(fingerprint);
    if (it != cache_.end()) {
      // Top-up: a cached raced-out measurement asked for again as an
      // incumbent candidate is continued, not trusted at its truncated
      // repetition count. Pull it out of the cache and measure on from
      // where it stopped.
      if (hints.top_up && options_.policy.adaptive && it->second.valid() &&
          it->second.stop == StopReason::kRacedOut) {
        base = std::move(it->second);
        continuing = true;
        cache_.erase(it);
      } else {
        ++cache_hits_;
        if (budget != nullptr) {
          budget->charge(SimTime::seconds(kCacheHitOverheadSeconds));
        }
        if (trace_ != nullptr) {
          // `joined` is always false; the field stays so traces keep their
          // shape.
          trace_->emit(TraceEvent("cache_hit", budget != nullptr
                                                   ? budget->spent()
                                                   : SimTime::zero())
                           .with("fingerprint", fingerprint_hex(fingerprint))
                           .with("joined", false));
        }
        return it->second;
      }
    } else if (const Measurement* stored = store_lookup(config, fingerprint)) {
      // Read-through: a miss answered by the cross-session store charges
      // zero budget — the record was paid for by the session that measured
      // it — and lands in the cache like any measurement.
      if (trace_ != nullptr) {
        trace_->emit(TraceEvent("store_hit", budget != nullptr
                                                 ? budget->spent()
                                                 : SimTime::zero())
                         .with("fingerprint", fingerprint_hex(fingerprint)));
      }
      return *stored;
    }
  }

  // A measurement that throws leaves no cache entry: a later call
  // re-measures.
  Measurement measurement = measure_uncached(
      fingerprint, budget, hints, continuing ? &base : nullptr, decode);
  {
    std::lock_guard lock(mutex_);
    cache_.emplace(fingerprint, measurement);
  }
  store_put(config, measurement);
  return measurement;
}

Measurement BenchmarkRunner::measure_uncached(std::uint64_t fingerprint,
                                              BudgetClock* budget,
                                              const EvalHints& hints,
                                              const Measurement* base,
                                              ConfigDecode& decode) {
  Measurement m;
  m.config_fingerprint = fingerprint;
  const Objective& objective =
      options_.objective ? *options_.objective : run_time_objective();

  const bool adaptive = options_.policy.adaptive;
  const int planned =
      adaptive ? std::max(1, options_.policy.max_reps) : options_.repetitions;

  int failed_reps = 0;
  FaultClass worst_fault = FaultClass::kNone;
  std::string last_crash_reason;
  int start_rep = 0;
  RunningStat sample;
  if (base != nullptr) {
    // Continuation (top-up): resume the repetition index where the partial
    // measurement stopped. Seeds derive from the absolute index, so the
    // merged result is bit-identical to a from-scratch full measurement.
    m.times_ms = base->times_ms;
    m.rep_metrics = base->rep_metrics;
    m.attempts = base->attempts;
    failed_reps = base->failed_reps;
    worst_fault = base->fault;
    start_rep = static_cast<int>(base->times_ms.size()) + base->failed_reps;
    for (double t : objective.rep_values(*base)) sample.add(t);
  }
  m.times_ms.reserve(static_cast<std::size_t>(planned));

  const MeasurementPolicy policy(options_.policy, hints.incumbent);
  StopReason stop = StopReason::kFull;

  // The start check, the decode and the simulated trajectory depend on the
  // configuration alone; only the noise depends on the seed. So the loop
  // simulates once, at its first repetition, and each repetition is a copy
  // of that trajectory with its own seed's noise, which equals
  // JvmSimulator::run(config, workload_, seed) bit for bit.
  const std::string& fatal = decode.fatal();
  std::optional<Trajectory> trajectory;

  for (int rep = start_rep; rep < planned; ++rep) {
    // Cooperative cancellation stops after the current repetition, never
    // before the first: a drained measurement is a valid measurement.
    if ((rep > start_rep || base != nullptr) && is_cancelled(cancel_)) {
      stop = StopReason::kCancelled;
      break;
    }
    const std::uint64_t seed =
        mix64(options_.seed, mix64(fingerprint, static_cast<std::uint64_t>(rep)));
    const bool simulating = fatal.empty() && !trajectory;
    if (simulating) {
      trajectory = simulator_->simulate(decode.params(), workload_);
    }
    RunResult run = trajectory ? noised(*trajectory, workload_, seed)
                               : refused_start(fatal);
    {
      std::lock_guard lock(mutex_);
      ++runs_executed_;
      if (simulating) ++simulations_;
    }
    if (!run.crashed && run.total_time > time_limit_) {
      run.crashed = true;
      run.crash_reason = "harness timeout";
      run.total_time = time_limit_;
    }
    if (budget != nullptr) {
      budget->charge(run.total_time +
                     SimTime::seconds(options_.per_run_overhead_s));
    }
    if (run.crashed) {
      ++failed_reps;
      last_crash_reason = run.crash_reason;
      // The simulator is deterministic, so its crashes are config-caused;
      // only the harness time limit marks a run as a hang.
      const FaultClass fault = run.crash_reason == "harness timeout"
                                   ? FaultClass::kTimeout
                                   : FaultClass::kDeterministic;
      if (fault == FaultClass::kTimeout || worst_fault == FaultClass::kNone) {
        worst_fault = fault;
      }
      {
        std::lock_guard lock(mutex_);
        count_fault(stats_, fault);
      }
      // A failed repetition ends the measurement; the ones before it are
      // salvaged below.
      break;
    }
    m.times_ms.push_back(run.total_time.as_millis());
    MetricVector metrics;
    metrics[MetricId::kTotalTimeMs] = run.total_time.as_millis();
    metrics[MetricId::kStartupTimeMs] = run.startup_time.as_millis();
    metrics[MetricId::kThroughput] = run.throughput();
    metrics[MetricId::kGcPauseMaxMs] = run.gc_pause_max.as_millis();
    metrics[MetricId::kGcPauseTotalMs] = run.gc_pause_total.as_millis();
    metrics[MetricId::kPeakHeapMb] =
        static_cast<double>(run.peak_heap_used) / (1024.0 * 1024.0);
    m.rep_metrics.push_back(metrics);
    const double rep_scalar = objective.rep_value(metrics);
    sample.add(rep_scalar);

    // Racing: abandon clear losers after their first repetition. The
    // floor is a multiplicative threshold, so it only applies on
    // positive scales (negated objectives skip it; the Welch racing in
    // the adaptive policy covers them instead).
    if (rep == 0 && options_.racing_factor > 0.0 &&
        objective.positive_scale()) {
      const double first = rep_scalar;
      const double floor = best_first_rep_ms_.load(std::memory_order_relaxed);
      if (floor > 0.0 && first > floor * options_.racing_factor) {
        stop = StopReason::kRacedOut;
        break;
      }
      merge_racing_floor_ms(first);
    }

    // Adaptive policy: stop when the mean has converged, abandon when a
    // Welch test against the incumbent says this candidate is worse.
    const MeasurementPolicy::Decision decision = policy.after_rep(sample);
    if (decision == MeasurementPolicy::Decision::kConverged) {
      stop = StopReason::kConverged;
      break;
    }
    if (decision == MeasurementPolicy::Decision::kRacedOut) {
      stop = StopReason::kRacedOut;
      break;
    }

    // Keep the overshoot bounded by one run: once the budget expires
    // mid-measurement, what has been collected so far is the measurement.
    if (budget != nullptr && budget->exhausted()) {
      if (rep + 1 < planned) stop = StopReason::kBudgetCut;
      break;
    }
  }

  m.failed_reps = failed_reps;
  m.fault = worst_fault;
  m.stop = stop;
  if (!m.times_ms.empty()) {
    // At least one repetition succeeded: a noisy result, not a crash. The
    // failure count stays visible in failed_reps / FaultStats.
    m.summary = summarize(m.times_ms);
    const int base_failed = base != nullptr ? base->failed_reps : 0;
    if (failed_reps > base_failed) {
      std::lock_guard lock(mutex_);
      ++stats_.salvaged;
    }
  } else {
    m.crashed = true;
    m.crash_reason = std::move(last_crash_reason);
  }
  return m;
}

}  // namespace jat
