// Benchmark runner: measures configurations with repetitions, charges the
// tuning budget, and caches by configuration fingerprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "flags/configuration.hpp"
#include "harness/budget.hpp"
#include "support/cancellation.hpp"
#include "harness/evaluator.hpp"
#include "harness/fault.hpp"
#include "harness/measurement.hpp"
#include "harness/objective.hpp"
#include "harness/store.hpp"
#include "jvmsim/engine.hpp"
#include "support/trace.hpp"
#include "workloads/workload.hpp"

namespace jat {

struct RunnerOptions {
  /// Timed repetitions per candidate (the paper repeats runs to beat noise).
  int repetitions = 3;
  /// Base seed; repetition i of a configuration uses a seed derived from
  /// (base, fingerprint, i), so re-measuring is bit-identical.
  std::uint64_t seed = 2015;
  /// Fixed per-run harness overhead charged to the budget (process spawn,
  /// result parsing). Simulated seconds.
  double per_run_overhead_s = 2.0;
  /// Racing (adaptive repetitions): when > 0, a candidate whose *first*
  /// repetition is more than `racing_factor` times the best first
  /// repetition seen so far is abandoned with a single-sample measurement.
  /// Clearly-losing candidates then cost one run instead of `repetitions`,
  /// at the price of a noisier (but still honest) objective for them.
  /// 0 disables racing.
  double racing_factor = 0.0;
  /// Confidence-driven adaptive repetitions (measure_policy.hpp). When
  /// `policy.adaptive` is set, `policy.max_reps` replaces `repetitions` as
  /// the cap and the runner stops each measurement as soon as its mean has
  /// converged or a Welch test against the incumbent (EvalHints) says it
  /// is worse. Disabled by default: behaviour is then bit-identical to the
  /// fixed-repetition loop.
  MeasurementPolicyOptions policy;
  /// The tuning objective (objective.hpp). Racing, the adaptive policy's
  /// convergence/abandon decisions, and the racing floor all operate on
  /// this objective's per-repetition scalar stream. Null selects
  /// run_time_objective(), whose stream is `times_ms` itself — the
  /// historical behaviour, bit-identical.
  std::shared_ptr<const Objective> objective;
  /// Cross-session result store (store.hpp): a read-through/write-behind
  /// tier below the in-memory cache. A cache miss answered by the store
  /// charges *zero* budget (the record was paid for by a previous session)
  /// and emits a `store_hit` trace event; complete measurements (kFull /
  /// kConverged, valid) are written behind. Null disables the tier — the
  /// runner is then bit-identical to the store-less version.
  std::shared_ptr<ResultStore> store;
  /// When false, the store is write-behind only: prior results are never
  /// read back (jat_tune --no-store-reads), so this session measures
  /// everything itself while still publishing for future sessions.
  bool store_reads = true;
};

/// What measuring a configuration takes from the configuration alone: the
/// start check and the decoded simulator parameters. Each is computed on
/// first use and at most once, so the members of one suite evaluation share
/// them (SuiteRunner) and a cache hit computes neither. One evaluation on
/// one thread; `config` must outlive it.
class ConfigDecode {
 public:
  explicit ConfigDecode(const Configuration& config) : config_(&config) {}

  /// first_fatal(config): empty when the VM starts.
  const std::string& fatal();
  /// decode_params(config); only for a configuration whose fatal() is empty.
  const JvmParams& params();

 private:
  const Configuration* config_;
  std::optional<std::string> fatal_;
  std::optional<JvmParams> params_;
};

class BenchmarkRunner : public Evaluator {
 public:
  BenchmarkRunner(const JvmSimulator& simulator, WorkloadSpec workload,
                  RunnerOptions options = {});

  const WorkloadSpec& workload() const { return workload_; }
  const RunnerOptions& runner_options() const { return options_; }

  /// Measures a configuration. Charges `budget` (when given) for every run
  /// actually executed; cache hits are nearly free, as a real tuner's
  /// result database would make them. Thread-safe. Concurrent calls for
  /// one fingerprint would each measure it; the EvalScheduler never makes
  /// them (it measures a configuration already in its window at delivery).
  ///
  /// `hints` carries the incumbent statistics for the adaptive policy's
  /// racing decision, and the top-up request: a cached raced-out
  /// measurement asked for with `hints.top_up` is continued — further
  /// repetitions, with seed continuity, merged into the cached ones —
  /// instead of answered from the cache.
  Measurement measure(const Configuration& config, std::uint64_t fingerprint,
                      BudgetClock* budget, const EvalHints& hints) override;
  using Evaluator::measure;

  /// measure(), taking the start check and the decode from `decode` (of
  /// `config`), which runners measuring one configuration on different
  /// workloads share; a cache miss fills what it needs.
  Measurement measure_with(const Configuration& config,
                           std::uint64_t fingerprint, BudgetClock* budget,
                           const EvalHints& hints, ConfigDecode& decode);

  /// Abandons runs whose simulated time exceeds `limit` — they come back
  /// crashed ("harness timeout") and are charged only the limit. Sessions
  /// set this to a multiple of the default configuration's run time, the
  /// standard guard against pathological candidates (-Xint and friends).
  void set_time_limit(SimTime limit) { time_limit_ = limit; }
  SimTime time_limit() const { return time_limit_; }

  /// Cache hits so far (also in counters()).
  std::int64_t cache_hits() const { return cache_hits_; }

  /// Attaches a trace sink (null to detach): cache and store hits are
  /// emitted as `cache_hit` and `store_hit` events. The runner never emits
  /// when no sink is attached.
  void set_trace_sink(TraceSink* trace) { trace_ = trace; }

  /// Attaches a cooperative cancellation token (null to detach). A
  /// cancelled token stops a measurement after its *current* repetition —
  /// never before the first — so everything drained during shutdown is
  /// still a valid (possibly fewer-rep) measurement.
  void set_cancellation(const CancellationToken* token) { cancel_ = token; }

  /// The racing floor: best (lowest) first-repetition time seen so far in
  /// ms, 0 until one exists. Exposed for the sandbox, which must carry the
  /// floor across the process boundary: the parent sends its global floor
  /// with each request and folds the worker's updated floor back in.
  double racing_floor_ms() const {
    return best_first_rep_ms_.load(std::memory_order_relaxed);
  }
  /// Lowers the floor to `first_ms` when it is positive and better than the
  /// current one (lock-free CAS min; used when merging worker replies).
  void merge_racing_floor_ms(double first_ms);
  /// Overwrites the floor (sandbox worker side: the parent's merged floor
  /// supersedes whatever this process last saw).
  void set_racing_floor_ms(double first_ms) {
    best_first_rep_ms_.store(first_ms, std::memory_order_relaxed);
  }

  /// Seeds the result cache with a previously committed measurement (session
  /// resume): a replayed configuration that is proposed again after resume
  /// costs a cache hit, exactly as it would have in the uninterrupted run.
  void seed_cache(const Measurement& measurement);
  /// Rebuilds the cache entry for `config` by measuring it afresh, charging
  /// no budget, moving no counter, and neither reading nor writing the
  /// store. Repetition seeds depend only on the configuration, so this
  /// restores what an earlier full measurement cached (suite resume, where
  /// member measurements are not journaled).
  void reseed_cache(const Configuration& config);

  /// Simulated JVM runs (cache misses only), the trajectories simulated
  /// for them (at most one per measurement), cache hits, cache misses
  /// answered by the cross-session store (zero budget), complete
  /// measurements written behind to it, and rep-level failures: timeouts
  /// and crashes absorbed into measurements, and how many partially-failed
  /// measurements were salvaged into valid results.
  EvalCounters counters() const override;

 private:
  /// Runs the repetition loop for `config`. The start check runs once,
  /// before the loop; the decode and the simulation run once, at the first
  /// repetition of a startable configuration, and every repetition noises a
  /// copy of that one trajectory with its own seed. A failed repetition
  /// ends the loop: the successful ones before it are the measurement
  /// (salvaged), and with none it is a crash. `decode` supplies the start
  /// check and the decode.
  /// `base` (may be null) is a previous partial measurement to continue
  /// from: repetitions resume at its count, so the merged result is
  /// bit-identical to a from-scratch full measurement.
  Measurement measure_uncached(std::uint64_t fingerprint, BudgetClock* budget,
                               const EvalHints& hints, const Measurement* base,
                               ConfigDecode& decode);

  /// Store read-through on a cache miss (mutex_ held): when the store has
  /// this key, inserts the rebuilt measurement into cache_ and returns it.
  const Measurement* store_lookup(const Configuration& config,
                                  std::uint64_t fingerprint);
  /// Write-behind (call without mutex_): publishes a complete measurement.
  void store_put(const Configuration& config, const Measurement& measurement);

  const JvmSimulator* simulator_;
  WorkloadSpec workload_;
  RunnerOptions options_;
  SimTime time_limit_ = SimTime::infinite();
  TraceSink* trace_ = nullptr;
  const CancellationToken* cancel_ = nullptr;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Measurement> cache_;
  std::int64_t runs_executed_ = 0;
  std::int64_t simulations_ = 0;
  std::int64_t cache_hits_ = 0;
  std::int64_t store_hits_ = 0;
  std::int64_t store_appends_ = 0;
  /// Store-key components, computed once (mutex_ held for space_fp_, which
  /// needs the first configuration's registry).
  std::uint64_t workload_fp_ = 0;
  std::uint64_t space_fp_ = 0;
  bool space_fp_known_ = false;
  /// 0 until the first finite first rep. Atomic (not mutex_-guarded) so the
  /// sandbox parent can merge worker floors while a respawn fork() is in
  /// progress — a fork must never inherit a locked runner mutex.
  std::atomic<double> best_first_rep_ms_{0.0};
  FaultStats stats_;
};

}  // namespace jat
