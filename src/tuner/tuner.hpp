// The context a tuning session hands to its search: evaluation, budget,
// randomness, the incumbent, and the commit point the EvalScheduler drives.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "flags/configuration.hpp"
#include "harness/budget.hpp"
#include "harness/journal.hpp"
#include "harness/measure_policy.hpp"
#include "harness/objective.hpp"
#include "harness/result_db.hpp"
#include "harness/evaluator.hpp"
#include "harness/runner.hpp"
#include "support/cancellation.hpp"
#include "support/statistics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "tuner/search_space.hpp"

namespace jat {

/// Everything a search needs: evaluation, budget, randomness, and the
/// incumbent. Evaluations are logged to the ResultDb automatically.
class TuningContext {
 public:
  TuningContext(Evaluator& evaluator, BudgetClock& budget, ResultDb& db,
                const SearchSpace& space, Rng rng, ThreadPool* pool = nullptr,
                TraceSink* trace = nullptr);

  const SearchSpace& space() const { return *space_; }
  Rng& rng() { return rng_; }
  BudgetClock& budget() { return *budget_; }
  ResultDb& db() { return *db_; }
  ThreadPool* pool() { return pool_; }

  /// The committed ledger: the budget charged by every committed evaluation
  /// (replayed ones at their journaled cost), advanced by commit() in
  /// commit order. Everything recorded at commit time reads it — the
  /// ResultDb budget column, the journal's position, the trace events of
  /// the tuner and the scheduler — never the live clock, which under
  /// eval_threads also holds the charges of evaluations still in flight.
  /// With nothing in flight the two agree, so serial sessions record
  /// exactly what the live clock would show.
  SimTime committed_spent() const { return committed_spent_; }

  /// True when the session traces. Tuners use trace_event() and only pay
  /// when a sink is attached.
  bool tracing() const { return trace_ != nullptr; }
  /// Emits an event when tracing is enabled; no-op (and the argument should
  /// not be built) otherwise — guard call sites with tracing().
  void trace_event(TraceEvent event) {
    if (trace_ != nullptr) trace_->emit(std::move(event));
  }

  /// Sets the label recorded with subsequent evaluations ("structural",
  /// "subtree:gc", ...) and emits a phase-transition trace event.
  void set_phase(std::string phase);

  /// Best configuration seen so far, by value (safe under concurrent
  /// evaluation). The session commits the default configuration before
  /// the strategy starts, so it is always callable from begin().
  Configuration best_config() const;
  double best_objective() const;

  // ---- split evaluation (the ask/tell scheduler's building blocks) ----

  struct MeasuredEval {
    Measurement measurement;
    SimTime cost;  ///< budget charged by this measurement, all layers
  };

  /// Measures without recording: safe to call from worker threads. The
  /// returned cost is the exact budget charge of this measurement (metered
  /// through every evaluator layer). `fingerprint` is `config.fingerprint()`,
  /// computed once by the caller and handed down the evaluator chain with
  /// `hints` (incumbent snapshot / top-up request). The scheduler captures
  /// hints at dispatch time on the control thread, so the racing decisions
  /// inside a measurement are independent of eval_threads.
  MeasuredEval measure_only(const Configuration& config,
                            std::uint64_t fingerprint,
                            const EvalHints& hints = EvalHints{});

  /// Commits a completed evaluation: advances the committed ledger by its
  /// cost, journals it (WAL order — the record is durable before the result
  /// is applied), then record()s it. `replayed` evaluations came *from* the
  /// journal and are not re-journaled. This is the scheduler's commit
  /// point. `fingerprint` is `config.fingerprint()`, computed once by the
  /// caller and reused for the top-up check, the journal, and the record.
  ///
  /// Under an adaptive measurement policy, a raced-out measurement that
  /// would displace the incumbent is first *topped up*: re-measured to
  /// convergence (the runner continues from the cached partial, merging
  /// repetitions) so the racing cut never biases the incumbent. The merged
  /// result is what gets journaled, and `eval` is updated in place (merged
  /// measurement, top-up cost folded in) so the caller's cost ledger stays
  /// exact. The ledger advances by the top-up's charge too. Replayed commits
  /// never top up — the journal already holds the merged record.
  double commit(const Configuration& config, std::uint64_t fingerprint,
                MeasuredEval& eval, bool replayed,
                const std::string& phase = std::string());

  /// Committed evaluations that charged nonzero budget (replayed ones count
  /// with their journaled cost). Zero-cost commits — cross-session store
  /// hits — are excluded: this is the session's real measurement work.
  std::int64_t charged_evaluations() const { return charged_evals_; }

  // ---- tuning objective (owned by the session) ----

  /// Installs the objective every evaluation is scored with: record(),
  /// commit(), the incumbent order, and the incumbent's racing statistics
  /// all read `Measurement::objective(objective())`. Defaults to
  /// run_time_objective(), which reproduces the historical scalar exactly.
  /// The caller keeps `obj` alive for the context's lifetime (sessions hold
  /// a shared_ptr). Set before the first evaluation, never between two.
  void set_objective(const Objective& obj) { objective_ = &obj; }
  const Objective& objective() const { return *objective_; }

  // ---- adaptive measurement policy (owned by the session) ----

  /// Installs the session's measurement policy. With `adaptive` off
  /// (default) the context never forwards incumbent hints and never tops
  /// up, so behaviour is bit-identical to the fixed-repetition harness.
  void set_measurement_policy(const MeasurementPolicyOptions& policy) {
    policy_ = policy;
  }
  const MeasurementPolicyOptions& measurement_policy() const { return policy_; }

  /// Snapshot of the incumbent's per-repetition running statistics, for
  /// racing comparisons inside adaptive measurements. Unusable (count 0)
  /// until an incumbent with at least one successful repetition exists.
  IncumbentSnapshot incumbent_snapshot() const;

  // ---- durability & cancellation wiring (owned by the session) ----

  void set_journal(SessionJournal* journal) { journal_ = journal; }

  void set_cancellation(const CancellationToken* token) { cancel_ = token; }
  bool cancelled() const { return is_cancelled(cancel_); }

  /// Arms replay: the next `records->size()` commits (in order) are answered
  /// from the journal instead of being measured. The vector must outlive the
  /// session run and never grow (SessionJournal::committed() is stable).
  void set_replay(const std::vector<JournalEval>* records) {
    replay_ = records;
    replay_cursor_ = 0;
  }
  std::size_t replay_total() const {
    return replay_ != nullptr ? replay_->size() : 0;
  }
  std::size_t replay_cursor() const { return replay_cursor_; }
  bool replaying() const { return replay_cursor_ < replay_total(); }

  /// Answers the next evaluation from the journal: charges the journaled
  /// cost to the budget clock and returns the journaled measurement. Throws
  /// JournalError if `fingerprint` (of the proposed configuration) is not
  /// the one the journal recorded at this position (replay divergence: the
  /// strategy did not re-propose the same trajectory, so the journal does
  /// not belong to this session).
  MeasuredEval replay_next(std::uint64_t fingerprint);

 private:
  /// Records a completed measurement of `config` at the committed ledger's
  /// position: ResultDb row, eval trace event, and the incumbent update, on
  /// the scheduler's control thread so row order and the incumbent are
  /// deterministic. An empty `phase` uses the current set_phase() label.
  /// Returns the objective.
  double record(const Configuration& config, std::uint64_t fingerprint,
                const Measurement& measurement, const std::string& phase);
  void consider(const Configuration& config, std::uint64_t fingerprint,
                const Measurement& measurement, const std::string& phase);
  /// True (under mutex_) when `objective` would displace the incumbent
  /// under the lexicographic (objective, fingerprint) order.
  bool improves_locked(double objective, std::uint64_t fingerprint) const;
  std::string resolve_phase(const std::string& phase) const;

  const Objective* objective_ = &run_time_objective();
  Evaluator* evaluator_;
  BudgetClock* budget_;
  ResultDb* db_;
  const SearchSpace* space_;
  Rng rng_;
  ThreadPool* pool_;
  TraceSink* trace_;
  SessionJournal* journal_ = nullptr;
  const CancellationToken* cancel_ = nullptr;
  const std::vector<JournalEval>* replay_ = nullptr;
  std::size_t replay_cursor_ = 0;
  /// Commits with nonzero cost, and the ledger (control thread only; see
  /// commit()).
  std::int64_t charged_evals_ = 0;
  SimTime committed_spent_;

  mutable std::mutex mutex_;
  std::string phase_;
  std::optional<Configuration> best_config_;
  double best_objective_;
  /// Incumbent tie-break key: among equal objectives the lowest fingerprint
  /// wins, so parallel batch reduction is order-independent (the incumbent
  /// after a batch does not depend on completion order).
  std::uint64_t best_fingerprint_;
  /// Per-repetition running statistics of the incumbent's measurement,
  /// rebuilt whenever the incumbent changes; feeds incumbent_snapshot().
  RunningStat incumbent_stat_;
  MeasurementPolicyOptions policy_;
};

}  // namespace jat
