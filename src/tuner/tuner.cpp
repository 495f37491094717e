#include "tuner/tuner.hpp"

#include <limits>

#include "support/error.hpp"

namespace jat {

TuningContext::TuningContext(Evaluator& evaluator, BudgetClock& budget,
                             ResultDb& db, const SearchSpace& space, Rng rng,
                             ThreadPool* pool, TraceSink* trace)
    : evaluator_(&evaluator),
      budget_(&budget),
      db_(&db),
      space_(&space),
      rng_(rng),
      pool_(pool),
      trace_(trace),
      best_objective_(std::numeric_limits<double>::infinity()),
      best_fingerprint_(std::numeric_limits<std::uint64_t>::max()) {}

void TuningContext::set_phase(std::string phase) {
  if (trace_ != nullptr) {
    trace_->emit(
        TraceEvent("phase", budget_->spent()).with("name", phase));
  }
  std::lock_guard lock(mutex_);
  phase_ = std::move(phase);
}

TuningContext::MeasuredEval TuningContext::measure_only(
    const Configuration& config, std::uint64_t fingerprint,
    const EvalHints& hints) {
  MeteredBudget meter(budget_);
  Measurement measurement =
      evaluator_->measure(config, fingerprint, &meter, hints);
  return MeasuredEval{std::move(measurement), meter.metered()};
}

IncumbentSnapshot TuningContext::incumbent_snapshot() const {
  std::lock_guard lock(mutex_);
  IncumbentSnapshot snapshot;
  snapshot.count = incumbent_stat_.count();
  snapshot.mean = incumbent_stat_.mean();
  snapshot.m2 = incumbent_stat_.m2();
  return snapshot;
}

std::string TuningContext::resolve_phase(const std::string& phase) const {
  if (!phase.empty()) return phase;
  std::lock_guard lock(mutex_);
  return phase_;
}

double TuningContext::record(const Configuration& config,
                             std::uint64_t fingerprint, const Measurement& m,
                             const std::string& phase) {
  const double objective = m.objective(*objective_);
  const std::string label = resolve_phase(phase);
  db_->record(fingerprint, objective, budget_->spent(),
              config.render_command_line(), label, m.fault, m.crash_reason,
              m.attempts, m.stop, &m);
  if (trace_ != nullptr) {
    trace_->emit(TraceEvent("eval", budget_->spent())
                     .with("fingerprint", fingerprint_hex(fingerprint))
                     .with("objective_ms", objective)
                     .with("phase", label)
                     .with("fault", std::string(to_string(m.fault)))
                     .with("attempts", static_cast<std::int64_t>(m.attempts)));
    trace_->metrics().add("tuner.evaluations");
    if (m.stop != StopReason::kFull) {
      trace_->emit(
          TraceEvent("rep_stop", budget_->spent())
              .with("fingerprint", fingerprint_hex(fingerprint))
              .with("stop", std::string(to_string(m.stop)))
              .with("reps", static_cast<std::int64_t>(m.times_ms.size()))
              .with("failed_reps", static_cast<std::int64_t>(m.failed_reps)));
      trace_->metrics().add(std::string("policy.") + to_string(m.stop));
    }
  }
  consider(config, fingerprint, m, label);
  return objective;
}

double TuningContext::commit(const Configuration& config,
                             std::uint64_t fingerprint, MeasuredEval& eval,
                             bool replayed, const std::string& phase) {
  const std::string label = resolve_phase(phase);
  MeasuredEval& applied = eval;
  // Top-up: a raced-out measurement was cut short *because* it looked worse
  // than the incumbent at the time — but if it still displaces the incumbent
  // at commit time, promoting the truncated (biased-small) sample would bias
  // the search. Re-measure to convergence before accepting it. The decision
  // reads only committed control-thread state (never the live clock), so the
  // trajectory stays deterministic across eval_threads; the merged result is
  // journaled, so a replayed commit never re-tops-up.
  if (!replayed && policy_.adaptive && applied.measurement.valid() &&
      applied.measurement.stop == StopReason::kRacedOut) {
    bool candidate;
    EvalHints hints;
    {
      std::lock_guard lock(mutex_);
      candidate = improves_locked(applied.measurement.objective(*objective_),
                                  fingerprint);
      hints.incumbent.count = incumbent_stat_.count();
      hints.incumbent.mean = incumbent_stat_.mean();
      hints.incumbent.m2 = incumbent_stat_.m2();
    }
    if (candidate) {
      hints.top_up = true;
      MeteredBudget meter(budget_);
      Measurement extended =
          evaluator_->measure(config, fingerprint, &meter, hints);
      applied.cost += meter.metered();
      if (trace_ != nullptr) {
        const std::int64_t added =
            static_cast<std::int64_t>(extended.times_ms.size()) -
            static_cast<std::int64_t>(applied.measurement.times_ms.size());
        trace_->emit(
            TraceEvent("topup", budget_->spent())
                .with("fingerprint", fingerprint_hex(fingerprint))
                .with("added_reps", std::max<std::int64_t>(0, added))
                .with("objective_ms", extended.objective(*objective_))
                .with("stop", std::string(to_string(extended.stop))));
        trace_->metrics().add("policy.topups");
      }
      // An injected fault can lose the continuation; keep the partial
      // measurement rather than replacing a valid result with a crash.
      if (extended.valid()) applied.measurement = std::move(extended);
    }
  }
  if (journal_ != nullptr && !replayed) {
    // WAL order: the record is durable before the result mutates any state.
    // A crash between the append and the apply merely replays it on resume.
    journal_->append(make_journal_eval(
        static_cast<std::int64_t>(db_->size()), config, fingerprint,
        applied.measurement, applied.cost, budget_->spent(), label,
        /*include_metrics=*/objective_->id() != "run_time"));
  }
  // Charged evaluations: the budget-consuming subset of the trajectory.
  // Store hits cost exactly zero, so a warm-started session's transfer
  // seeds never count — the ≥25%-fewer-charged-evaluations acceptance
  // criterion compares real measurement work, not replayed records.
  if (applied.cost > SimTime::zero()) ++charged_evals_;
  return record(config, fingerprint, applied.measurement, label);
}

TuningContext::MeasuredEval TuningContext::replay_next(
    std::uint64_t fingerprint) {
  if (!replaying()) {
    throw TunerError("TuningContext::replay_next: no replay record left");
  }
  const JournalEval& rec = (*replay_)[replay_cursor_];
  if (rec.fingerprint != fingerprint) {
    throw JournalError(
        "replay divergence at seq " + std::to_string(rec.seq) +
        ": the journal recorded fingerprint " + fingerprint_hex(rec.fingerprint) +
        " but the strategy proposed " + fingerprint_hex(fingerprint) +
        " (wrong journal, or the code changed since it was written)");
  }
  ++replay_cursor_;
  budget_->charge(rec.cost);
  return MeasuredEval{rec.to_measurement(), rec.cost};
}

Configuration TuningContext::best_config() const {
  std::lock_guard lock(mutex_);
  if (!best_config_.has_value()) {
    throw TunerError("TuningContext: nothing evaluated yet");
  }
  return *best_config_;
}

double TuningContext::best_objective() const {
  std::lock_guard lock(mutex_);
  return best_objective_;
}

bool TuningContext::improves_locked(double objective,
                                    std::uint64_t fingerprint) const {
  // Strict lexicographic (objective, fingerprint) order: among equal
  // objectives the lowest fingerprint wins, so the incumbent after a
  // parallel batch is independent of completion order (the reduction is a
  // commutative min).
  return !best_config_.has_value() || objective < best_objective_ ||
         (objective == best_objective_ && fingerprint < best_fingerprint_);
}

void TuningContext::consider(const Configuration& config,
                             std::uint64_t fingerprint,
                             const Measurement& measurement,
                             const std::string& phase) {
  const double objective = measurement.objective(*objective_);
  bool improved = false;
  {
    std::lock_guard lock(mutex_);
    if (improves_locked(objective, fingerprint)) {
      best_config_ = config;
      best_objective_ = objective;
      best_fingerprint_ = fingerprint;
      // Rebuild the incumbent's per-repetition statistics from the winning
      // measurement's objective scalars so racing hints always compare
      // against the *current* incumbent's sample (journal replay restores
      // the metric rows, so a resumed session rebuilds the identical
      // snapshot). For run_time the scalars are times_ms itself.
      incumbent_stat_ = RunningStat();
      for (const double t : objective_->rep_values(measurement)) {
        incumbent_stat_.add(t);
      }
      improved = true;
    }
  }
  if (improved && trace_ != nullptr) {
    trace_->emit(TraceEvent("incumbent", budget_->spent())
                     .with("fingerprint", fingerprint_hex(fingerprint))
                     .with("objective_ms", objective)
                     .with("phase", phase));
    trace_->metrics().add("tuner.incumbent_updates");
  }
}

}  // namespace jat
