#include "harness/resilient.hpp"

#include "harness/budget.hpp"

namespace jat {

namespace {

/// Total attempts per measurement. Only failures tagged
/// FaultClass::kTransient are retried; config-caused crashes and timeouts
/// fail on every attempt, so retrying them burns budget for nothing.
constexpr int kMaxAttempts = 3;
/// Hard (deterministic / timeout / process-crash) failures of one
/// fingerprint before it is quarantined: later measurements are answered
/// instantly from the blacklist instead of re-running a config known to
/// crash the JVM.
constexpr int kQuarantineThreshold = 2;
/// Consecutive failed measurements (across configurations) before the
/// circuit breaker opens and retrying stops — when the whole harness is
/// down, paying the retry tax per candidate only drains the budget faster.
/// A single success closes the breaker.
constexpr int kBreakerThreshold = 10;
/// Nominal cost of a quarantine answer (a result-database lookup).
constexpr SimTime kQuarantineAnswerCost = SimTime::seconds(0.05);

SimTime budget_position(const BudgetClock* budget) {
  return budget != nullptr ? budget->spent() : SimTime::zero();
}

}  // namespace

FaultStats ResilientEvaluator::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

EvalCounters ResilientEvaluator::counters() const {
  EvalCounters counters = inner_->counters();
  counters.faults += stats();
  return counters;
}

bool ResilientEvaluator::breaker_open() const {
  std::lock_guard lock(mutex_);
  return breaker_open_;
}

std::size_t ResilientEvaluator::quarantine_size() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [fp, record] : records_) n += record.quarantined ? 1 : 0;
  return n;
}

bool ResilientEvaluator::is_quarantined(std::uint64_t fingerprint) const {
  std::lock_guard lock(mutex_);
  const auto it = records_.find(fingerprint);
  return it != records_.end() && it->second.quarantined;
}

Measurement ResilientEvaluator::measure(const Configuration& config,
                                        std::uint64_t fingerprint,
                                        BudgetClock* budget,
                                        const EvalHints& hints) {
  {
    std::lock_guard lock(mutex_);
    const auto it = records_.find(fingerprint);
    if (it != records_.end() && it->second.quarantined) {
      ++stats_.quarantine_hits;
      if (trace_ != nullptr) {
        trace_->emit(TraceEvent("quarantine_hit", budget_position(budget))
                         .with("fingerprint", fingerprint_hex(fingerprint)));
      }
      Measurement m;
      m.config_fingerprint = fingerprint;
      m.crashed = true;
      m.fault = FaultClass::kQuarantined;
      m.crash_reason = "quarantined: " + it->second.reason;
      if (budget != nullptr) {
        budget->charge(kQuarantineAnswerCost);
      }
      return m;
    }
  }

  Measurement m;
  int attempt = 0;
  FaultClass recovered_from = FaultClass::kNone;
  for (;;) {
    m = inner_->measure(config, fingerprint, budget, hints);
    if (!m.crashed) break;

    bool retry;
    {
      std::lock_guard lock(mutex_);
      retry = m.fault == FaultClass::kTransient &&
              attempt + 1 < kMaxAttempts && !breaker_open_ &&
              (budget == nullptr || !budget->exhausted()) &&
              !is_cancelled(cancel_);
      if (retry) ++stats_.retries;
    }
    if (!retry) break;
    recovered_from = m.fault;
    ++attempt;
    if (trace_ != nullptr) {
      trace_->emit(TraceEvent("retry", budget_position(budget))
                       .with("fingerprint", fingerprint_hex(fingerprint))
                       .with("attempt", static_cast<std::int64_t>(attempt))
                       .with("fault", std::string(to_string(m.fault))));
    }
  }
  m.attempts = attempt + 1;
  // A recovered measurement keeps the class of the failure it survived, so
  // the taxonomy stays visible in the result log.
  if (!m.crashed && m.fault == FaultClass::kNone) m.fault = recovered_from;

  Effect effect;
  {
    std::lock_guard lock(mutex_);
    effect = apply_outcome(m);
  }
  if (trace_ != nullptr) {
    if (effect.quarantined) {
      trace_->emit(TraceEvent("quarantine", budget_position(budget))
                       .with("fingerprint", fingerprint_hex(fingerprint))
                       .with("reason", m.crash_reason));
    }
    if (effect.breaker != 0) {
      trace_->emit(TraceEvent("breaker", budget_position(budget))
                       .with("open", effect.breaker > 0));
    }
  }
  return m;
}

ResilientEvaluator::Effect ResilientEvaluator::apply_outcome(
    const Measurement& m) {
  Effect effect;
  if (!m.crashed) {
    if (m.attempts > 1) ++stats_.retry_successes;
    consecutive_failures_ = 0;
    if (breaker_open_) effect.breaker = -1;
    breaker_open_ = false;
    // A success proves the config is not deterministically broken; forget
    // any stale hard-failure count so transient-only configs are never at
    // risk of quarantine.
    records_.erase(m.config_fingerprint);
    return effect;
  }
  if (m.fault == FaultClass::kDeterministic ||
      m.fault == FaultClass::kTimeout || m.fault == FaultClass::kCrash) {
    CrashRecord& record = records_[m.config_fingerprint];
    record.reason = m.crash_reason;
    if (!record.quarantined &&
        ++record.hard_failures >= kQuarantineThreshold) {
      record.quarantined = true;
      ++stats_.quarantined;
      effect.quarantined = true;
    }
  }
  if (++consecutive_failures_ >= kBreakerThreshold && !breaker_open_) {
    breaker_open_ = true;
    ++stats_.breaker_trips;
    effect.breaker = 1;
  }
  return effect;
}

void ResilientEvaluator::replay_outcome(const Measurement& m) {
  std::lock_guard lock(mutex_);
  if (m.fault == FaultClass::kQuarantined) {
    // A quarantine answer never ran anything; it only proves the config was
    // already blacklisted, which an earlier replayed crash established.
    ++stats_.quarantine_hits;
    return;
  }
  if (m.attempts > 1) stats_.retries += m.attempts - 1;
  apply_outcome(m);
}

}  // namespace jat
