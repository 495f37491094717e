#include "harness/resilient.hpp"

#include <algorithm>

#include "harness/budget.hpp"

namespace jat {

namespace {
SimTime budget_position(const BudgetClock* budget) {
  return budget != nullptr ? budget->spent() : SimTime::zero();
}
}  // namespace

ResilientEvaluator::ResilientEvaluator(Evaluator& inner,
                                       ResilienceOptions options)
    : inner_(&inner), options_(options) {
  options_.max_attempts = std::max(1, options_.max_attempts);
  options_.quarantine_threshold = std::max(1, options_.quarantine_threshold);
  options_.breaker_threshold = std::max(1, options_.breaker_threshold);
}

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
        trace_->metrics().add("resilient.quarantine_hits");
      }
      Measurement m;
      m.config_fingerprint = fingerprint;
      m.crashed = true;
      m.fault = FaultClass::kQuarantined;
      m.crash_reason = "quarantined: " + it->second.reason;
      if (budget != nullptr) {
        budget->charge(SimTime::seconds(options_.quarantine_answer_cost_s));
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
              attempt + 1 < options_.max_attempts && !breaker_open_ &&
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
      trace_->metrics().add("resilient.retries");
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
      trace_->metrics().add("resilient.quarantined");
    }
    if (effect.breaker != 0) {
      trace_->emit(TraceEvent("breaker", budget_position(budget))
                       .with("open", effect.breaker > 0));
      if (effect.breaker > 0) trace_->metrics().add("resilient.breaker_trips");
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
        ++record.hard_failures >= options_.quarantine_threshold) {
      record.quarantined = true;
      ++stats_.quarantined;
      effect.quarantined = true;
    }
  }
  if (++consecutive_failures_ >= options_.breaker_threshold && !breaker_open_) {
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
