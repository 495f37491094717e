#include "harness/fault.hpp"

#include <utility>

#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace jat {

FaultStats& FaultStats::operator+=(const FaultStats& other) {
  for_each_fault_counter(
      [](const char*, std::int64_t& mine, std::int64_t theirs) {
        mine += theirs;
      },
      *this, other);
  return *this;
}

FaultStats& FaultStats::operator-=(const FaultStats& other) {
  for_each_fault_counter(
      [](const char*, std::int64_t& mine, std::int64_t theirs) {
        mine -= theirs;
      },
      *this, other);
  return *this;
}

EvalCounters& EvalCounters::operator+=(const EvalCounters& other) {
  for_each_eval_counter(
      [](const char*, std::int64_t& mine, std::int64_t theirs) {
        mine += theirs;
      },
      *this, other);
  return *this;
}

EvalCounters& EvalCounters::operator-=(const EvalCounters& other) {
  for_each_eval_counter(
      [](const char*, std::int64_t& mine, std::int64_t theirs) {
        mine -= theirs;
      },
      *this, other);
  return *this;
}

std::string FaultStats::to_string() const {
  std::string out;
  for_each_fault_counter(
      [&out](const char* name, std::int64_t value) {
        if (value == 0) return;
        if (!out.empty()) out += ' ';
        out += name;
        out += '=';
        out += std::to_string(value);
      },
      *this);
  if (out.empty()) out = "clean";
  return out;
}

void count_fault(FaultStats& stats, FaultClass fault) {
  switch (fault) {
    case FaultClass::kTransient: ++stats.transient; break;
    case FaultClass::kDeterministic: ++stats.deterministic; break;
    case FaultClass::kTimeout: ++stats.timeouts; break;
    case FaultClass::kCrash: ++stats.crashes; break;
    case FaultClass::kQuarantined: ++stats.quarantine_hits; break;
    case FaultClass::kNone: break;
  }
}

FaultInjectingEvaluator::FaultInjectingEvaluator(Evaluator& inner,
                                                 FaultOptions options)
    : inner_(&inner), options_(options) {}

void FaultInjectingEvaluator::add_deterministic_crash(
    std::uint64_t fingerprint) {
  std::lock_guard lock(mutex_);
  crash_set_.insert(fingerprint);
}

FaultStats FaultInjectingEvaluator::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

EvalCounters FaultInjectingEvaluator::counters() const {
  EvalCounters counters = inner_->counters();
  counters.faults += stats();
  return counters;
}

Measurement FaultInjectingEvaluator::injected_crash(std::uint64_t fingerprint,
                                                    FaultClass fault,
                                                    std::string reason,
                                                    SimTime cost,
                                                    BudgetClock* budget) {
  if (budget != nullptr) budget->charge(cost);
  Measurement m;
  m.config_fingerprint = fingerprint;
  m.crashed = true;
  m.fault = fault;
  m.crash_reason = std::move(reason);
  {
    std::lock_guard lock(mutex_);
    count_fault(stats_, fault);
  }
  return m;
}

Measurement FaultInjectingEvaluator::measure(const Configuration& config,
                                             std::uint64_t fingerprint,
                                             BudgetClock* budget,
                                             const EvalHints& hints) {
  std::uint64_t attempt;
  bool listed_crasher;
  {
    std::lock_guard lock(mutex_);
    attempt = attempts_[fingerprint]++;
    listed_crasher = crash_set_.count(fingerprint) > 0;
  }

  // Config-caused faults are drawn per fingerprint: the same configuration
  // fails the same way on every attempt, so retries cannot paper over it.
  Rng config_rng(mix64(options_.seed, mix64(fingerprint, 0x1)));
  if (listed_crasher || config_rng.chance(options_.deterministic_rate)) {
    return injected_crash(fingerprint, FaultClass::kDeterministic,
                          "injected crash: invalid configuration",
                          options_.failure_cost, budget);
  }
  if (config_rng.chance(options_.hang_rate)) {
    return injected_crash(fingerprint, FaultClass::kTimeout,
                          "injected hang: killed at harness timeout",
                          options_.hang_timeout, budget);
  }

  // Infrastructure faults are drawn per attempt: a retry re-rolls the dice,
  // which is exactly why retrying transient failures pays.
  Rng attempt_rng(mix64(options_.seed, mix64(fingerprint, attempt + 0x2)));
  if (attempt_rng.chance(options_.transient_rate)) {
    return injected_crash(fingerprint, FaultClass::kTransient,
                          "injected transient harness failure",
                          options_.failure_cost, budget);
  }

  Measurement m = inner_->measure(config, fingerprint, budget, hints);
  if (!m.crashed && attempt_rng.chance(options_.latency_spike_rate)) {
    for (double& t : m.times_ms) t *= options_.latency_spike_factor;
    m.summary = summarize(m.times_ms);
    std::lock_guard lock(mutex_);
    ++stats_.latency_spikes;
  }
  if (attempt_rng.chance(options_.overcharge_rate)) {
    if (budget != nullptr) budget->charge(options_.overcharge);
    std::lock_guard lock(mutex_);
    ++stats_.overcharges;
  }
  return m;
}

}  // namespace jat
