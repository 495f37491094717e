#include "tuner/suite_session.hpp"

#include <cmath>

#include "support/error.hpp"

namespace jat {

SuiteRunner::SuiteRunner(const JvmSimulator& simulator,
                         std::vector<WorkloadSpec> workloads,
                         RunnerOptions options)
    : objective_(options.objective) {
  if (workloads.empty()) throw TunerError("SuiteRunner: empty suite");
  const Objective& obj = objective_ ? *objective_ : run_time_objective();
  if (!obj.positive_scale()) {
    throw ObjectiveError(
        "SuiteRunner: objective '" + obj.id() +
        "' has no positive scale; the suite score is a geometric mean of "
        "value/default ratios and needs positive member values (tune suite "
        "members under run_time or another positive-scale objective)");
  }
  runners_.reserve(workloads.size());
  for (auto& workload : workloads) {
    runners_.push_back(
        std::make_unique<BenchmarkRunner>(simulator, std::move(workload), options));
  }
  const Configuration defaults(FlagRegistry::hotspot());
  default_ms_.reserve(runners_.size());
  for (auto& runner : runners_) {
    const Measurement m = runner->measure(defaults);
    if (!m.valid()) {
      throw TunerError("SuiteRunner: default configuration fails on " +
                       runner->workload().name);
    }
    const double value = m.objective(obj);
    if (!(value > 0) || !std::isfinite(value)) {
      throw ObjectiveError("SuiteRunner: default " + obj.id() + " on " +
                           runner->workload().name + " is " +
                           std::to_string(value) +
                           "; the suite score normalises by it and needs a "
                           "positive, finite default");
    }
    default_ms_.push_back(value);
    // Abandon candidates far slower than this member's baseline. The limit
    // is on wall-clock run time (summary.mean), never the objective scalar.
    runner->set_time_limit(SimTime::millis(
        static_cast<std::int64_t>(m.summary.mean * 5.0)));
  }
}

void SuiteRunner::set_cancellation(const CancellationToken* token) {
  for (auto& runner : runners_) runner->set_cancellation(token);
}

EvalCounters SuiteRunner::counters() const {
  EvalCounters total;
  for (const auto& runner : runners_) total += runner->counters();
  return total;
}

void SuiteRunner::reseed_cache(const Configuration& config) {
  for (auto& runner : runners_) runner->reseed_cache(config);
}

std::vector<double> SuiteRunner::measure_each(const Configuration& config,
                                              BudgetClock* budget) {
  const Objective& obj = objective_ ? *objective_ : run_time_objective();
  std::vector<double> out;
  out.reserve(runners_.size());
  for (auto& runner : runners_) {
    out.push_back(runner->measure(config, budget).objective(obj));
  }
  return out;
}

Measurement SuiteRunner::measure(const Configuration& config,
                                 BudgetClock* budget,
                                 const EvalHints& /*hints*/) {
  Measurement m;
  m.config_fingerprint = config.fingerprint();
  double log_sum = 0;
  const auto times = measure_each(config, budget);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (!std::isfinite(times[i])) {
      m.crashed = true;
      m.crash_reason = "crashed on " + runners_[i]->workload().name;
      return m;
    }
    log_sum += std::log(times[i] / default_ms_[i]);
  }
  const double score =
      1000.0 * std::exp(log_sum / static_cast<double>(times.size()));
  m.times_ms = {score};
  m.summary = summarize(m.times_ms);
  return m;
}

}  // namespace jat
