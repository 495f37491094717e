#include "tuner/suite_session.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "flags/parse.hpp"
#include "tuner/legacy_adapter.hpp"
#include "tuner/scheduler.hpp"
#include "tuner/warm_start.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/units.hpp"

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

std::int64_t SuiteRunner::store_hits() const {
  std::int64_t total = 0;
  for (const auto& runner : runners_) total += runner->store_hits();
  return total;
}

std::int64_t SuiteRunner::store_appends() const {
  std::int64_t total = 0;
  for (const auto& runner : runners_) total += runner->store_appends();
  return total;
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

SuiteTuningSession::SuiteTuningSession(const JvmSimulator& simulator,
                                       std::vector<WorkloadSpec> workloads,
                                       SessionOptions options)
    : simulator_(&simulator), workloads_(std::move(workloads)), options_(options) {}

SuiteOutcome SuiteTuningSession::run(Tuner& tuner) {
  LegacyTunerAdapter adapter(tuner);
  return run(adapter);
}

SuiteOutcome SuiteTuningSession::run(SearchStrategy& strategy) {
  return run_internal(strategy, options_.journal, /*resuming=*/false);
}

SuiteOutcome SuiteTuningSession::resume(SessionJournal& journal,
                                        SearchStrategy& strategy) {
  return run_internal(strategy, &journal, /*resuming=*/true);
}

JournalMeta SuiteTuningSession::journal_meta(
    const std::string& tuner_name) const {
  const SearchSpace space(FlagHierarchy::hotspot());
  JournalMeta meta;
  meta.objective =
      options_.objective ? options_.objective->id() : std::string("run_time");
  meta.version = SessionJournal::version_for_objective(meta.objective);
  meta.kind = "suite";
  for (const WorkloadSpec& workload : workloads_) {
    if (!meta.workload.empty()) meta.workload += ',';
    meta.workload += workload.name;
  }
  meta.tuner = tuner_name;
  meta.seed = options_.seed;
  meta.budget = options_.budget;
  meta.repetitions = options_.repetitions;
  meta.inflight = options_.inflight;
  meta.eval_threads = options_.eval_threads;
  meta.per_run_overhead_s = options_.per_run_overhead_s;
  meta.racing_factor = 0.0;  // the suite runner does not race
  meta.adaptive = options_.measurement.adaptive;
  meta.min_reps = options_.measurement.min_reps;
  meta.max_reps = options_.measurement.max_reps;
  meta.ci_rel = options_.measurement.ci_rel;
  meta.race_p = options_.measurement.race_p;
  meta.space_fingerprint = space_fingerprint(space.registry());
  meta.resilient = false;
  meta.fault_fingerprint = 0;
  return meta;
}

SuiteOutcome SuiteTuningSession::run_internal(SearchStrategy& strategy,
                                              SessionJournal* journal,
                                              bool resuming) {
  RunnerOptions runner_options;
  runner_options.repetitions = options_.repetitions;
  runner_options.seed = options_.seed;
  runner_options.per_run_overhead_s = options_.per_run_overhead_s;
  // Members converge individually under the policy (CI stop only — no
  // incumbent hints cross the suite boundary; see SuiteRunner::measure).
  runner_options.policy = options_.measurement;
  // Members are scored with the session objective; the suite-level context
  // stays on run_time semantics because the suite measurement is already a
  // scalar score (one "repetition" whose value *is* the objective).
  runner_options.objective = options_.objective;
  // The store tier lives in the *member* runners: each workload's
  // measurements are answered from (and published to) its own store
  // namespace, so a suite session shares results with the single-workload
  // sessions that tuned its members.
  runner_options.store = options_.store;
  runner_options.store_reads = options_.store_reads;
  SuiteRunner runner(*simulator_, workloads_, runner_options);
  runner.set_cancellation(options_.cancel);

  BudgetClock budget(options_.budget);
  auto db = std::make_shared<ResultDb>();
  const SearchSpace space(FlagHierarchy::hotspot());

  if (options_.store != nullptr) {
    const std::uint64_t space_fp = space_fingerprint(space.registry());
    for (const WorkloadSpec& workload : workloads_) {
      options_.store->put_workload(space_fp, workload);
    }
  }

  // Optional out-of-process execution: the whole SuiteRunner (its member
  // runners, baselines, and time limits are already set up above, so the
  // forked workers inherit them copy-on-write) moves into the worker pool.
  Evaluator* evaluator = &runner;
  std::unique_ptr<SandboxedEvaluator> sandbox;
  if (options_.sandbox) {
    sandbox = std::make_unique<SandboxedEvaluator>(runner, space.registry(),
                                                   options_.sandbox_options);
    evaluator = sandbox.get();
  }

  std::unique_ptr<ThreadPool> pool;
  if (options_.eval_threads > 0) {
    pool = std::make_unique<ThreadPool>(options_.eval_threads);
  }

  if (journal != nullptr) {
    const JournalMeta meta = journal_meta(strategy.name());
    if (resuming) {
      validate_resume_meta(journal->meta(), meta);
    } else if (journal->has_meta()) {
      throw JournalError("journal '" + journal->path() +
                         "' already holds a session; use resume()");
    } else {
      journal->write_meta(meta);
    }
  }

  Rng rng(mix64(options_.seed, fnv1a64("suite:" + strategy.name())));
  TuningContext ctx(*evaluator, budget, *db, space, rng, pool.get());
  // The suite objective is a single score (one "repetition"), so adaptive
  // racing/top-up never engages at the suite level; recording the policy on
  // the context keeps journal metadata and session behaviour aligned.
  ctx.set_measurement_policy(options_.measurement);
  ctx.set_journal(journal);
  ctx.set_cancellation(options_.cancel);
  if (resuming) ctx.set_replay(&journal->committed());

  ctx.set_phase("default");
  const Configuration defaults(space.registry());
  const std::uint64_t defaults_fp = defaults.fingerprint();
  const bool base_replayed = ctx.replaying();
  TuningContext::MeasuredEval base = base_replayed
                                         ? ctx.replay_next(defaults_fp)
                                         : ctx.measure_only(defaults);
  // Score 1000 by construction.
  ctx.commit(defaults, defaults_fp, base, base_replayed);

  // Warm-start transfer, suite flavour: round-robin over the members'
  // store namespaces (rank-0 of every member, then rank-1, ...) up to
  // warm_start seeds, so no single workload's history dominates the seed
  // set. On resume the seed list is rebuilt from the journal's own
  // warm_start records, exactly as in TuningSession.
  std::vector<Configuration> warm_seeds;
  if (resuming && journal != nullptr) {
    for (const JournalEval& rec : journal->committed()) {
      if (rec.phase != "warm_start") continue;
      warm_seeds.push_back(
          parse_command_line(space.registry(), rec.command_line));
    }
  } else if (options_.store != nullptr && options_.warm_start > 0) {
    const std::uint64_t space_fp = space_fingerprint(space.registry());
    const std::string objective_id =
        options_.objective ? options_.objective->id() : std::string("run_time");
    const std::size_t k = static_cast<std::size_t>(options_.warm_start);
    std::set<std::uint64_t> seen{defaults.fingerprint()};
    for (std::size_t rank = 0; rank < k && warm_seeds.size() < k; ++rank) {
      for (const WorkloadSpec& workload : workloads_) {
        if (warm_seeds.size() >= k) break;
        const auto records = options_.store->top_k(
            space_fp, workload_fingerprint(workload), objective_id, rank + 1);
        if (records.size() <= rank) continue;
        const StoreRecord* rec = records[rank];
        if (!seen.insert(rec->key.config_fingerprint).second) continue;
        try {
          Configuration cfg =
              parse_command_line(space.registry(), rec->command_line);
          if (cfg.fingerprint() != rec->key.config_fingerprint) continue;
          warm_seeds.push_back(std::move(cfg));
        } catch (const Error& e) {
          log_warn() << "suite warm-start: cannot parse stored config: "
                     << e.what();
        }
      }
    }
  }
  const std::int64_t warm_seed_count =
      static_cast<std::int64_t>(warm_seeds.size());
  std::optional<WarmStartStrategy> warm;
  SearchStrategy* active = &strategy;
  if (!warm_seeds.empty()) {
    warm.emplace(strategy, std::move(warm_seeds));
    active = &*warm;
  }

  EvalScheduler scheduler(ctx, SchedulerOptions{options_.inflight});
  scheduler.run(*active);

  if (resuming && ctx.replaying()) {
    log_warn() << "journal " << journal->path() << ": "
               << (ctx.replay_total() - ctx.replay_cursor())
               << " committed record(s) were not re-proposed by the "
                  "strategy — wrong journal or changed code?";
  }

  if (sandbox) sandbox->shutdown();

  // Validation pass with fresh seeds.
  RunnerOptions validation_options = runner_options;
  validation_options.seed = mix64(options_.seed, fnv1a64("validation"));
  validation_options.repetitions = std::max(5, options_.repetitions);
  validation_options.policy = MeasurementPolicyOptions{};  // no early stops
  validation_options.store = nullptr;  // fresh seeds: never store-answered
  SuiteRunner validator(*simulator_, workloads_, validation_options);

  Configuration best_config = ctx.best_config();
  const auto tuned_each = validator.measure_each(best_config, nullptr);

  SuiteOutcome outcome{.tuner_name = strategy.name(),
                       .best_config = best_config,
                       .geomean_ratio = 1.0,
                       .per_workload_improvement = {},
                       .workload_names = {},
                       .evaluations = static_cast<std::int64_t>(db->size()),
                       .store_hits = runner.store_hits(),
                       .store_appends = runner.store_appends(),
                       .warm_seeds = warm_seed_count,
                       .charged_evaluations = ctx.charged_evaluations(),
                       .budget_spent = budget.spent(),
                       .db = db,
                       .cancelled = scheduler.cancelled_run()};

  double log_sum = 0;
  bool any_crash = false;
  for (std::size_t i = 0; i < tuned_each.size(); ++i) {
    outcome.workload_names.push_back(validator.workload(i).name);
    const double base = validator.default_times_ms()[i];
    if (!std::isfinite(tuned_each[i])) {
      any_crash = true;
      outcome.per_workload_improvement.push_back(0.0);
      continue;
    }
    outcome.per_workload_improvement.push_back(1.0 - tuned_each[i] / base);
    log_sum += std::log(tuned_each[i] / base);
  }
  if (any_crash) {
    // The general configuration must run everywhere; fall back to defaults.
    outcome.best_config = defaults;
    outcome.geomean_ratio = 1.0;
    std::fill(outcome.per_workload_improvement.begin(),
              outcome.per_workload_improvement.end(), 0.0);
  } else {
    outcome.geomean_ratio =
        std::exp(log_sum / static_cast<double>(tuned_each.size()));
    if (outcome.geomean_ratio > 1.0) {
      outcome.best_config = defaults;
      outcome.geomean_ratio = 1.0;
      std::fill(outcome.per_workload_improvement.begin(),
                outcome.per_workload_improvement.end(), 0.0);
    }
  }

  if (journal != nullptr) {
    if (!outcome.cancelled) {
      journal->append_end(outcome.best_config.fingerprint(),
                          outcome.geomean_ratio * 1000.0, 1000.0,
                          outcome.evaluations);
    }
    journal->flush();
  }

  log_info() << "suite tuning with " << strategy.name() << ": geomean improvement "
             << format_percent(outcome.improvement_frac()) << " over "
             << workloads_.size() << " workloads";
  return outcome;
}

}  // namespace jat
