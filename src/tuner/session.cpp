#include "tuner/session.hpp"

#include <optional>
#include <set>

#include "flags/parse.hpp"
#include "tuner/legacy_adapter.hpp"
#include "tuner/scheduler.hpp"
#include "tuner/warm_start.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace jat {

TuningSession::TuningSession(const JvmSimulator& simulator, WorkloadSpec workload,
                             SessionOptions options)
    : simulator_(&simulator), workload_(std::move(workload)), options_(options) {}

TuningOutcome TuningSession::run(Tuner& tuner) {
  LegacyTunerAdapter adapter(tuner);
  return run(adapter);
}

TuningOutcome TuningSession::run(SearchStrategy& strategy) {
  return run_internal(strategy, options_.journal, /*resuming=*/false);
}

TuningOutcome TuningSession::resume(SessionJournal& journal,
                                    SearchStrategy& strategy) {
  return run_internal(strategy, &journal, /*resuming=*/true);
}

JournalMeta TuningSession::journal_meta(const std::string& tuner_name) const {
  const SearchSpace space(FlagHierarchy::hotspot());
  JournalMeta meta;
  meta.objective =
      options_.objective ? options_.objective->id() : std::string("run_time");
  meta.version = SessionJournal::version_for_objective(meta.objective);
  meta.kind = "single";
  meta.workload = workload_.name;
  meta.tuner = tuner_name;
  meta.seed = options_.seed;
  meta.budget = options_.budget;
  meta.repetitions = options_.repetitions;
  meta.inflight = options_.inflight;
  meta.eval_threads = options_.eval_threads;
  meta.per_run_overhead_s = options_.per_run_overhead_s;
  meta.racing_factor = options_.racing_factor;
  meta.adaptive = options_.measurement.adaptive;
  meta.min_reps = options_.measurement.min_reps;
  meta.max_reps = options_.measurement.max_reps;
  meta.ci_rel = options_.measurement.ci_rel;
  meta.race_p = options_.measurement.race_p;
  meta.space_fingerprint = space_fingerprint(space.registry());
  meta.resilient = options_.resilient;
  meta.fault_fingerprint = fault_options_fingerprint(options_.fault_injection);
  return meta;
}

TuningOutcome TuningSession::run_internal(SearchStrategy& strategy,
                                          SessionJournal* journal,
                                          bool resuming) {
  const Objective& objective =
      options_.objective ? *options_.objective : run_time_objective();
  RunnerOptions runner_options;
  runner_options.repetitions = options_.repetitions;
  runner_options.seed = options_.seed;
  runner_options.per_run_overhead_s = options_.per_run_overhead_s;
  runner_options.racing_factor = options_.racing_factor;
  runner_options.policy = options_.measurement;
  runner_options.objective = options_.objective;
  runner_options.store = options_.store;
  runner_options.store_reads = options_.store_reads;
  BenchmarkRunner runner(*simulator_, workload_, runner_options);
  runner.set_cancellation(options_.cancel);
  const SearchSpace space(FlagHierarchy::hotspot());

  // Cross-session store: register this workload's descriptor (the basis
  // for other sessions' neighbor queries) before anything is measured, so
  // the descriptor record precedes this session's results in the file.
  if (options_.store != nullptr) {
    options_.store->put_workload(space_fingerprint(space.registry()),
                                 workload_);
  }

  // The evaluation chain the tuner searches against: runner, optionally
  // relocated into forked worker processes by the sandbox, optionally a
  // fault injector (hostile-harness experiments), optionally the
  // retry/quarantine/circuit-breaker layer on top. The injector sits
  // *above* the sandbox so injected (modelled) faults stay parent-side and
  // deterministic, while the sandbox handles real process death below it.
  Evaluator* evaluator = &runner;
  std::unique_ptr<SandboxedEvaluator> sandbox;
  if (options_.sandbox) {
    sandbox = std::make_unique<SandboxedEvaluator>(*evaluator, space.registry(),
                                                   options_.sandbox_options);
    sandbox->link_runner(&runner);
    evaluator = sandbox.get();
  }
  std::unique_ptr<FaultInjectingEvaluator> injector;
  if (options_.fault_injection.any()) {
    injector =
        std::make_unique<FaultInjectingEvaluator>(*evaluator, options_.fault_injection);
    evaluator = injector.get();
  }
  std::unique_ptr<ResilientEvaluator> resilient;
  if (options_.resilient) {
    resilient =
        std::make_unique<ResilientEvaluator>(*evaluator, options_.resilience);
    resilient->set_cancellation(options_.cancel);
    evaluator = resilient.get();
  }

  BudgetClock budget(options_.budget);
  auto db = std::make_shared<ResultDb>();

  std::unique_ptr<ThreadPool> pool;
  if (options_.eval_threads > 0) {
    pool = std::make_unique<ThreadPool>(options_.eval_threads);
  }

  // Tracing: one sink pointer threaded through every layer; all emit sites
  // are null-guarded, so a disabled trace costs one branch per site.
  TraceSink* trace = options_.trace;
  runner.set_trace_sink(trace);
  if (sandbox) sandbox->set_trace_sink(trace);
  if (resilient) resilient->set_trace_sink(trace);
  if (trace != nullptr) {
    trace->emit(TraceEvent("session_start")
                    .with("workload", workload_.name)
                    .with("tuner", strategy.name())
                    .with("objective", objective.id())
                    .with("budget_s", options_.budget.as_seconds())
                    .with("repetitions",
                          static_cast<std::int64_t>(options_.repetitions))
                    .with("seed", static_cast<std::int64_t>(options_.seed))
                    .with("eval_threads",
                          static_cast<std::int64_t>(options_.eval_threads))
                    .with("resilient", options_.resilient)
                    .with("adaptive", options_.measurement.adaptive)
                    .with("resumed", resuming));
    if (options_.store != nullptr) {
      const StoreStats store_stats = options_.store->stats();
      trace->emit(TraceEvent("store_open")
                      .with("path", options_.store->path())
                      .with("records", store_stats.records)
                      .with("workloads", store_stats.workloads)
                      .with("read_only", options_.store->read_only()));
    }
  }

  // Durability: pin (fresh journal) or validate (resume) the session
  // metadata before anything is measured. Everything a bit-identical replay
  // depends on is checked here; a mismatch is a structured JournalError,
  // not a silent divergence half a budget later.
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
    if (trace != nullptr) {
      trace->emit(
          TraceEvent("journal_open")
              .with("path", journal->path())
              .with("mode", resuming ? std::string("resume")
                                     : std::string("fresh"))
              .with("records",
                    static_cast<std::int64_t>(journal->committed().size()))
              .with("dropped",
                    static_cast<std::int64_t>(journal->dropped_records())));
    }
  }

  Rng rng(mix64(options_.seed, fnv1a64(strategy.name())));
  db->set_objective(objective.id());
  TuningContext ctx(*evaluator, budget, *db, space, rng, pool.get(), trace);
  ctx.set_objective(objective);
  ctx.set_measurement_policy(options_.measurement);
  ctx.set_journal(journal);
  ctx.set_cancellation(options_.cancel);
  if (resuming) {
    ctx.set_replay(&journal->committed());
    // Seed downstream state the journal's committed measurements determine:
    // the runner's result cache (so a configuration proposed again after
    // the replayed prefix costs a cache hit, exactly as in the
    // uninterrupted run) and the resilience layer's quarantine/breaker
    // bookkeeping. The runner cache can only be seeded when measurements
    // flow straight from the runner (no injector/resilience rewriting
    // them); see DESIGN.md for the divergence caveats.
    for (const JournalEval& rec : journal->committed()) {
      if (!injector && !resilient) runner.seed_cache(rec.to_measurement());
      if (resilient) resilient->replay_outcome(rec.to_measurement());
    }
  }

  // Baseline: the default configuration, charged to the same budget —
  // the paper's harness measures it as its first candidate too.
  ctx.set_phase("default");
  const Configuration defaults(space.registry());
  const std::uint64_t defaults_fp = defaults.fingerprint();
  const bool base_replayed = ctx.replaying();
  TuningContext::MeasuredEval base = base_replayed
                                         ? ctx.replay_next(defaults_fp)
                                         : ctx.measure_only(defaults);
  const double default_ms =
      ctx.commit(defaults, defaults_fp, base, base_replayed);
  if (trace != nullptr) {
    trace->emit(TraceEvent("baseline", budget.spent())
                    .with("objective_ms", default_ms));
  }
  if (base.measurement.valid()) {
    // Abandon candidates 5x slower than the baseline rather than paying
    // their full run time out of the tuning budget. The cut-off is always
    // on wall-clock run time (the baseline's mean repetition time), never
    // the objective scalar: a pause-time or footprint objective must not
    // set a pause- or megabyte-scaled wall-clock limit. For run_time the
    // two are the same double, so the limit is bit-identical.
    runner.set_time_limit(SimTime::millis(
        static_cast<std::int64_t>(base.measurement.summary.mean * 5.0)));
  }

  log_info() << "tuning " << workload_.name << " with " << strategy.name()
             << " (budget " << options_.budget.to_string() << ", default "
             << fmt(default_ms, 0) << ' ' << objective.unit() << ")";
  (void)default_ms;

  // Warm-start transfer: replay prior configurations as a "warm_start"
  // proposal prefix (tuner/warm_start.hpp). On resume the seed list is
  // rebuilt from the journal's own warm_start records — never re-queried
  // from the store, whose contents may have changed since — so the
  // replayed trajectory matches whatever the original session proposed.
  std::vector<Configuration> warm_seeds;
  std::int64_t warm_same = 0;
  std::int64_t warm_neighbors = 0;
  if (resuming && journal != nullptr) {
    for (const JournalEval& rec : journal->committed()) {
      if (rec.phase != "warm_start") continue;
      warm_seeds.push_back(
          parse_command_line(space.registry(), rec.command_line));
    }
  } else if (options_.store != nullptr && options_.warm_start > 0) {
    const std::uint64_t space_fp = space_fingerprint(space.registry());
    const std::uint64_t wl_fp = workload_fingerprint(workload_);
    const std::size_t k = static_cast<std::size_t>(options_.warm_start);
    std::vector<const StoreRecord*> picks =
        options_.store->top_k(space_fp, wl_fp, objective.id(), k);
    warm_same = static_cast<std::int64_t>(picks.size());
    const std::vector<const StoreRecord*> transfer = options_.store->neighbors(
        space_fp, wl_fp, workload_features(workload_), objective.id(), k);
    warm_neighbors = static_cast<std::int64_t>(transfer.size());
    picks.insert(picks.end(), transfer.begin(), transfer.end());
    // The baseline default is already committed; re-seeding it would only
    // buy a duplicate row and a cache-hit charge.
    std::set<std::uint64_t> seen{defaults.fingerprint()};
    for (const StoreRecord* rec : picks) {
      if (!seen.insert(rec->key.config_fingerprint).second) continue;
      try {
        Configuration cfg =
            parse_command_line(space.registry(), rec->command_line);
        if (cfg.fingerprint() != rec->key.config_fingerprint) {
          log_warn() << "store warm-start: stored command line for "
                     << fingerprint_hex(rec->key.config_fingerprint)
                     << " parses to a different configuration; skipped";
          continue;
        }
        warm_seeds.push_back(std::move(cfg));
      } catch (const Error& e) {
        // A seed from an incompatible flag space is a lost optimization,
        // not a session failure.
        log_warn() << "store warm-start: cannot parse stored config: "
                   << e.what();
      }
    }
  }
  const std::int64_t warm_seed_count =
      static_cast<std::int64_t>(warm_seeds.size());
  if (trace != nullptr && (warm_seed_count > 0 || options_.warm_start > 0)) {
    trace->emit(TraceEvent("warm_start", budget.spent())
                    .with("seeds", warm_seed_count)
                    .with("same_workload", warm_same)
                    .with("neighbors", warm_neighbors));
  }
  std::optional<WarmStartStrategy> warm;
  SearchStrategy* active = &strategy;
  if (!warm_seeds.empty()) {
    warm.emplace(strategy, std::move(warm_seeds));
    active = &*warm;
  }

  EvalScheduler scheduler(ctx, SchedulerOptions{options_.inflight});
  scheduler.run(*active);

  if (resuming) {
    if (trace != nullptr) {
      trace->emit(
          TraceEvent("journal_replay", budget.spent())
              .with("replayed", static_cast<std::int64_t>(ctx.replay_cursor()))
              .with("total", static_cast<std::int64_t>(ctx.replay_total())));
    }
    if (ctx.replaying()) {
      log_warn() << "journal " << journal->path() << ": "
                 << (ctx.replay_total() - ctx.replay_cursor())
                 << " committed record(s) were not re-proposed by the "
                    "strategy — wrong journal or changed code?";
    }
  }

  // The search is over: stop the worker pool before the (in-process)
  // validation pass so its exits are accounted to the session, not torn
  // down implicitly at scope exit.
  if (sandbox) sandbox->shutdown();

  // Validation pass: re-measure the incumbent (and the baseline) with fresh
  // seeds and more repetitions. Reporting the *search* minimum would suffer
  // the winner's curse — the minimum over hundreds of noisy measurements is
  // biased low, flattering undirected search.
  RunnerOptions validation_options = runner_options;
  validation_options.seed = mix64(options_.seed, fnv1a64("validation"));
  validation_options.repetitions = std::max(5, options_.repetitions);
  validation_options.racing_factor = 0.0;  // full repetitions when it counts
  validation_options.policy = MeasurementPolicyOptions{};  // no early stops
  validation_options.store = nullptr;  // fresh seeds: never answered (or
                                       // published) by the store
  BenchmarkRunner validator(*simulator_, workload_, validation_options);
  Configuration best_config = ctx.best_config();
  const double search_best_ms = ctx.best_objective();
  const double validated_default =
      validator.measure(defaults).objective(objective);
  double validated_best = validator.measure(best_config).objective(objective);
  bool winner_validated = validated_best < validated_default;
  if (!winner_validated) {
    // The apparent winner does not validate: the honest outcome is that
    // tuning found nothing better than the defaults.
    best_config = defaults;
    validated_best = validated_default;
  }
  if (trace != nullptr) {
    trace->emit(TraceEvent("validation", budget.spent())
                    .with("default_ms", validated_default)
                    .with("best_ms", validated_best)
                    .with("search_best_ms", search_best_ms)
                    .with("accepted", winner_validated));
  }

  // In sandbox mode the parent runner never measures: runs, cache hits,
  // and rep-level fault counters arrive aggregated from worker replies.
  FaultStats fault_stats = runner.stats();
  if (sandbox) fault_stats += sandbox->stats();
  if (injector) fault_stats += injector->stats();
  if (resilient) fault_stats += resilient->stats();

  TuningOutcome outcome{.workload_name = workload_.name,
                        .tuner_name = strategy.name(),
                        .best_config = best_config,
                        .objective_id = objective.id(),
                        .default_ms = validated_default,
                        .best_ms = validated_best,
                        .evaluations = static_cast<std::int64_t>(db->size()),
                        .runs = runner.runs_executed() +
                                (sandbox ? sandbox->runs_executed() : 0),
                        .cache_hits = runner.cache_hits() +
                                      (sandbox ? sandbox->cache_hits() : 0),
                        .store_hits = runner.store_hits() +
                                      (sandbox ? sandbox->store_hits() : 0),
                        .store_appends =
                            runner.store_appends() +
                            (sandbox ? sandbox->store_appends() : 0),
                        .warm_seeds = warm_seed_count,
                        .charged_evaluations = ctx.charged_evaluations(),
                        .budget_spent = budget.spent(),
                        .fault_stats = fault_stats,
                        .db = db,
                        .cancelled = scheduler.cancelled_run()};

  if (journal != nullptr) {
    // A cancelled session is incomplete by design: leave the journal open
    // (no end record) so it can be resumed to run out the budget.
    if (!outcome.cancelled) {
      journal->append_end(outcome.best_config.fingerprint(), outcome.best_ms,
                          outcome.default_ms, outcome.evaluations);
    }
    journal->flush();
    if (trace != nullptr) {
      trace->emit(TraceEvent("journal_flush", budget.spent())
                      .with("records", static_cast<std::int64_t>(
                                           journal->records_written())));
    }
  }

  if (trace != nullptr) {
    trace->metrics().set_gauge("session.default_ms", outcome.default_ms);
    trace->metrics().set_gauge("session.best_ms", outcome.best_ms);
    trace->metrics().set_gauge("session.improvement",
                               outcome.improvement_frac());
    TraceEvent session_end =
        TraceEvent("session_end", budget.spent())
            .with("workload", workload_.name)
            .with("tuner", strategy.name())
            .with("default_ms", outcome.default_ms)
            .with("best_ms", outcome.best_ms)
            .with("improvement", outcome.improvement_frac())
            .with("evaluations", outcome.evaluations)
            .with("runs", outcome.runs)
            .with("cache_hits", outcome.cache_hits)
            .with("budget_spent_s", outcome.budget_spent.as_seconds());
    // Store fields appear only on store-enabled sessions: store-less
    // traces stay byte-identical to what they were before the store.
    if (options_.store != nullptr) {
      session_end.fields.emplace_back("store_hits", outcome.store_hits);
      session_end.fields.emplace_back("store_appends", outcome.store_appends);
      session_end.fields.emplace_back("warm_seeds", outcome.warm_seeds);
      session_end.fields.emplace_back("charged_evaluations",
                                      outcome.charged_evaluations);
    }
    trace->emit(std::move(session_end));
    TraceEvent metrics("metrics", budget.spent());
    for (const auto& [name, value] : trace->metrics().counters()) {
      metrics.fields.emplace_back("c." + name, value);
    }
    for (const auto& [name, value] : trace->metrics().gauges()) {
      metrics.fields.emplace_back("g." + name, value);
    }
    trace->emit(std::move(metrics));
    runner.set_trace_sink(nullptr);
  }

  log_info() << "  best " << fmt(outcome.best_ms, 0) << ' ' << objective.unit()
             << " ("
             << format_percent(outcome.improvement_frac()) << " improvement, "
             << outcome.evaluations << " evals, " << outcome.runs << " runs)";
  if (fault_stats.failures() > 0 || fault_stats.quarantine_hits > 0 ||
      fault_stats.salvaged > 0) {
    log_info() << "  faults: " << fault_stats.to_string();
  }
  if (options_.store != nullptr) {
    log_info() << "  store: " << outcome.store_hits << " hits, "
               << outcome.store_appends << " appended, " << outcome.warm_seeds
               << " warm seeds, " << outcome.charged_evaluations
               << " charged evaluations";
  }
  return outcome;
}

}  // namespace jat
