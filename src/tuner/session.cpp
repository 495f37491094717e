#include "tuner/session.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <span>

#include "flags/parse.hpp"
#include "tuner/scheduler.hpp"
#include "tuner/suite_session.hpp"
#include "tuner/warm_start.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace jat {

// ---- session identity -------------------------------------------------------

JournalMeta journal_meta(const SessionOptions& options, std::string kind,
                         std::string workload, std::string tuner) {
  JournalMeta meta;
  meta.objective =
      options.objective ? options.objective->id() : std::string("run_time");
  meta.version = SessionJournal::version_for_objective(meta.objective);
  meta.kind = std::move(kind);
  meta.workload = std::move(workload);
  meta.tuner = std::move(tuner);
  meta.seed = options.seed;
  meta.budget = options.budget;
  meta.repetitions = options.repetitions;
  meta.inflight = options.inflight;
  meta.eval_threads = options.eval_threads;
  meta.per_run_overhead_s = options.per_run_overhead_s;
  meta.racing_factor = options.racing_factor;
  meta.adaptive = options.measurement.adaptive;
  meta.min_reps = options.measurement.min_reps;
  meta.max_reps = options.measurement.max_reps;
  meta.ci_rel = options.measurement.ci_rel;
  meta.race_p = options.measurement.race_p;
  meta.space_fingerprint = space_fingerprint(FlagRegistry::hotspot());
  meta.resilient = options.resilient;
  meta.fault_fingerprint = fault_options_fingerprint(options.fault_injection);
  return meta;
}

void restore_session_options(const JournalMeta& meta,
                             SessionOptions& options) {
  options.objective =
      meta.objective == "run_time" ? nullptr : make_objective(meta.objective);
  options.seed = meta.seed;
  options.budget = meta.budget;
  options.repetitions = meta.repetitions;
  options.inflight = meta.inflight;
  options.eval_threads = meta.eval_threads;
  options.per_run_overhead_s = meta.per_run_overhead_s;
  options.racing_factor = meta.racing_factor;
  options.measurement.adaptive = meta.adaptive;
  options.measurement.min_reps = meta.min_reps;
  options.measurement.max_reps = meta.max_reps;
  options.measurement.ci_rel = meta.ci_rel;
  options.measurement.race_p = meta.race_p;
  options.resilient = meta.resilient;
}

// ---- the session pipeline ---------------------------------------------------
//
// The paper's tuner runs one loop: measure the defaults, search under a fixed
// budget, re-measure the winner. run_session() is that loop and everything
// around it, for TuningSession and SuiteTuningSession alike; a SessionShape
// carries only what differs between tuning one program and tuning a suite.

namespace {

RunnerOptions search_runner_options(const SessionOptions& options) {
  RunnerOptions runner;
  runner.repetitions = options.repetitions;
  runner.seed = options.seed;
  runner.per_run_overhead_s = options.per_run_overhead_s;
  runner.racing_factor = options.racing_factor;
  runner.policy = options.measurement;
  runner.objective = options.objective;
  runner.store = options.store;
  runner.store_reads = options.store_reads;
  return runner;
}

/// Fresh seeds and at least five full repetitions, never answered (or
/// published) by the store.
RunnerOptions validation_runner_options(const SessionOptions& options) {
  RunnerOptions runner = search_runner_options(options);
  runner.seed = mix64(options.seed, fnv1a64("validation"));
  runner.repetitions = std::max(5, options.repetitions);
  runner.racing_factor = 0.0;                 // full repetitions when it counts
  runner.policy = MeasurementPolicyOptions{};  // no early stops
  runner.store = nullptr;
  return runner;
}

/// Cross-session store: registers the workloads' descriptors (the basis
/// for other sessions' neighbor queries) before the search publishes
/// anything, so they precede this session's results in the file.
void register_workloads(const SessionOptions& options,
                        std::span<const WorkloadSpec> workloads) {
  if (options.store == nullptr) return;
  const std::uint64_t space_fp = space_fingerprint(FlagRegistry::hotspot());
  for (const WorkloadSpec& workload : workloads) {
    options.store->put_workload(space_fp, workload);
  }
}

/// Warm-start seeds drawn from the store, with the trace's split.
struct WarmSeeds {
  std::vector<Configuration> configs;
  std::int64_t same_workload = 0;
  std::int64_t neighbors = 0;

  /// Adds a stored configuration unless it is a repeat or its command line
  /// does not reproduce its fingerprint.
  void add(const SearchSpace& space, const StoreRecord& rec,
           std::set<std::uint64_t>& seen, const char* who) {
    if (!seen.insert(rec.key.config_fingerprint).second) return;
    try {
      Configuration cfg = parse_command_line(space.registry(), rec.command_line);
      if (cfg.fingerprint() != rec.key.config_fingerprint) {
        log_warn() << who << ": stored command line for "
                   << fingerprint_hex(rec.key.config_fingerprint)
                   << " parses to a different configuration; skipped";
        return;
      }
      configs.push_back(std::move(cfg));
    } catch (const Error& e) {
      // A seed from an incompatible flag space is a lost optimization, not
      // a session failure.
      log_warn() << who << ": cannot parse stored config: " << e.what();
    }
  }
};

/// A validated result, in the units the session's objective scores.
struct Validated {
  Configuration best_config;
  double default_ms = 0;
  double best_ms = 0;
  bool accepted = false;  ///< false: the defaults are reported instead
};

/// What a session supplies to run_session().
struct SessionShape {
  /// The bottom of the evaluator stack, with the session's cancellation
  /// token and trace sink attached.
  Evaluator& bottom;
  /// The runner a sandbox forwards the time limit and racing floor to, or
  /// null when the bottom sets its own before any worker forks.
  BenchmarkRunner* linked_runner;
  /// Key of the strategy's random stream.
  std::string rng_key;
  /// What the tuning context scores evaluations with.
  const Objective& objective;
  /// Rebuilds bottom-layer state one journaled evaluation determines.
  std::function<void(const JournalEval&)> seed_resume;
  /// Sees the committed baseline before the search starts.
  std::function<void(const Measurement&)> after_baseline;
  /// Picks warm-start seeds from the store (`seen` holds the defaults).
  std::function<WarmSeeds(const ResultStore&, const SearchSpace&,
                          std::set<std::uint64_t>& seen)>
      pick_warm_seeds;
  /// Re-measures the search winner and the defaults on a clean harness.
  std::function<Validated(const Configuration& best,
                          const Configuration& defaults)>
      validate;
};

/// Runs one session: builds the evaluator stack over the shape's bottom,
/// pins or validates the journal meta (`meta`; its kind and workload are
/// data here), measures the baseline, runs the strategy behind any warm
/// seeds, validates the winner and closes the journal. `journal` is fresh
/// (or null) unless `resuming`.
TuningOutcome run_session(const SessionOptions& options, const JournalMeta& meta,
                          const SessionShape& shape, SearchStrategy& strategy,
                          SessionJournal* journal, bool resuming) {
  const Objective& objective = shape.objective;
  const SearchSpace space(FlagHierarchy::hotspot());

  // The evaluation chain the tuner searches against: the shape's bottom
  // evaluator, optionally relocated into forked worker processes by the
  // sandbox, optionally a fault injector (hostile-harness experiments),
  // optionally the retry/quarantine/circuit-breaker layer on top. The
  // injector sits *above* the sandbox so injected (modelled) faults stay
  // parent-side and deterministic, while the sandbox handles real process
  // death below it.
  Evaluator* evaluator = &shape.bottom;
  std::unique_ptr<SandboxedEvaluator> sandbox;
  if (options.sandbox) {
    sandbox = std::make_unique<SandboxedEvaluator>(*evaluator, space.registry(),
                                                   options.sandbox_options);
    sandbox->link_runner(shape.linked_runner);
    evaluator = sandbox.get();
  }
  std::unique_ptr<FaultInjectingEvaluator> injector;
  if (options.fault_injection.any()) {
    injector = std::make_unique<FaultInjectingEvaluator>(
        *evaluator, options.fault_injection);
    evaluator = injector.get();
  }
  std::unique_ptr<ResilientEvaluator> resilient;
  if (options.resilient) {
    resilient = std::make_unique<ResilientEvaluator>(*evaluator);
    resilient->set_cancellation(options.cancel);
    evaluator = resilient.get();
  }

  BudgetClock budget(options.budget);
  auto db = std::make_shared<ResultDb>();

  std::unique_ptr<ThreadPool> pool;
  if (options.eval_threads > 0) {
    pool = std::make_unique<ThreadPool>(options.eval_threads);
  }

  // Tracing: one sink pointer threaded through every layer; all emit sites
  // are null-guarded, so a disabled trace costs one branch per site.
  TraceSink* trace = options.trace;
  if (sandbox) sandbox->set_trace_sink(trace);
  if (resilient) resilient->set_trace_sink(trace);
  if (trace != nullptr) {
    trace->emit(TraceEvent("session_start")
                    .with("workload", meta.workload)
                    .with("tuner", strategy.name())
                    .with("objective", objective.id())
                    .with("budget_s", options.budget.as_seconds())
                    .with("repetitions",
                          static_cast<std::int64_t>(options.repetitions))
                    .with("seed", static_cast<std::int64_t>(options.seed))
                    .with("eval_threads",
                          static_cast<std::int64_t>(options.eval_threads))
                    .with("resilient", options.resilient)
                    .with("adaptive", options.measurement.adaptive)
                    .with("resumed", resuming));
    if (options.store != nullptr) {
      const StoreStats store_stats = options.store->stats();
      trace->emit(TraceEvent("store_open")
                      .with("path", options.store->path())
                      .with("records", store_stats.records)
                      .with("workloads", store_stats.workloads)
                      .with("read_only", options.store->read_only()));
    }
  }

  // Durability: pin (fresh journal) or validate (resume) the session
  // metadata before anything is measured. Everything a bit-identical replay
  // depends on is checked here; a mismatch is a structured JournalError,
  // not a silent divergence half a budget later.
  if (journal != nullptr) {
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

  Rng rng(mix64(options.seed, fnv1a64(shape.rng_key)));
  db->set_objective(objective.id());
  TuningContext ctx(*evaluator, budget, *db, space, rng, pool.get(), trace);
  ctx.set_objective(objective);
  ctx.set_measurement_policy(options.measurement);
  ctx.set_journal(journal);
  ctx.set_cancellation(options.cancel);
  if (resuming) {
    ctx.set_replay(&journal->committed());
    // Seed downstream state the journal's committed measurements determine:
    // the bottom evaluator's result caches (so a configuration proposed
    // again after the replayed prefix costs a cache hit, exactly as in the
    // uninterrupted run) and the resilience layer's quarantine/breaker
    // bookkeeping. The caches can only be seeded when measurements flow
    // straight from the bottom (no injector/resilience rewriting them);
    // see DESIGN.md for the divergence caveats.
    for (const JournalEval& rec : journal->committed()) {
      if (!injector && !resilient) shape.seed_resume(rec);
      if (resilient) resilient->replay_outcome(rec.to_measurement());
    }
  }

  // Baseline: the default configuration, charged to the same budget —
  // the paper's harness measures it as its first candidate too.
  ctx.set_phase("default");
  const Configuration defaults(space.registry());
  const std::uint64_t defaults_fp = defaults.fingerprint();
  const bool base_replayed = ctx.replaying();
  TuningContext::MeasuredEval base =
      base_replayed ? ctx.replay_next(defaults_fp)
                    : ctx.measure_only(defaults, defaults_fp);
  const double default_ms =
      ctx.commit(defaults, defaults_fp, base, base_replayed);
  if (trace != nullptr) {
    trace->emit(TraceEvent("baseline", budget.spent())
                    .with("objective_ms", default_ms));
  }
  shape.after_baseline(base.measurement);

  log_info() << "tuning " << meta.workload << " with " << strategy.name()
             << " (budget " << options.budget.to_string() << ", default "
             << fmt(default_ms, 0) << ' ' << objective.unit() << ")";

  // Warm-start transfer: replay prior configurations as a "warm_start"
  // proposal prefix (tuner/warm_start.hpp). On resume the seed list is
  // rebuilt from the journal's own warm_start records — never re-queried
  // from the store, whose contents may have changed since — so the
  // replayed trajectory matches whatever the original session proposed.
  WarmSeeds warm_seeds;
  if (resuming) {
    for (const JournalEval& rec : journal->committed()) {
      if (rec.phase != "warm_start") continue;
      warm_seeds.configs.push_back(
          parse_command_line(space.registry(), rec.command_line));
    }
  } else if (options.store != nullptr && options.warm_start > 0) {
    // The baseline default is already committed; re-seeding it would only
    // buy a duplicate row and a cache-hit charge.
    std::set<std::uint64_t> seen{defaults_fp};
    warm_seeds = shape.pick_warm_seeds(*options.store, space, seen);
  }
  const std::int64_t warm_seed_count =
      static_cast<std::int64_t>(warm_seeds.configs.size());
  if (trace != nullptr && (warm_seed_count > 0 || options.warm_start > 0)) {
    trace->emit(TraceEvent("warm_start", budget.spent())
                    .with("seeds", warm_seed_count)
                    .with("same_workload", warm_seeds.same_workload)
                    .with("neighbors", warm_seeds.neighbors));
  }
  std::optional<WarmStartStrategy> warm;
  SearchStrategy* active = &strategy;
  if (!warm_seeds.configs.empty()) {
    warm.emplace(strategy, std::move(warm_seeds.configs));
    active = &*warm;
  }

  EvalScheduler scheduler(ctx, options.inflight);
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
  const double search_best_ms = ctx.best_objective();
  const Validated validated = shape.validate(ctx.best_config(), defaults);
  if (trace != nullptr) {
    trace->emit(TraceEvent("validation", budget.spent())
                    .with("default_ms", validated.default_ms)
                    .with("best_ms", validated.best_ms)
                    .with("search_best_ms", search_best_ms)
                    .with("accepted", validated.accepted));
  }

  // One read at the top of the stack: every layer adds its own runs, cache
  // and store traffic and faults to those of the layers below.
  const EvalCounters counters = evaluator->counters();
  TuningOutcome outcome{.workload_name = meta.workload,
                        .tuner_name = strategy.name(),
                        .best_config = validated.best_config,
                        .objective_id = objective.id(),
                        .default_ms = validated.default_ms,
                        .best_ms = validated.best_ms,
                        .evaluations = static_cast<std::int64_t>(db->size()),
                        .runs = counters.runs,
                        .simulations = counters.simulations,
                        .cache_hits = counters.cache_hits,
                        .store_hits = counters.store_hits,
                        .store_appends = counters.store_appends,
                        .warm_seeds = warm_seed_count,
                        .charged_evaluations = ctx.charged_evaluations(),
                        .budget_spent = budget.spent(),
                        .fault_stats = counters.faults,
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
    TraceEvent session_end =
        TraceEvent("session_end", budget.spent())
            .with("workload", outcome.workload_name)
            .with("tuner", outcome.tuner_name)
            .with("default_ms", outcome.default_ms)
            .with("best_ms", outcome.best_ms)
            .with("improvement", outcome.improvement_frac())
            .with("evaluations", outcome.evaluations)
            .with("runs", outcome.runs)
            .with("cache_hits", outcome.cache_hits)
            .with("budget_spent_s", outcome.budget_spent.as_seconds());
    // Store fields appear only on store-enabled sessions: store-less
    // traces stay byte-identical to what they were before the store.
    if (options.store != nullptr) {
      session_end.fields.emplace_back("store_hits", outcome.store_hits);
      session_end.fields.emplace_back("store_appends", outcome.store_appends);
      session_end.fields.emplace_back("warm_seeds", outcome.warm_seeds);
      session_end.fields.emplace_back("charged_evaluations",
                                      outcome.charged_evaluations);
    }
    trace->emit(std::move(session_end));
  }

  log_info() << "  best " << fmt(outcome.best_ms, 0) << ' ' << objective.unit()
             << " ("
             << format_percent(outcome.improvement_frac()) << " improvement, "
             << outcome.evaluations << " evals, " << outcome.runs << " runs)";
  const FaultStats& fault_stats = outcome.fault_stats;
  if (fault_stats.failures() > 0 || fault_stats.quarantine_hits > 0 ||
      fault_stats.salvaged > 0) {
    log_info() << "  faults: " << fault_stats.to_string();
  }
  if (options.store != nullptr) {
    log_info() << "  store: " << outcome.store_hits << " hits, "
               << outcome.store_appends << " appended, " << outcome.warm_seeds
               << " warm seeds, " << outcome.charged_evaluations
               << " charged evaluations";
  }
  return outcome;
}

}  // namespace

// ---- one workload -----------------------------------------------------------

TuningSession::TuningSession(const JvmSimulator& simulator, WorkloadSpec workload,
                             SessionOptions options)
    : simulator_(&simulator), workload_(std::move(workload)), options_(options) {}

TuningOutcome TuningSession::run(SearchStrategy& strategy) {
  return run_internal(strategy, options_.journal, /*resuming=*/false);
}

TuningOutcome TuningSession::resume(SessionJournal& journal,
                                    SearchStrategy& strategy) {
  return run_internal(strategy, &journal, /*resuming=*/true);
}

JournalMeta TuningSession::journal_meta(const std::string& tuner_name) const {
  return jat::journal_meta(options_, "single", workload_.name, tuner_name);
}

TuningOutcome TuningSession::run_internal(SearchStrategy& strategy,
                                          SessionJournal* journal,
                                          bool resuming) {
  BenchmarkRunner runner(*simulator_, workload_, search_runner_options(options_));
  runner.set_cancellation(options_.cancel);
  runner.set_trace_sink(options_.trace);
  register_workloads(options_, {&workload_, 1});
  const Objective& objective =
      options_.objective ? *options_.objective : run_time_objective();

  const SessionShape shape{
      .bottom = runner,
      .linked_runner = &runner,
      .rng_key = strategy.name(),
      .objective = objective,
      .seed_resume =
          [&](const JournalEval& rec) {
            runner.seed_cache(rec.to_measurement());
          },
      .after_baseline =
          [&](const Measurement& baseline) {
            if (!baseline.valid()) return;
            // Abandon candidates 5x slower than the baseline rather than
            // paying their full run time out of the tuning budget. The
            // cut-off is always on wall-clock run time (the baseline's mean
            // repetition time), never the objective scalar: a pause-time or
            // footprint objective must not set a pause- or megabyte-scaled
            // wall-clock limit. For run_time the two are the same double, so
            // the limit is bit-identical.
            runner.set_time_limit(SimTime::millis(
                static_cast<std::int64_t>(baseline.summary.mean * 5.0)));
          },
      // The best prior configurations for this workload, plus as many
      // structural neighbours' from other workloads.
      .pick_warm_seeds =
          [&](const ResultStore& store, const SearchSpace& space,
              std::set<std::uint64_t>& seen) {
            const std::uint64_t space_fp = space_fingerprint(space.registry());
            const std::uint64_t wl_fp = workload_fingerprint(workload_);
            const std::size_t k = static_cast<std::size_t>(options_.warm_start);
            WarmSeeds seeds;
            const auto same = store.top_k(space_fp, wl_fp, objective.id(), k);
            const auto transfer =
                store.neighbors(space_fp, wl_fp, workload_features(workload_),
                                objective.id(), k);
            seeds.same_workload = static_cast<std::int64_t>(same.size());
            seeds.neighbors = static_cast<std::int64_t>(transfer.size());
            for (const auto* picks : {&same, &transfer}) {
              for (const StoreRecord* rec : *picks) {
                seeds.add(space, *rec, seen, "store warm-start");
              }
            }
            return seeds;
          },
      .validate =
          [&](const Configuration& best, const Configuration& defaults) {
            BenchmarkRunner validator(*simulator_, workload_,
                                      validation_runner_options(options_));
            const double default_ms =
                validator.measure(defaults).objective(objective);
            const double best_ms = validator.measure(best).objective(objective);
            // A winner that does not validate is no winner: the honest
            // outcome is that tuning found nothing better than the defaults.
            return best_ms < default_ms
                       ? Validated{best, default_ms, best_ms, true}
                       : Validated{defaults, default_ms, default_ms, false};
          }};
  return run_session(options_, journal_meta(strategy.name()), shape, strategy,
                     journal, resuming);
}

// ---- a whole suite ----------------------------------------------------------

SuiteTuningSession::SuiteTuningSession(const JvmSimulator& simulator,
                                       std::vector<WorkloadSpec> workloads,
                                       SessionOptions options)
    : simulator_(&simulator), workloads_(std::move(workloads)), options_(options) {
  if (options_.racing_factor > 0.0) {
    throw TunerError(
        "SuiteTuningSession: racing_factor is not supported — suite members "
        "never race (use the adaptive measurement policy instead)");
  }
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
  std::string members;
  for (const WorkloadSpec& workload : workloads_) {
    if (!members.empty()) members += ',';
    members += workload.name;
  }
  return jat::journal_meta(options_, "suite", std::move(members), tuner_name);
}

SuiteOutcome SuiteTuningSession::run_internal(SearchStrategy& strategy,
                                              SessionJournal* journal,
                                              bool resuming) {
  // Members converge individually under the policy (CI stop only — no
  // incumbent hints cross the suite boundary; see SuiteRunner::measure) and
  // are scored with the session objective. The store tier lives in the
  // members too: each workload's measurements are answered from (and
  // published to) its own store namespace, so a suite session shares
  // results with the single-workload sessions that tuned its members.
  SuiteRunner runner(*simulator_, workloads_, search_runner_options(options_));
  runner.set_cancellation(options_.cancel);
  register_workloads(options_, workloads_);

  double geomean_ratio = 1.0;
  std::vector<double> improvements;
  std::vector<std::string> names;
  const SessionShape shape{
      .bottom = runner,
      // Members set their time limits at construction, before any fork.
      .linked_runner = nullptr,
      .rng_key = "suite:" + strategy.name(),
      // The suite measurement is already one scalar score (one
      // "repetition" whose value *is* the objective): run_time semantics.
      .objective = run_time_objective(),
      // Member times are not journaled, but repetition seeds depend only
      // on the configuration: re-measuring each journaled configuration
      // refills the member caches with exactly what they held.
      .seed_resume =
          [&](const JournalEval& rec) {
            runner.reseed_cache(
                parse_command_line(FlagRegistry::hotspot(), rec.command_line));
          },
      .after_baseline = [](const Measurement&) {},
      // Round-robin over the members' store namespaces (rank 0 of every
      // member, then rank 1, ...) up to warm_start seeds, so no single
      // workload's history dominates the seed set.
      .pick_warm_seeds =
          [&](const ResultStore& store, const SearchSpace& space,
              std::set<std::uint64_t>& seen) {
            const std::uint64_t space_fp = space_fingerprint(space.registry());
            const std::size_t k = static_cast<std::size_t>(options_.warm_start);
            WarmSeeds seeds;
            for (std::size_t rank = 0; rank < k && seeds.configs.size() < k;
                 ++rank) {
              for (const WorkloadSpec& workload : workloads_) {
                if (seeds.configs.size() >= k) break;
                const auto records =
                    store.top_k(space_fp, workload_fingerprint(workload),
                                options_.objective ? options_.objective->id()
                                                   : "run_time",
                                rank + 1);
                if (records.size() > rank) {
                  seeds.add(space, *records[rank], seen, "suite warm-start");
                }
              }
            }
            seeds.same_workload = static_cast<std::int64_t>(seeds.configs.size());
            return seeds;
          },
      // The general configuration must run everywhere and beat the defaults
      // on the geometric mean; otherwise the defaults are reported.
      .validate =
          [&](const Configuration& best, const Configuration& defaults) {
            SuiteRunner validator(*simulator_, workloads_,
                                  validation_runner_options(options_));
            const auto tuned_each = validator.measure_each(best, nullptr);
            double log_sum = 0;
            bool any_crash = false;
            for (std::size_t i = 0; i < tuned_each.size(); ++i) {
              names.push_back(validator.workload(i).name);
              const double base = validator.default_times_ms()[i];
              if (!std::isfinite(tuned_each[i])) {
                any_crash = true;
                improvements.push_back(0.0);
                continue;
              }
              improvements.push_back(1.0 - tuned_each[i] / base);
              log_sum += std::log(tuned_each[i] / base);
            }
            if (!any_crash) {
              geomean_ratio =
                  std::exp(log_sum / static_cast<double>(tuned_each.size()));
            }
            if (any_crash || geomean_ratio > 1.0) {
              geomean_ratio = 1.0;
              std::fill(improvements.begin(), improvements.end(), 0.0);
              return Validated{defaults, 1000.0, 1000.0, false};
            }
            return Validated{best, 1000.0, geomean_ratio * 1000.0, true};
          }};
  TuningOutcome outcome = run_session(options_, journal_meta(strategy.name()),
                                      shape, strategy, journal, resuming);
  log_info() << "suite tuning with " << strategy.name()
             << ": geomean improvement " << format_percent(1.0 - geomean_ratio)
             << " over " << workloads_.size() << " workloads";
  return SuiteOutcome{.tuner_name = outcome.tuner_name,
                      .best_config = std::move(outcome.best_config),
                      .geomean_ratio = geomean_ratio,
                      .per_workload_improvement = std::move(improvements),
                      .workload_names = std::move(names),
                      .evaluations = outcome.evaluations,
                      .simulations = outcome.simulations,
                      .store_hits = outcome.store_hits,
                      .store_appends = outcome.store_appends,
                      .warm_seeds = outcome.warm_seeds,
                      .charged_evaluations = outcome.charged_evaluations,
                      .budget_spent = outcome.budget_spent,
                      .db = std::move(outcome.db),
                      .cancelled = outcome.cancelled};
}

}  // namespace jat
