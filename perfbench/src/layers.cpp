// The traced run: per-layer attribution of session wall time.
//
// The campaign runs once plain (no decorator) and once traced. In the
// traced pass the decorator records a span per ask()/tell() call, and the
// benchmark times ResultStore::open around the session's own store open.
// Everything below the strategy is then measured by replaying the
// session's committed evaluations, in commit order, through each layer's
// public functions: JvmSimulator::run, decode_params, parse_command_line,
// BenchmarkRunner::measure, SandboxedEvaluator::measure, SessionJournal::
// append, ResultStore lookup/put/top_k/neighbors, SuiteRunner::measure.
// Each replayed call is a span under a per-session "replay" span, and the
// layer times are reconciled against the traced session wall time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <unordered_map>

#include "bench.hpp"
#include "flags/hierarchy.hpp"
#include "flags/parse.hpp"
#include "flags/validate.hpp"
#include "harness/journal.hpp"
#include "harness/sandbox.hpp"
#include "harness/store.hpp"
#include "jvmsim/params.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "tuner/suite_session.hpp"

namespace perfbench {

using namespace jat;

namespace {

/// Per-layer samples and totals, summed over the traced sessions.
struct Layers {
  double wall_s = 0;
  double cpu_s = 0;
  double plain_wall_s = 0;
  std::int64_t eval_threads = 0;
  // jvmsim / flags
  std::int64_t runs = 0;  // from the outcomes (suite: the replay count)
  std::int64_t replayed_runs = 0;
  std::vector<double> run_us, decode_us, parse_us;
  double run_s = 0, decode_s = 0, fatal_s = 0, parse_s = 0;
  double parse_in_session_s = 0;  // parses the session itself performs
  // Flag work the session's commit path does on the control thread per
  // evaluation: two fingerprints (scheduler, result log) and one rendering.
  std::vector<double> fingerprint_us;
  double commit_flags_s = 0;
  // runner
  std::vector<double> measure_us, hit_us;
  double measure_s = 0;
  std::int64_t evaluations = 0, charged = 0, cache_hits = 0, repeats = 0;
  // sandbox
  std::vector<double> roundtrip_us, spawn_ms;
  double roundtrip_s = 0;
  std::int64_t respawns = 0;
  // journal
  std::vector<double> journal_us;
  double journal_s = 0;
  std::int64_t fsyncs = 0;
  // store
  std::vector<double> open_ms, records_at_open, lookup_us, append_us, warm_query_ms;
  double store_s = 0;
  std::int64_t lookups = 0, lookup_hits = 0, store_appends = 0;
  // tuner
  double ask_s = 0, tell_s = 0;
  std::int64_t ask_calls = 0, proposals = 0, inflight_sum = 0;
  std::vector<double> queue_wait_us;
  double service_s = 0;
  std::vector<double> validate_ms;
  double validate_s = 0;
  // suite
  std::vector<double> suite_us;
  double suite_s = 0, suite_setup_s = 0;
};

/// Times one call and records it as a child span of `parent`.
template <typename F>
std::int64_t timed(SpanLog& spans, const char* name, int parent, int session,
                   F&& call) {
  const std::int64_t start = now_ns();
  call();
  const std::int64_t end = now_ns();
  spans.add(name, start, end, parent, session);
  return end - start;
}

RunnerOptions runner_options_for(const SessionOptions& options) {
  RunnerOptions ro;
  ro.repetitions = options.repetitions;
  ro.seed = options.seed;
  ro.per_run_overhead_s = options.per_run_overhead_s;
  ro.racing_factor = options.racing_factor;
  ro.policy = options.measurement;
  ro.objective = options.objective;
  ro.store_reads = options.store_reads;
  return ro;
}

RunnerOptions validation_options_for(const SessionOptions& options) {
  RunnerOptions vo = runner_options_for(options);
  vo.seed = mix64(options.seed, fnv1a64("validation"));
  vo.repetitions = std::max(5, options.repetitions);
  vo.racing_factor = 0.0;
  vo.policy = MeasurementPolicyOptions{};
  return vo;
}

/// Replays one simulator run as the runner performs it: the start check and
/// decode (flags), then the simulation (jvmsim). Returns the run result.
RunResult replay_run(const JvmSimulator& simulator, const Configuration& config,
                     const WorkloadSpec& workload, std::uint64_t seed,
                     SpanLog& spans, int parent, int session, Layers& layers) {
  RunResult result;
  std::string fatal;
  layers.fatal_s += ns_to_s(timed(spans, "flags.validate", parent, session,
                                  [&] { fatal = first_fatal(config); }));
  ++layers.replayed_runs;
  if (!fatal.empty()) {
    result.crashed = true;
    return result;
  }
  JvmParams params;
  const std::int64_t decode = timed(spans, "flags.decode", parent, session,
                                    [&] { params = decode_params(config); });
  layers.decode_us.push_back(ns_to_us(decode));
  layers.decode_s += ns_to_s(decode);
  const std::int64_t run = timed(spans, "jvmsim.run", parent, session, [&] {
    result = simulator.run(params, workload, seed);
  });
  layers.run_us.push_back(ns_to_us(run));
  layers.run_s += ns_to_s(run);
  return result;
}

/// Adaptive-policy hints for the replay: the best valid measurement so far
/// stands in for the dispatch-time incumbent snapshot.
EvalHints hints_for(const SessionOptions& options, const Measurement* incumbent,
                    bool repeat) {
  EvalHints hints;
  hints.top_up = repeat;
  if (options.measurement.adaptive && incumbent != nullptr) {
    RunningStat stat;
    for (double t : incumbent->times_ms) stat.add(t);
    hints.incumbent.count = stat.count();
    hints.incumbent.mean = stat.mean();
    hints.incumbent.m2 = stat.variance() * static_cast<double>(stat.count() - 1);
  }
  return hints;
}

struct Row {
  EvalRecord record;
  Configuration config;
};

std::vector<Row> parse_rows(const SessionRun& run, SpanLog& spans, int parent,
                            Layers& layers) {
  const FlagRegistry& registry = FlagRegistry::hotspot();
  std::vector<Row> rows;
  for (EvalRecord& record : run.db->all()) {
    Configuration config(registry);
    const std::int64_t ns =
        timed(spans, "flags.parse", parent, static_cast<int>(run.index),
              [&] { config = parse_command_line(registry, record.command_line); });
    layers.parse_us.push_back(ns_to_us(ns));
    layers.parse_s += ns_to_s(ns);
    const std::int64_t fp = timed(spans, "flags.fingerprint", parent,
                                  static_cast<int>(run.index),
                                  [&] { (void)config.fingerprint(); });
    const std::int64_t render = timed(spans, "flags.render", parent,
                                      static_cast<int>(run.index),
                                      [&] { (void)config.render_command_line(); });
    layers.fingerprint_us.push_back(ns_to_us(fp));
    layers.commit_flags_s += ns_to_s(2 * fp + render);
    rows.push_back(Row{std::move(record), std::move(config)});
  }
  return rows;
}

/// Replays one single-workload session through every layer it used.
void replay_single(Campaign& campaign, const SessionRun& run,
                   const fs::path& snapshot, SpanLog& spans, Layers& layers) {
  const Arm arm = campaign.arm().arm;
  const int session = static_cast<int>(run.index);
  const int parent = spans.open("replay", -1, session);
  const SessionOptions& options = run.options;
  const WorkloadSpec& workload = campaign.members()[run.index];
  const JvmSimulator& simulator = campaign.simulator();
  const double parse_before_s = layers.parse_s;
  const std::vector<Row> rows = parse_rows(run, spans, parent, layers);

  // Parses the session performs itself: every sandbox request is re-parsed
  // in its worker, and every warm-start seed is parsed from the store.
  if (arm == Arm::kDacapoSandboxed) {
    layers.parse_in_session_s += layers.parse_s - parse_before_s;
  } else if (arm == Arm::kDacapoWarm) {
    layers.parse_in_session_s += quantile(layers.parse_us, 0.5) / 1e6 *
                                 static_cast<double>(run.warm_seeds);
  }

  // The store as this session found it (dacapo-warm only).
  std::shared_ptr<ResultStore> start_store;
  const std::uint64_t space_fp = space_fingerprint(FlagRegistry::hotspot());
  const std::uint64_t workload_fp = workload_fingerprint(workload);
  if (arm == Arm::kDacapoWarm) {
    start_store = ResultStore::open(snapshot.string(), {.read_only = true});
    const std::int64_t query = timed(spans, "store.warm_query", parent, session, [&] {
      start_store->top_k(space_fp, workload_fp, "run_time", 5);
      start_store->neighbors(space_fp, workload_fp, workload_features(workload),
                             "run_time", 5);
    });
    layers.warm_query_ms.push_back(static_cast<double>(query) / 1e6);
    layers.store_s += ns_to_s(query);
  }

  // jvmsim + flags: every run the runner launched, at its exact repetition
  // seed. First occurrences run their repetitions; repeats are cache hits
  // unless they top up a raced-out measurement.
  std::unordered_map<std::uint64_t, int> reps_seen;
  std::set<std::uint64_t> store_answered;
  for (const Row& row : rows) {
    const std::uint64_t fp = row.record.fingerprint;
    const auto it = reps_seen.find(fp);
    int first_rep = 0;
    int last_rep = row.record.reps;
    if (row.record.fault == FaultClass::kDeterministic ||
        row.record.fault == FaultClass::kTimeout) {
      ++last_rep;
    }
    if (it == reps_seen.end()) {
      if (start_store != nullptr) {
        const StoreRecord* hit = nullptr;
        const std::int64_t ns = timed(spans, "store.lookup", parent, session, [&] {
          hit = start_store->lookup(StoreKey{space_fp, workload_fp, fp, "run_time"});
        });
        layers.lookup_us.push_back(ns_to_us(ns));
        layers.store_s += ns_to_s(ns);
        ++layers.lookups;
        if (hit != nullptr) {
          ++layers.lookup_hits;
          store_answered.insert(fp);
          reps_seen[fp] = row.record.reps;
          continue;
        }
      }
    } else {
      ++layers.repeats;
      if (row.record.reps <= it->second) continue;
      first_rep = it->second;
    }
    reps_seen[fp] = row.record.reps;
    for (int rep = first_rep; rep < last_rep; ++rep) {
      replay_run(simulator, row.config, workload,
                 mix64(options.seed, mix64(fp, static_cast<std::uint64_t>(rep))),
                 spans, parent, session, layers);
    }
  }

  // Runner (and, for the sandboxed arm, the sandbox): measure() in commit
  // order through fresh runners with the session's options, time limit and
  // budget. The in-process runner is the sandbox's baseline.
  RunnerOptions ro = runner_options_for(options);
  ro.store = start_store;
  BenchmarkRunner runner(simulator, workload, ro);
  BudgetClock budget(options.budget);
  std::unique_ptr<BenchmarkRunner> sandbox_runner;
  std::unique_ptr<SandboxedEvaluator> sandbox;
  std::unique_ptr<BudgetClock> sandbox_budget;
  if (arm == Arm::kDacapoSandboxed) {
    sandbox_runner = std::make_unique<BenchmarkRunner>(simulator, workload, ro);
    sandbox = std::make_unique<SandboxedEvaluator>(
        *sandbox_runner, FlagRegistry::hotspot(), options.sandbox_options);
    sandbox->link_runner(sandbox_runner.get());
    sandbox_budget = std::make_unique<BudgetClock>(options.budget);
  }
  std::vector<Measurement> measured;
  std::vector<double> service_us;
  std::optional<Measurement> incumbent;
  std::set<std::uint64_t> seen;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& row = rows[k];
    const EvalHints hints = hints_for(options, incumbent ? &*incumbent : nullptr,
                                      seen.count(row.record.fingerprint) > 0);
    const std::int64_t hits_before = runner.cache_hits();
    Measurement m;
    const std::int64_t ns = timed(spans, "runner.measure", parent, session, [&] {
      m = runner.measure(row.config, &budget, hints);
    });
    layers.measure_us.push_back(ns_to_us(ns));
    layers.measure_s += ns_to_s(ns);
    if (runner.cache_hits() > hits_before) layers.hit_us.push_back(ns_to_us(ns));
    double service = ns_to_us(ns);
    if (sandbox != nullptr) {
      const std::int64_t sns = timed(spans, "sandbox.measure", parent, session, [&] {
        sandbox->measure(row.config, sandbox_budget.get(), hints);
      });
      const double overhead_us = ns_to_us(sns - ns);
      if (k == 0) {
        layers.spawn_ms.push_back(overhead_us / 1e3);
      } else {
        layers.roundtrip_us.push_back(overhead_us);
        layers.roundtrip_s += overhead_us / 1e6;
      }
      service = ns_to_us(sns);
    }
    service_us.push_back(service);
    if (k == 0 && m.valid()) {
      const SimTime limit =
          SimTime::millis(static_cast<std::int64_t>(m.summary.mean * 5.0));
      runner.set_time_limit(limit);
      if (sandbox_runner) sandbox_runner->set_time_limit(limit);
    }
    seen.insert(row.record.fingerprint);
    measured.push_back(m);
    if (m.valid() && (!incumbent || m.objective() < incumbent->objective())) {
      incumbent = m;
    }
  }
  if (sandbox) sandbox->shutdown();
  // Service time per committed evaluation, matched to the decorator's
  // latency samples (which start after the baseline and any warm seeds).
  const std::size_t offset = 1 + static_cast<std::size_t>(run.warm_seeds);
  for (std::size_t j = 0; j < run.timing.latency_us.size() && offset + j < rows.size(); ++j) {
    layers.queue_wait_us.push_back(run.timing.latency_us[j] - service_us[offset + j]);
  }
  layers.service_s += sum_of(service_us) / 1e6;

  // Journal: the session's own committed records, re-encoded and appended
  // to a fresh journal with the default sync policy.
  if (!run.journal_path.empty()) {
    const SessionJournal source = SessionJournal::resume(run.journal_path);
    const fs::path replay_path = campaign.workdir() / "replay-journal.jsonl";
    {
      SessionJournal journal = SessionJournal::create(replay_path.string());
      journal.write_meta(source.meta());
      const FlagRegistry& registry = FlagRegistry::hotspot();
      for (const JournalEval& rec : source.committed()) {
        const Configuration config = parse_command_line(registry, rec.command_line);
        const Measurement m = rec.to_measurement();
        const std::int64_t ns = timed(spans, "journal.append", parent, session, [&] {
          journal.append(make_journal_eval(rec.seq, config, m, rec.cost,
                                           rec.budget_spent, rec.phase));
        });
        layers.journal_us.push_back(ns_to_us(ns));
        layers.journal_s += ns_to_s(ns);
      }
      const std::int64_t ns = timed(spans, "journal.append", parent, session, [&] {
        journal.append_end(run.best_fingerprint, run.best_ms, run.default_ms,
                           run.evaluations);
      });
      layers.journal_s += ns_to_s(ns);
      // Meta and end records always sync; evaluations every 8th append.
      layers.fsyncs += 2 + static_cast<std::int64_t>(source.committed().size()) / 8;
    }
    fs::remove(replay_path);
  }

  // Store appends: every complete, valid measurement the session published
  // (first occurrences the store did not answer), put into a writable copy
  // of the store as the session found it.
  if (start_store != nullptr) {
    const auto store = ResultStore::open(snapshot.string());
    std::set<std::uint64_t> published;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const std::uint64_t fp = rows[k].record.fingerprint;
      const Measurement& m = measured[k];
      if (store_answered.count(fp) > 0 || !published.insert(fp).second) continue;
      if (!m.valid() || (m.stop != StopReason::kFull && m.stop != StopReason::kConverged)) {
        continue;
      }
      StoreRecord record;
      record.key = StoreKey{space_fp, workload_fp, fp, "run_time"};
      record.workload = workload.name;
      record.command_line = rows[k].config.render_command_line();
      record.objective_value = m.objective();
      record.times_ms = m.times_ms;
      record.rep_metrics = m.rep_metrics;
      record.stop = m.stop;
      record.failed_reps = m.failed_reps;
      record.seed = options.seed;
      const std::int64_t ns = timed(spans, "store.put", parent, session,
                                    [&] { store->put(std::move(record)); });
      layers.append_us.push_back(ns_to_us(ns));
      layers.store_s += ns_to_s(ns);
    }
  }

  // Validation: a fresh runner at the validation seed measuring the
  // default and the reported best.
  const FlagRegistry& registry = FlagRegistry::hotspot();
  const Configuration best = parse_command_line(registry, run.best_command_line);
  const std::int64_t vns = timed(spans, "session.validate", parent, session, [&] {
    BenchmarkRunner validator(simulator, workload, validation_options_for(options));
    validator.measure(Configuration(registry));
    validator.measure(best);
  });
  layers.validate_ms.push_back(static_cast<double>(vns) / 1e6);
  layers.validate_s += ns_to_s(vns);
  spans.close(parent);
}

/// Replays the suite session: SuiteRunner::measure per evaluation, and the
/// member runs its runners launched.
void replay_suite(Campaign& campaign, const SessionRun& run, SpanLog& spans,
                  Layers& layers) {
  const int session = static_cast<int>(run.index);
  const int parent = spans.open("replay", -1, session);
  const SessionOptions& options = run.options;
  const JvmSimulator& simulator = campaign.simulator();
  const std::vector<WorkloadSpec>& members = campaign.members();
  const std::vector<Row> rows = parse_rows(run, spans, parent, layers);
  const RunnerOptions ro = runner_options_for(options);

  std::unique_ptr<SuiteRunner> suite;
  layers.suite_setup_s += ns_to_s(timed(spans, "suite.setup", parent, session, [&] {
    suite = std::make_unique<SuiteRunner>(simulator, members, ro);
  }));
  BudgetClock budget(options.budget);
  std::vector<double> service_us;
  for (const Row& row : rows) {
    const std::int64_t ns = timed(spans, "suite.measure", parent, session,
                                  [&] { suite->measure(row.config, &budget); });
    layers.suite_us.push_back(ns_to_us(ns));
    layers.suite_s += ns_to_s(ns);
    service_us.push_back(ns_to_us(ns));
  }
  const std::size_t offset = 1 + static_cast<std::size_t>(run.warm_seeds);
  for (std::size_t j = 0; j < run.timing.latency_us.size() && offset + j < rows.size(); ++j) {
    layers.queue_wait_us.push_back(run.timing.latency_us[j] - service_us[offset + j]);
  }
  layers.service_s += sum_of(service_us) / 1e6;

  // Member runs: defaults first (they set each member's time limit), then
  // every new configuration on every member, fail-fast.
  const Configuration defaults(FlagRegistry::hotspot());
  std::vector<SimTime> limits;
  for (const WorkloadSpec& member : members) {
    std::vector<double> times;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const RunResult r = replay_run(
          simulator, defaults, member,
          mix64(options.seed, mix64(defaults.fingerprint(), static_cast<std::uint64_t>(rep))),
          spans, parent, session, layers);
      if (!r.crashed) times.push_back(r.total_time.as_millis());
    }
    limits.push_back(SimTime::millis(
        static_cast<std::int64_t>(summarize(times).mean * 5.0)));
  }
  std::set<std::uint64_t> seen{defaults.fingerprint()};
  for (const Row& row : rows) {
    if (!seen.insert(row.record.fingerprint).second) {
      ++layers.repeats;
      continue;
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (int rep = 0; rep < options.repetitions; ++rep) {
        const RunResult r = replay_run(
            simulator, row.config, members[i],
            mix64(options.seed,
                  mix64(row.record.fingerprint, static_cast<std::uint64_t>(rep))),
            spans, parent, session, layers);
        if (r.crashed || r.total_time > limits[i]) break;
      }
    }
  }

  const FlagRegistry& registry = FlagRegistry::hotspot();
  const Configuration best = parse_command_line(registry, run.best_command_line);
  const std::int64_t vns = timed(spans, "session.validate", parent, session, [&] {
    SuiteRunner validator(simulator, members, validation_options_for(options));
    validator.measure_each(best, nullptr);
  });
  layers.validate_ms.push_back(static_cast<double>(vns) / 1e6);
  layers.validate_s += ns_to_s(vns);
  spans.close(parent);
}

std::string fmt_s(double seconds, double wall) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%9.4f s %6.1f%%", seconds,
                wall > 0 ? 100.0 * seconds / wall : 0.0);
  return buf;
}

}  // namespace

LayerReport run_traced(Campaign& campaign, CheckResult& checks,
                       std::int64_t& attempted, std::int64_t& failed) {
  const Arm arm = campaign.arm().arm;
  LayerReport report;
  Layers layers;
  layers.eval_threads = static_cast<std::int64_t>(campaign.arm().eval_threads);

  // Plain passes (no decorator) before and after the traced one: the first
  // is the reference for transparency, and their mean wall time the
  // reference for the tracing overhead, so a first-pass warm-up cost does
  // not count against either side.
  const auto plain_pass = [&] {
    campaign.begin_pass(0);
    std::vector<SessionRun> runs;
    for (std::size_t i = 0; i < campaign.size(); ++i) {
      runs.push_back(campaign.run_session(i, /*decorated=*/false));
    }
    return runs;
  };
  std::vector<SessionRun> plain = plain_pass();

  // Traced pass, sessions back to back as in the plain pass; the replays
  // run afterwards so they cannot disturb the traced wall times. The warm
  // arm keeps a copy of the store as each session found it.
  campaign.begin_pass(0);
  SpanLog spans;
  const auto snapshot = [&](std::size_t i) {
    return campaign.workdir() / ("snapshot-" + std::to_string(i));
  };
  std::vector<SessionRun> traced;
  for (std::size_t i = 0; i < campaign.size(); ++i) {
    if (arm == Arm::kDacapoWarm) {
      fs::create_directories(snapshot(i));
      fs::copy_file(campaign.store_dir() / "store.jsonl", snapshot(i) / "store.jsonl",
                    fs::copy_options::overwrite_existing);
    }
    traced.push_back(campaign.run_session(i, /*decorated=*/true, &spans));
  }
  if (arm == Arm::kDacapoWarm) check_store(campaign, checks);
  const std::vector<SessionRun> plain_after = plain_pass();

  std::int64_t transparent = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const SessionRun& run = traced[i];
    const std::size_t before = checks.failures.size();
    check_session(campaign, run, checks);
    if (same_rows(plain[i], run, campaign.arm().eval_threads == 0)) {
      ++transparent;
    } else {
      checks.fail(run.program + ": traced session logged different rows than the plain one");
    }
    attempted += run.evaluations;
    if (checks.failures.size() > before) failed += std::max<std::int64_t>(1, run.evaluations);
    if (!run.error.empty() || run.db == nullptr) continue;

    layers.wall_s += run.wall_s;
    layers.cpu_s += run.cpu_s;
    layers.plain_wall_s += (plain[i].wall_s + plain_after[i].wall_s) / 2;
    layers.evaluations += run.evaluations;
    layers.charged += run.charged_evaluations;
    layers.cache_hits += run.cache_hits;
    layers.runs += run.runs;
    layers.respawns += run.faults.crashes + run.faults.transient;
    layers.store_appends += run.store_appends;
    layers.ask_s += ns_to_s(run.timing.ask_ns);
    layers.tell_s += ns_to_s(run.timing.tell_ns);
    layers.ask_calls += run.timing.ask_calls;
    layers.proposals += run.timing.proposals;
    layers.inflight_sum += run.timing.inflight_sum;
    if (arm == Arm::kDacapoWarm) {
      layers.open_ms.push_back(run.store_open_ms);
      layers.records_at_open.push_back(static_cast<double>(run.records_at_open));
      layers.store_s += run.store_open_ms / 1e3;
    }
    if (arm == Arm::kSpecSuite) {
      replay_suite(campaign, run, spans, layers);
    } else {
      replay_single(campaign, run, snapshot(i), spans, layers);
    }
    if (arm == Arm::kDacapoWarm) fs::remove_all(snapshot(i));
  }
  if (arm == Arm::kSpecSuite) layers.runs = layers.replayed_runs;
  // The span log outlives the run's work directory, beside the build.
  const fs::path span_path =
      fs::path(".bench_build") / ("perfbench-spans-" + std::string(campaign.arm().name) + ".jsonl");
  const bool spans_written = spans.write_jsonl(span_path);

  // ---- reconciliation against session wall time -----------------------------
  // Work the control thread does itself counts in full. Evaluation service
  // (simulator, flags, runner, sandbox, suite) runs on the pool when the arm
  // has one, overlapped as far as the in-flight window allows, so it counts
  // divided by the measured parallelism: CPU seconds (process plus sandbox
  // workers) per wall second of the sessions, between 1 and the pool's
  // thread count (1 for serial arms).
  const double threads = static_cast<double>(std::max<std::int64_t>(1, layers.eval_threads));
  const double inflight_avg =
      layers.ask_calls > 0 ? static_cast<double>(layers.inflight_sum) /
                                 static_cast<double>(layers.ask_calls)
                           : 0.0;
  const double parallelism =
      layers.eval_threads > 0 && layers.wall_s > 0
          ? std::clamp(layers.cpu_s / layers.wall_s, 1.0, threads)
          : 1.0;
  const double flags_s = layers.decode_s + layers.fatal_s + layers.parse_in_session_s;
  const double lookup_s = sum_of(layers.lookup_us) / 1e6;
  const double runner_self_s =
      arm == Arm::kSpecSuite
          ? 0.0
          : std::max(0.0, layers.measure_s - layers.run_s - layers.decode_s -
                              layers.fatal_s - lookup_s);
  const double suite_self_s =
      arm == Arm::kSpecSuite
          ? std::max(0.0, layers.suite_s + layers.suite_setup_s - layers.run_s -
                              layers.decode_s - layers.fatal_s)
          : 0.0;
  const double sandbox_s = layers.roundtrip_s;
  const double service_scale = 1.0 / parallelism;
  struct Share {
    std::string layer;
    double seconds;
  };
  const std::vector<Share> shares = {
      {"tuner.strategy (ask/tell, in situ)", layers.ask_s + layers.tell_s},
      {"jvmsim (replayed runs)", layers.run_s * service_scale},
      {"flags (decode, start check, parse)", flags_s * service_scale},
      {"flags (commit: fingerprint, render)", layers.commit_flags_s},
      {"harness.runner (self)", runner_self_s * service_scale},
      {"harness.sandbox (IPC)", sandbox_s * service_scale},
      {"harness.journal (append)", layers.journal_s},
      {"harness.store (open/query/lookup/put)", layers.store_s},
      {"tuner.suite (self)", suite_self_s * service_scale},
      {"tuner.session (validation)", layers.validate_s},
  };
  double attributed = 0;
  for (const Share& share : shares) attributed += share.seconds;
  const double unattributed = layers.wall_s - attributed;
  const double unattributed_frac = layers.wall_s > 0 ? unattributed / layers.wall_s : 0;
  const double overhead_frac =
      layers.plain_wall_s > 0 ? (layers.wall_s - layers.plain_wall_s) / layers.plain_wall_s : 0;

  const double replay_sim_s = layers.run_s + layers.decode_s + layers.fatal_s;
  const double hit_frac =
      arm == Arm::kSpecSuite
          ? (layers.evaluations > 0 ? static_cast<double>(layers.repeats) /
                                          static_cast<double>(layers.evaluations)
                                    : 0)
          : (layers.evaluations > 0 ? static_cast<double>(layers.cache_hits) /
                                          static_cast<double>(layers.evaluations)
                                    : 0);
  const auto p50 = [](const std::vector<double>& v) { return quantile(v, 0.50); };
  const auto p99 = [](const std::vector<double>& v) { return quantile(v, 0.99); };
  report.metrics = {
      {"jvmsim.runs", static_cast<double>(layers.runs), "count"},
      {"jvmsim.run_us_p50", p50(layers.run_us), "us"},
      {"jvmsim.run_us_p99", p99(layers.run_us), "us"},
      {"jvmsim.busy_frac", layers.wall_s > 0 ? replay_sim_s / layers.wall_s : 0, "ratio"},
      {"flags.decode_us_p50", p50(layers.decode_us), "us"},
      {"flags.parse_us_p50", p50(layers.parse_us), "us"},
      {"flags.fingerprint_us_p50", p50(layers.fingerprint_us), "us"},
      {"runner.measure_us_p50", p50(layers.measure_us), "us"},
      {"runner.measure_us_p99", p99(layers.measure_us), "us"},
      {"runner.self_frac",
       layers.measure_s > 0 ? runner_self_s / layers.measure_s : 0, "ratio"},
      {"runner.cache_hit_frac", hit_frac, "ratio"},
      {"runner.hit_us_p50", p50(layers.hit_us), "us"},
      {"policy.runs_per_eval",
       layers.charged > 0 ? static_cast<double>(layers.runs) / static_cast<double>(layers.charged)
                          : 0, "ratio"},
      {"sandbox.roundtrip_us_p50", p50(layers.roundtrip_us), "us"},
      {"sandbox.roundtrip_us_p99", p99(layers.roundtrip_us), "us"},
      {"sandbox.spawn_ms", p50(layers.spawn_ms), "ms"},
      {"sandbox.respawns", static_cast<double>(layers.respawns), "count"},
      {"journal.append_us_p50", p50(layers.journal_us), "us"},
      {"journal.append_us_p99", p99(layers.journal_us), "us"},
      {"journal.fsyncs", static_cast<double>(layers.fsyncs), "count"},
      {"store.open_ms", p50(layers.open_ms), "ms"},
      {"store.records_at_open", p50(layers.records_at_open), "count"},
      {"store.lookup_us_p50", p50(layers.lookup_us), "us"},
      {"store.hit_frac",
       layers.lookups > 0 ? static_cast<double>(layers.lookup_hits) /
                                static_cast<double>(layers.lookups)
                          : 0, "ratio"},
      {"store.append_us_p50", p50(layers.append_us), "us"},
      {"store.append_us_p99", p99(layers.append_us), "us"},
      {"store.appends", static_cast<double>(layers.store_appends), "count"},
      {"store.warm_query_ms", p50(layers.warm_query_ms), "ms"},
      {"tuner.ask_us_total", layers.ask_s * 1e6, "us"},
      {"tuner.tell_us_total", layers.tell_s * 1e6, "us"},
      {"tuner.ask_calls", static_cast<double>(layers.ask_calls), "count"},
      {"tuner.proposals", static_cast<double>(layers.proposals), "count"},
      {"scheduler.inflight_avg", inflight_avg, "ratio"},
      {"scheduler.queue_wait_us_p50", p50(layers.queue_wait_us), "us"},
      {"scheduler.pool_busy_frac",
       layers.wall_s > 0 ? layers.service_s / (layers.wall_s * threads) : 0, "ratio"},
      {"session.validate_ms", p50(layers.validate_ms), "ms"},
      {"suite.eval_us_p50", p50(layers.suite_us), "us"},
      {"suite.runs_per_eval",
       arm == Arm::kSpecSuite && layers.evaluations > 0
           ? static_cast<double>(layers.replayed_runs) / static_cast<double>(layers.evaluations)
           : 0, "ratio"},
      {"session.unattributed_frac", unattributed_frac, "ratio"},
      {"trace.overhead_frac", overhead_frac, "ratio"},
  };

  // ---- human-readable report ----------------------------------------------
  auto& out = report.lines;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\ntraced %s: %zu session(s), %lld evaluations; traced wall %.4f s, "
                "plain wall %.4f s (mean of the passes before and after)",
                campaign.arm().name, campaign.size(),
                static_cast<long long>(layers.evaluations), layers.wall_s,
                layers.plain_wall_s);
  out.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: %+.4f s (%+.2f%% of plain wall); decorator "
                "transparent in %lld/%zu session(s)",
                layers.wall_s - layers.plain_wall_s, 100.0 * overhead_frac,
                static_cast<long long>(transparent), campaign.size());
  out.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "reconciliation against traced session wall (service layers / "
                "%.3f measured parallelism):",
                parallelism);
  out.push_back(buf);
  for (const Share& share : shares) {
    std::snprintf(buf, sizeof(buf), "  %-40s %s", share.layer.c_str(),
                  fmt_s(share.seconds, layers.wall_s).c_str());
    out.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf), "  %-40s %s", "unattributed (residual)",
                fmt_s(unattributed, layers.wall_s).c_str());
  out.push_back(buf);
  std::snprintf(buf, sizeof(buf), "  %-40s %s", "session wall",
                fmt_s(layers.wall_s, layers.wall_s).c_str());
  out.push_back(buf);
  if (std::abs(unattributed_frac) > 0.05) {
    std::snprintf(buf, sizeof(buf),
                  "DEFECT %s: %.1f%% of session wall time is unattributed "
                  "(above 5%%); a layer is not measured",
                  campaign.arm().name, 100.0 * unattributed_frac);
    out.push_back(buf);
  }
  if (arm != Arm::kSpecSuite && layers.replayed_runs != layers.runs) {
    std::snprintf(buf, sizeof(buf),
                  "note: replay launched %lld simulator runs; the sessions "
                  "reported %lld",
                  static_cast<long long>(layers.replayed_runs),
                  static_cast<long long>(layers.runs));
    out.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf), "spans: %zu written to %s", spans.spans().size(),
                spans_written ? span_path.c_str() : "(write failed)");
  out.push_back(buf);
  out.push_back("per-layer metrics (0 = layer idle on this workload):");
  for (const Metric& metric : report.metrics) {
    std::snprintf(buf, sizeof(buf), "  %-30s %14.4f %s", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    out.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "samples: %zu runs, %zu decodes, %zu parses, %zu measures "
                "(%zu hits), %zu round trips, %zu journal appends, %zu store "
                "lookups, %zu store puts, %zu queue waits",
                layers.run_us.size(), layers.decode_us.size(), layers.parse_us.size(),
                layers.measure_us.size(), layers.hit_us.size(),
                layers.roundtrip_us.size(), layers.journal_us.size(),
                layers.lookup_us.size(), layers.append_us.size(),
                layers.queue_wait_us.size());
  out.push_back(buf);
  return report;
}

}  // namespace perfbench
