// jat_tune — the command-line face of the library, shaped like the tool
// the paper describes: point it at a benchmark, give it a tuning budget,
// get back a tuned -XX configuration (plus the flags that actually
// mattered).
//
//   jat_tune --workload h2 --budget 200 --tuner hierarchical
//            --out tuned.flags --explain
//   jat_tune --list
//   jat_tune --suite dacapo --budget 2000 --tuner genetic --threads 8
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "flags/parse.hpp"
#include "harness/journal.hpp"
#include "support/cancellation.hpp"
#include "support/log.hpp"
#include "support/process.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "tuner/importance.hpp"
#include "tuner/session.hpp"
#include "tuner/suite_session.hpp"
#include "workloads/suites.hpp"

namespace {

using namespace jat;

/// SIGINT/SIGTERM land here: flip the (async-signal-safe) cancellation
/// latch and let the session drain, flush, and report normally. Sandbox
/// workers get SIGTERM forwarded so they finish their current repetition
/// and reply instead of blocking the drain. A *second* SIGINT means the
/// operator wants out now: SIGKILL every worker and hard-exit nonzero —
/// everything in the handler is async-signal-safe (atomics, kill, _exit).
CancellationToken g_cancel;
volatile sig_atomic_t g_stop_signals = 0;

extern "C" void handle_stop_signal(int sig) {
  if (sig == SIGINT) {
    // ++ on volatile is deprecated in C++20; a read-modify-write is safe
    // here because SIGINT cannot preempt its own handler (not SA_NODEFER).
    g_stop_signals = g_stop_signals + 1;
    if (g_stop_signals >= 2) {
      ChildRegistry::kill_all(SIGKILL);
      _exit(130);
    }
  }
  g_cancel.cancel();
  ChildRegistry::kill_all(SIGTERM);
}

void usage() {
  std::printf(
      "jat_tune — whole-JVM auto-tuner (simulated HotSpot substrate)\n\n"
      "  --workload NAME     benchmark to tune (see --list)\n"
      "  --suite NAME        tune one general config for a whole suite\n"
      "                      (specjvm2008 | dacapo)\n"
      "  --budget MINUTES    tuning budget in simulated minutes (default 200)\n"
      "  --tuner NAME        hierarchical | random | hillclimb | annealing |\n"
      "                      genetic | bandit | ils | subset (default: hierarchical)\n"
      "  --objective SPEC    what the search minimizes: run_time (default) |\n"
      "                      startup_time | throughput | pause_max | footprint |\n"
      "                      composite[:pause_limit_ms=L,penalty=P]\n"
      "                      (see --list-objectives); non-default objectives\n"
      "                      extend the CSV log with per-metric columns\n"
      "  --list-objectives   list the built-in objectives and exit\n"
      "  --seed N            master seed (default 2015)\n"
      "  --reps N            timed repetitions per candidate (default 3)\n"
      "  --threads N         parallel candidate evaluation threads\n"
      "  --eval-threads N    alias for --threads\n"
      "  --inflight N        max evaluations in flight in the scheduler\n"
      "                      window (default 8; part of the trajectory)\n"
      "  --out FILE          write the tuned flags to FILE\n"
      "  --trace FILE        write a structured JSONL event trace to FILE\n"
      "                      (inspect with trace_report)\n"
      "  --journal FILE      write-ahead evaluation journal: every committed\n"
      "                      evaluation is durable before it is applied, so a\n"
      "                      killed session resumes with --resume\n"
      "  --resume FILE       resume a journaled session (workload, tuner,\n"
      "                      budget, seed come from the journal; the outcome\n"
      "                      is bit-identical to the uninterrupted run)\n"
      "  --log FILE          write the full evaluation log as CSV\n"
      "  --store DIR         cross-session result store: completed\n"
      "                      measurements are published to DIR/store.jsonl\n"
      "                      and later sessions answer repeat configurations\n"
      "                      from it at zero budget (safe to share between\n"
      "                      concurrent sessions; see EXPERIMENTS.md)\n"
      "  --warm-start K      replay up to K top prior configurations for this\n"
      "                      workload (plus structural neighbors from other\n"
      "                      workloads) before the tuner's first proposal\n"
      "                      (needs --store)\n"
      "  --no-store-reads    publish to the store but never read prior\n"
      "                      results back (cold-session trajectory with a\n"
      "                      warm store on disk)\n"
      "  --kill-after-evals N  raise SIGKILL after the Nth journal append\n"
      "                      (deterministic crash injection for recovery tests)\n"
      "  --replay FILE       re-measure a saved .flags file on --workload\n"
      "  --racing            abandon clearly-losing candidates after 1 rep\n"
      "  --adaptive-reps N   confidence-driven repetitions: stop a candidate\n"
      "                      early once its CI95 converges, abandon it when a\n"
      "                      Welch test says it is worse than the incumbent,\n"
      "                      cap at N reps; with --racing, a candidate the\n"
      "                      1-rep floor abandoned that still beats the\n"
      "                      incumbent is topped up to convergence before\n"
      "                      taking the incumbency (a Welch-raced one never\n"
      "                      beats it)\n"
      "  --ci-rel X          CI95 half-width <= X * mean stops a candidate\n"
      "                      (default 0.02; needs --adaptive-reps)\n"
      "  --race-p P          Welch p-value below which a slower candidate is\n"
      "                      abandoned (default 0.05; needs --adaptive-reps)\n"
      "  --resilient         retry/quarantine/circuit-breaker layer between\n"
      "                      tuner and evaluator\n"
      "  --sandbox           run every measurement in a forked worker process:\n"
      "                      a crashing or wedged evaluation kills its worker,\n"
      "                      never the session (fault-free runs stay\n"
      "                      bit-identical to the in-process path)\n"
      "  --sandbox-workers N   worker pool size (default 2)\n"
      "  --eval-deadline-s S   wall-clock deadline per sandboxed evaluation;\n"
      "                      past it the worker gets SIGTERM then SIGKILL and\n"
      "                      the evaluation is classified as a timeout\n"
      "  --sandbox-rlimit-cpu S   RLIMIT_CPU seconds per worker (0 = off)\n"
      "  --sandbox-rlimit-as MB   RLIMIT_AS megabytes per worker (0 = off)\n"
      "  --sandbox-inject-kill R  fault injection: probability a worker is\n"
      "                      SIGKILLed mid-measurement (per configuration)\n"
      "  --sandbox-inject-wedge R  probability a worker wedges in a busy loop\n"
      "  --sandbox-inject-torn R   probability of a torn (truncated) reply\n"
      "  --explain           leave-one-out analysis of the winning flags\n"
      "  --verbose           per-phase progress logging\n"
      "  --list              list available workloads\n");
}

std::unique_ptr<SearchStrategy> make_tuner(const std::string& name) {
  if (name == "hierarchical") return std::make_unique<HierarchicalTuner>();
  if (name == "random") return std::make_unique<RandomSearch>(0.15);
  if (name == "hillclimb") return std::make_unique<HillClimber>();
  if (name == "annealing") return std::make_unique<SimulatedAnnealing>();
  if (name == "genetic") return std::make_unique<GeneticTuner>();
  if (name == "bandit") return std::make_unique<BanditEnsemble>();
  if (name == "ils") return std::make_unique<IteratedLocalSearch>();
  if (name == "subset") return std::make_unique<SubsetTuner>();
  return nullptr;
}

void list_workloads() {
  TextTable table({"workload", "suite", "work", "alloc/unit", "threads"});
  auto add = [&](const WorkloadSpec& w) {
    table.add_row({w.name, w.suite, fmt(w.total_work, 0),
                   format_bytes(static_cast<std::int64_t>(w.alloc_rate)),
                   std::to_string(w.app_threads)});
  };
  for (const auto& w : specjvm2008_startup()) add(w);
  for (const auto& w : dacapo()) add(w);
  std::printf("%s", table.render().c_str());
}

int tune_one(const std::string& workload_name, const SessionOptions& options,
             SearchStrategy& tuner, const std::string& out_path, bool explain,
             SessionJournal* resume_journal, const std::string& log_path) {
  JvmSimulator simulator;
  const WorkloadSpec& workload = find_workload(workload_name);
  TuningSession session(simulator, workload, options);
  const TuningOutcome outcome = resume_journal != nullptr
                                    ? session.resume(*resume_journal, tuner)
                                    : session.run(tuner);

  if (outcome.cancelled) {
    std::printf("\ninterrupted: admission closed, in-flight evaluations "
                "drained and committed; incumbent below%s\n",
                options.journal != nullptr || resume_journal != nullptr
                    ? " (resume with --resume to run out the budget)"
                    : "");
  }
  std::printf("\n%-22s %s\n", "workload", outcome.workload_name.c_str());
  std::printf("%-22s %s\n", "tuner", outcome.tuner_name.c_str());
  if (outcome.objective_id != "run_time") {
    std::printf("%-22s %s\n", "objective", outcome.objective_id.c_str());
  }
  const char* unit = options.objective ? options.objective->unit() : "ms";
  std::printf("%-22s %s %s -> %s %s  (%s, speedup %.2fx)\n", "validated result",
              fmt(outcome.default_ms, 0).c_str(), unit,
              fmt(outcome.best_ms, 0).c_str(), unit,
              format_percent(outcome.improvement_frac()).c_str(),
              outcome.speedup());
  std::printf("%-22s %lld configurations, %lld JVM runs, %s budget spent\n",
              "search", static_cast<long long>(outcome.evaluations),
              static_cast<long long>(outcome.runs),
              outcome.budget_spent.to_string().c_str());
  if (options.store != nullptr) {
    std::printf("%-22s %lld store hit(s), %lld appended, %lld warm seed(s), "
                "%lld charged evaluation(s)\n",
                "store",
                static_cast<long long>(outcome.store_hits),
                static_cast<long long>(outcome.store_appends),
                static_cast<long long>(outcome.warm_seeds),
                static_cast<long long>(outcome.charged_evaluations));
  }
  std::printf("%-22s %s\n", "tuned flags",
              outcome.best_config.changed_flags().empty()
                  ? "(defaults were best)"
                  : outcome.best_config.render_command_line().c_str());

  if (explain && !outcome.best_config.changed_flags().empty()) {
    RunnerOptions runner_options;
    runner_options.repetitions = std::max(5, options.repetitions);
    runner_options.seed = mix64(options.seed, fnv1a64("explain"));
    BenchmarkRunner runner(simulator, workload, runner_options);
    const ImportanceReport report = analyze_importance(runner, outcome.best_config);

    std::printf("\nflag contributions (leave-one-out):\n");
    TextTable table({"flag", "tuned", "default", "contribution"});
    for (const auto& c : report.contributions) {
      if (!c.significant && std::abs(c.contribution_frac) < 0.01) continue;
      table.add_row({c.name, c.tuned_value, c.default_value,
                     format_percent(c.contribution_frac) +
                         (c.significant ? "" : " (noise)")});
    }
    std::printf("%s", table.render().c_str());
    std::printf("essential config (%zu flags): %s ms -> %s\n",
                report.essential_config.changed_flags().size(),
                fmt(report.essential_ms, 0).c_str(),
                report.essential_config.render_command_line().c_str());
  }

  if (!out_path.empty()) {
    if (save_configuration(outcome.best_config, out_path)) {
      std::printf("\ntuned configuration written to %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  if (!log_path.empty()) {
    if (outcome.db->save_csv(log_path)) {
      std::printf("evaluation log (%lld rows) written to %s\n",
                  static_cast<long long>(outcome.evaluations),
                  log_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", log_path.c_str());
      return 1;
    }
  }
  return 0;
}

int tune_suite(const std::string& suite_name, const SessionOptions& options,
               SearchStrategy& tuner, const std::string& out_path,
               SessionJournal* resume_journal, const std::string& log_path) {
  std::vector<WorkloadSpec> suite;
  if (suite_name == "specjvm2008") {
    suite = specjvm2008_startup();
  } else if (suite_name == "dacapo") {
    suite = dacapo();
  } else {
    std::fprintf(stderr, "error: unknown suite '%s'\n", suite_name.c_str());
    return 1;
  }
  JvmSimulator simulator;
  SuiteTuningSession session(simulator, suite, options);
  const SuiteOutcome outcome = resume_journal != nullptr
                                   ? session.resume(*resume_journal, tuner)
                                   : session.run(tuner);

  if (outcome.cancelled) {
    std::printf("\ninterrupted: admission closed, in-flight evaluations "
                "drained and committed; incumbent below\n");
  }
  std::printf("\ngeneral configuration for %s (geomean improvement %s):\n",
              suite_name.c_str(),
              format_percent(outcome.improvement_frac()).c_str());
  TextTable table({"workload", "improvement"});
  for (std::size_t i = 0; i < outcome.workload_names.size(); ++i) {
    table.add_row({outcome.workload_names[i],
                   format_percent(outcome.per_workload_improvement[i])});
  }
  std::printf("%s", table.render().c_str());
  std::printf("flags: %s\n", outcome.best_config.render_command_line().c_str());
  if (options.store != nullptr) {
    std::printf("store: %lld hit(s), %lld appended, %lld warm seed(s), "
                "%lld charged evaluation(s)\n",
                static_cast<long long>(outcome.store_hits),
                static_cast<long long>(outcome.store_appends),
                static_cast<long long>(outcome.warm_seeds),
                static_cast<long long>(outcome.charged_evaluations));
  }
  if (!out_path.empty() && !save_configuration(outcome.best_config, out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!log_path.empty() && !outcome.db->save_csv(log_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", log_path.c_str());
    return 1;
  }
  return 0;
}

/// Matches a journaled suite metadata record (member names joined with ",")
/// back to a named suite.
std::string suite_name_for(const std::string& joined) {
  const auto join = [](const std::vector<WorkloadSpec>& suite) {
    std::string out;
    for (const WorkloadSpec& w : suite) {
      if (!out.empty()) out += ',';
      out += w.name;
    }
    return out;
  };
  if (join(specjvm2008_startup()) == joined) return "specjvm2008";
  if (join(dacapo()) == joined) return "dacapo";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string suite;
  std::string tuner_name = "hierarchical";
  std::string objective_spec;
  std::string out_path;
  std::string replay_path;
  std::string trace_path;
  std::string journal_path;
  std::string resume_path;
  std::string log_path;
  JournalOptions journal_options;
  SessionOptions options;
  std::string store_path;
  TraceSink trace_sink;
  bool explain = false;
  bool threads_set = false;
  set_log_level(LogLevel::kWarn);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--suite") {
      suite = next();
    } else if (arg == "--budget") {
      options.budget = jat::SimTime::minutes(std::atof(next()));
    } else if (arg == "--tuner") {
      tuner_name = next();
    } else if (arg == "--objective") {
      objective_spec = next();
    } else if (arg == "--list-objectives") {
      for (const std::string& line : list_objectives()) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--reps") {
      options.repetitions = std::atoi(next());
    } else if (arg == "--threads" || arg == "--eval-threads") {
      options.eval_threads = static_cast<std::size_t>(std::atoi(next()));
      threads_set = true;
    } else if (arg == "--inflight") {
      options.inflight = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
      options.trace = &trace_sink;
    } else if (arg == "--journal") {
      journal_path = next();
    } else if (arg == "--resume") {
      resume_path = next();
    } else if (arg == "--log") {
      log_path = next();
    } else if (arg == "--store") {
      store_path = next();
    } else if (arg == "--warm-start") {
      options.warm_start = std::atoi(next());
    } else if (arg == "--no-store-reads") {
      options.store_reads = false;
    } else if (arg == "--kill-after-evals") {
      journal_options.crash_after_appends = std::atoi(next());
    } else if (arg == "--racing") {
      options.racing_factor = 1.3;
    } else if (arg == "--adaptive-reps") {
      options.measurement.adaptive = true;
      options.measurement.max_reps = std::atoi(next());
    } else if (arg == "--ci-rel") {
      options.measurement.ci_rel = std::atof(next());
    } else if (arg == "--race-p") {
      options.measurement.race_p = std::atof(next());
    } else if (arg == "--resilient") {
      options.resilient = true;
    } else if (arg == "--sandbox") {
      options.sandbox = true;
    } else if (arg == "--sandbox-workers") {
      options.sandbox = true;
      options.sandbox_options.workers =
          static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--eval-deadline-s") {
      options.sandbox = true;
      options.sandbox_options.eval_deadline_s = std::atof(next());
    } else if (arg == "--sandbox-rlimit-cpu") {
      options.sandbox = true;
      options.sandbox_options.rlimit_cpu_s = std::atoi(next());
    } else if (arg == "--sandbox-rlimit-as") {
      options.sandbox = true;
      options.sandbox_options.rlimit_as_mb = std::atoi(next());
    } else if (arg == "--sandbox-inject-kill") {
      options.sandbox = true;
      options.sandbox_options.inject.kill_rate = std::atof(next());
    } else if (arg == "--sandbox-inject-wedge") {
      options.sandbox = true;
      options.sandbox_options.inject.wedge_rate = std::atof(next());
    } else if (arg == "--sandbox-inject-torn") {
      options.sandbox = true;
      options.sandbox_options.inject.torn_rate = std::atof(next());
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--verbose") {
      jat::set_log_level(jat::LogLevel::kInfo);
    } else if (arg == "--list") {
      list_workloads();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }

  if (!objective_spec.empty()) {
    try {
      options.objective = make_objective(objective_spec);
    } catch (const ObjectiveError& error) {
      // Exit 2, not 1: a misspelt objective is a usage error, and scripts
      // can tell it apart from a failed tuning run.
      std::fprintf(stderr, "error: %s\n", error.what());
      return 2;
    }
  }

  if (!replay_path.empty()) {
    if (workload.empty()) {
      std::fprintf(stderr, "error: --replay needs --workload\n");
      return 1;
    }
    try {
      JvmSimulator simulator;
      const WorkloadSpec& w = find_workload(workload);
      const Configuration loaded =
          load_configuration(FlagRegistry::hotspot(), replay_path);
      RunnerOptions ro;
      ro.repetitions = std::max(5, options.repetitions);
      BenchmarkRunner runner(simulator, w, ro);
      const double base = runner.measure(Configuration(FlagRegistry::hotspot())).objective();
      const double tuned = runner.measure(loaded).objective();
      std::printf("replay of %s on %s:\n  default %s ms, tuned %s ms (%s)\n  %s\n",
                  replay_path.c_str(), workload.c_str(), fmt(base, 0).c_str(),
                  fmt(tuned, 0).c_str(),
                  format_percent(base > 0 ? (base - tuned) / base : 0).c_str(),
                  loaded.render_command_line().c_str());
      return 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
  }
  if (workload.empty() && suite.empty() && resume_path.empty()) {
    usage();
    return 1;
  }
  if (store_path.empty() && (options.warm_start > 0 || !options.store_reads)) {
    std::fprintf(stderr,
                 "error: --warm-start / --no-store-reads need --store\n");
    return 1;
  }
  if (!resume_path.empty() && !journal_path.empty()) {
    std::fprintf(stderr,
                 "error: --resume appends to the resumed journal; do not also "
                 "pass --journal\n");
    return 1;
  }

  // Graceful interruption: Ctrl-C / SIGTERM close admission, drain the
  // in-flight evaluations, flush journal and trace, and print the
  // incumbent; a second Ctrl-C hard-exits. sigaction (not std::signal):
  // explicit flags — no SA_RESETHAND (the second SIGINT must still reach
  // our handler, not default-kill mid-cleanup), SA_RESTART so slow stdio
  // is not interrupted mid-report.
  options.cancel = &g_cancel;
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  try {
    if (!store_path.empty()) {
      options.store = ResultStore::open(store_path);
      const StoreStats stats = options.store->stats();
      std::printf("store %s: %lld record(s), %lld workload(s)%s\n",
                  options.store->path().c_str(),
                  static_cast<long long>(stats.records),
                  static_cast<long long>(stats.workloads),
                  options.store_reads ? "" : " (reads disabled)");
    }
    std::optional<SessionJournal> journal;
    SessionJournal* resume_journal = nullptr;
    if (!resume_path.empty()) {
      journal.emplace(SessionJournal::resume(resume_path, journal_options));
      resume_journal = &*journal;
      // Everything a bit-identical replay depends on comes from the journal;
      // only eval_threads (wall-clock parallelism, not trajectory) may be
      // overridden from the command line.
      const JournalMeta& meta = journal->meta();
      const std::size_t threads = options.eval_threads;
      restore_session_options(meta, options);
      if (threads_set) options.eval_threads = threads;
      tuner_name = meta.tuner;
      if (meta.kind == "suite") {
        suite = suite_name_for(meta.workload);
        workload.clear();
        if (suite.empty()) {
          std::fprintf(stderr, "error: journal %s tunes unknown suite '%s'\n",
                       resume_path.c_str(), meta.workload.c_str());
          return 1;
        }
      } else {
        workload = meta.workload;
        suite.clear();
      }
      std::printf("resuming %s session on %s with %s (%zu committed "
                  "evaluations%s)\n",
                  meta.kind.c_str(), meta.workload.c_str(), meta.tuner.c_str(),
                  journal->committed().size(),
                  journal->ended() ? "; journaled run had completed" : "");
    } else if (!journal_path.empty()) {
      journal.emplace(SessionJournal::create(journal_path, journal_options));
      options.journal = &*journal;
    }

    auto tuner = make_tuner(tuner_name);
    if (tuner == nullptr) {
      std::fprintf(stderr, "error: unknown tuner '%s'\n", tuner_name.c_str());
      return 1;
    }

    const int rc =
        !suite.empty()
            ? tune_suite(suite, options, *tuner, out_path, resume_journal,
                         log_path)
            : tune_one(workload, options, *tuner, out_path, explain,
                       resume_journal, log_path);
    if (!trace_path.empty()) {
      if (trace_sink.save_jsonl(trace_path)) {
        std::printf("trace (%zu events) written to %s\n", trace_sink.size(),
                    trace_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
        return 1;
      }
    }
    return rc;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
