// perfbench — the reference tuning benchmark.
//
//   perfbench --workload spec-serial --seed 2015 --seconds 20 --trace 0
//
// Runs one pinned tuning campaign (spec-serial, dacapo-sandboxed,
// dacapo-warm or spec-suite) through the public library API, checks the
// tuned results, and prints the end-to-end metrics (--trace 0) or the
// per-layer attribution (--trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any output check fails.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "support/log.hpp"
#include "tuner/algorithms.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 20;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{spec-serial|dacapo-sandboxed|dacapo-warm|spec-suite} "
               "--seed N --seconds S --trace {0|1}\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (find_arm(args.workload) == nullptr) {
    usage_error("unknown workload '" + args.workload + "'");
  }
  return args;
}

double peak_rss_mb() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Evaluations a session counts as failed operations: infrastructure
/// faults (transient, crash) in its log, or all of them when it threw.
std::int64_t failed_evaluations(const SessionRun& run) {
  if (!run.error.empty() || run.db == nullptr) return std::max<std::int64_t>(1, run.evaluations);
  std::int64_t failed = 0;
  for (const jat::EvalRecord& record : run.db->all()) {
    if (record.fault == jat::FaultClass::kTransient ||
        record.fault == jat::FaultClass::kCrash) {
      ++failed;
    }
  }
  return failed;
}

/// The same session serially and in-process: no threads, no sandbox, no
/// journal. Used to check that the isolated arm finds the same incumbents.
jat::TuningOutcome run_reference(const Campaign& campaign, std::size_t index) {
  jat::SessionOptions options = campaign.session_options(index);
  options.sandbox = false;
  options.eval_threads = 0;
  jat::HierarchicalTuner tuner;
  return jat::TuningSession(campaign.simulator(), campaign.members()[index], options)
      .run(tuner);
}

int run_end_to_end(const Args& args, Campaign& campaign,
                   const std::vector<double>& setup_samples) {
  CheckResult checks;
  std::vector<SessionRun> runs;
  // probes[k] is taken just before runs[k] and probes[k + 1] just after it.
  std::vector<double> probes;
  double timed_s = 0;
  int passes = 0;
  std::int64_t failed = 0;
  // Whole passes until the measured time is used up, so every run covers
  // the same mix of programs; each pass tunes with seeds of its own.
  do {
    campaign.begin_pass(passes);
    for (std::size_t i = 0; i < campaign.size(); ++i) {
      probes.push_back(handoff_probe_s());
      SessionRun run = campaign.run_session(i, /*decorated=*/true);
      timed_s += run.wall_s;
      const std::size_t before = checks.failures.size();
      check_session(campaign, run, checks);
      failed += checks.failures.size() > before
                    ? std::max<std::int64_t>(1, run.evaluations)
                    : failed_evaluations(run);
      run.db.reset();  // keep memory flat across passes
      runs.push_back(std::move(run));
    }
    if (campaign.arm().arm == Arm::kDacapoWarm) check_store(campaign, checks);
    ++passes;
  } while (timed_s < args.seconds);
  probes.push_back(handoff_probe_s());
  const std::vector<SessionRun> first_pass(runs.begin(),
                                           runs.begin() + static_cast<long>(campaign.size()));

  // Cross-arm agreement: the isolated, threaded sessions validate to the
  // incumbents a serial in-process run finds. Run counts may drift at the
  // budget tail under threads; that is counted, not failed.
  std::int64_t arm_drift = 0;
  if (campaign.arm().arm == Arm::kDacapoSandboxed) {
    campaign.begin_pass(0);
    for (std::size_t i = 0; i < campaign.size(); ++i) {
      const jat::TuningOutcome reference = run_reference(campaign, i);
      const SessionRun& isolated = first_pass[i];
      if (reference.best_config.fingerprint() != isolated.best_fingerprint ||
          reference.best_ms != isolated.best_ms ||
          reference.default_ms != isolated.default_ms) {
        checks.fail(isolated.program +
                    ": sandboxed/threaded incumbent differs from the serial in-process one");
      } else if (reference.runs != isolated.runs) {
        ++arm_drift;
      }
    }
  }

  // Every time a session measured is scaled to the reference machine speed
  // by the probes on either side of it.
  std::int64_t attempted = 0;
  double reference_s = 0;
  std::vector<double> latency;
  std::vector<double> measured_latency;
  std::vector<double> walls;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const SessionRun& run = runs[k];
    const double scale = reference_scale(probes[k], probes[k + 1]);
    attempted += run.evaluations;
    reference_s += run.wall_s * scale;
    for (const double us : run.timing.latency_us) {
      latency.push_back(us * scale);
      measured_latency.push_back(us);
    }
    walls.push_back(run.wall_s * scale);
  }
  double improvement = 0;
  for (const SessionRun& run : first_pass) improvement += run.improvement;
  improvement = 100.0 * improvement / static_cast<double>(first_pass.size());

  const double evals_per_s = static_cast<double>(attempted) / reference_s;
  const double p50 = quantile(latency, 0.50);
  const double p99 = quantile(latency, 0.99);
  const double wall_p50 = quantile(walls, 0.50);
  const double setup_s = quantile(setup_samples, 0.50);
  const double rss = peak_rss_mb();
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;

  std::printf("\n%-17s %10s %12s %12s %10s %10s %9s %9s %10s\n", "workload",
              "evals/s", "lat_p50_us", "lat_p99_us", "sess_p50_s", "improv_%",
              "setup_s", "rss_MiB", "failed");
  std::printf("%-17s %10.1f %12.1f %12.1f %10.4f %10.4f %9.4f %9.1f %10.6f\n",
              campaign.arm().name, evals_per_s, p50, p99, wall_p50, improvement,
              setup_s, rss, failed_frac);
  std::printf("  %d pass(es), %zu session(s), %lld evaluations in %.3f s; "
              "%zu latency samples (%zu beyond p99); %zu set-up samples\n",
              passes, runs.size(), static_cast<long long>(attempted), timed_s,
              latency.size(), latency.size() / 100, setup_samples.size());
  std::printf("  times above are at the reference speed; hand-off probe median "
              "%.2f us per round trip (reference %.2f)\n"
              "  as measured: %.1f evals/s, latency p50 %.1f us\n",
              1e6 * quantile(probes, 0.50) / kProbeRoundTrips,
              1e6 * kReferenceProbeS / kProbeRoundTrips,
              static_cast<double>(attempted) / timed_s,
              quantile(measured_latency, 0.50));
  std::printf("  checks: %s (decorator transparency is checked by the "
              "traced run)\n",
              checks.ok ? "ok" : "FAILED");
  if (campaign.arm().arm == Arm::kDacapoSandboxed) {
    std::printf("  cross-arm: %zu sessions agree with serial in-process; "
                "run-count drift in %lld (reported, not a failure)\n",
                campaign.size(), static_cast<long long>(arm_drift));
  }
  for (const std::string& failure : checks.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  print_json(checks.ok, attempted, failed,
             {{"evals_per_s", evals_per_s, "1/s"},
              {"eval_latency_p50_us", p50, "us"},
              {"eval_latency_p99_us", p99, "us"},
              {"session_wall_p50_s", wall_p50, "s"},
              {"improvement_pct", improvement, "%"},
              {"setup_s", setup_s, "s"},
              {"peak_rss_mb", rss, "MiB"}});
  return checks.ok ? 0 : 1;
}

int run_trace(Campaign& campaign, const std::vector<double>& setup_samples) {
  CheckResult checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const LayerReport report = run_traced(campaign, checks, attempted, failed);
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("  set-up: median %.4f s over %zu sample(s)\n",
              quantile(setup_samples, 0.5), setup_samples.size());
  std::printf("  checks: %s\n", checks.ok ? "ok" : "FAILED");
  for (const std::string& failure : checks.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  print_json(checks.ok, attempted, failed, report.metrics);
  return checks.ok ? 0 : 1;
}

}  // namespace

/// Pins this process, and every thread and sandbox worker it starts, to the
/// CPU it is running on; returns that CPU or -1. On a virtual machine whose
/// host is shared, waking an idle vCPU for each hand-off between threads or
/// processes is what makes the threaded and sandboxed arms swing by up to 2x
/// between runs. On one CPU their figures stay steady. The price is that
/// gains from running evaluations in parallel do not show.
int pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  jat::set_log_level(jat::LogLevel::kError);
  const ArmInfo& arm = *find_arm(args.workload);
  const unsigned nproc = std::thread::hardware_concurrency();
  const int cpu = pin_to_current_cpu();

  const char* rev = std::getenv("PERFBENCH_GIT_REV");
  std::printf("perfbench %s  seed %llu  seconds %g  trace %d\n", arm.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("nproc %u  pinned to cpu %d  git %s  build %s\n", nproc, cpu,
              rev != nullptr && *rev != '\0' ? rev : "unknown", PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  // Set-up first, in forked children, before this process touches any of
  // the one-time state (catalog, descriptors) itself.
  std::vector<double> setup_samples;
  try {
    setup_samples = measure_setup(arm, 21);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  if (setup_samples.empty()) {
    std::fprintf(stderr, "perfbench: set-up failed\n");
    return 1;
  }

  // Journals and the warm store live under the build directory of the
  // checkout and are removed when the run ends.
  const fs::path workdir = fs::path(".bench_build") / "perfbench-work" /
                           (std::string(arm.name) + "-" + std::to_string(::getpid()));
  int rc = 1;
  try {
    Campaign campaign(arm, args.seed, workdir);
    const double fixture_s = campaign.prepare();
    if (fixture_s > 0) {
      std::printf("store fixture built in %.3f s (outside timing)\n", fixture_s);
    }
    rc = args.trace ? run_trace(campaign, setup_samples)
                    : run_end_to_end(args, campaign, setup_samples);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ignored;
  fs::remove_all(workdir, ignored);
  return rc;
}
