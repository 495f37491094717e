// The four pinned campaigns, the timing decorator, set-up timing, and the
// output checks.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "flags/hierarchy.hpp"
#include "flags/parse.hpp"
#include "harness/journal.hpp"
#include "harness/sandbox.hpp"
#include "harness/store.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/search_space.hpp"
#include "tuner/suite_session.hpp"
#include "workloads/suites.hpp"

namespace perfbench {

using namespace jat;

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double sum_of(const std::vector<double>& sample) {
  double total = 0;
  for (double x : sample) total += x;
  return total;
}

// ---- spans ------------------------------------------------------------------

int SpanLog::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, int session) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, session});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::open(std::string name, int parent, int session) {
  const std::int64_t t = now_ns();
  return add(std::move(name), t, t, parent, session);
}

void SpanLog::close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

std::vector<std::int64_t> SpanLog::self_ns() const {
  // Children of one parent never overlap (every span here is recorded on a
  // single thread), so the covered time is the sum of child durations.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool SpanLog::write_jsonl(const fs::path& path) const {
  std::ofstream out(path);
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"session\":" << s.session
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- the timing decorator ---------------------------------------------------

TimingStrategy::TimingStrategy(SearchStrategy& inner, AskTellTiming& timing,
                               SpanLog* spans, int parent_span, int session)
    : inner_(&inner),
      timing_(&timing),
      spans_(spans),
      parent_span_(parent_span),
      session_(session) {}

std::string TimingStrategy::name() const { return inner_->name(); }

void TimingStrategy::begin(StrategyContext& ctx) {
  SearchStrategy::begin(ctx);
  asked_at_.clear();
  inner_->begin(ctx);
}

void TimingStrategy::ask(std::vector<Proposal>& out, std::size_t max) {
  const std::int64_t start = spans_ != nullptr ? now_ns() : 0;
  if (spans_ != nullptr) {
    timing_->inflight_sum += static_cast<std::int64_t>(asked_at_.size());
  }
  const std::size_t before = out.size();
  inner_->ask(out, max);
  const std::int64_t left = now_ns();
  for (std::size_t i = before; i < out.size(); ++i) asked_at_.push_back(left);
  ++timing_->ask_calls;
  timing_->proposals += static_cast<std::int64_t>(out.size() - before);
  if (spans_ != nullptr) {
    timing_->ask_ns += left - start;
    spans_->add("tuner.ask", start, left, parent_span_, session_);
  }
}

void TimingStrategy::tell(const Observation& observation) {
  const std::int64_t start = now_ns();
  timing_->latency_us.push_back(ns_to_us(start - asked_at_.front()));
  asked_at_.pop_front();
  inner_->tell(observation);
  if (spans_ != nullptr) {
    const std::int64_t end = now_ns();
    timing_->tell_ns += end - start;
    spans_->add("tuner.tell", start, end, parent_span_, session_);
  }
}

void TimingStrategy::finish() { inner_->finish(); }

// ---- campaigns --------------------------------------------------------------

const ArmInfo* find_arm(const std::string& name) {
  static const ArmInfo arms[] = {
      {Arm::kSpecSerial, "spec-serial", 0},
      {Arm::kDacapoSandboxed, "dacapo-sandboxed", 4},
      {Arm::kDacapoWarm, "dacapo-warm", 0},
      {Arm::kSpecSuite, "spec-suite", 4},
  };
  for (const ArmInfo& arm : arms) {
    if (name == arm.name) return &arm;
  }
  return nullptr;
}

namespace {

const std::vector<WorkloadSpec>& members_of(Arm arm) {
  return arm == Arm::kSpecSerial || arm == Arm::kSpecSuite
             ? specjvm2008_startup()
             : dacapo();
}

constexpr std::size_t kSandboxWorkers = 4;
// A suite pass is several shorter suite sessions rather than one 200-minute
// session per member: the same SuiteRunner fan-out per evaluation, but a
// run then holds a dozen sessions to take medians over, which keeps the
// threaded arm's figures steady on a small shared machine.
constexpr std::size_t kSuiteSessions = 4;
constexpr double kSuiteMinutesPerMember = 50;
constexpr int kAdaptiveMaxReps = 6;
constexpr int kWarmStart = 5;

/// CPU seconds used so far by this process plus its reaped children.
double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage = {};
    ::getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  }
  return total;
}

}  // namespace

Campaign::Campaign(const ArmInfo& arm, std::uint64_t seed, fs::path workdir)
    : arm_(&arm),
      seed_(seed),
      workdir_(std::move(workdir)),
      members_(members_of(arm.arm)) {
  fs::create_directories(workdir_);
}

std::size_t Campaign::size() const {
  return arm_->arm == Arm::kSpecSuite ? kSuiteSessions : members_.size();
}

std::string Campaign::program(std::size_t index) const {
  return arm_->arm == Arm::kSpecSuite ? "suite-" + std::to_string(index)
                                      : members_[index].name;
}

SessionOptions Campaign::session_options(std::size_t index) const {
  SessionOptions options;
  options.budget = SimTime::minutes(200);
  options.repetitions = 3;
  const std::uint64_t pass_seed =
      pass_ == 0 ? seed_ : mix64(seed_, static_cast<std::uint64_t>(pass_));
  options.seed = mix64(pass_seed, fnv1a64(arm_->name + std::string(":") +
                                          program(index)));
  options.eval_threads = arm_->eval_threads;
  switch (arm_->arm) {
    case Arm::kSpecSerial:
      break;
    case Arm::kDacapoSandboxed:
      options.sandbox = true;
      options.sandbox_options.workers = kSandboxWorkers;
      options.measurement.adaptive = true;
      options.measurement.max_reps = kAdaptiveMaxReps;
      break;
    case Arm::kDacapoWarm:
      options.warm_start = kWarmStart;
      options.store_reads = true;
      break;
    case Arm::kSpecSuite:
      options.budget = SimTime::minutes(kSuiteMinutesPerMember *
                                        static_cast<double>(members_.size()));
      break;
  }
  return options;
}

double Campaign::prepare() {
  if (arm_->arm != Arm::kDacapoWarm) return 0.0;
  // The fixture: a cold pass over the same programs at a seed of its own,
  // published into a fresh store. Every pass starts from a copy of it.
  const std::int64_t start = now_ns();
  const fs::path dir = workdir_ / "fixture";
  fs::remove_all(dir);
  const std::uint64_t fixture_seed = mix64(seed_, fnv1a64("fixture"));
  for (std::size_t i = 0; i < members_.size(); ++i) {
    SessionOptions options;
    options.seed = mix64(fixture_seed, fnv1a64(members_[i].name));
    options.store = ResultStore::open(dir.string());
    HierarchicalTuner tuner;
    TuningSession(simulator_, members_[i], options).run(tuner);
  }
  return ns_to_s(now_ns() - start);
}

void Campaign::begin_pass(int pass) {
  pass_ = pass;
  if (arm_->arm != Arm::kDacapoWarm) return;
  fs::remove_all(store_dir());
  fs::create_directories(store_dir());
  fs::copy_file(workdir_ / "fixture" / "store.jsonl", store_dir() / "store.jsonl");
}

SessionRun Campaign::run_session(std::size_t index, bool decorated,
                                 SpanLog* spans) {
  SessionRun run;
  run.program = program(index);
  run.index = index;
  SessionOptions options = session_options(index);
  run.options = options;
  const double cpu_start = cpu_seconds();
  const int session_span =
      spans != nullptr ? spans->open("session", -1, static_cast<int>(index)) : -1;
  const std::int64_t start = now_ns();
  try {
    std::optional<SessionJournal> journal;
    if (arm_->arm == Arm::kDacapoSandboxed) {
      run.journal_path =
          (workdir_ / ("journal-" + std::to_string(index) + ".jsonl")).string();
      journal.emplace(SessionJournal::create(run.journal_path));
      options.journal = &*journal;
    }
    if (arm_->arm == Arm::kDacapoWarm) {
      // Each session opens the store itself, as `jat_tune --store` does.
      const std::int64_t open_start = now_ns();
      options.store = ResultStore::open(store_dir().string());
      const std::int64_t open_end = now_ns();
      run.store_open_ms = static_cast<double>(open_end - open_start) / 1e6;
      run.records_at_open = options.store->stats().records;
      if (spans != nullptr) {
        spans->add("store.open", open_start, open_end, session_span,
                   static_cast<int>(index));
      }
    }
    HierarchicalTuner tuner;
    TimingStrategy timed(tuner, run.timing, spans, session_span,
                         static_cast<int>(index));
    SearchStrategy& strategy =
        decorated ? static_cast<SearchStrategy&>(timed) : tuner;
    if (arm_->arm == Arm::kSpecSuite) {
      SuiteTuningSession session(simulator_, members_, options);
      const SuiteOutcome outcome = session.run(strategy);
      run.best_command_line = outcome.best_config.render_command_line();
      run.best_fingerprint = outcome.best_config.fingerprint();
      run.default_ms = 1000.0;
      run.best_ms = 1000.0 * outcome.geomean_ratio;
      run.improvement = outcome.improvement_frac();
      run.member_improvement = outcome.per_workload_improvement;
      run.evaluations = outcome.evaluations;
      run.store_appends = outcome.store_appends;
      run.warm_seeds = outcome.warm_seeds;
      run.charged_evaluations = outcome.charged_evaluations;
      run.db = outcome.db;
    } else {
      TuningSession session(simulator_, members_[index], options);
      const TuningOutcome outcome = session.run(strategy);
      run.best_command_line = outcome.best_config.render_command_line();
      run.best_fingerprint = outcome.best_config.fingerprint();
      run.default_ms = outcome.default_ms;
      run.best_ms = outcome.best_ms;
      run.improvement = outcome.improvement_frac();
      run.evaluations = outcome.evaluations;
      run.runs = outcome.runs;
      run.cache_hits = outcome.cache_hits;
      run.store_appends = outcome.store_appends;
      run.warm_seeds = outcome.warm_seeds;
      run.charged_evaluations = outcome.charged_evaluations;
      run.faults = outcome.fault_stats;
      run.db = outcome.db;
    }
    journal.reset();
    options.store.reset();
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.wall_s = ns_to_s(now_ns() - start);
  if (spans != nullptr) spans->close(session_span);
  run.cpu_s = cpu_seconds() - cpu_start;
  return run;
}

// ---- set-up -----------------------------------------------------------------

namespace {

double measure_setup_once(const ArmInfo& arm) {
  const std::int64_t start = now_ns();
  const FlagRegistry& registry = FlagRegistry::hotspot();
  const SearchSpace space(FlagHierarchy::hotspot());
  const std::vector<WorkloadSpec> members = members_of(arm.arm);
  const JvmSimulator simulator;
  if (arm.arm == Arm::kDacapoSandboxed) {
    // The first forks: a pool like the session's, answering one request
    // from the workers' inherited cache so no simulation is timed.
    BenchmarkRunner runner(simulator, members.front());
    const Configuration defaults(registry);
    Measurement cached;
    cached.config_fingerprint = defaults.fingerprint();
    cached.times_ms = {1.0};
    cached.summary = summarize(cached.times_ms);
    runner.seed_cache(cached);
    SandboxOptions options;
    options.workers = kSandboxWorkers;
    SandboxedEvaluator sandbox(runner, registry, options);
    sandbox.link_runner(&runner);
    sandbox.measure(defaults, nullptr);
    sandbox.shutdown();
  }
  (void)space;
  return ns_to_s(now_ns() - start);
}

}  // namespace

double handoff_probe_s() {
  int there[2];
  int back[2];
  if (::pipe(there) != 0) throw std::runtime_error("probe: pipe() failed");
  if (::pipe(back) != 0) {
    ::close(there[0]);
    ::close(there[1]);
    throw std::runtime_error("probe: pipe() failed");
  }
  std::thread echo([&] {
    char byte = 0;
    while (::read(there[0], &byte, 1) == 1 && ::write(back[1], &byte, 1) == 1) {
    }
  });
  char byte = 'p';
  const auto round_trip = [&] {
    return ::write(there[1], &byte, 1) == 1 && ::read(back[0], &byte, 1) == 1;
  };
  bool ok = round_trip();  // the echo thread's first wake-up, untimed
  const std::int64_t start = now_ns();
  for (int i = 0; ok && i < kProbeRoundTrips; ++i) ok = round_trip();
  const std::int64_t end = now_ns();
  ::close(there[1]);  // the echo thread reads end-of-file and returns
  echo.join();
  for (const int fd : {there[0], back[0], back[1]}) ::close(fd);
  if (!ok) throw std::runtime_error("probe: pipe round trip failed");
  return ns_to_s(end - start);
}

double reference_scale(double probe_before_s, double probe_after_s) {
  return kReferenceProbeS / (0.5 * (probe_before_s + probe_after_s));
}

std::vector<double> measure_setup(const ArmInfo& arm, int samples) {
  std::vector<double> out;
  double probe = handoff_probe_s();
  for (int i = 0; i < samples; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      double seconds = -1.0;
      try {
        seconds = measure_setup_once(arm);
      } catch (...) {
      }
      const ssize_t written = ::write(fds[1], &seconds, sizeof(seconds));
      ::_exit(written == static_cast<ssize_t>(sizeof(seconds)) ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = -1.0;
    const ssize_t got = pid > 0 ? ::read(fds[0], &seconds, sizeof(seconds)) : 0;
    ::close(fds[0]);
    if (pid > 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    const double next = handoff_probe_s();
    if (got == static_cast<ssize_t>(sizeof(seconds)) && seconds >= 0) {
      out.push_back(seconds * reference_scale(probe, next));
    }
    probe = next;
  }
  return out;
}

// ---- output checks ----------------------------------------------------------

namespace {

/// The validator's objective for one configuration, re-simulated directly:
/// the mean of up to `reps` repetitions at the runner's repetition seeds,
/// stopping at the first failed run (fail-fast), with runs past `limit`
/// counting as failed. +inf when no repetition succeeds.
double resimulated_mean(const JvmSimulator& simulator, const Configuration& config,
                        const WorkloadSpec& workload, std::uint64_t seed, int reps,
                        SimTime limit) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t run_seed =
        mix64(seed, mix64(config.fingerprint(), static_cast<std::uint64_t>(rep)));
    const RunResult run = simulator.run(config, workload, run_seed);
    if (run.crashed || run.total_time > limit) break;
    times.push_back(run.total_time.as_millis());
  }
  if (times.empty()) return std::numeric_limits<double>::infinity();
  return summarize(times).mean;
}

std::string describe(const SessionRun& run) {
  return run.program + " (session " + std::to_string(run.index) + ")";
}

}  // namespace

void check_session(const Campaign& campaign, const SessionRun& run,
                   CheckResult& result) {
  if (!run.error.empty()) {
    result.fail(describe(run) + " threw: " + run.error);
    return;
  }
  const FlagRegistry& registry = FlagRegistry::hotspot();
  const Configuration defaults(registry);
  Configuration best(registry);
  try {
    best = parse_command_line(registry, run.best_command_line);
  } catch (const std::exception& e) {
    result.fail(describe(run) + ": best configuration does not parse: " +
                e.what());
    return;
  }
  if (best.fingerprint() != run.best_fingerprint) {
    result.fail(describe(run) + ": best configuration reparses to another fingerprint");
    return;
  }
  const std::uint64_t seed = mix64(run.options.seed, fnv1a64("validation"));
  const int reps = std::max(5, run.options.repetitions);
  const JvmSimulator& simulator = campaign.simulator();

  if (campaign.arm().arm == Arm::kSpecSuite) {
    double log_sum = 0;
    bool crashed = false;
    std::vector<double> improvement;
    for (const WorkloadSpec& member : campaign.members()) {
      const double base = resimulated_mean(simulator, defaults, member, seed,
                                           reps, SimTime::infinite());
      const SimTime limit =
          SimTime::millis(static_cast<std::int64_t>(base * 5.0));
      const double tuned =
          resimulated_mean(simulator, best, member, seed, reps, limit);
      if (!std::isfinite(tuned)) {
        crashed = true;
        break;
      }
      improvement.push_back(1.0 - tuned / base);
      log_sum += std::log(tuned / base);
    }
    const double ratio =
        std::exp(log_sum / static_cast<double>(campaign.members().size()));
    if (crashed) {
      result.fail(describe(run) + ": validated general configuration crashes on a member");
    } else if (1000.0 * ratio != run.best_ms || improvement != run.member_improvement) {
      result.fail(describe(run) + ": re-simulated geomean ratio " +
                  std::to_string(ratio) + " differs from the reported " +
                  std::to_string(run.best_ms / 1000.0));
    } else if (ratio > 1.0) {
      result.fail(describe(run) + ": general configuration is worse than the defaults");
    }
    return;
  }

  const WorkloadSpec& workload = campaign.members()[run.index];
  const double base = resimulated_mean(simulator, defaults, workload, seed, reps,
                                       SimTime::infinite());
  const double tuned = resimulated_mean(simulator, best, workload, seed, reps,
                                        SimTime::infinite());
  if (base != run.default_ms || tuned != run.best_ms) {
    result.fail(describe(run) + ": re-simulated default/best " +
                std::to_string(base) + "/" + std::to_string(tuned) +
                " ms differ from the reported " + std::to_string(run.default_ms) +
                "/" + std::to_string(run.best_ms));
  }
  if (!(run.best_ms <= run.default_ms)) {
    result.fail(describe(run) + ": best is slower than the default");
  }
  if (!run.journal_path.empty()) {
    try {
      const SessionJournal journal = SessionJournal::resume(run.journal_path);
      if (!journal.ended() ||
          static_cast<std::int64_t>(journal.committed().size()) != run.evaluations) {
        result.fail(describe(run) + ": journal holds " +
                    std::to_string(journal.committed().size()) +
                    " committed records (ended=" +
                    (journal.ended() ? "yes" : "no") + ") for " +
                    std::to_string(run.evaluations) + " evaluations");
      }
    } catch (const std::exception& e) {
      result.fail(describe(run) + ": journal does not reopen: " + e.what());
    }
  }
}

void check_store(const Campaign& campaign, CheckResult& result) {
  try {
    const auto store =
        ResultStore::open(campaign.store_dir().string(), {.read_only = true});
    const StoreStats stats = store->stats();
    if (stats.dropped != 0) {
      result.fail("store has " + std::to_string(stats.dropped) +
                  " dropped line(s)");
    }
  } catch (const std::exception& e) {
    result.fail(std::string("store does not reopen: ") + e.what());
  }
}

bool same_rows(const SessionRun& a, const SessionRun& b, bool compare_budget) {
  if (a.db == nullptr || b.db == nullptr) return false;
  const std::vector<EvalRecord> ra = a.db->all();
  const std::vector<EvalRecord> rb = b.db->all();
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const EvalRecord& x = ra[i];
    const EvalRecord& y = rb[i];
    if (x.index != y.index || x.fingerprint != y.fingerprint ||
        x.objective_ms != y.objective_ms || x.command_line != y.command_line ||
        x.phase != y.phase || x.fault != y.fault || x.crash_reason != y.crash_reason ||
        x.attempts != y.attempts || x.stop != y.stop || x.reps != y.reps ||
        x.has_metrics != y.has_metrics || !(x.metric_means == y.metric_means) ||
        (compare_budget && x.budget_spent != y.budget_spent)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
