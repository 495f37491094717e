// Shared pieces of the reference tuning benchmark: the four pinned
// campaigns, the ask/tell timing decorator, and the span log the traced
// run attributes wall time with.
//
// Everything here drives the tuner through its public library API
// (TuningSession, SuiteTuningSession, JvmSimulator) and times calls into
// each layer from the outside; nothing is instrumented inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness/fault.hpp"
#include "harness/result_db.hpp"
#include "jvmsim/engine.hpp"
#include "tuner/session.hpp"
#include "tuner/strategy.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Quantile by linear interpolation between closest ranks (q in [0, 1]);
/// 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
double sum_of(const std::vector<double>& sample);

// ---- spans ------------------------------------------------------------------

/// One timed interval: name, start, end, the span that caused it (-1 for a
/// root), and the session it belongs to.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int session = -1;
};

/// In-memory span log, written out once when the run ends.
class SpanLog {
 public:
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int session);
  /// Opens a span now; close() stamps its end.
  int open(std::string name, int parent, int session);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span: its duration minus the time its children cover.
  std::vector<std::int64_t> self_ns() const;
  bool write_jsonl(const fs::path& path) const;

 private:
  std::vector<Span> spans_;
};

// ---- the timing decorator ---------------------------------------------------

/// What the decorator saw during one session.
struct AskTellTiming {
  /// Wall time from a proposal leaving ask() to its tell(), in tell order
  /// (which is commit order), microseconds.
  std::vector<double> latency_us;
  std::int64_t ask_calls = 0;
  std::int64_t proposals = 0;
  /// Traced only: time inside the wrapped strategy's ask()/tell().
  std::int64_t ask_ns = 0;
  std::int64_t tell_ns = 0;
  /// Traced only: proposals asked but not yet told, summed at each ask().
  std::int64_t inflight_sum = 0;
};

/// A SearchStrategy decorator that forwards every call to the wrapped
/// strategy and reads the clock once when proposals leave ask() and once at
/// each tell(). With a span log it also records one span per ask()/tell()
/// call. It never changes what the strategy proposes.
class TimingStrategy : public jat::SearchStrategy {
 public:
  TimingStrategy(jat::SearchStrategy& inner, AskTellTiming& timing,
                 SpanLog* spans = nullptr, int parent_span = -1,
                 int session = -1);

  std::string name() const override;
  void begin(jat::StrategyContext& ctx) override;
  void ask(std::vector<jat::Proposal>& out, std::size_t max) override;
  void tell(const jat::Observation& observation) override;
  void finish() override;

 private:
  jat::SearchStrategy* inner_;
  AskTellTiming* timing_;
  SpanLog* spans_;
  int parent_span_;
  int session_;
  std::deque<std::int64_t> asked_at_;
};

// ---- campaigns --------------------------------------------------------------

enum class Arm { kSpecSerial, kDacapoSandboxed, kDacapoWarm, kSpecSuite };

struct ArmInfo {
  Arm arm;
  const char* name;
  std::size_t eval_threads;
};
/// The arm named `name`, or null.
const ArmInfo* find_arm(const std::string& name);

/// One finished session, reduced to what the metrics and checks need.
struct SessionRun {
  std::string program;  ///< workload name, or "suite-<k>" for spec-suite
  std::size_t index = 0;
  jat::SessionOptions options;  ///< as run (journal/store pointers cleared)
  double wall_s = 0;
  /// CPU seconds of this process and its reaped children (sandbox workers)
  /// over the session: with wall_s, how many threads did work on average.
  double cpu_s = 0;
  AskTellTiming timing;
  std::string best_command_line;
  std::uint64_t best_fingerprint = 0;
  double default_ms = 0;  ///< suite: 1000 (the score of the defaults)
  double best_ms = 0;     ///< suite: 1000 x geomean ratio
  double improvement = 0;  ///< validated improvement fraction
  std::vector<double> member_improvement;  ///< suite only
  std::int64_t evaluations = 0;
  std::int64_t runs = 0;  ///< 0 for the suite (SuiteOutcome has no count)
  std::int64_t cache_hits = 0;
  std::int64_t store_appends = 0;
  std::int64_t warm_seeds = 0;
  std::int64_t charged_evaluations = 0;
  jat::FaultStats faults;
  std::shared_ptr<jat::ResultDb> db;
  std::string journal_path;  ///< dacapo-sandboxed
  double store_open_ms = 0;  ///< dacapo-warm: ResultStore::open in the session
  std::int64_t records_at_open = 0;
  std::string error;  ///< non-empty when the session threw
};

/// The pinned campaign of one arm: its sessions, options, and on-disk
/// fixtures (journals, the warm store) under a private work directory.
class Campaign {
 public:
  Campaign(const ArmInfo& arm, std::uint64_t seed, fs::path workdir);

  const ArmInfo& arm() const { return *arm_; }
  std::size_t size() const;
  /// Session names in campaign order.
  std::string program(std::size_t index) const;

  /// One-time preparation outside every timed region (dacapo-warm builds
  /// its store fixture with a cold pass at a seed of its own). Returns the
  /// seconds it took.
  double prepare();
  /// Starts pass `pass`: its sessions get master seeds of their own, so
  /// longer runs average over more campaigns, and the warm store goes back
  /// to the fixture. Pass 0 is the pinned campaign the checks and
  /// improvement_pct use.
  void begin_pass(int pass);

  /// Runs session `index` of the current pass, wrapped in the timing
  /// decorator when `decorated` is set (recording spans into `spans` when
  /// given), and times it end to end, including opening its journal or store.
  SessionRun run_session(std::size_t index, bool decorated,
                         SpanLog* spans = nullptr);

  /// The options session `index` of the current pass runs with
  /// (journal/store left null).
  jat::SessionOptions session_options(std::size_t index) const;
  const std::vector<jat::WorkloadSpec>& members() const { return members_; }
  const jat::JvmSimulator& simulator() const { return simulator_; }
  fs::path store_dir() const { return workdir_ / "store"; }
  fs::path workdir() const { return workdir_; }

 private:
  const ArmInfo* arm_;
  std::uint64_t seed_;
  int pass_ = 0;
  fs::path workdir_;
  jat::JvmSimulator simulator_;
  std::vector<jat::WorkloadSpec> members_;
};

// ---- machine speed ----------------------------------------------------------

/// The shared host this benchmark runs on changes speed by 20-40% within a
/// run and by 20-25% between runs, and every time measured moves with it.
/// So each timed interval is bracketed by a probe: `kProbeRoundTrips`
/// one-byte pipe round trips between two threads on this process's CPU,
/// i.e. two context switches each. Over the same periods the probe tracks
/// the sessions' wall time with a correlation of 0.85-0.9, serial arms
/// included.
constexpr int kProbeRoundTrips = 1000;
/// The probe on the reference machine: 4 us per round trip.
constexpr double kReferenceProbeS = 4e-6 * kProbeRoundTrips;

/// Seconds one probe takes now.
double handoff_probe_s();
/// Factor that scales a time measured between two probes to the reference
/// speed: kReferenceProbeS over the mean of the probes.
double reference_scale(double probe_before_s, double probe_after_s);

/// Seconds of `samples` set-ups at the reference speed, each in a freshly
/// forked child so every one pays the one-time costs again: flag catalog and
/// hierarchy, search space, suite descriptors, simulator, and for the
/// sandboxed arm the first worker forks.
std::vector<double> measure_setup(const ArmInfo& arm, int samples);

// ---- output checks ----------------------------------------------------------

struct CheckResult {
  bool ok = true;
  std::vector<std::string> failures;
  void fail(std::string message) {
    ok = false;
    failures.push_back(std::move(message));
  }
};

/// Re-simulates the validated best and default configurations with
/// JvmSimulator::run at the validation seed and compares them with what the
/// session reported; for the sandboxed arm also reopens the journal.
void check_session(const Campaign& campaign, const SessionRun& run,
                   CheckResult& result);
/// Reopens the warm store read-only and requires zero dropped lines.
void check_store(const Campaign& campaign, CheckResult& result);
/// True when both sessions logged identical ResultDb rows. The budget
/// position a row was recorded at depends on thread timing when the pool
/// evaluates concurrently, so `compare_budget` is off for threaded arms;
/// every other field must match exactly.
bool same_rows(const SessionRun& a, const SessionRun& b, bool compare_budget);

// ---- the traced run ---------------------------------------------------------

/// One reported metric: its name, the value as measured, and its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct LayerReport {
  std::vector<Metric> metrics;     ///< the per_layer metrics
  std::vector<std::string> lines;  ///< human-readable table and notes
};

/// Runs the campaign once undecorated and once traced, replays each traced
/// session's evaluations through the layers' public functions, and returns
/// the per-layer metrics with the reconciliation against session wall time.
LayerReport run_traced(Campaign& campaign, CheckResult& checks,
                       std::int64_t& attempted, std::int64_t& failed);

}  // namespace perfbench
