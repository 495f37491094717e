// Trajectory pins: every ResultDb row of a fixed set of serial sessions,
// hashed and compared with the value recorded when the option values these
// sessions run under were still settable fields. A refactor that claims to
// keep behaviour must keep every hash.
//
// The sessions cover every `jat_tune --tuner` name, bench_t5's flat
// baselines and bench_f7's hierarchical ablations on startup.serial (budget
// 20 min, seed 7), two resilient sessions under bench_t11's hostile fault
// mix (between them, retries, quarantine and breaker trips at the default
// thresholds), and a sandboxed session whose workers are killed and wedged
// (the sandbox's crash and hang charges).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>

#include "support/log.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

/// FNV-1a over one line per row: index, fingerprint, objective bits,
/// budget position in micros, phase, fault, stop, attempts, repetitions.
std::uint64_t row_hash(const ResultDb& db) {
  std::string text;
  for (const EvalRecord& r : db.all()) {
    std::uint64_t objective_bits = 0;
    std::memcpy(&objective_bits, &r.objective_ms, sizeof objective_bits);
    text += std::to_string(r.index) + ',' + fingerprint_hex(r.fingerprint) +
            ',' + std::to_string(objective_bits) + ',' +
            std::to_string(r.budget_spent.as_micros()) + ',' + r.phase + ',' +
            to_string(r.fault) + ',' + to_string(r.stop) + ',' +
            std::to_string(r.attempts) + ',' + std::to_string(r.reps) + '\n';
  }
  return fnv1a64(text);
}

SessionOptions pinned_options() {
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.seed = 7;
  return options;
}

std::unique_ptr<SearchStrategy> make_pinned_tuner(const std::string& name) {
  if (name == "hierarchical") return std::make_unique<HierarchicalTuner>();
  if (name == "random") return std::make_unique<RandomSearch>(0.15);
  if (name == "hillclimb") return std::make_unique<HillClimber>();
  if (name == "annealing") return std::make_unique<SimulatedAnnealing>();
  if (name == "genetic") return std::make_unique<GeneticTuner>();
  if (name == "bandit") return std::make_unique<BanditEnsemble>();
  if (name == "ils") return std::make_unique<IteratedLocalSearch>();
  if (name == "subset") return std::make_unique<SubsetTuner>();
  if (name == "random-flat") return std::make_unique<RandomSearch>(0.15, true);
  if (name == "genetic-flat") return std::make_unique<GeneticTuner>(true);
  HierarchicalTuner::Options options;
  if (name == "hierarchical-nostruct") options.structural_first = false;
  if (name == "hierarchical-ungated") options.gate_subtrees = false;
  return std::make_unique<HierarchicalTuner>(options);
}

struct Pin {
  const char* tuner;
  std::size_t rows;
  std::uint64_t hash;
};

void PrintTo(const Pin& pin, std::ostream* out) { *out << pin.tuner; }

const Pin kTunerPins[] = {
    {"hierarchical", 70, 0x927318da692f11a2ULL},
    {"random", 45, 0x45fd927827b2e034ULL},
    {"hillclimb", 57, 0xc0234713722e2996ULL},
    {"annealing", 59, 0x6b5f1d501c3ed1b8ULL},
    {"genetic", 41, 0xa7685f3556e7464dULL},
    {"bandit", 57, 0x80e3ab18fd2ac8f4ULL},
    {"ils", 66, 0x8290a5f3793d0b9eULL},
    {"subset", 60, 0x527f1929eae88dddULL},
    {"random-flat", 78, 0x9fd8170754eab25fULL},
    {"genetic-flat", 72, 0x4c211560eca9a58cULL},
    {"hierarchical-nostruct", 64, 0x848fb445c67c75dcULL},
    {"hierarchical-ungated", 62, 0x3d7ab5833f4f5951ULL},
};

void expect_pinned(const TuningOutcome& outcome, std::size_t rows,
                   std::uint64_t hash) {
  ASSERT_NE(outcome.db, nullptr);
  EXPECT_EQ(outcome.db->size(), rows);
  EXPECT_EQ(fingerprint_hex(row_hash(*outcome.db)), fingerprint_hex(hash));
}

class SessionPin : public ::testing::TestWithParam<Pin> {
 protected:
  SessionPin() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;
};

TEST_P(SessionPin, EveryRowHashesToThePinnedValue) {
  const Pin& pin = GetParam();
  const auto tuner = make_pinned_tuner(pin.tuner);
  ASSERT_EQ(tuner->name(), pin.tuner);
  TuningSession session(sim_, find_workload("startup.serial"), pinned_options());
  expect_pinned(session.run(*tuner), pin.rows, pin.hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllTuners, SessionPin, ::testing::ValuesIn(kTunerPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      std::string name = info.param.tuner;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class FaultSessionPin : public ::testing::Test {
 protected:
  FaultSessionPin() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;
};

/// bench_t11's hostile mix behind the resilience layer.
SessionOptions hostile_options(double budget_minutes) {
  SessionOptions options = pinned_options();
  options.budget = SimTime::minutes(budget_minutes);
  options.resilient = true;
  options.fault_injection.transient_rate = 0.15;
  options.fault_injection.deterministic_rate = 0.03;
  options.fault_injection.hang_rate = 0.02;
  return options;
}

TEST_F(FaultSessionPin, ResilientSessionRetriesAndQuarantines) {
  TuningSession session(sim_, find_workload("startup.serial"),
                        hostile_options(60));
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);
  EXPECT_GT(outcome.fault_stats.retries, 0);
  EXPECT_GT(outcome.fault_stats.retry_successes, 0);
  EXPECT_GT(outcome.fault_stats.quarantined, 0);
  EXPECT_GT(outcome.fault_stats.quarantine_hits, 0);
  expect_pinned(outcome, 207, 0xd7a64e356b175da1ULL);
}

TEST_F(FaultSessionPin, ResilientFlatSessionTripsTheBreaker) {
  // Flat sampling proposes enough non-startable configurations in a row to
  // reach the breaker threshold, which the gated tuners never do.
  TuningSession session(sim_, find_workload("avrora"), hostile_options(60));
  RandomSearch tuner(0.15, /*flat=*/true);
  const TuningOutcome outcome = session.run(tuner);
  EXPECT_GT(outcome.fault_stats.retries, 0);
  EXPECT_GT(outcome.fault_stats.breaker_trips, 0);
  expect_pinned(outcome, 107, 0x712c468ba17ad3edULL);
}

TEST_F(FaultSessionPin, SandboxedSessionWithKilledAndWedgedWorkers) {
  SessionOptions options = pinned_options();
  // At 30 minutes exactly one configuration wedges its worker.
  options.budget = SimTime::minutes(30);
  options.sandbox = true;
  options.sandbox_options.eval_deadline_s = 2.0;
  options.sandbox_options.inject.kill_rate = 0.05;
  options.sandbox_options.inject.wedge_rate = 0.02;
  TuningSession session(sim_, find_workload("startup.serial"), options);
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);
  // Both worker-death charges appear: a kill is a crash, a wedge a timeout.
  int kills = 0;
  int wedges = 0;
  for (const EvalRecord& r : outcome.db->all()) {
    if (r.crash_reason.find("killed by") != std::string::npos) ++kills;
    if (r.crash_reason.find("sandbox deadline") != std::string::npos) ++wedges;
  }
  EXPECT_GT(kills, 0);
  EXPECT_EQ(wedges, 1);
  expect_pinned(outcome, 110, 0xe06202e7fa874cbfULL);
}

}  // namespace
}  // namespace jat
