// Durable-session tests: the write-ahead journal's record format survives
// a round trip bit-exactly, the tolerant reader truncates torn or
// corrupted tails (and only those — wrong-file symptoms raise structured
// errors), and the headline guarantee — a session killed mid-budget and
// resumed from its journal reaches an outcome bit-identical to the
// uninterrupted run — holds across strategies and thread counts. Also
// covers the satellites that ride on the same machinery: cooperative
// cancellation, the resilience layer's hang deadline, and crash-safe CSV.
#include "harness/journal.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "determinism_matrix.hpp"
#include "file_size_limit.hpp"
#include "harness/budget.hpp"
#include "harness/fault.hpp"
#include "harness/objective.hpp"
#include "harness/resilient.hpp"
#include "support/cancellation.hpp"
#include "support/log.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/session.hpp"
#include "tuner/suite_session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

WorkloadSpec journal_workload() {
  WorkloadSpec w;
  w.name = "journal-test";
  w.total_work = 500;
  w.startup_work = 100;
  w.startup_classes = 1500;
  w.alloc_rate = 600 * 1024;
  w.method_count = 3000;
  w.noise_sigma = 0.01;
  return w;
}

std::unique_ptr<SearchStrategy> make_strategy(const std::string& name) {
  if (name == "random") return std::make_unique<RandomSearch>(0.15);
  if (name == "hill") return std::make_unique<HillClimber>();
  if (name == "genetic") return std::make_unique<GeneticTuner>();
  if (name == "hierarchical") return std::make_unique<HierarchicalTuner>();
  return nullptr;
}

/// Smoke-scale options under which the bit-identity contract is exact
/// (single repetitions, racing off — see tests/test_scheduler.cpp).
SessionOptions smoke_options(std::size_t eval_threads) {
  SessionOptions options;
  options.budget = SimTime::minutes(8);
  options.repetitions = 1;
  options.racing_factor = 0.0;
  options.seed = 99;
  options.eval_threads = eval_threads;
  options.inflight = 8;
  return options;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "jat_journal_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Truncates a JSONL file to its first `n` complete lines.
void keep_first_lines(const std::string& path, std::size_t n) {
  std::istringstream in(slurp(path));
  std::string line, kept;
  for (std::size_t i = 0; i < n && std::getline(in, line); ++i) {
    kept += line;
    kept += '\n';
  }
  spit(path, kept);
}

JournalMeta sample_meta() {
  JournalMeta meta;
  meta.kind = "single";
  meta.workload = "journal-test";
  meta.tuner = "random";
  meta.seed = 0xDEADBEEFCAFEF00DULL;  // exercises the > int64 range
  meta.budget = SimTime::minutes(8);
  meta.repetitions = 1;
  meta.inflight = 8;
  meta.eval_threads = 4;
  meta.per_run_overhead_s = 2.0;
  meta.racing_factor = 0.0;
  meta.space_fingerprint = 0x1234567890ABCDEFULL;
  meta.resilient = false;
  meta.fault_fingerprint = 0;
  return meta;
}

JournalEval sample_eval(std::int64_t seq) {
  JournalEval e;
  e.seq = seq;
  e.fingerprint = 0x8000000000000000ULL + static_cast<std::uint64_t>(seq);
  e.phase = seq == 0 ? "default" : "structural";
  e.command_line = "-XX:NewRatio=" + std::to_string(1 + seq);
  e.times_ms = {5431.0 + 0.1 * double(seq), 5432.125, 1e-3 * double(seq + 1)};
  e.cost = SimTime::micros(22334808 + 17 * seq);
  e.budget_spent = SimTime::micros(22334808 * (seq + 1));
  return e;
}

class JournalFormat : public ::testing::Test {
 protected:
  JournalFormat() { set_log_level(LogLevel::kOff); }
};

// ---- record format round trip -----------------------------------------------

TEST_F(JournalFormat, MetaAndEvalsRoundTripBitExactly) {
  const std::string path = temp_path("roundtrip.jsonl");
  const JournalMeta meta = sample_meta();
  {
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(meta);
    for (std::int64_t seq = 0; seq < 5; ++seq) journal.append(sample_eval(seq));
    journal.flush();
  }
  SessionJournal reread = SessionJournal::resume(path);
  EXPECT_EQ(reread.dropped_records(), 0u);
  EXPECT_FALSE(reread.ended());

  const JournalMeta& m = reread.meta();
  EXPECT_EQ(m.version, SessionJournal::kVersion);
  EXPECT_EQ(m.kind, meta.kind);
  EXPECT_EQ(m.workload, meta.workload);
  EXPECT_EQ(m.tuner, meta.tuner);
  EXPECT_EQ(m.seed, meta.seed);
  EXPECT_EQ(m.budget, meta.budget);
  EXPECT_EQ(m.repetitions, meta.repetitions);
  EXPECT_EQ(m.inflight, meta.inflight);
  EXPECT_EQ(m.eval_threads, meta.eval_threads);
  EXPECT_DOUBLE_EQ(m.per_run_overhead_s, meta.per_run_overhead_s);
  EXPECT_EQ(m.space_fingerprint, meta.space_fingerprint);

  ASSERT_EQ(reread.committed().size(), 5u);
  for (std::int64_t seq = 0; seq < 5; ++seq) {
    const JournalEval expected = sample_eval(seq);
    const JournalEval& got = reread.committed()[std::size_t(seq)];
    EXPECT_EQ(got.seq, expected.seq);
    EXPECT_EQ(got.fingerprint, expected.fingerprint);
    EXPECT_EQ(got.phase, expected.phase);
    EXPECT_EQ(got.command_line, expected.command_line);
    EXPECT_EQ(got.times_ms, expected.times_ms);  // %.17g: exact doubles
    EXPECT_EQ(got.cost, expected.cost);          // integer microseconds
    EXPECT_EQ(got.budget_spent, expected.budget_spent);
  }
}

TEST_F(JournalFormat, CrashedEvalKeepsTaxonomyAndInfiniteObjective) {
  const std::string path = temp_path("crashed.jsonl");
  JournalEval crashed = sample_eval(0);
  crashed.times_ms.clear();
  crashed.crashed = true;
  crashed.crash_reason = "heap < survivor geometry";
  crashed.fault = FaultClass::kDeterministic;
  crashed.attempts = 3;
  crashed.failed_reps = 1;
  {
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(sample_meta());
    journal.append(crashed);
    journal.flush();
  }
  SessionJournal reread = SessionJournal::resume(path);
  ASSERT_EQ(reread.committed().size(), 1u);
  const Measurement m = reread.committed()[0].to_measurement();
  EXPECT_TRUE(m.crashed);
  EXPECT_EQ(m.crash_reason, "heap < survivor geometry");
  EXPECT_EQ(m.fault, FaultClass::kDeterministic);
  EXPECT_EQ(m.attempts, 3);
  EXPECT_EQ(m.failed_reps, 1);
  EXPECT_EQ(m.objective(), kInf);
}

TEST_F(JournalFormat, EndRecordMarksCleanCompletion) {
  const std::string path = temp_path("ended.jsonl");
  {
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(sample_meta());
    journal.append(sample_eval(0));
    journal.append_end(0xABCDULL, 5400.0, 5500.0, 1);
  }
  SessionJournal reread = SessionJournal::resume(path);
  EXPECT_TRUE(reread.ended());
  EXPECT_EQ(reread.committed().size(), 1u);
}

// ---- the tolerant reader ----------------------------------------------------

TEST_F(JournalFormat, TornFinalLineIsDroppedAndPhysicallyTruncated) {
  const std::string path = temp_path("torn.jsonl");
  {
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(sample_meta());
    for (std::int64_t seq = 0; seq < 3; ++seq) journal.append(sample_eval(seq));
    journal.flush();
  }
  // Tear the final record mid-line, as a crash between write and sync would.
  std::string content = slurp(path);
  spit(path, content.substr(0, content.size() - 40));

  {
    SessionJournal reread = SessionJournal::resume(path);
    EXPECT_EQ(reread.committed().size(), 2u);
    EXPECT_EQ(reread.dropped_records(), 1u);
    // The file was physically truncated to the valid prefix, so appends
    // land after a complete record, not inside the torn one.
    reread.append(sample_eval(2));
    reread.flush();
  }
  SessionJournal healed = SessionJournal::resume(path);
  EXPECT_EQ(healed.committed().size(), 3u);
  EXPECT_EQ(healed.dropped_records(), 0u);
}

TEST_F(JournalFormat, BitFlipFailsTheChecksumAndTruncatesThere) {
  const std::string path = temp_path("bitflip.jsonl");
  {
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(sample_meta());
    for (std::int64_t seq = 0; seq < 4; ++seq) journal.append(sample_eval(seq));
    journal.flush();
  }
  // Flip one bit inside the third eval record's body (line index 3).
  std::string content = slurp(path);
  std::size_t line_start = 0;
  for (int i = 0; i < 3; ++i) line_start = content.find('\n', line_start) + 1;
  content[line_start + 30] ^= 0x01;
  spit(path, content);

  SessionJournal reread = SessionJournal::resume(path);
  // Everything from the corrupt record on is dropped — a checksum failure
  // means the suffix cannot be trusted.
  EXPECT_EQ(reread.committed().size(), 2u);
  EXPECT_EQ(reread.dropped_records(), 2u);
}

TEST_F(JournalFormat, DuplicateSequenceIsAnErrorNotTruncation) {
  const std::string path = temp_path("dupseq.jsonl");
  {
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(sample_meta());
    journal.append(sample_eval(0));
    journal.append(sample_eval(0));  // same seq again: wrong file / bad code
    journal.flush();
  }
  EXPECT_THROW((void)SessionJournal::resume(path), JournalError);
}

TEST_F(JournalFormat, MissingMetaIsAnError) {
  const std::string path = temp_path("nometa.jsonl");
  spit(path, "");
  EXPECT_THROW((void)SessionJournal::resume(path), JournalError);
  EXPECT_THROW((void)SessionJournal::resume(temp_path("nosuchfile.jsonl")),
               JournalError);
}

TEST_F(JournalFormat, FreshJournalRefusesASecondSession) {
  const std::string path = temp_path("reuse.jsonl");
  SessionJournal journal = SessionJournal::create(path);
  journal.write_meta(sample_meta());
  TuningSession session(JvmSimulator(), journal_workload(), smoke_options(0));
  RandomSearch strategy(0.15);
  SessionOptions options = smoke_options(0);
  options.journal = &journal;
  TuningSession reused(JvmSimulator(), journal_workload(), options);
  EXPECT_THROW((void)reused.run(strategy), JournalError);
}

// A failed fsync must never report a record as durable. fsync on /dev/null
// fails with EINVAL, so the meta record (always synced) must throw, naming
// the path and the errno; so must an explicit flush.
TEST_F(JournalFormat, FailedFsyncIsAJournalError) {
  SessionJournal journal = SessionJournal::create("/dev/null");
  try {
    journal.write_meta(sample_meta());
    FAIL() << "write_meta reported success although fsync failed";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'/dev/null'"), std::string::npos) << what;
    EXPECT_NE(what.find("errno " + std::to_string(EINVAL)), std::string::npos)
        << what;
  }
  EXPECT_THROW(journal.flush(), JournalError);
}

// ---- resume compatibility validation ----------------------------------------

TEST_F(JournalFormat, ValidateResumeMetaPinpointsTheMismatchedField) {
  const JournalMeta journaled = sample_meta();
  EXPECT_NO_THROW(validate_resume_meta(journaled, journaled));

  struct Case {
    const char* field;
    void (*mutate)(JournalMeta&);
  };
  const Case cases[] = {
      {"kind", [](JournalMeta& m) { m.kind = "suite"; }},
      {"workload", [](JournalMeta& m) { m.workload = "other"; }},
      {"tuner", [](JournalMeta& m) { m.tuner = "hill"; }},
      {"seed", [](JournalMeta& m) { m.seed += 1; }},
      {"budget_us", [](JournalMeta& m) { m.budget = SimTime::minutes(9); }},
      {"repetitions", [](JournalMeta& m) { m.repetitions = 5; }},
      {"inflight", [](JournalMeta& m) { m.inflight = 4; }},
      {"space_fingerprint",
       [](JournalMeta& m) { m.space_fingerprint ^= 0xFF; }},
      {"resilient", [](JournalMeta& m) { m.resilient = true; }},
      {"fault_fingerprint",
       [](JournalMeta& m) { m.fault_fingerprint = 7; }},
  };
  for (const Case& c : cases) {
    JournalMeta session = journaled;
    c.mutate(session);
    try {
      validate_resume_meta(journaled, session);
      FAIL() << "no error for mismatched " << c.field;
    } catch (const JournalError& error) {
      EXPECT_EQ(error.field(), c.field);
      EXPECT_NE(error.journaled_value(), error.session_value()) << c.field;
    }
  }

  // eval_threads is wall-clock only and deliberately exempt.
  JournalMeta session = journaled;
  session.eval_threads = 16;
  EXPECT_NO_THROW(validate_resume_meta(journaled, session));
}

// Property over the meta field table: set each field of the record in turn
// to a value other than sample_meta()'s; written, read back and validated
// against the unchanged meta, the mismatch names exactly that field
// (eval_threads reads back but is never a mismatch). The fields come from
// the written record itself, so a new table entry without a case here fails.
TEST_F(JournalFormat, EveryMetaFieldRoundTripsAndValidatesByName) {
  const std::map<std::string, void (*)(JournalMeta&)> perturb = {
      {"version", [](JournalMeta& m) { m.version = 2; }},
      {"kind", [](JournalMeta& m) { m.kind = "suite"; }},
      {"objective", [](JournalMeta& m) { m.objective = "pause_max"; }},
      {"workload", [](JournalMeta& m) { m.workload = "other"; }},
      {"tuner", [](JournalMeta& m) { m.tuner = "hill"; }},
      {"seed", [](JournalMeta& m) { m.seed += 1; }},
      {"budget_us",
       [](JournalMeta& m) { m.budget = m.budget + SimTime::micros(1); }},
      {"repetitions", [](JournalMeta& m) { m.repetitions += 1; }},
      {"inflight", [](JournalMeta& m) { m.inflight += 1; }},
      {"eval_threads", [](JournalMeta& m) { m.eval_threads += 3; }},
      {"per_run_overhead_s",
       [](JournalMeta& m) { m.per_run_overhead_s += 0.25; }},
      {"racing_factor", [](JournalMeta& m) { m.racing_factor = 1.3; }},
      {"adaptive", [](JournalMeta& m) { m.adaptive = !m.adaptive; }},
      {"min_reps", [](JournalMeta& m) { m.min_reps += 1; }},
      {"max_reps", [](JournalMeta& m) { m.max_reps += 1; }},
      {"ci_rel", [](JournalMeta& m) { m.ci_rel *= 2; }},
      {"race_p", [](JournalMeta& m) { m.race_p *= 2; }},
      {"space_fingerprint",
       [](JournalMeta& m) { m.space_fingerprint ^= 0xFF; }},
      {"resilient", [](JournalMeta& m) { m.resilient = !m.resilient; }},
      {"fault_fingerprint", [](JournalMeta& m) { m.fault_fingerprint = 7; }},
  };
  const std::string path = temp_path("meta_fields.jsonl");
  const auto write_and_reread = [&](const JournalMeta& meta) {
    {
      SessionJournal journal = SessionJournal::create(path);
      journal.write_meta(meta);
    }
    return SessionJournal::resume(path).meta();
  };

  // The record's keys, with the objective present (a run_time meta omits it).
  JournalMeta full = sample_meta();
  full.objective = "footprint";
  (void)write_and_reread(full);
  std::string first_line = slurp(path);
  first_line = first_line.substr(0, first_line.find('\n'));
  const std::optional<TraceEvent> record =
      journal_decode_record(first_line, 1);
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->fields.size(), perturb.size()) << "a field has no case";

  const JournalMeta base = sample_meta();
  for (const auto& [name, value] : record->fields) {
    ASSERT_EQ(perturb.count(name), 1u) << name;
    JournalMeta changed = base;
    perturb.at(name)(changed);
    const JournalMeta reread = write_and_reread(changed);
    if (name == "eval_threads") {
      EXPECT_EQ(reread.eval_threads, changed.eval_threads);
      EXPECT_NO_THROW(validate_resume_meta(reread, base));
      continue;
    }
    try {
      validate_resume_meta(reread, base);
      ADD_FAILURE() << "no mismatch reported for " << name;
    } catch (const JournalError& error) {
      EXPECT_EQ(error.field(), name);
    }
  }
}

// The session-side pair: options to meta, through the restore, and back to
// meta is the identity.
TEST_F(JournalFormat, RestoredOptionsJournalTheSameMeta) {
  SessionOptions options;
  options.budget = SimTime::minutes(33);
  options.repetitions = 4;
  options.seed = 0xDEADBEEFCAFEF00DULL;
  options.eval_threads = 3;
  options.inflight = 5;
  options.per_run_overhead_s = 1.5;
  options.racing_factor = 1.3;
  options.objective = make_objective("pause_max");
  options.measurement.adaptive = true;
  options.measurement.min_reps = 3;
  options.measurement.max_reps = 7;
  options.measurement.ci_rel = 0.03;
  options.measurement.race_p = 0.01;
  options.resilient = true;
  const JournalMeta meta = journal_meta(options, "single", "w", "t");

  SessionOptions restored;
  restore_session_options(meta, restored);
  const JournalMeta again = journal_meta(restored, "single", "w", "t");
  EXPECT_NO_THROW(validate_resume_meta(meta, again));
  EXPECT_EQ(again.eval_threads, meta.eval_threads);
  // Every field the options feed differs from a default session's, so the
  // identity above is not vacuous.
  const JournalMeta defaults = journal_meta(SessionOptions{}, "single", "w", "t");
  EXPECT_NE(defaults.version, meta.version);
  EXPECT_NE(defaults.objective, meta.objective);
  EXPECT_NE(defaults.seed, meta.seed);
  EXPECT_NE(defaults.budget, meta.budget);
  EXPECT_NE(defaults.repetitions, meta.repetitions);
  EXPECT_NE(defaults.inflight, meta.inflight);
  EXPECT_NE(defaults.eval_threads, meta.eval_threads);
  EXPECT_NE(defaults.per_run_overhead_s, meta.per_run_overhead_s);
  EXPECT_NE(defaults.racing_factor, meta.racing_factor);
  EXPECT_NE(defaults.adaptive, meta.adaptive);
  EXPECT_NE(defaults.min_reps, meta.min_reps);
  EXPECT_NE(defaults.max_reps, meta.max_reps);
  EXPECT_NE(defaults.ci_rel, meta.ci_rel);
  EXPECT_NE(defaults.race_p, meta.race_p);
  EXPECT_NE(defaults.resilient, meta.resilient);
}

TEST_F(JournalFormat, SessionResumeRefusesAForeignJournal) {
  const std::string path = temp_path("foreign.jsonl");
  JvmSimulator sim;
  {
    TuningSession session(sim, journal_workload(), smoke_options(0));
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(session.journal_meta("random"));
    journal.flush();
  }
  SessionOptions other = smoke_options(0);
  other.seed = 100;  // journal was written under seed 99
  TuningSession session(sim, journal_workload(), other);
  SessionJournal journal = SessionJournal::resume(path);
  RandomSearch strategy(0.15);
  try {
    (void)session.resume(journal, strategy);
    FAIL() << "seed mismatch not detected";
  } catch (const JournalError& error) {
    EXPECT_EQ(error.field(), "seed");
  }
}

TEST_F(JournalFormat, ReplayDivergenceIsAStructuredError) {
  // A journal whose records do not match what the strategy re-proposes
  // (here: a fabricated baseline fingerprint) must fail loudly — replaying
  // someone else's measurements into this search would corrupt it.
  const std::string path = temp_path("diverge.jsonl");
  JvmSimulator sim;
  TuningSession session(sim, journal_workload(), smoke_options(0));
  {
    SessionJournal journal = SessionJournal::create(path);
    journal.write_meta(session.journal_meta("random"));
    JournalEval fake = sample_eval(0);  // fingerprint is not the default's
    journal.append(fake);
    journal.flush();
  }
  SessionJournal journal = SessionJournal::resume(path);
  RandomSearch strategy(0.15);
  EXPECT_THROW((void)session.resume(journal, strategy), JournalError);
}

// ---- kill-and-resume bit identity -------------------------------------------

struct ResumeCase {
  const char* strategy;
  std::size_t eval_threads;
};

class JournalResume : public ::testing::TestWithParam<ResumeCase> {
 protected:
  JournalResume() { set_log_level(LogLevel::kOff); }
  JvmSimulator sim_;
};

// The tentpole guarantee: truncate the journal after K committed
// evaluations (exactly what a SIGKILL plus the tolerant reader leaves
// behind), resume, and the final outcome — incumbent fingerprint,
// objectives, the full evaluation log — is bit-identical to the
// uninterrupted run.
TEST_P(JournalResume, TruncatedJournalResumesBitIdentically) {
  const ResumeCase param = GetParam();
  const std::string path = std::string(temp_path("resume_")) +
                           param.strategy + "_" +
                           std::to_string(param.eval_threads) + ".jsonl";

  TuningSession reference_session(sim_, journal_workload(),
                                  smoke_options(param.eval_threads));
  auto reference_strategy = make_strategy(param.strategy);
  ASSERT_NE(reference_strategy, nullptr);
  const TuningOutcome reference = reference_session.run(*reference_strategy);
  ASSERT_GT(reference.db->size(), 12u);

  // The journaled run: same options, its log made durable as it goes.
  {
    SessionJournal journal = SessionJournal::create(path);
    SessionOptions options = smoke_options(param.eval_threads);
    options.journal = &journal;
    TuningSession session(sim_, journal_workload(), options);
    auto strategy = make_strategy(param.strategy);
    (void)session.run(*strategy);
  }

  for (std::size_t keep : {std::size_t{5}, std::size_t{12}}) {
    // Simulate the kill: only meta + `keep` eval records survived.
    const std::string cut = path + "." + std::to_string(keep);
    spit(cut, slurp(path));
    keep_first_lines(cut, 1 + keep);

    SessionJournal journal = SessionJournal::resume(cut);
    ASSERT_EQ(journal.committed().size(), keep);
    TuningSession session(sim_, journal_workload(),
                          smoke_options(param.eval_threads));
    auto strategy = make_strategy(param.strategy);
    const TuningOutcome resumed = session.resume(journal, *strategy);

    EXPECT_EQ(reference.best_config.fingerprint(),
              resumed.best_config.fingerprint())
        << param.strategy << " keep=" << keep;
    EXPECT_DOUBLE_EQ(reference.default_ms, resumed.default_ms);
    EXPECT_DOUBLE_EQ(reference.best_ms, resumed.best_ms);
    EXPECT_EQ(reference.evaluations, resumed.evaluations);
    ASSERT_EQ(reference.db->size(), resumed.db->size());
    for (std::size_t i = 0; i < reference.db->size(); ++i) {
      EXPECT_EQ(reference.db->get(i).fingerprint,
                resumed.db->get(i).fingerprint)
          << param.strategy << " keep=" << keep << " row " << i;
      EXPECT_EQ(reference.db->get(i).objective_ms,
                resumed.db->get(i).objective_ms)
          << param.strategy << " keep=" << keep << " row " << i;
      // Rows record the committed ledger, so the budget position is
      // exact for any thread count too.
      EXPECT_EQ(reference.db->get(i).budget_spent,
                resumed.db->get(i).budget_spent)
          << param.strategy << " keep=" << keep << " row " << i;
    }
  }
}

// Resuming a journal that ran to clean completion replays everything, finds
// the budget exhausted, and reproduces the reference outcome without a
// single live measurement of the search phase.
TEST_P(JournalResume, CompletedJournalReplaysToTheSameOutcome) {
  const ResumeCase param = GetParam();
  const std::string path = std::string(temp_path("replayall_")) +
                           param.strategy + "_" +
                           std::to_string(param.eval_threads) + ".jsonl";
  std::optional<TuningOutcome> reference;
  {
    SessionJournal journal = SessionJournal::create(path);
    SessionOptions options = smoke_options(param.eval_threads);
    options.journal = &journal;
    TuningSession session(sim_, journal_workload(), options);
    auto strategy = make_strategy(param.strategy);
    reference.emplace(session.run(*strategy));
  }
  SessionJournal journal = SessionJournal::resume(path);
  EXPECT_TRUE(journal.ended());
  TuningSession session(sim_, journal_workload(),
                        smoke_options(param.eval_threads));
  auto strategy = make_strategy(param.strategy);
  const TuningOutcome resumed = session.resume(journal, *strategy);
  EXPECT_EQ(reference->best_config.fingerprint(),
            resumed.best_config.fingerprint());
  EXPECT_DOUBLE_EQ(reference->best_ms, resumed.best_ms);
  EXPECT_EQ(reference->evaluations, resumed.evaluations);
}

// The suite arm, by enumeration: cut the journal after every committed
// evaluation in turn. A configuration committed before the cut and proposed
// again after it must cost the same member cache hits it cost in the
// uninterrupted run.
TEST_P(JournalResume, SuiteResumesBitIdenticallyFromEveryCut) {
  const ResumeCase param = GetParam();
  const std::string path = std::string(temp_path("suite_")) + param.strategy +
                           "_" + std::to_string(param.eval_threads) + ".jsonl";
  SessionOptions options = smoke_options(param.eval_threads);
  options.budget = SimTime::minutes(20);

  std::optional<SuiteOutcome> uninterrupted;
  {
    SessionJournal journal = SessionJournal::create(path);
    SessionOptions journaled = options;
    journaled.journal = &journal;
    SuiteTuningSession session(sim_, mini_suite(), journaled);
    auto strategy = make_strategy(param.strategy);
    uninterrupted.emplace(session.run(*strategy));
  }
  const SuiteOutcome& reference = *uninterrupted;
  const std::size_t total = reference.db->size();
  ASSERT_GT(total, 12u);

  for (std::size_t keep = 0; keep < total; ++keep) {
    const std::string cut = path + ".cut";
    spit(cut, slurp(path));
    keep_first_lines(cut, 1 + keep);
    SessionJournal journal = SessionJournal::resume(cut);
    ASSERT_EQ(journal.committed().size(), keep);
    SuiteTuningSession session(sim_, mini_suite(), options);
    auto strategy = make_strategy(param.strategy);
    const SuiteOutcome resumed = session.resume(journal, *strategy);

    const std::string label =
        std::string(param.strategy) + " keep=" + std::to_string(keep);
    EXPECT_EQ(reference.best_config.fingerprint(),
              resumed.best_config.fingerprint())
        << label;
    EXPECT_EQ(reference.geomean_ratio, resumed.geomean_ratio) << label;
    EXPECT_EQ(reference.per_workload_improvement,
              resumed.per_workload_improvement)
        << label;
    EXPECT_EQ(reference.evaluations, resumed.evaluations) << label;
    ASSERT_EQ(reference.db->size(), resumed.db->size()) << label;
    for (std::size_t i = 0; i < total; ++i) {
      EXPECT_EQ(reference.db->get(i).fingerprint,
                resumed.db->get(i).fingerprint)
          << label << " row " << i;
      EXPECT_EQ(reference.db->get(i).objective_ms,
                resumed.db->get(i).objective_ms)
          << label << " row " << i;
      EXPECT_EQ(reference.db->get(i).budget_spent,
                resumed.db->get(i).budget_spent)
          << label << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndThreads, JournalResume,
    ::testing::Values(ResumeCase{"hierarchical", 0},
                      ResumeCase{"hierarchical", 4},
                      ResumeCase{"genetic", 0}, ResumeCase{"genetic", 4}),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
      return std::string(info.param.strategy) + "_threads" +
             std::to_string(info.param.eval_threads);
    });

// ---- write failures, by enumeration -----------------------------------------

// Every record of a reference session (the golden session's shape) fails
// to append three ways, under a file-size limit at its first byte, at its
// middle and at its newline. The session must stop with a JournalError
// naming the file; the failed append must be cut back, leaving exactly the
// records before it; and resuming that journal must reproduce the
// uninterrupted outcome row for row, budget position included.
TEST_F(JournalFormat, EveryFailedAppendIsCutBackAndResumesBitIdentically) {
  const WorkloadSpec& workload = find_workload("startup.serial");
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.seed = 7;
  const auto run = [&](const std::string& path) {
    SessionJournal journal = SessionJournal::create(path);
    SessionOptions journaled = options;
    journaled.journal = &journal;
    HierarchicalTuner tuner;
    return TuningSession(JvmSimulator(), workload, journaled).run(tuner);
  };
  const TuningOutcome reference = run(temp_path("enum_reference.jsonl"));
  const std::string full = slurp(temp_path("enum_reference.jsonl"));
  std::vector<std::size_t> starts = {0};  // each record's first byte
  for (std::size_t nl = full.find('\n'); nl != std::string::npos;
       nl = full.find('\n', nl + 1)) {
    starts.push_back(nl + 1);
  }
  ASSERT_EQ(starts.size(), 73u);  // meta, 70 evaluations, end; then EOF

  const std::string path = temp_path("enum_cut.jsonl");
  for (std::size_t r = 0; r + 1 < starts.size(); ++r) {
    const std::size_t newline = starts[r + 1] - 1;
    for (const std::size_t limit :
         {starts[r], (starts[r] + newline) / 2, newline}) {
      SCOPED_TRACE("record " + std::to_string(r) + ", limit " +
                   std::to_string(limit));
      try {
        const FileSizeLimit guard(limit);
        (void)run(path);
        ADD_FAILURE() << "the append past the limit did not fail";
      } catch (const JournalError& error) {
        EXPECT_NE(std::string(error.what()).find("'" + path + "'"),
                  std::string::npos)
            << error.what();
      }
      EXPECT_EQ(slurp(path), full.substr(0, starts[r]));
      if (r == 0) {
        try {
          (void)SessionJournal::resume(path);
          ADD_FAILURE() << "an empty journal resumed";
        } catch (const JournalError& error) {
          EXPECT_NE(std::string(error.what())
                        .find("holds no valid metadata record"),
                    std::string::npos)
              << error.what();
        }
        continue;
      }
      SessionJournal journal = SessionJournal::resume(path);
      EXPECT_EQ(journal.dropped_records(), 0u);
      HierarchicalTuner tuner;
      const TuningOutcome resumed =
          TuningSession(JvmSimulator(), workload, options)
              .resume(journal, tuner);
      EXPECT_EQ(reference.best_config.fingerprint(),
                resumed.best_config.fingerprint());
      EXPECT_EQ(reference.best_ms, resumed.best_ms);
      ASSERT_EQ(reference.db->size(), resumed.db->size());
      for (std::size_t i = 0; i < reference.db->size(); ++i) {
        const EvalRecord want = reference.db->get(i);
        const EvalRecord got = resumed.db->get(i);
        EXPECT_EQ(want.fingerprint, got.fingerprint) << "row " << i;
        EXPECT_EQ(want.objective_ms, got.objective_ms) << "row " << i;
        EXPECT_EQ(want.budget_spent, got.budget_spent) << "row " << i;
      }
    }
  }
}

// ---- cooperative cancellation -----------------------------------------------

/// Wraps a strategy and cancels the shared token after N tells — the test
/// double for an operator's Ctrl-C mid-session.
class CancelAfter final : public SearchStrategy {
 public:
  CancelAfter(std::unique_ptr<SearchStrategy> inner, CancellationToken& token,
              int after)
      : inner_(std::move(inner)), token_(&token), after_(after) {}
  std::string name() const override { return inner_->name(); }
  void begin(StrategyContext& ctx) override { inner_->begin(ctx); }
  void ask(std::vector<Proposal>& out, std::size_t max) override {
    inner_->ask(out, max);
  }
  void tell(const Observation& observation) override {
    inner_->tell(observation);
    if (++tells_ == after_) token_->cancel();
  }
  void finish() override { inner_->finish(); }

 private:
  std::unique_ptr<SearchStrategy> inner_;
  CancellationToken* token_;
  int after_;
  int tells_ = 0;
};

class Cancellation : public ::testing::Test {
 protected:
  Cancellation() { set_log_level(LogLevel::kOff); }
  JvmSimulator sim_;
};

TEST_F(Cancellation, CancelClosesAdmissionAndDrainsInFlight) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    CancellationToken token;
    SessionOptions options = smoke_options(threads);
    options.cancel = &token;
    TuningSession session(sim_, journal_workload(), options);
    CancelAfter strategy(make_strategy("hierarchical"), token, 10);
    const TuningOutcome outcome = session.run(strategy);
    EXPECT_TRUE(outcome.cancelled) << "threads=" << threads;
    // Admission closed early: well short of the uninterrupted run's count,
    // but everything already in flight was drained and committed.
    EXPECT_GE(outcome.evaluations, 10) << "threads=" << threads;
    EXPECT_LT(outcome.budget_spent, options.budget) << "threads=" << threads;
    EXPECT_TRUE(std::isfinite(outcome.best_ms)) << "threads=" << threads;
  }
}

TEST_F(Cancellation, CancelledJournaledSessionResumesToTheFullOutcome) {
  // Interrupt-then-resume equals the uninterrupted run: cancellation never
  // costs committed work, and (at repetitions = 1, where drained
  // measurements are atomic) never commits partial work either.
  const std::string path = temp_path("cancel_resume.jsonl");
  TuningSession reference_session(sim_, journal_workload(), smoke_options(0));
  auto reference_strategy = make_strategy("hierarchical");
  const TuningOutcome reference = reference_session.run(*reference_strategy);

  {
    CancellationToken token;
    SessionJournal journal = SessionJournal::create(path);
    SessionOptions options = smoke_options(0);
    options.cancel = &token;
    options.journal = &journal;
    TuningSession session(sim_, journal_workload(), options);
    CancelAfter strategy(make_strategy("hierarchical"), token, 10);
    const TuningOutcome interrupted = session.run(strategy);
    ASSERT_TRUE(interrupted.cancelled);
    ASSERT_LT(interrupted.evaluations, reference.evaluations);
  }

  SessionJournal journal = SessionJournal::resume(path);
  EXPECT_FALSE(journal.ended());  // cancelled sessions stay resumable
  TuningSession session(sim_, journal_workload(), smoke_options(0));
  auto strategy = make_strategy("hierarchical");
  const TuningOutcome resumed = session.resume(journal, *strategy);
  EXPECT_FALSE(resumed.cancelled);
  EXPECT_EQ(reference.best_config.fingerprint(),
            resumed.best_config.fingerprint());
  EXPECT_DOUBLE_EQ(reference.best_ms, resumed.best_ms);
  EXPECT_EQ(reference.evaluations, resumed.evaluations);
}

TEST_F(Cancellation, TokenIsAsyncSignalSafeShaped) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(is_cancelled(nullptr));  // null token never cancels
  token.cancel();
  EXPECT_TRUE(is_cancelled(&token));
}

// ---- MeteredBudget ----------------------------------------------------------

TEST(DeadlineBudgetTest, ExhaustionFollowsTheParentToo) {
  BudgetClock parent(SimTime::seconds(5));
  MeteredBudget meter(&parent);
  EXPECT_FALSE(meter.exhausted());
  meter.charge(SimTime::seconds(2));
  EXPECT_EQ(parent.spent(), SimTime::seconds(2));
  parent.charge(SimTime::seconds(3));
  EXPECT_TRUE(meter.exhausted());  // the parent expired
  EXPECT_EQ(meter.spent(), SimTime::seconds(5));
  EXPECT_EQ(meter.metered(), SimTime::seconds(2));  // only its own charges
}

TEST(HangDeadline, CleanMeasurementsPassThroughUnclipped) {
  set_log_level(LogLevel::kOff);
  JvmSimulator sim;
  BenchmarkRunner runner(sim, journal_workload());
  const double clean = runner.measure(Configuration(FlagRegistry::hotspot()))
                           .objective();

  BenchmarkRunner runner2(sim, journal_workload());
  FaultInjectingEvaluator flaky(runner2, FaultOptions{});
  ResilientEvaluator resilient(flaky);
  const Measurement m =
      resilient.measure(Configuration(FlagRegistry::hotspot()), nullptr);
  ASSERT_TRUE(m.valid());
  EXPECT_DOUBLE_EQ(m.objective(), clean);
}

// ---- crash-safe CSV ---------------------------------------------------------

TEST(AtomicCsv, SaveLeavesNoTempFileBehind) {
  ResultDb db;
  db.record(0xABCULL, 123.0, SimTime::seconds(1), "-XX:NewRatio=2", "probe");
  const std::string path = temp_path("atomic.csv");
  ASSERT_TRUE(db.save_csv(path));
  EXPECT_NE(slurp(path).find("-XX:NewRatio=2"), std::string::npos)
      << "CSV content missing";
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind after atomic rename";
}

TEST(AtomicCsv, FailedSaveNeverClobbersTheOldFile) {
  ResultDb db;
  db.record(0xABCULL, 123.0, SimTime::seconds(1), "", "");
  const std::string path = temp_path("nonexistent_dir") + "/out.csv";
  EXPECT_FALSE(db.save_csv(path));
}

}  // namespace
}  // namespace jat
