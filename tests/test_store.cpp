// Cross-session result store: on-disk round-trips, tolerant loading,
// multi-handle locking, the runner's read-through/write-behind tier, and
// the warm-start transfer contract — including the headline acceptance
// criterion: a warm-started second session reaches the cold session's
// final incumbent objective with at least 25% fewer charged evaluations.
//
// This binary forks (sandbox arms of the determinism matrix), so it is
// kept out of the TSan suite; test names deliberately avoid the TSan
// job's -R filter substrings.
#include "harness/store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "determinism_matrix.hpp"
#include "file_size_limit.hpp"
#include "flags/parse.hpp"
#include "harness/budget.hpp"
#include "harness/journal.hpp"
#include "harness/runner.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/search_space.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "jat_store_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return dir;
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

WorkloadSpec store_workload() {
  WorkloadSpec w;
  w.name = "store-test";
  w.total_work = 400;
  w.startup_work = 80;
  w.startup_classes = 1200;
  w.alloc_rate = 500 * 1024;
  w.method_count = 2500;
  w.noise_sigma = 0.01;
  return w;
}

StoreRecord make_record(std::uint64_t space, std::uint64_t wl,
                        std::uint64_t cfg, double objective_value,
                        int reps = 3) {
  StoreRecord r;
  r.key = {space, wl, cfg, "run_time"};
  r.workload = "store-test";
  r.command_line = "-XX:NewRatio=" + std::to_string(cfg % 7 + 1);
  r.objective_value = objective_value;
  for (int i = 0; i < reps; ++i) {
    r.times_ms.push_back(objective_value + i);
    MetricVector m;
    m[MetricId::kTotalTimeMs] = objective_value + i;
    m[MetricId::kThroughput] = 1000.0 / (objective_value + i);
    r.rep_metrics.push_back(m);
  }
  r.stop = StopReason::kFull;
  r.seed = 2015;
  return r;
}

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() { set_log_level(LogLevel::kOff); }
};

// ---------------------------------------------------------------------------
// On-disk round-trips

TEST_F(StoreTest, RecordsSurviveReopenBitForBit) {
  const std::string dir = temp_dir("roundtrip");
  auto store = ResultStore::open(dir);
  const StoreRecord original = make_record(1, 2, 3, 1234.5678901234567);
  store->put(original);
  store->put(make_record(1, 2, 4, 999.25));
  store.reset();  // close

  auto reopened = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(reopened->stats().records, 2);
  EXPECT_EQ(reopened->stats().dropped, 0);
  const StoreRecord* loaded = reopened->lookup(original.key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->workload, original.workload);
  EXPECT_EQ(loaded->command_line, original.command_line);
  EXPECT_EQ(loaded->objective_value, original.objective_value);
  EXPECT_EQ(loaded->times_ms, original.times_ms);  // %.17g: bit-exact
  EXPECT_EQ(loaded->stop, original.stop);
  EXPECT_EQ(loaded->seed, original.seed);
  ASSERT_EQ(loaded->rep_metrics.size(), original.rep_metrics.size());
  for (std::size_t i = 0; i < loaded->rep_metrics.size(); ++i) {
    EXPECT_EQ(loaded->rep_metrics[i][MetricId::kThroughput],
              original.rep_metrics[i][MetricId::kThroughput]);
  }

  const Measurement m = loaded->to_measurement();
  EXPECT_TRUE(m.valid());
  EXPECT_EQ(m.times_ms, original.times_ms);
  EXPECT_EQ(m.stop, StopReason::kFull);
}

TEST_F(StoreTest, TopKRanksByObjectiveAndDedupsUpgrades) {
  const std::string dir = temp_dir("topk");
  auto store = ResultStore::open(dir);
  store->put(make_record(1, 2, 30, 300.0));
  store->put(make_record(1, 2, 10, 100.0));
  store->put(make_record(1, 2, 20, 200.0));
  // Same key, fewer successful reps: dropped (no downgrade, no append).
  store->put(make_record(1, 2, 10, 150.0, /*reps=*/1));
  // Same key, more reps: upgrades in place.
  store->put(make_record(1, 2, 20, 190.0, /*reps=*/5));
  // A different workload under the same space must not leak in.
  store->put(make_record(1, 9, 40, 1.0));

  const auto top = store->top_k(1, 2, "run_time", 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->key.config_fingerprint, 10u);
  EXPECT_EQ(top[0]->objective_value, 100.0);
  EXPECT_EQ(top[1]->key.config_fingerprint, 20u);
  EXPECT_EQ(top[1]->objective_value, 190.0);  // the upgraded record
  EXPECT_EQ(top[1]->times_ms.size(), 5u);

  // The dedup holds across a reopen: the file may carry both versions,
  // the index keeps the better one.
  store.reset();
  auto reopened = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(reopened->stats().records, 4);
  const auto again = reopened->top_k(1, 2, "run_time", 10);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[1]->times_ms.size(), 5u);
}

TEST_F(StoreTest, NeighborsRankOtherWorkloadsByDescriptorDistance) {
  const std::string dir = temp_dir("neighbors");
  auto store = ResultStore::open(dir);

  WorkloadSpec self = store_workload();
  WorkloadSpec near = store_workload();
  near.name = "near";
  near.total_work = 410;  // a small structural perturbation
  WorkloadSpec far = store_workload();
  far.name = "far";
  far.total_work = 50000;
  far.alloc_rate = 64 * 1024 * 1024;
  far.app_threads = 32;

  const std::uint64_t space = 7;
  const std::uint64_t self_fp = workload_fingerprint(self);
  const std::uint64_t near_fp = workload_fingerprint(near);
  const std::uint64_t far_fp = workload_fingerprint(far);
  store->put_workload(space, self);
  store->put_workload(space, near);
  store->put_workload(space, far);
  store->put(make_record(space, self_fp, 1, 100.0));
  store->put(make_record(space, near_fp, 2, 100.0));
  store->put(make_record(space, near_fp, 3, 90.0));
  store->put(make_record(space, far_fp, 4, 100.0));

  const auto ranked = store->neighbors(space, self_fp,
                                       workload_features(self), "run_time", 4);
  // Two other workloads, nearest first, best record per workload, never
  // the query workload itself.
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0]->key.workload_fingerprint, near_fp);
  EXPECT_EQ(ranked[0]->key.config_fingerprint, 3u);  // its best, not its first
  EXPECT_EQ(ranked[1]->key.workload_fingerprint, far_fp);
}

TEST_F(StoreTest, WorkloadDistanceIsInfiniteAcrossIncompatibleVectors) {
  EXPECT_EQ(workload_distance({1.0, 2.0}, {1.0, 2.0, 3.0}),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(workload_distance({1.0, 2.0}, {1.0, 2.0}), 0.0);
  // The descriptor fingerprint keys the namespace: any structural change
  // must move it.
  WorkloadSpec a = store_workload();
  WorkloadSpec b = store_workload();
  b.alloc_rate += 1;
  EXPECT_NE(workload_fingerprint(a), workload_fingerprint(b));
  // noise_sigma is infrastructure, not structure: same namespace.
  WorkloadSpec c = store_workload();
  c.noise_sigma = 0.5;
  EXPECT_EQ(workload_fingerprint(a), workload_fingerprint(c));
}

// ---------------------------------------------------------------------------
// Tolerant loading

TEST_F(StoreTest, CorruptInteriorLinesAreSkippedNotFatal) {
  const std::string dir = temp_dir("corrupt");
  auto store = ResultStore::open(dir);
  store->put(make_record(1, 2, 3, 100.0));
  store->put(make_record(1, 2, 4, 200.0));
  store.reset();

  const std::string path = dir + "/store.jsonl";
  std::string content = slurp(path);
  const std::size_t second = content.find('\n') + 1;
  // Flip a byte inside the second record's payload: CRC mismatch.
  content[second + 10] = content[second + 10] == 'x' ? 'y' : 'x';
  spit(path, content);

  auto reopened = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(reopened->stats().records, 1);
  EXPECT_EQ(reopened->stats().dropped, 1);
  EXPECT_NE(reopened->lookup({1, 2, 3, "run_time"}), nullptr);
}

TEST_F(StoreTest, TornTailIsRepairedOnWritableOpenOnly) {
  const std::string dir = temp_dir("torn");
  auto store = ResultStore::open(dir);
  store->put(make_record(1, 2, 3, 100.0));
  store->put(make_record(1, 2, 4, 200.0));
  store.reset();

  const std::string path = dir + "/store.jsonl";
  const std::string full = slurp(path);
  spit(path, full.substr(0, full.size() - 7));  // tear the last record

  // Read-only: the torn tail is dropped from the index but the file is
  // untouched (another session may still be writing it).
  auto ro = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(ro->stats().records, 1);
  EXPECT_EQ(slurp(path).size(), full.size() - 7);
  ro.reset();

  // Writable: the tail is physically truncated, then appends extend a
  // clean file.
  auto rw = ResultStore::open(dir);
  EXPECT_EQ(rw->stats().records, 1);
  rw->put(make_record(1, 2, 5, 300.0));
  rw.reset();
  auto final_store = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(final_store->stats().records, 2);
  EXPECT_EQ(final_store->stats().dropped, 0);
}

TEST_F(StoreTest, ReadOnlyOpenOfMissingStoreIsEmpty) {
  const std::string dir = temp_dir("missing");
  auto store = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(store->stats().records, 0);
  store->put(make_record(1, 2, 3, 100.0));  // silently ignored
  EXPECT_EQ(store->stats().appends, 0);
  struct stat st;
  EXPECT_NE(::stat((dir + "/store.jsonl").c_str(), &st), 0);
}

TEST_F(StoreTest, ConcurrentHandlesInterleaveAppendsWithoutTearing) {
  const std::string dir = temp_dir("concurrent");
  auto a = ResultStore::open(dir);
  auto b = ResultStore::open(dir);  // separate open-file-description
  constexpr int kPerHandle = 40;
  std::thread ta([&] {
    for (int i = 0; i < kPerHandle; ++i)
      a->put(make_record(1, 2, 1000 + static_cast<std::uint64_t>(i),
                         100.0 + i));
  });
  std::thread tb([&] {
    for (int i = 0; i < kPerHandle; ++i)
      b->put(make_record(1, 2, 2000 + static_cast<std::uint64_t>(i),
                         200.0 + i));
  });
  ta.join();
  tb.join();
  a.reset();
  b.reset();

  auto merged = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(merged->stats().records, 2 * kPerHandle);
  EXPECT_EQ(merged->stats().dropped, 0);
}

// One handle's append fails partway (a real partial write, past a lowered
// file-size limit). The failed append is cut back under the lock, so the
// record another handle appends next starts a line of its own instead of
// joining the partial one and failing its checksum.
TEST_F(StoreTest, FailedAppendNeverSwallowsAnotherHandlesRecord) {
  const StoreRecord failing = make_record(1, 2, 20, 200.0);
  const std::string probe = temp_dir("failed_append_probe");
  ResultStore::open(probe)->put(failing);
  const std::size_t line_size = slurp(probe + "/store.jsonl").size();

  const std::string dir = temp_dir("failed_append");
  const std::string path = dir + "/store.jsonl";
  auto a = ResultStore::open(dir);
  auto b = ResultStore::open(dir);
  a->put(make_record(1, 2, 10, 100.0));
  {
    const FileSizeLimit limit(slurp(path).size() + line_size / 2);
    b->put(failing);
  }
  EXPECT_EQ(b->stats().appends, 0);  // only appends that reached the file
  a->put(make_record(1, 2, 11, 110.0));
  a.reset();
  b.reset();

  auto reopened = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(reopened->stats().dropped, 0);
  EXPECT_EQ(reopened->stats().records, 2);
  EXPECT_NE(reopened->lookup({1, 2, 10, "run_time"}), nullptr);
  EXPECT_NE(reopened->lookup({1, 2, 11, "run_time"}), nullptr);
}

// Forked writers share one store opened before the fork, the path sandbox
// workers take: each reopens its own descriptor on its first append. Forked
// readers meanwhile take read-only snapshots, which must only ever see whole
// lines and a file that never shrinks.
TEST_F(StoreTest, ForkedWritersAndSnapshotReadersShareOneFile) {
  constexpr int kWriters = 4;
  constexpr int kDistinct = 150;
  constexpr int kShared = 20;
  constexpr int kReaders = 2;
  constexpr int kSnapshots = 40;
  const std::string dir = temp_dir("forked_writers");
  auto store = ResultStore::open(dir);
  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      for (int i = 0; i < kDistinct; ++i) {
        store->put(make_record(1, 2, 1000 * (w + 1) + i, 100.0 + i));
      }
      // Shared keys: writer w brings 1 + w repetitions, so w = 3 must win.
      for (int k = 0; k < kShared; ++k) {
        store->put(make_record(1, 2, k, 50.0 + k, 1 + w));
      }
      ::_exit(store->stats().appends == kDistinct + kShared ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (int r = 0; r < kReaders; ++r) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::int64_t loaded = 0;
      for (int i = 0; i < kSnapshots; ++i) {
        const StoreStats snapshot =
            ResultStore::open(dir, {.read_only = true})->stats();
        if (snapshot.dropped != 0 || snapshot.loaded < loaded) ::_exit(1);
        loaded = snapshot.loaded;
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child " << pid << " status " << status;
  }

  auto merged = ResultStore::open(dir, {.read_only = true});
  EXPECT_EQ(merged->stats().dropped, 0);
  EXPECT_EQ(merged->stats().records, kWriters * kDistinct + kShared);
  for (int k = 0; k < kShared; ++k) {
    const StoreRecord* record =
        merged->lookup({1, 2, static_cast<std::uint64_t>(k), "run_time"});
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->times_ms.size(), static_cast<std::size_t>(kWriters));
  }
}

// ---------------------------------------------------------------------------
// Runner integration: read-through / write-behind

TEST_F(StoreTest, RunnerAnswersRepeatConfigsFromStoreAtZeroBudget) {
  const std::string dir = temp_dir("runner");
  const WorkloadSpec workload = store_workload();
  JvmSimulator sim;
  Configuration config(FlagRegistry::hotspot());
  config.set_int("NewRatio", 3);

  RunnerOptions producer_options;
  producer_options.store = ResultStore::open(dir);
  BenchmarkRunner producer(sim, workload, producer_options);
  BudgetClock producer_budget(SimTime::minutes(100));
  const Measurement first = producer.measure(config, &producer_budget);
  ASSERT_TRUE(first.valid());
  EXPECT_EQ(producer.counters().store_appends, 1);
  EXPECT_EQ(producer.counters().store_hits, 0);
  const SimTime paid = producer_budget.spent();
  EXPECT_GT(paid, SimTime::zero());

  // A fresh runner with a fresh handle on the same directory: the repeat
  // is answered from the store, bit for bit, at zero budget.
  RunnerOptions consumer_options;
  consumer_options.store = ResultStore::open(dir);
  BenchmarkRunner consumer(sim, workload, consumer_options);
  BudgetClock consumer_budget(SimTime::minutes(100));
  const Measurement replayed = consumer.measure(config, &consumer_budget);
  EXPECT_EQ(consumer.counters().store_hits, 1);
  EXPECT_EQ(consumer.counters().runs, 0);
  EXPECT_EQ(consumer_budget.spent(), SimTime::zero());
  EXPECT_EQ(replayed.times_ms, first.times_ms);
  EXPECT_EQ(replayed.stop, first.stop);

  // The second query of the same config hits the in-memory cache (normal
  // lookup overhead), not the store again: no infinite free lunch.
  const Measurement cached = consumer.measure(config, &consumer_budget);
  EXPECT_EQ(consumer.counters().store_hits, 1);
  EXPECT_EQ(cached.times_ms, first.times_ms);
  EXPECT_GT(consumer_budget.spent(), SimTime::zero());

  // Nothing got re-appended: the store already holds an equal-quality
  // record for this key.
  EXPECT_EQ(consumer.counters().store_appends, 0);
}

TEST_F(StoreTest, NoStoreReadsPublishesButNeverAnswers) {
  const std::string dir = temp_dir("writeonly");
  const WorkloadSpec workload = store_workload();
  JvmSimulator sim;
  Configuration config(FlagRegistry::hotspot());
  config.set_int("NewRatio", 2);
  {
    RunnerOptions options;
    options.store = ResultStore::open(dir);
    BenchmarkRunner runner(sim, workload, options);
    runner.measure(config, nullptr);
  }
  RunnerOptions options;
  options.store = ResultStore::open(dir);
  options.store_reads = false;
  BenchmarkRunner runner(sim, workload, options);
  BudgetClock budget(SimTime::minutes(100));
  runner.measure(config, &budget);
  EXPECT_EQ(runner.counters().store_hits, 0);
  EXPECT_GT(budget.spent(), SimTime::zero());
  EXPECT_GT(runner.counters().runs, 0);
}

// ---------------------------------------------------------------------------
// Session integration: warm-start transfer

SessionOptions store_session_options(std::uint64_t seed = 77) {
  SessionOptions options;
  options.budget = SimTime::minutes(12);
  options.seed = seed;
  // Single repetitions keep each measurement atomic against
  // mid-measurement budget expiry — the documented precondition for exact
  // cross-arm bit-identity (see tuner/strategy.hpp and test_scheduler).
  options.repetitions = 1;
  return options;
}

// The acceptance criterion: a warm-started second session on the same
// workload and seed reaches the cold session's final incumbent objective
// using at least 25% fewer charged evaluations (store hits charge zero
// budget and are excluded from the charged count).
TEST_F(StoreTest, WarmSessionReachesColdIncumbentWithAtLeastQuarterFewerCharges) {
  const std::string dir = temp_dir("warm");
  const WorkloadSpec workload = store_workload();
  JvmSimulator sim;

  SessionOptions cold_options = store_session_options();
  cold_options.store = ResultStore::open(dir);
  TuningSession cold_session(sim, workload, cold_options);
  HierarchicalTuner cold_tuner;
  const TuningOutcome cold = cold_session.run(cold_tuner);
  ASSERT_GT(cold.charged_evaluations, 4);
  ASSERT_GT(cold.store_appends, 0);
  cold_options.store.reset();

  // Same workload, same seed, a fresh store handle (picks up the cold
  // session's appends), and a deliberately smaller budget: the warm seeds
  // and store hits must carry it to the cold incumbent regardless.
  SessionOptions warm_options = store_session_options();
  warm_options.budget = cold.budget_spent * 0.5;
  warm_options.store = ResultStore::open(dir);
  warm_options.warm_start = 5;
  TuningSession warm_session(sim, workload, warm_options);
  HierarchicalTuner warm_tuner;
  const TuningOutcome warm = warm_session.run(warm_tuner);

  EXPECT_GT(warm.warm_seeds, 0);
  EXPECT_GT(warm.store_hits, 0);
  // Reaches (or beats) the cold session's final incumbent objective...
  EXPECT_LE(warm.best_ms, cold.best_ms);
  // ...with >= 25% fewer charged evaluations.
  EXPECT_LE(warm.charged_evaluations,
            (cold.charged_evaluations * 3) / 4)
      << "cold charged " << cold.charged_evaluations << ", warm charged "
      << warm.charged_evaluations;
}

TEST_F(StoreTest, WarmSeedsComeFromJournalOnResumeNotFromTheStore) {
  const std::string dir = temp_dir("resume");
  const WorkloadSpec workload = store_workload();
  JvmSimulator sim;

  // Seed the store with a cold session.
  {
    SessionOptions cold_options = store_session_options();
    cold_options.store = ResultStore::open(dir);
    TuningSession session(sim, workload, cold_options);
    HierarchicalTuner tuner;
    session.run(tuner);
  }

  // A journaled warm session.
  const std::string journal_path =
      ::testing::TempDir() + "jat_store_resume.jsonl";
  SessionOptions warm_options = store_session_options();
  warm_options.store = ResultStore::open(dir);
  warm_options.warm_start = 3;
  std::optional<TuningOutcome> warm;
  {
    SessionJournal journal = SessionJournal::create(journal_path);
    warm_options.journal = &journal;
    TuningSession session(sim, workload, warm_options);
    HierarchicalTuner tuner;
    warm.emplace(session.run(tuner));
    EXPECT_GT(warm->warm_seeds, 0);
  }

  // Resume the (completed) journal against a store whose contents have
  // since GROWN — the warm session's appends landed, plus everything the
  // warm run discovered. Seeds are replayed from the journal, so the
  // outcome must not move.
  SessionOptions resume_options = store_session_options();
  resume_options.store = ResultStore::open(dir);
  resume_options.warm_start = 3;
  SessionJournal resumed_journal = SessionJournal::resume(journal_path);
  TuningSession resume_session(sim, workload, resume_options);
  HierarchicalTuner resume_tuner;
  const TuningOutcome resumed =
      resume_session.resume(resumed_journal, resume_tuner);
  EXPECT_EQ(resumed.best_config.fingerprint(),
            warm->best_config.fingerprint());
  EXPECT_EQ(resumed.best_ms, warm->best_ms);
  EXPECT_EQ(resumed.evaluations, warm->evaluations);
  EXPECT_EQ(resumed.warm_seeds, warm->warm_seeds);
}

// Store-enabled sessions run through the shared determinism matrix: the
// trajectory (store hits included) is invariant across pipelined
// evaluation and the forked sandbox, against a read-only store snapshot.
TEST_F(StoreTest, StoreTrajectoryInvariantAcrossExecutionArms) {
  const std::string dir = temp_dir("matrix");
  const WorkloadSpec workload = store_workload();
  JvmSimulator sim;
  {
    SessionOptions cold_options = store_session_options();
    cold_options.budget = SimTime::minutes(6);
    cold_options.store = ResultStore::open(dir);
    TuningSession session(sim, workload, cold_options);
    HierarchicalTuner tuner;
    session.run(tuner);
  }

  SessionOptions base = store_session_options();
  base.budget = SimTime::minutes(6);
  base.store = ResultStore::open(dir, {.read_only = true});
  base.warm_start = 3;
  DeterminismMatrix matrix;
  matrix.cases = {{.eval_threads = 4},
                  {.eval_threads = 0, .sandbox = true, .sandbox_workers = 2}};
  const TuningOutcome reference = run_determinism_matrix(
      sim, workload, base, [] { return std::make_unique<HierarchicalTuner>(); },
      matrix);
  EXPECT_GT(reference.store_hits, 0);
  EXPECT_GT(reference.warm_seeds, 0);
}

// Store off => nothing moved: the default trajectory stays byte-identical
// to the committed pre-store golden log and flags.
TEST_F(StoreTest, StoreDisabledSessionMatchesGoldenByteForByte) {
  set_log_level(LogLevel::kError);
  JvmSimulator sim;
  SessionOptions options;  // store defaults to null
  options.budget = SimTime::minutes(20);
  options.seed = 7;
  TuningSession session(sim, find_workload("startup.serial"), options);
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);
  EXPECT_EQ(outcome.store_hits, 0);
  EXPECT_EQ(outcome.store_appends, 0);
  EXPECT_EQ(outcome.warm_seeds, 0);

  const std::string csv_path = ::testing::TempDir() + "jat_store_golden.csv";
  ASSERT_TRUE(outcome.db->save_csv(csv_path));
  const std::string golden =
      slurp(std::string(JAT_GOLDEN_DIR) + "/run_time_eval_log.csv");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(slurp(csv_path), golden);

  const std::string flags_path =
      ::testing::TempDir() + "jat_store_golden.flags";
  ASSERT_TRUE(save_configuration(outcome.best_config, flags_path));
  EXPECT_EQ(slurp(flags_path),
            slurp(std::string(JAT_GOLDEN_DIR) + "/run_time_session.flags"));
  set_log_level(LogLevel::kOff);
}

// ---------------------------------------------------------------------------
// Compatibility with stores already on disk

// tests/golden/store.jsonl was written by jat_tune before the store's
// one-pass decoder (DESIGN.md, "Cross-session result store"): an h2 session
// with adaptive repetitions and a startup.compiler.compiler session with
// fixed ones. It must decode to the same index, field for field and bit for
// bit, as the reader that wrote it; the hash below was computed by that
// reader. The keys are collected through the record dialect's TraceEvent
// reader, so a record the store loses fails the lookup.
TEST_F(StoreTest, GoldenStoreDecodesToThePinnedIndex) {
  const std::string dir = temp_dir("golden");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string golden = slurp(std::string(JAT_GOLDEN_DIR) + "/store.jsonl");
  ASSERT_FALSE(golden.empty());
  spit(dir + "/store.jsonl", golden);
  auto store = ResultStore::open(dir, {.read_only = true});

  std::set<StoreKey> keys;
  std::set<std::uint64_t> workloads;
  std::istringstream lines(golden);
  std::size_t line_no = 0;
  for (std::string line; std::getline(lines, line);) {
    const std::optional<TraceEvent> event = journal_decode_record(line, ++line_no);
    ASSERT_TRUE(event.has_value()) << "line " << line_no;
    const auto hex = [&](const char* key) {
      return std::strtoull(event->get_string(key).c_str(), nullptr, 16);
    };
    if (event->type == "store_result") {
      keys.insert({hex("space"), hex("wl"), hex("cfg"),
                   event->get_string("objective")});
    } else {
      ASSERT_EQ(event->type, "store_workload");
      workloads.insert(hex("wl"));
    }
  }

  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.loaded, static_cast<std::int64_t>(line_no));
  EXPECT_EQ(stats.records, static_cast<std::int64_t>(keys.size()));
  EXPECT_EQ(stats.workloads, static_cast<std::int64_t>(workloads.size()));

  std::uint64_t h = fnv1a64("golden-store");
  const auto mix = [&h](std::uint64_t v) { h = mix64(h, v); };
  const auto mix_double = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  const auto mix_text = [&](const std::string& s) {
    mix(fnv1a64(s));
    mix(s.size());
  };
  mix(static_cast<std::uint64_t>(stats.records));
  mix(static_cast<std::uint64_t>(stats.workloads));
  for (const StoreKey& key : keys) {
    const StoreRecord* rec = store->lookup(key);
    ASSERT_NE(rec, nullptr);
    mix(rec->key.space_fingerprint);
    mix(rec->key.workload_fingerprint);
    mix(rec->key.config_fingerprint);
    mix_text(rec->key.objective);
    mix_text(rec->workload);
    mix_text(rec->command_line);
    mix_double(rec->objective_value);
    mix(rec->times_ms.size());
    for (const double t : rec->times_ms) mix_double(t);
    mix(rec->rep_metrics.size());
    for (const MetricVector& row : rec->rep_metrics) {
      for (const double v : row.v) mix_double(v);
    }
    mix(static_cast<std::uint64_t>(rec->stop));
    mix(static_cast<std::uint64_t>(rec->failed_reps));
    mix(rec->seed);
  }
  for (const std::uint64_t fp : workloads) {
    const StoreWorkloadInfo* info = store->workload_info(fp);
    ASSERT_NE(info, nullptr);
    mix(info->space_fingerprint);
    mix(info->workload_fingerprint);
    mix_text(info->name);
    mix(info->features.size());
    for (const double f : info->features) mix_double(f);
  }
  EXPECT_EQ(h, 0x5f70fbc6a68282afULL) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace jat
