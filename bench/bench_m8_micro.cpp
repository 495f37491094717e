// M8 — google-benchmark microbenchmarks of the substrate itself.
//
// Supports the feasibility claim behind the whole reproduction: one
// simulated JVM run costs microseconds-to-milliseconds of wall clock, so a
// 200-minute tuning session replays in well under a second.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "harness/store.hpp"
#include "flags/validate.hpp"
#include "harness/runner.hpp"
#include "harness/sandbox.hpp"
#include "jvmsim/engine.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/search_space.hpp"
#include "workloads/suites.hpp"

namespace {

using namespace jat;

void BM_SimulateStartupRun(benchmark::State& state) {
  JvmSimulator sim;
  const Configuration config(FlagRegistry::hotspot());
  const WorkloadSpec& w = find_workload("startup.compress");
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(config, w, seed++));
  }
}
BENCHMARK(BM_SimulateStartupRun);

void BM_SimulateDacapoRun(benchmark::State& state) {
  JvmSimulator sim;
  const Configuration config(FlagRegistry::hotspot());
  const WorkloadSpec& w = find_workload("h2");
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(config, w, seed++));
  }
}
BENCHMARK(BM_SimulateDacapoRun);

/// What a tuning session measures: a fixed, seeded corpus of tuned
/// configurations (random_config at densities 0.05/0.15/0.3, four per
/// program) over all 16 SPECjvm2008 startup and 13 DaCapo programs, keeping
/// the startable ones.
struct TunedConfig {
  const WorkloadSpec* workload;
  Configuration config;
};

std::vector<TunedConfig> tuned_corpus() {
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(2015);
  constexpr double kDensities[] = {0.05, 0.15, 0.3};
  std::vector<TunedConfig> corpus;
  for (const auto* suite : {&specjvm2008_startup(), &dacapo()}) {
    for (const WorkloadSpec& w : *suite) {
      for (int i = 0; i < 4; ++i) {
        Configuration config = space.random_config(rng, kDensities[i % 3]);
        if (!first_fatal(config).empty()) continue;  // startable by construction
        corpus.push_back({&w, std::move(config)});
      }
    }
  }
  return corpus;
}

void BM_SimulateTunedRuns(benchmark::State& state) {
  // The simulator alone over the tuned corpus, one run per iteration in
  // corpus order. Parameters are decoded up front, as the runner does once
  // per measurement.
  JvmSimulator sim;
  struct Item {
    const WorkloadSpec* workload;
    JvmParams params;
  };
  std::vector<Item> corpus;
  for (const TunedConfig& tuned : tuned_corpus()) {
    corpus.push_back({tuned.workload, decode_params(tuned.config)});
  }
  std::size_t next = 0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const Item& item = corpus[next++ % corpus.size()];
    benchmark::DoNotOptimize(sim.run(item.params, *item.workload, seed++));
  }
}
BENCHMARK(BM_SimulateTunedRuns);

void BM_MeasureTunedConfigurations(benchmark::State& state) {
  // One uncached measurement per iteration, in corpus order: a fresh runner
  // (empty cache, no budget) measures a tuned configuration with three
  // repetitions, so the start check, decode, fingerprint, simulation and
  // per-repetition bookkeeping are all timed.
  JvmSimulator sim;
  const std::vector<TunedConfig> corpus = tuned_corpus();
  RunnerOptions options;
  options.repetitions = 3;
  std::size_t next = 0;
  for (auto _ : state) {
    const TunedConfig& item = corpus[next++ % corpus.size()];
    BenchmarkRunner runner(sim, *item.workload, options);
    benchmark::DoNotOptimize(runner.measure(item.config));
  }
}
BENCHMARK(BM_MeasureTunedConfigurations);

void BM_SimulateRunPerCollector(benchmark::State& state) {
  JvmSimulator sim;
  Configuration config(FlagRegistry::hotspot());
  config.set_bool("UseParallelGC", false);
  switch (state.range(0)) {
    case 0: config.set_bool("UseSerialGC", true); break;
    case 1: config.set_bool("UseParallelGC", true); break;
    case 2:
      config.set_bool("UseConcMarkSweepGC", true);
      config.set_bool("UseParNewGC", true);
      break;
    case 3: config.set_bool("UseG1GC", true); break;
  }
  const WorkloadSpec& w = find_workload("lusearch");
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(config, w, seed++));
  }
}
BENCHMARK(BM_SimulateRunPerCollector)->DenseRange(0, 3)
    ->ArgName("collector(0=serial,1=parallel,2=cms,3=g1)");

void BM_DecodeParams(benchmark::State& state) {
  const Configuration config(FlagRegistry::hotspot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_params(config));
  }
}
BENCHMARK(BM_DecodeParams);

void BM_ValidateConfiguration(benchmark::State& state) {
  const Configuration config(FlagRegistry::hotspot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate(config));
  }
}
BENCHMARK(BM_ValidateConfiguration);

void BM_ConfigurationFingerprint(benchmark::State& state) {
  // Every flag at its default: every term comes from the registry's table.
  const Configuration config(FlagRegistry::hotspot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(config.fingerprint());
  }
}
BENCHMARK(BM_ConfigurationFingerprint);

void BM_ConfigurationFingerprintTuned(benchmark::State& state) {
  // Tuner-shaped configurations (random_config at density 0.3): their
  // non-default flags are rendered and hashed on every call.
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(7);
  std::vector<Configuration> configs;
  for (int i = 0; i < 64; ++i) configs.push_back(space.random_config(rng, 0.3));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(configs[next++ % configs.size()].fingerprint());
  }
}
BENCHMARK(BM_ConfigurationFingerprintTuned);

void BM_RandomConfig(benchmark::State& state) {
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.random_config(rng, 0.3));
  }
}
BENCHMARK(BM_RandomConfig);

void BM_MutateConfig(benchmark::State& state) {
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(7);
  Configuration config(FlagRegistry::hotspot());
  for (auto _ : state) {
    space.mutate(config, rng, 3);
    benchmark::DoNotOptimize(config);
  }
}
BENCHMARK(BM_MutateConfig);

void BM_JournalAppend(benchmark::State& state) {
  // Durability tax per committed evaluation: one encoded record, one
  // write(2), an fsync every `sync_every` appends (the session default
  // is 8; 0 defers syncing to flush/close).
  const std::string path = "bench_m8_journal.tmp.jsonl";
  JournalOptions options;
  options.sync_every = static_cast<int>(state.range(0));
  SessionJournal journal = SessionJournal::create(path, options);
  JournalMeta meta;
  meta.workload = "bench";
  meta.tuner = "random";
  meta.budget = SimTime::minutes(200);
  journal.write_meta(meta);
  JournalEval eval;
  eval.fingerprint = 0xABCDEF0123456789ULL;
  eval.phase = "structural";
  eval.command_line = "-XX:NewRatio=3 -XX:+UseParallelGC";
  eval.times_ms = {5431.25, 5440.5, 5433.75};
  eval.cost = SimTime::micros(22334808);
  std::int64_t seq = 0;
  for (auto _ : state) {
    eval.seq = seq;
    eval.budget_spent = SimTime::micros(22334808 * (seq + 1));
    journal.append(eval);
    ++seq;
  }
  state.SetItemsProcessed(seq);
  journal.flush();
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)
    ->Arg(0)->Arg(1)->Arg(8)
    ->ArgName("sync_every")
    ->UseRealTime();

void BM_JournalReplayLoad(benchmark::State& state) {
  // Resume-side cost: parse + checksum-verify a whole journal. Items/s is
  // records/s over a journal of `range(0)` evaluations.
  const std::string path = "bench_m8_replay.tmp.jsonl";
  const std::int64_t records = state.range(0);
  {
    JournalOptions options;
    options.sync_every = 0;
    SessionJournal journal = SessionJournal::create(path, options);
    JournalMeta meta;
    meta.workload = "bench";
    meta.tuner = "random";
    meta.budget = SimTime::minutes(200);
    journal.write_meta(meta);
    JournalEval eval;
    eval.phase = "structural";
    eval.command_line = "-XX:NewRatio=3 -XX:+UseParallelGC";
    eval.times_ms = {5431.25, 5440.5, 5433.75};
    eval.cost = SimTime::micros(22334808);
    for (std::int64_t seq = 0; seq < records; ++seq) {
      eval.seq = seq;
      eval.fingerprint = 0xABCDEF0123456789ULL + std::uint64_t(seq);
      eval.budget_spent = SimTime::micros(22334808 * (seq + 1));
      journal.append(eval);
    }
    journal.flush();
  }
  std::int64_t loaded = 0;
  for (auto _ : state) {
    SessionJournal journal = SessionJournal::resume(path);
    loaded += static_cast<std::int64_t>(journal.committed().size());
    benchmark::DoNotOptimize(journal.committed());
  }
  state.SetItemsProcessed(loaded);
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalReplayLoad)
    ->Arg(100)->Arg(1000)
    ->ArgName("records")
    ->Unit(benchmark::kMicrosecond);

StoreRecord bench_store_record(std::uint64_t cfg) {
  StoreRecord record;
  record.key = StoreKey{0x5eedULL, 0xf00dULL, cfg, "run_time"};
  record.workload = "bench";
  record.command_line = "-XX:NewRatio=3 -XX:+UseParallelGC";
  record.times_ms = {5431.25, 5440.5, 5433.75};
  record.rep_metrics.resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    record.rep_metrics[i][MetricId::kTotalTimeMs] = record.times_ms[i];
  }
  record.objective_value = 5435.166666666667;
  record.stop = StopReason::kFull;
  return record;
}

void remove_bench_store(const std::string& dir) {
  std::remove((dir + "/store.jsonl").c_str());
  ::rmdir(dir.c_str());
}

void BM_StoreAppend(benchmark::State& state) {
  // Write-behind tax per novel measurement: one encoded record, one
  // O_APPEND write(2) under the advisory lock. Compare BM_JournalAppend —
  // same dialect, different file discipline.
  const std::string dir = "bench_m8_store_append.tmp";
  remove_bench_store(dir);
  auto store = ResultStore::open(dir);
  std::uint64_t cfg = 1;
  for (auto _ : state) {
    store->put(bench_store_record(cfg++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cfg) - 1);
  store.reset();
  remove_bench_store(dir);
}
BENCHMARK(BM_StoreAppend)->UseRealTime();

void BM_StoreLookup(benchmark::State& state) {
  // Read-through hit path: the in-memory index probe a session pays when a
  // proposed configuration was already measured by an earlier session.
  const std::string dir = "bench_m8_store_lookup.tmp";
  remove_bench_store(dir);
  auto store = ResultStore::open(dir);
  constexpr std::uint64_t kRecords = 1000;
  for (std::uint64_t cfg = 1; cfg <= kRecords; ++cfg) {
    store->put(bench_store_record(cfg));
  }
  std::uint64_t cfg = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store->lookup(StoreKey{0x5eedULL, 0xf00dULL, cfg, "run_time"}));
    cfg = cfg % kRecords + 1;
  }
  state.SetItemsProcessed(state.iterations());
  store.reset();
  remove_bench_store(dir);
}
BENCHMARK(BM_StoreLookup);

/// A record shaped like a tuned DaCapo session's: 3-6 repetitions of
/// full-precision times and 6-metric rows, a 10-20 flag command line;
/// about 0.9 KB a line on disk.
StoreRecord tuned_store_record(std::uint64_t cfg, Rng& rng) {
  StoreRecord record;
  record.key = StoreKey{0x5eedULL, 0xf00dULL, cfg, "run_time"};
  record.workload = "h2";
  const int flags = 10 + static_cast<int>(rng.next_below(11));
  for (int f = 0; f < flags; ++f) {
    if (f > 0) record.command_line += ' ';
    record.command_line += "-XX:TunedFlag" + std::to_string(rng.next_below(600)) +
                           "=" + std::to_string(rng.next_below(1 << 20));
  }
  const int reps = 3 + static_cast<int>(rng.next_below(4));
  record.rep_metrics.resize(static_cast<std::size_t>(reps));
  double sum = 0.0;
  for (MetricVector& row : record.rep_metrics) {
    for (double& v : row.v) v = rng.uniform(100.0, 30000.0);
    record.times_ms.push_back(row[MetricId::kTotalTimeMs]);
    sum += row[MetricId::kTotalTimeMs];
  }
  record.objective_value = sum / reps;
  record.stop = StopReason::kConverged;
  record.seed = rng.next_u64();
  return record;
}

void BM_StoreOpenLoad(benchmark::State& state) {
  // Session-start cost of a warm store: parse + checksum-verify the whole
  // index. Items/s is records/s over a store of `range(0)` tuned-session
  // records.
  const std::string dir = "bench_m8_store_open.tmp";
  remove_bench_store(dir);
  const std::int64_t records = state.range(0);
  {
    auto store = ResultStore::open(dir);
    Rng rng(2015);
    for (std::int64_t cfg = 1; cfg <= records; ++cfg) {
      store->put(tuned_store_record(static_cast<std::uint64_t>(cfg), rng));
    }
  }
  std::int64_t loaded = 0;
  for (auto _ : state) {
    auto store = ResultStore::open(dir, {.read_only = true});
    loaded += store->stats().records;
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(loaded);
  remove_bench_store(dir);
}
BENCHMARK(BM_StoreOpenLoad)
    ->Arg(100)->Arg(1000)
    ->ArgName("records")
    ->Unit(benchmark::kMicrosecond);

void BM_StoreTopK(benchmark::State& state) {
  // Warm-start seeding query: rank every stored result for a workload and
  // keep the best k — runs once per session, over the whole index.
  const std::string dir = "bench_m8_store_topk.tmp";
  remove_bench_store(dir);
  auto store = ResultStore::open(dir);
  for (std::uint64_t cfg = 1; cfg <= 1000; ++cfg) {
    StoreRecord record = bench_store_record(cfg);
    record.objective_value += static_cast<double>(cfg % 97);
    store->put(std::move(record));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->top_k(0x5eedULL, 0xf00dULL, "run_time", 5));
  }
  state.SetItemsProcessed(state.iterations());
  store.reset();
  remove_bench_store(dir);
}
BENCHMARK(BM_StoreTopK);

void BM_SandboxRoundTrip(benchmark::State& state) {
  // Wire-protocol tax per sandboxed measurement: encode request, worker
  // pipe round trip, decode reply. The measured fingerprint is already in
  // the worker's cache, so the simulator cost is excluded and what remains
  // is the out-of-process overhead itself (compare BM_SandboxCachedDirect).
  JvmSimulator sim;
  const WorkloadSpec& w = find_workload("startup.compress");
  BenchmarkRunner runner(sim, w);
  const SearchSpace space(FlagHierarchy::hotspot());
  SandboxOptions options;
  options.workers = 1;
  SandboxedEvaluator sandbox(runner, space.registry(), options);
  sandbox.link_runner(&runner);
  const Configuration config(FlagRegistry::hotspot());
  sandbox.measure(config, nullptr);  // warm the worker's cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(sandbox.measure(config, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
  sandbox.shutdown();
}
BENCHMARK(BM_SandboxRoundTrip)->UseRealTime();

void BM_SandboxCachedDirect(benchmark::State& state) {
  // The in-process floor for BM_SandboxRoundTrip: the same cached
  // measurement without the fork/pipe layer.
  JvmSimulator sim;
  const WorkloadSpec& w = find_workload("startup.compress");
  BenchmarkRunner runner(sim, w);
  const Configuration config(FlagRegistry::hotspot());
  runner.measure(config, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.measure(config, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SandboxCachedDirect);

void BM_ActiveFlags(benchmark::State& state) {
  const FlagHierarchy& h = FlagHierarchy::hotspot();
  const Configuration config(FlagRegistry::hotspot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.active_flags(config));
  }
}
BENCHMARK(BM_ActiveFlags);

SessionOptions throughput_options(std::size_t eval_threads,
                                  std::size_t inflight) {
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.repetitions = 1;
  options.seed = 2015;
  options.eval_threads = eval_threads;
  options.inflight = inflight;
  return options;
}

/// One whole session through the EvalScheduler; items/s == evaluations/s.
void BM_SchedulerThroughput(benchmark::State& state) {
  JvmSimulator sim;
  const WorkloadSpec& w = find_workload("startup.compress");
  const SessionOptions options =
      throughput_options(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::size_t>(state.range(1)));
  std::int64_t evaluations = 0;
  for (auto _ : state) {
    TuningSession session(sim, w, options);
    RandomSearch strategy(0.15);
    evaluations += session.run(strategy).evaluations;
  }
  state.SetItemsProcessed(evaluations);
}
BENCHMARK(BM_SchedulerThroughput)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 2, 4, 8}})
    ->ArgNames({"eval_threads", "inflight"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Scheduler throughput sweep, saved as CSV like the experiment binaries:
/// evaluations per wall-clock second against the in-flight window size, one
/// column per worker-thread count.
void emit_scheduler_throughput_csv() {
  JvmSimulator sim;
  const WorkloadSpec& w = find_workload("startup.compress");
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::vector<std::size_t> windows = {1, 2, 4, 8};

  std::vector<std::string> header = {"inflight"};
  for (std::size_t threads : thread_counts) {
    header.push_back("threads=" + std::to_string(threads));
  }
  TextTable table(header);

  for (std::size_t window : windows) {
    std::vector<std::string> row = {std::to_string(window)};
    for (std::size_t threads : thread_counts) {
      TuningSession session(sim, w, throughput_options(threads, window));
      RandomSearch strategy(0.15);
      const auto start = std::chrono::steady_clock::now();
      const TuningOutcome outcome = session.run(strategy);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double rate =
          seconds > 0 ? static_cast<double>(outcome.evaluations) / seconds : 0;
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.0f", rate);
      row.push_back(cell);
    }
    table.add_row(std::move(row));
  }
  bench::emit("M8: scheduler throughput, evals/sec by in-flight window",
              table, "bench_m8_scheduler.csv");
}

}  // namespace

int main(int argc, char** argv) {
  jat::set_log_level(jat::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_scheduler_throughput_csv();
  return 0;
}
