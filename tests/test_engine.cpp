#include "jvmsim/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "flags/validate.hpp"
#include "jvmsim/params.hpp"
#include "pin_corpus.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec quick_workload() {
  WorkloadSpec w;
  w.name = "engine-test";
  w.total_work = 800;
  w.startup_work = 100;
  w.startup_classes = 1000;
  w.alloc_rate = 300 * 1024;
  w.noise_sigma = 0.0;  // exact determinism checks
  return w;
}

class EngineTest : public ::testing::Test {
 protected:
  JvmSimulator sim_;
  Configuration config_{FlagRegistry::hotspot()};
};

TEST_F(EngineTest, DefaultRunCompletesAllWork) {
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(r.crashed) << r.crash_reason;
  EXPECT_NEAR(r.work_done, 800.0, 1.0);
  EXPECT_GT(r.total_time, SimTime::zero());
  EXPECT_GT(r.throughput(), 0.0);
}

TEST_F(EngineTest, DeterministicForSameSeed) {
  const RunResult a = sim_.run(config_, quick_workload(), 77);
  const RunResult b = sim_.run(config_, quick_workload(), 77);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.young_gc_count, b.young_gc_count);
  EXPECT_EQ(a.compiles_c1, b.compiles_c1);
  EXPECT_EQ(a.gc_pause_total, b.gc_pause_total);
}

TEST_F(EngineTest, NoiseMakesSeedsDiffer) {
  WorkloadSpec w = quick_workload();
  w.noise_sigma = 0.05;
  const RunResult a = sim_.run(config_, w, 1);
  const RunResult b = sim_.run(config_, w, 2);
  EXPECT_NE(a.total_time, b.total_time);
}

TEST_F(EngineTest, ZeroNoiseSeedsAgreeOnDuration) {
  const RunResult a = sim_.run(config_, quick_workload(), 1);
  const RunResult b = sim_.run(config_, quick_workload(), 2);
  EXPECT_EQ(a.total_time, b.total_time);
}

TEST_F(EngineTest, NonStartableConfigurationCrashes) {
  config_.set_bool("UseG1GC", true);  // conflicts with UseParallelGC
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("VM failed to start"), std::string::npos);
}

TEST_F(EngineTest, TinyHeapOomCrashes) {
  WorkloadSpec w = quick_workload();
  w.long_lived_bytes = 900.0 * 1024 * 1024;
  config_.set_int("MaxHeapSize", 64 * kMiB);
  config_.set_int("InitialHeapSize", 32 * kMiB);
  const RunResult r = sim_.run(config_, w, 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("OutOfMemoryError"), std::string::npos);
}

TEST_F(EngineTest, MetaspaceOomCrashes) {
  WorkloadSpec w = quick_workload();
  w.startup_classes = 20000;
  config_.set_int("MaxMetaspaceSize", 16 * kMiB);
  const RunResult r = sim_.run(config_, w, 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("Metaspace"), std::string::npos);
}

TEST_F(EngineTest, StartupTimeBeforeTotalTime) {
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  EXPECT_GT(r.startup_time, SimTime::zero());
  EXPECT_LT(r.startup_time, r.total_time);
  EXPECT_GE(r.startup_time, r.class_load_time);
}

TEST_F(EngineTest, InterpreterOnlyIsMuchSlower) {
  const RunResult mixed = sim_.run(config_, quick_workload(), 1);
  config_.set_enum("ExecutionMode", "int");
  const RunResult interp = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(interp.crashed);
  EXPECT_GT(interp.total_time, mixed.total_time * 2.0);
  EXPECT_EQ(interp.compiles_c1 + interp.compiles_c2, 0);
}

TEST_F(EngineTest, DisablingVerificationSpeedsClassLoad) {
  const RunResult verified = sim_.run(config_, quick_workload(), 1);
  config_.set_bool("BytecodeVerificationRemote", false);
  const RunResult unverified = sim_.run(config_, quick_workload(), 1);
  EXPECT_LT(unverified.class_load_time, verified.class_load_time);
}

TEST_F(EngineTest, CdsSpeedsClassLoad) {
  const RunResult with = sim_.run(config_, quick_workload(), 1);
  config_.set_bool("UseSharedSpaces", false);
  const RunResult without = sim_.run(config_, quick_workload(), 1);
  EXPECT_GT(without.class_load_time, with.class_load_time);
}

TEST_F(EngineTest, PretouchMovesCostToStartup) {
  WorkloadSpec w = quick_workload();
  const RunResult lazy = sim_.run(config_, w, 1);
  config_.set_bool("AlwaysPreTouch", true);
  const RunResult eager = sim_.run(config_, w, 1);
  EXPECT_GT(eager.startup_time, lazy.startup_time);
}

TEST_F(EngineTest, GcStatsAreConsistent) {
  WorkloadSpec w = quick_workload();
  w.total_work = 3000;
  w.alloc_rate = 1200 * 1024;
  const RunResult r = sim_.run(config_, w, 1);
  ASSERT_FALSE(r.crashed);
  EXPECT_GT(r.young_gc_count, 0);
  EXPECT_GT(r.gc_pause_total, SimTime::zero());
  EXPECT_GE(r.gc_pause_max, SimTime::zero());
  EXPECT_LE(r.gc_pause_max, r.gc_pause_total);
  EXPECT_LE(r.gc_pause_total, r.total_time);
  EXPECT_GT(r.peak_heap_used, 0);
  EXPECT_LE(r.peak_heap_used, static_cast<std::int64_t>(1.05 * r.heap_capacity));
}

TEST_F(EngineTest, HigherAllocationRateMeansMoreYoungGcs) {
  WorkloadSpec slow = quick_workload();
  slow.total_work = 2000;
  slow.alloc_rate = 200 * 1024;
  WorkloadSpec fast = slow;
  fast.alloc_rate = 1600 * 1024;
  const RunResult r_slow = sim_.run(config_, slow, 1);
  const RunResult r_fast = sim_.run(config_, fast, 1);
  EXPECT_GT(r_fast.young_gc_count, r_slow.young_gc_count);
}

TEST_F(EngineTest, BiggerHeapMeansFewerYoungGcs) {
  WorkloadSpec w = quick_workload();
  w.total_work = 2000;
  w.alloc_rate = 1200 * 1024;
  const RunResult small = sim_.run(config_, w, 1);
  config_.set_int("MaxHeapSize", 4 * kGiB);
  const RunResult big = sim_.run(config_, w, 1);
  EXPECT_LT(big.young_gc_count, small.young_gc_count);
}

TEST_F(EngineTest, LockHeavyWorkloadAccumulatesLockOverhead) {
  WorkloadSpec w = quick_workload();
  w.locks_per_work = 300;
  w.lock_contention = 0.3;
  const RunResult r = sim_.run(config_, w, 1);
  EXPECT_GT(r.lock_overhead, SimTime::zero());
  EXPECT_LT(r.lock_overhead, r.total_time);
}

TEST_F(EngineTest, BatchCompilationStallsButCompletes) {
  config_.set_bool("BackgroundCompilation", false);
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(r.crashed);
  EXPECT_NEAR(r.work_done, 800.0, 1.0);
}

TEST_F(EngineTest, CompileAllCompilesUpFront) {
  config_.set_enum("ExecutionMode", "comp");
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(r.crashed);
  EXPECT_GT(r.compile_cpu, SimTime::seconds(1));
}

TEST_F(EngineTest, MaxNewSizeBelowTheYoungFloorCapsTheYoungGeneration) {
  // The 1 MiB young-size floor lies above this cap, and the cap wins (in
  // decode_params and in HeapSim::set_young_size alike).
  config_.set_int("MaxNewSize", 512 * kKiB);
  const JvmParams p = decode_params(config_);
  EXPECT_EQ(p.heap.max_young_size, 512 * kKiB);
  EXPECT_EQ(p.heap.young_size, p.heap.max_young_size);
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(r.crashed) << r.crash_reason;
  EXPECT_NEAR(r.work_done, 800.0, 1.0);
  EXPECT_GT(r.young_gc_count, 0);
}

TEST_F(EngineTest, TimeoutGuardTripsOnPathologicalRuns) {
  SimOptions options;
  options.max_sim_seconds = 0.5;  // absurdly tight harness timeout
  JvmSimulator strict(options);
  WorkloadSpec w = quick_workload();
  w.total_work = 100000;
  const RunResult r = strict.run(config_, w, 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("timeout"), std::string::npos);
}

TEST_F(EngineTest, CmsRunReportsConcurrentWork) {
  config_.set_bool("UseParallelGC", false);
  config_.set_bool("UseConcMarkSweepGC", true);
  config_.set_bool("UseParNewGC", true);
  config_.set_int("MaxHeapSize", 192 * kMiB);
  WorkloadSpec w = quick_workload();
  w.total_work = 4000;
  w.alloc_rate = 800 * 1024;
  w.mid_lived_frac = 0.15;
  w.short_lived_frac = 0.7;
  w.mid_lifetime_alloc = 48.0 * 1024 * 1024;
  w.long_lived_bytes = 40.0 * 1024 * 1024;
  const RunResult r = sim_.run(config_, w, 1);
  ASSERT_FALSE(r.crashed) << r.crash_reason;
  EXPECT_GT(r.concurrent_cycles, 0);
  EXPECT_GT(r.concurrent_gc_cpu, SimTime::zero());
}

// ---- simulator output pin ----------------------------------------------------
// Every RunResult field, bit for bit, over the defaults plus a seeded
// random-configuration corpus on all 29 suite programs. The goldens cover a
// few workloads on the default JIT paths; this pin covers the rest, so a
// hot-path rewrite that moves one rounding anywhere in the simulator fails
// here. Never regenerate the literal to make a change pass: a new value
// means the simulator's output changed.

class ResultHash {
 public:
  void add(std::uint64_t word) { value_ = mix64(value_, word); }
  void add_int(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_time(SimTime t) { add_int(t.as_micros()); }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add_text(const std::string& text) {
    add(text.size());
    add(fnv1a64(text));
  }

  void add(const RunResult& r) {
    add(r.crashed ? 1 : 0);
    add_text(r.crash_reason);
    add_time(r.total_time);
    add_time(r.startup_time);
    add_double(r.work_done);
    add_int(r.young_gc_count);
    add_int(r.full_gc_count);
    add_int(r.concurrent_cycles);
    add_int(r.concurrent_mode_failures);
    add_int(r.promotion_failures);
    add_time(r.gc_pause_total);
    add_time(r.gc_pause_max);
    add_time(r.concurrent_gc_cpu);
    add_int(r.peak_heap_used);
    add_int(r.heap_capacity);
    add_int(r.compiles_c1);
    add_int(r.compiles_c2);
    add_time(r.compile_cpu);
    add_int(r.code_cache_used);
    add(r.code_cache_disabled ? 1 : 0);
    add_int(r.code_cache_flushes);
    add_time(r.lock_overhead);
    add_time(r.safepoint_overhead);
    add_time(r.class_load_time);
  }

  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

constexpr std::uint64_t kPinSeeds[] = {1, 2, 3};

TEST(SimulatorOutputPin, EveryRunResultFieldIsBitIdentical) {
  const auto corpus = pin_corpus();
  ASSERT_EQ(corpus.size(), 29u);

  const JvmSimulator sim;
  ResultHash hash;
  std::set<GcAlgorithm> collectors;
  int runs = 0;
  int compile_all = 0, client = 0, interpret_only = 0, non_tiered = 0;
  int stop_below_4 = 0, foreground = 0, flushed = 0, disabled = 0;

  for (const auto& [program, configs] : corpus) {
    for (const Configuration& config : configs) {
      if (first_fatal(config).empty()) {
        const JvmParams params = decode_params(config);
        const JitParams& jit = params.jit;
        collectors.insert(params.gc.algorithm);
        compile_all += jit.compile_all && !jit.interpret_only;
        client += jit.client_vm && !jit.interpret_only;
        interpret_only += jit.interpret_only;
        non_tiered += !jit.tiered && !jit.client_vm && !jit.interpret_only;
        stop_below_4 += jit.tiered && jit.stop_at_level < 4 && !jit.interpret_only;
        foreground += !jit.background && !jit.compile_all && !jit.interpret_only;
      }
      for (const std::uint64_t seed : kPinSeeds) {
        const RunResult r = sim.run(config, *program, seed);
        flushed += r.code_cache_flushes > 0;
        disabled += r.code_cache_disabled;
        hash.add(r);
        ++runs;
      }
    }
  }

  EXPECT_EQ(runs, 29 * (kConfigsPerProgram + 1) * 3);
  // The corpus reaches every simulator path the pin is there to guard.
  EXPECT_EQ(collectors.size(), 4u);
  EXPECT_GT(compile_all, 0);
  EXPECT_GT(client, 0);
  EXPECT_GT(interpret_only, 0);
  EXPECT_GT(non_tiered, 0);
  EXPECT_GT(stop_below_4, 0);
  EXPECT_GT(foreground, 0);
  EXPECT_GT(flushed, 0);
  EXPECT_GT(disabled, 0);
  EXPECT_EQ(hash.value(), 0x552131e752cbdd70ULL) << std::hex << hash.value();
}

// The event loop draws no randomness: the seed reaches a run only through
// the final noise on total_time and startup_time. So every other field is
// the same for every seed, one trajectory per program and configuration,
// which is what lets a run be simulated once and noised per repetition.
// Randomness added inside the loop fails here by name.
TEST(SimulatorOutputPin, OnlyTheNoisedTimesDependOnTheSeed) {
  const JvmSimulator sim;
  for (const auto& [program, configs] : pin_corpus()) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      std::uint64_t first = 0;
      for (const std::uint64_t seed : kPinSeeds) {
        RunResult r = sim.run(configs[c], *program, seed);
        r.total_time = SimTime::zero();
        r.startup_time = SimTime::zero();
        ResultHash fields;
        fields.add(r);
        if (seed == kPinSeeds[0]) {
          first = fields.value();
        } else {
          EXPECT_EQ(fields.value(), first)
              << program->name << " configuration " << c << " seed " << seed;
        }
      }
    }
  }
}

// Property sweep: every suite workload completes under every collector
// (the default 1 GiB heap holds every suite live set).
struct SweepCase {
  std::string workload;
  GcAlgorithm algorithm;
};

class CollectorWorkloadSweep
    : public ::testing::TestWithParam<std::tuple<std::string, GcAlgorithm>> {};

TEST_P(CollectorWorkloadSweep, CompletesWithoutCrash) {
  const auto& [name, algorithm] = GetParam();
  Configuration c(FlagRegistry::hotspot());
  c.set_bool("UseParallelGC", algorithm == GcAlgorithm::kParallel);
  c.set_bool("UseSerialGC", algorithm == GcAlgorithm::kSerial);
  c.set_bool("UseConcMarkSweepGC", algorithm == GcAlgorithm::kCms);
  c.set_bool("UseParNewGC", algorithm == GcAlgorithm::kCms);
  c.set_bool("UseG1GC", algorithm == GcAlgorithm::kG1);

  JvmSimulator sim;
  const WorkloadSpec& w = find_workload(name);
  const RunResult r = sim.run(c, w, 9);
  EXPECT_FALSE(r.crashed) << name << "/" << to_string(algorithm) << ": "
                          << r.crash_reason;
  EXPECT_NEAR(r.work_done, w.total_work, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SuitesTimesCollectors, CollectorWorkloadSweep,
    ::testing::Combine(::testing::Values("startup.compress", "startup.serial",
                                         "startup.compiler.compiler", "avrora",
                                         "h2", "lusearch", "jython"),
                       ::testing::Values(GcAlgorithm::kSerial,
                                         GcAlgorithm::kParallel,
                                         GcAlgorithm::kCms, GcAlgorithm::kG1)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name + "_" + to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace jat
