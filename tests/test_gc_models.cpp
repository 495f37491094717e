#include "jvmsim/gc_model.hpp"

#include <gtest/gtest.h>

#include "flags/configuration.hpp"
#include "jvmsim/params.hpp"
#include "support/units.hpp"

namespace jat {
namespace {

constexpr double kMiBd = 1024.0 * 1024.0;

struct Rig {
  JvmParams params;
  WorkloadSpec workload;
  MachineSpec machine;
  HeapSim heap;
  std::unique_ptr<GcModel> model;

  Rig(GcAlgorithm algorithm, WorkloadSpec w)
      : params(make_params(algorithm)), workload(std::move(w)),
        heap(params.heap, workload, 1.0,
             workload.alloc_rate * workload.total_work),
        model(GcModel::create(params, workload, machine, heap)) {}

  static JvmParams make_params(GcAlgorithm algorithm) {
    Configuration c(FlagRegistry::hotspot());
    c.set_bool("UseParallelGC", false);
    switch (algorithm) {
      case GcAlgorithm::kSerial: c.set_bool("UseSerialGC", true); break;
      case GcAlgorithm::kParallel: c.set_bool("UseParallelGC", true); break;
      case GcAlgorithm::kCms:
        c.set_bool("UseConcMarkSweepGC", true);
        c.set_bool("UseParNewGC", true);
        break;
      case GcAlgorithm::kG1: c.set_bool("UseG1GC", true); break;
    }
    c.set_int("MaxHeapSize", 128 * kMiB);
    c.set_int("InitialHeapSize", 64 * kMiB);
    return decode_params(c);
  }

  /// Fills eden and collects, advancing concurrent work as if `gap_ms`
  /// passed between collections. Returns the event.
  GcModel::CollectionEvent cycle(double gap_ms = 50.0) {
    model->advance_time(SimTime::millis(static_cast<std::int64_t>(gap_ms)));
    if (model->time_until_conc_event() <= SimTime::zero()) {
      model->on_conc_event(heap);
    }
    heap.allocate(heap.eden_free() + 1.0);
    return model->on_eden_full(heap);
  }
};

WorkloadSpec churn_workload() {
  WorkloadSpec w;
  w.name = "churn";
  w.total_work = 5000;
  w.alloc_rate = 500 * 1024;
  w.short_lived_frac = 0.7;
  w.mid_lived_frac = 0.25;
  w.mid_lifetime_alloc = 256 * kMiBd;  // heavy promotion pressure
  w.long_lived_bytes = 30 * kMiBd;
  return w;
}

TEST(GcModels, YoungCollectionProducesPositiveBoundedPause) {
  for (GcAlgorithm a : {GcAlgorithm::kSerial, GcAlgorithm::kParallel,
                        GcAlgorithm::kCms, GcAlgorithm::kG1}) {
    Rig rig(a, churn_workload());
    const auto event = rig.cycle();
    EXPECT_TRUE(event.young_gc) << to_string(a);
    EXPECT_GT(event.pause, SimTime::zero()) << to_string(a);
    EXPECT_LT(event.pause, SimTime::seconds(5)) << to_string(a);
  }
}

TEST(GcModels, SerialPausesExceedParallelPauses) {
  Rig serial(GcAlgorithm::kSerial, churn_workload());
  Rig parallel(GcAlgorithm::kParallel, churn_workload());
  SimTime serial_total;
  SimTime parallel_total;
  for (int i = 0; i < 10; ++i) {
    serial_total += serial.cycle().pause;
    parallel_total += parallel.cycle().pause;
  }
  EXPECT_GT(serial_total, parallel_total);
}

TEST(GcModels, OldPressureTriggersFullCollection) {
  Rig rig(GcAlgorithm::kParallel, churn_workload());
  bool full_seen = false;
  for (int i = 0; i < 300 && !full_seen; ++i) {
    full_seen = rig.cycle().full_gc;
  }
  EXPECT_TRUE(full_seen);
}

TEST(GcModels, CmsStartsConcurrentCycleAtOccupancy) {
  Rig rig(GcAlgorithm::kCms, churn_workload());
  bool started = false;
  for (int i = 0; i < 300 && !started; ++i) {
    started = rig.cycle().started_concurrent;
  }
  EXPECT_TRUE(started);
  EXPECT_GT(rig.model->active_conc_threads(), 0);
  EXPECT_FALSE(rig.model->time_until_conc_event().is_infinite());
}

TEST(GcModels, CmsCycleEventuallyFinishesAndReclaims) {
  Rig rig(GcAlgorithm::kCms, churn_workload());
  bool finished = false;
  for (int i = 0; i < 600 && !finished; ++i) {
    // Generous gaps so concurrent marking can complete between scavenges.
    rig.model->advance_time(SimTime::millis(300));
    if (rig.model->time_until_conc_event() <= SimTime::zero()) {
      finished |= rig.model->on_conc_event(rig.heap).finished_concurrent;
    }
    rig.heap.allocate(rig.heap.eden_free() + 1.0);
    rig.model->on_eden_full(rig.heap);
  }
  EXPECT_TRUE(finished);
  EXPECT_GT(rig.model->concurrent_cpu(), SimTime::zero());
}

TEST(GcModels, CmsConcurrentModeFailureUnderPressure) {
  // Allocate so fast the cycle cannot finish before the old gen fills.
  WorkloadSpec w = churn_workload();
  w.mid_lived_frac = 0.5;
  w.short_lived_frac = 0.4;
  Rig rig(GcAlgorithm::kCms, w);
  bool cmf = false;
  for (int i = 0; i < 400 && !cmf; ++i) {
    cmf = rig.cycle(1.0).concurrent_mode_failure;  // tiny gaps: no progress
  }
  EXPECT_TRUE(cmf);
}

TEST(GcModels, G1MarkingAndMixedCycles) {
  Rig rig(GcAlgorithm::kG1, churn_workload());
  bool started = false;
  bool finished = false;
  for (int i = 0; i < 600; ++i) {
    rig.model->advance_time(SimTime::millis(200));
    if (rig.model->time_until_conc_event() <= SimTime::zero()) {
      finished |= rig.model->on_conc_event(rig.heap).finished_concurrent;
    }
    rig.heap.allocate(rig.heap.eden_free() + 1.0);
    started |= rig.model->on_eden_full(rig.heap).started_concurrent;
    if (started && finished) break;
  }
  EXPECT_TRUE(started);
  EXPECT_TRUE(finished);
}

TEST(GcModels, G1RespectsPauseGoalByShrinkingYoung) {
  Configuration c(FlagRegistry::hotspot());
  c.set_bool("UseParallelGC", false);
  c.set_bool("UseG1GC", true);
  c.set_int("MaxHeapSize", 512 * kMiB);
  c.set_int("MaxGCPauseMillis", 10);  // very tight goal
  const JvmParams tight = decode_params(c);
  c.set_int("MaxGCPauseMillis", 2000);  // loose goal
  const JvmParams loose = decode_params(c);

  WorkloadSpec w = churn_workload();
  HeapSim heap_tight(tight.heap, w, 1.0, 1e12);
  HeapSim heap_loose(loose.heap, w, 1.0, 1e12);
  auto model_tight = GcModel::create(tight, w, MachineSpec{}, heap_tight);
  auto model_loose = GcModel::create(loose, w, MachineSpec{}, heap_loose);
  for (int i = 0; i < 30; ++i) {
    heap_tight.allocate(heap_tight.eden_free() + 1);
    model_tight->on_eden_full(heap_tight);
    heap_loose.allocate(heap_loose.eden_free() + 1);
    model_loose->on_eden_full(heap_loose);
  }
  EXPECT_LT(heap_tight.young_size(), heap_loose.young_size());
}

TEST(GcModels, PermanentLiveSetBeyondHeapIsOom) {
  WorkloadSpec w = churn_workload();
  w.long_lived_bytes = 500 * kMiBd;  // heap is only 128 MiB
  Rig rig(GcAlgorithm::kParallel, w);
  bool oom = false;
  for (int i = 0; i < 2000 && !oom; ++i) {
    oom = rig.cycle().out_of_memory;
  }
  EXPECT_TRUE(oom);
}

TEST(GcModels, FullCollectionHelperCompactsAndCounts) {
  Rig rig(GcAlgorithm::kParallel, churn_workload());
  for (int i = 0; i < 20; ++i) rig.cycle();
  const auto event = rig.model->full_collection(rig.heap);
  EXPECT_TRUE(event.full_gc);
  EXPECT_GT(event.pause, SimTime::zero());
  EXPECT_EQ(rig.heap.fragmentation(), 0.0);
}

TEST(GcModels, MoreGcThreadsShortenPauses) {
  Configuration c(FlagRegistry::hotspot());
  c.set_int("MaxHeapSize", 128 * kMiB);
  c.set_int("ParallelGCThreads", 1);
  const JvmParams one = decode_params(c);
  c.set_int("ParallelGCThreads", 8);
  const JvmParams eight = decode_params(c);

  WorkloadSpec w = churn_workload();
  HeapSim h1(one.heap, w, 1.0, 1e12);
  HeapSim h8(eight.heap, w, 1.0, 1e12);
  auto m1 = GcModel::create(one, w, MachineSpec{}, h1);
  auto m8 = GcModel::create(eight, w, MachineSpec{}, h8);
  SimTime total1;
  SimTime total8;
  for (int i = 0; i < 10; ++i) {
    h1.allocate(h1.eden_free() + 1);
    total1 += m1->on_eden_full(h1).pause;
    h8.allocate(h8.eden_free() + 1);
    total8 += m8->on_eden_full(h8).pause;
  }
  EXPECT_GT(total1, total8);
}

// Property: every collector keeps heap accounting sane over a long churn.
class GcAlgorithmSweep : public ::testing::TestWithParam<GcAlgorithm> {};

TEST_P(GcAlgorithmSweep, AccountingInvariantsHold) {
  Rig rig(GetParam(), churn_workload());
  for (int i = 0; i < 150; ++i) {
    const auto event = rig.cycle(20.0);
    EXPECT_GE(event.pause, SimTime::zero());
    EXPECT_GE(rig.heap.old_used(), 0.0);
    EXPECT_GE(rig.heap.old_free(), -rig.heap.old_capacity());
    EXPECT_EQ(rig.heap.eden_used(), 0.0);  // scavenge always empties eden
    if (event.out_of_memory) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Collectors, GcAlgorithmSweep,
                         ::testing::Values(GcAlgorithm::kSerial,
                                           GcAlgorithm::kParallel,
                                           GcAlgorithm::kCms, GcAlgorithm::kG1),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace jat
