// -XX:+UseG1GC — region-based garbage-first collector.
//
// Modelled behaviour: young collections whose size adapts to the pause
// goal; concurrent marking started at the initiating heap occupancy;
// a batch of mixed collections after each marking cycle that evacuates
// old-region garbage incrementally; humongous allocation bypassing the
// young generation with region-rounding waste; and the pre-JDK10 failure
// mode — evacuation failure falls back to a single-threaded full GC.
#include <algorithm>
#include <cmath>

#include "jvmsim/gc_impl.hpp"

namespace jat::gc_detail {

namespace {

/// Region-rounding waste on humongous allocations.
constexpr double kHumongousWaste = 1.25;
/// Live data evacuated alongside each reclaimed byte in a mixed collection
/// at the default liveness threshold.
constexpr double kMixedLiveCopyFactor = 1.2;
/// Remembered-set maintenance makes G1 young pauses heavier than the
/// throughput collector's.
constexpr double kRsetCostFactor = 1.6;

class G1Model : public GcModel {
 public:
  G1Model(const JvmParams& params, const WorkloadSpec& workload,
          const MachineSpec& machine, HeapSim& heap)
      : GcModel(params, machine) {
    const auto& gc = params_.gc;
    // Bigger regions raise the humongous threshold (region/2), so fewer
    // allocations qualify; those that do waste part of their last region.
    const double region_mib = static_cast<double>(gc.g1_region_size) / (1 << 20);
    const double qualify = std::clamp(std::sqrt(2.0 / region_mib), 0.25, 1.5);
    heap.set_divert_frac(workload.humongous_frac * qualify * kHumongousWaste);

    const double heap_bytes = static_cast<double>(heap.heap_capacity());
    min_young_ = gc.g1_new_min_frac * heap_bytes;
    max_young_ = gc.g1_new_max_frac * heap_bytes;
    heap.set_young_size(std::clamp(0.20 * heap_bytes, min_young_, max_young_));
  }

  CollectionEvent on_eden_full(HeapSim& heap) override {
    CollectionEvent event;
    event.young_gc = true;
    const auto scavenge = heap.scavenge();
    const int threads = params_.gc.stw_threads;
    SimTime pause = young_pause(scavenge, heap.old_used() * rset_factor(), threads);
    // Per-region fixed costs.
    const double regions_young =
        heap.young_size() / static_cast<double>(params_.gc.g1_region_size);
    pause += SimTime::micros(static_cast<std::int64_t>(regions_young * 15.0));

    // Mixed collection piggybacking on this pause.
    if (mixed_remaining_ > 0) {
      const double reclaimable = heap.old_dead() * params_.gc.g1_live_threshold_frac;
      const double waste_floor =
          params_.gc.g1_heap_waste_frac * static_cast<double>(heap.heap_capacity());
      if (reclaimable <= waste_floor) {
        mixed_remaining_ = 0;  // not worth further mixed pauses
      } else {
        const double chunk = reclaimable / static_cast<double>(mixed_remaining_);
        const double reclaimed = heap.reclaim_old_dead(chunk);
        pause += SimTime::seconds(reclaimed * kMixedLiveCopyFactor /
                                  (machine_.young_copy_rate * stw_speedup(threads)));
        --mixed_remaining_;
      }
    }
    event.pause = pause;

    // Evacuation failure => single-threaded full collection.
    if (scavenge.promotion_failure || heap.old_used() > heap.old_capacity()) {
      event.promotion_failure = scavenge.promotion_failure;
      event.full_gc = true;
      marking_ = false;
      mixed_remaining_ = 0;
      const double before = std::max(heap.old_used(), 1.0);
      const auto collect = heap.collect_old(/*compact=*/true);
      event.pause += full_pause(collect, /*threads=*/1, /*compacting=*/true);
      event.out_of_memory = note_full_gc(collect.reclaimed / before);
      if (heap.old_used() > heap.old_capacity()) event.out_of_memory = true;
      return event;
    }

    // Initiate concurrent marking at the configured heap occupancy; the
    // to-space reserve pulls the trigger earlier so evacuation has room.
    const double trigger = std::min(params_.gc.g1_ihop_frac,
                                    0.95 - params_.gc.g1_reserve_frac);
    if (!marking_ && mixed_remaining_ == 0 &&
        heap.heap_occupancy_frac() >= trigger) {
      marking_ = true;
      mark_remaining_ = heap.old_live();
      event.started_concurrent = true;
      // Initial mark piggybacks on the young pause.
      event.pause += SimTime::millis(1);
    }

    adapt_young_to_goal(heap, pause);
    return event;
  }

  int active_conc_threads() const override {
    return marking_ ? params_.gc.conc_threads : 0;
  }

  SimTime time_until_conc_event() const override {
    if (!marking_) return SimTime::infinite();
    return SimTime::seconds(mark_remaining_ / mark_rate());
  }

  void advance_time(SimTime delta) override {
    if (!marking_ || delta <= SimTime::zero()) return;
    concurrent_cpu_ += delta * static_cast<double>(params_.gc.conc_threads);
    mark_remaining_ = std::max(0.0, mark_remaining_ - mark_rate() * delta.as_seconds());
  }

  CollectionEvent on_conc_event(HeapSim& heap) override {
    CollectionEvent event;
    if (!marking_) return event;
    marking_ = false;
    event.finished_concurrent = true;
    // Cleanup/remark pause, then schedule the mixed-collection batch.
    event.pause = SimTime::seconds(2.0 * machine_.gc_pause_floor_ms / 1e3 +
                                   heap.old_live() * 0.02 / machine_.mark_rate);
    mixed_remaining_ = params_.gc.g1_mixed_count_target;
    return event;
  }

 private:
  double rset_factor() const {
    // Concurrent refinement threads shift remembered-set work out of pauses.
    const double refine = static_cast<double>(params_.gc.g1_refinement_threads);
    return kRsetCostFactor * (1.0 - 0.4 * (refine / (refine + 4.0)));
  }

  double mark_rate() const {
    return machine_.conc_mark_rate * static_cast<double>(params_.gc.conc_threads);
  }

  void adapt_young_to_goal(HeapSim& heap, SimTime pause) {
    const SimTime goal = params_.gc.pause_goal;
    if (goal.is_infinite()) return;
    double young = heap.young_size();
    if (pause > goal) {
      young *= 0.80;
    } else if (pause < goal * 0.6) {
      young *= 1.15;
    } else {
      return;
    }
    heap.set_young_size(std::clamp(young, min_young_, max_young_));
  }

  double min_young_ = 0;
  double max_young_ = 0;
  bool marking_ = false;
  double mark_remaining_ = 0;
  int mixed_remaining_ = 0;
};

}  // namespace

std::unique_ptr<GcModel> make_g1(const JvmParams& params,
                                 const WorkloadSpec& workload,
                                 const MachineSpec& machine, HeapSim& heap) {
  return std::make_unique<G1Model>(params, workload, machine, heap);
}

}  // namespace jat::gc_detail
