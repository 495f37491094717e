// -XX:+UseConcMarkSweepGC — ParNew young collections plus a concurrent
// mark-sweep old-generation cycle.
//
// Modelled cycle: initial-mark pause -> concurrent marking (steals
// ConcGCThreads of CPU) -> optional precleaning -> remark pause ->
// concurrent sweep. Sweeping reclaims garbage in place, so fragmentation
// accumulates (HeapSim charges it); a promotion failure or an old
// generation that fills mid-cycle is a concurrent mode failure, handled by
// a *single-threaded* foreground compaction — the signature CMS failure
// mode the initiating-occupancy flags exist to avoid.
#include <algorithm>

#include "jvmsim/gc_impl.hpp"

namespace jat::gc_detail {

namespace {

/// Ergonomic (non-occupancy-only) triggering starts cycles earlier.
constexpr double kErgonomicTriggerCap = 0.75;
/// Precleaning shortens the remark pause by filtering dirty cards.
constexpr double kPrecleanRemarkFactor = 0.5;
/// Fixed concurrent precleaning duration.
constexpr double kPrecleanSeconds = 0.12;

class CmsModel : public GcModel {
 public:
  CmsModel(const JvmParams& params, const MachineSpec& machine)
      : GcModel(params, machine) {
    const auto& gc = params_.gc;
    trigger_frac_ = gc.cms_occupancy_only
                        ? gc.cms_initiating_frac
                        : std::min(gc.cms_initiating_frac, kErgonomicTriggerCap);
  }

  CollectionEvent on_eden_full(HeapSim& heap) override {
    CollectionEvent event;
    event.young_gc = true;
    const auto scavenge = heap.scavenge();
    event.pause = young_pause(scavenge, heap.old_used(), params_.gc.stw_threads);

    if (scavenge.promotion_failure || heap.old_used() > heap.old_capacity()) {
      // Promotion failed (often due to fragmentation): foreground
      // collection, single-threaded compaction, cycle aborted.
      event.promotion_failure = scavenge.promotion_failure;
      event.concurrent_mode_failure = phase_ != Phase::kIdle;
      phase_ = Phase::kIdle;
      event.full_gc = true;
      const double before = std::max(heap.old_used(), 1.0);
      const auto collect = heap.collect_old(/*compact=*/true);
      event.pause += full_pause(collect, /*threads=*/1, /*compacting=*/true);
      event.out_of_memory = note_full_gc(collect.reclaimed / before);
      if (heap.old_used() > heap.old_capacity()) event.out_of_memory = true;
      return event;
    }

    if (phase_ == Phase::kIdle && heap.old_occupancy_frac() >= trigger_frac_) {
      // Start a cycle with the initial-mark pause (roots + young).
      event.started_concurrent = true;
      const double spd =
          params_.gc.cms_parallel_initial_mark ? stw_speedup(params_.gc.stw_threads) : 1.0;
      event.pause += SimTime::seconds(machine_.gc_pause_floor_ms / 1e3 +
                                      heap.young_size() * 0.10 /
                                          (machine_.mark_rate * spd));
      phase_ = Phase::kMarking;
      mark_remaining_ = heap.old_live();
      precleaned_ = false;
    }
    return event;
  }

  int active_conc_threads() const override {
    if (phase_ == Phase::kIdle) return 0;
    const int threads = params_.gc.conc_threads;
    // Incremental mode time-slices the concurrent work.
    return params_.gc.cms_incremental ? std::max(1, threads / 2) : threads;
  }

  SimTime time_until_conc_event() const override {
    switch (phase_) {
      case Phase::kIdle:
        return SimTime::infinite();
      case Phase::kMarking:
        return SimTime::seconds(mark_remaining_ / mark_rate());
      case Phase::kPrecleaning:
        return SimTime::seconds(preclean_remaining_s_);
      case Phase::kSweeping:
        return SimTime::seconds(sweep_remaining_ / sweep_rate());
    }
    return SimTime::infinite();
  }

  void advance_time(SimTime delta) override {
    if (phase_ == Phase::kIdle || delta <= SimTime::zero()) return;
    const double seconds = delta.as_seconds();
    concurrent_cpu_ += delta * static_cast<double>(active_conc_threads());
    switch (phase_) {
      case Phase::kMarking:
        mark_remaining_ = std::max(0.0, mark_remaining_ - mark_rate() * seconds);
        break;
      case Phase::kPrecleaning:
        preclean_remaining_s_ = std::max(0.0, preclean_remaining_s_ - seconds);
        break;
      case Phase::kSweeping:
        sweep_remaining_ = std::max(0.0, sweep_remaining_ - sweep_rate() * seconds);
        break;
      case Phase::kIdle:
        break;
    }
  }

  CollectionEvent on_conc_event(HeapSim& heap) override {
    CollectionEvent event;
    switch (phase_) {
      case Phase::kIdle:
        return event;
      case Phase::kMarking:
        if (params_.gc.cms_precleaning) {
          phase_ = Phase::kPrecleaning;
          preclean_remaining_s_ = kPrecleanSeconds;
          precleaned_ = true;
          return event;
        }
        return do_remark(heap, event);
      case Phase::kPrecleaning:
        return do_remark(heap, event);
      case Phase::kSweeping: {
        // Sweep complete: garbage returns to the free lists (HeapSim adds
        // the fragmentation waste).
        heap.collect_old(/*compact=*/false);
        phase_ = Phase::kIdle;
        event.finished_concurrent = true;
        return event;
      }
    }
    return event;
  }

 private:
  enum class Phase { kIdle, kMarking, kPrecleaning, kSweeping };

  double mark_rate() const {
    return machine_.conc_mark_rate * static_cast<double>(active_conc_threads());
  }
  double sweep_rate() const {
    return machine_.sweep_rate * 0.5 * static_cast<double>(active_conc_threads());
  }

  CollectionEvent do_remark(HeapSim& heap, CollectionEvent event) {
    // Remark rescans the young generation and dirty cards, stop-the-world.
    if (params_.gc.cms_scavenge_before_remark) {
      const auto scavenge = heap.scavenge();
      event.pause += young_pause(scavenge, heap.old_used(), params_.gc.stw_threads);
      event.young_gc = true;
    }
    const double spd =
        params_.gc.cms_parallel_remark ? stw_speedup(params_.gc.stw_threads) : 1.0;
    double rescan = heap.eden_used() + heap.old_used() * 0.04;
    if (precleaned_) rescan *= kPrecleanRemarkFactor;
    event.pause += SimTime::seconds(2.0 * machine_.gc_pause_floor_ms / 1e3 +
                                    rescan / (machine_.mark_rate * spd));
    phase_ = Phase::kSweeping;
    sweep_remaining_ = std::max(heap.old_dead(), 1.0);
    return event;
  }

  double trigger_frac_ = 0.68;
  Phase phase_ = Phase::kIdle;
  double mark_remaining_ = 0;
  double preclean_remaining_s_ = 0;
  double sweep_remaining_ = 0;
  bool precleaned_ = false;
};

}  // namespace

std::unique_ptr<GcModel> make_cms(const JvmParams& params,
                                  const WorkloadSpec& workload,
                                  const MachineSpec& machine, HeapSim& heap) {
  (void)workload;
  (void)heap;
  return std::make_unique<CmsModel>(params, machine);
}

}  // namespace jat::gc_detail
