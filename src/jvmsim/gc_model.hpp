// Garbage-collector algorithm models.
//
// Each model owns the *policy* of one HotSpot collector family — when to
// collect what, with which pauses, with how much concurrent work — on top
// of the mechanism provided by HeapSim. The engine is collector-agnostic:
// it reports eden exhaustion and elapsed time, and charges the pauses and
// CPU steal the model reports back.
#pragma once

#include <memory>

#include "jvmsim/heap_sim.hpp"
#include "jvmsim/machine.hpp"
#include "jvmsim/params.hpp"
#include "support/sim_time.hpp"

namespace jat {

class GcModel {
 public:
  /// What a collection did, for the engine's accounting.
  struct CollectionEvent {
    SimTime pause;                  ///< stop-the-world time (engine adds TTSP)
    bool young_gc = false;
    bool full_gc = false;
    bool started_concurrent = false;
    bool finished_concurrent = false;
    bool concurrent_mode_failure = false;
    bool promotion_failure = false;
    bool out_of_memory = false;     ///< unrecoverable; engine aborts the run
  };

  GcModel(const JvmParams& params, const MachineSpec& machine);
  virtual ~GcModel() = default;

  /// Sets the workload's mean object size; small objects copy/mark slower
  /// per byte (header and pointer-chasing overhead). Called by create().
  void set_mean_object_size(double bytes);
  GcModel(const GcModel&) = delete;
  GcModel& operator=(const GcModel&) = delete;

  /// Builds the model for the configured collector and prepares `heap`
  /// (divert fractions, initial young size policy).
  static std::unique_ptr<GcModel> create(const JvmParams& params,
                                         const WorkloadSpec& workload,
                                         const MachineSpec& machine,
                                         HeapSim& heap);

  /// Eden filled up: collect. Never returns without making room in eden.
  virtual CollectionEvent on_eden_full(HeapSim& heap) = 0;

  /// Collects the whole heap right now (metaspace threshold, explicit GC).
  virtual CollectionEvent full_collection(HeapSim& heap);

  // ---- concurrent machinery (CMS / G1 marking) -------------------------------
  /// Concurrent GC threads currently running (they occupy machine cores).
  virtual int active_conc_threads() const { return 0; }
  /// Time until the in-progress concurrent work needs the engine's
  /// attention (infinite when none is in progress).
  virtual SimTime time_until_conc_event() const { return SimTime::infinite(); }
  /// The concurrent event is due: finish the cycle.
  virtual CollectionEvent on_conc_event(HeapSim& heap);
  /// Wall time passed; progress concurrent work.
  virtual void advance_time(SimTime delta);

  /// Total CPU time consumed by concurrent GC threads so far.
  SimTime concurrent_cpu() const { return concurrent_cpu_; }

 protected:
  /// Worker threads used for a full (old-generation) collection. Only the
  /// throughput collector compacts in parallel; CMS foreground collections
  /// and (JDK 7/8-era) G1 full collections are single-threaded.
  virtual int full_gc_threads() const { return 1; }

  /// Effective speedup of the stop-the-world worker gang.
  double stw_speedup(int threads) const { return machine_.gc_speedup(threads); }

  /// Pause for a young collection that copied/promoted the given bytes and
  /// scanned the old generation's remembered set.
  SimTime young_pause(const HeapSim::ScavengeResult& scavenge, double old_used,
                      int threads) const;

  /// Pause for a stop-the-world old/full collection.
  SimTime full_pause(const HeapSim::OldCollectResult& collect, int threads,
                     bool compacting) const;

  /// Shared adaptive young-generation policy (serial/parallel): grow toward
  /// the max while old-generation slack allows; honour a pause goal by
  /// shrinking. No-op when UseAdaptiveSizePolicy is off.
  void adapt_young(HeapSim& heap, SimTime last_young_pause);

  /// Tracks consecutive ineffective full collections; models the
  /// GC-overhead-limit OutOfMemoryError. Returns true when the run is dead.
  bool note_full_gc(double reclaimed_frac);

  JvmParams params_;
  MachineSpec machine_;
  double object_size_factor_ = 0.6;
  SimTime concurrent_cpu_;
  int futile_full_gcs_ = 0;
};

}  // namespace jat
