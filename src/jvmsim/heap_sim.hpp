// Generational heap state with an object-lifetime model.
//
// The heap tracks eden fill, survivor-space age bands, and the old
// generation's composition (permanent live set, still-live promoted
// mid-lived objects, reclaimable garbage, and CMS fragmentation waste).
// Object lifetimes are measured in *bytes of subsequent allocation* — the
// standard weak-generational framing — which is what produces the real
// tuning trade-offs:
//   - bigger eden  => a smaller fraction of short/mid-lived objects is
//     still alive at scavenge time => cheaper scavenges, fewer promotions;
//   - higher tenuring threshold => mid-lived objects die in the survivor
//     spaces instead of polluting the old generation, at extra copy cost;
//   - survivor-space overflow promotes early regardless of the threshold.
//
// GC algorithm models drive this class; it knows nothing about pause costs.
#pragma once

#include <array>
#include <cstdint>

#include "jvmsim/params.hpp"
#include "workloads/workload.hpp"

namespace jat {

class HeapSim {
 public:
  /// `footprint_factor` scales all live bytes (compressed oops off => 1.25).
  /// `expected_total_alloc` is the workload's estimated lifetime allocation,
  /// used to pace long-lived allocation over the first part of the run.
  HeapSim(const HeapParams& params, const WorkloadSpec& workload,
          double footprint_factor, double expected_total_alloc);

  // ---- layout ---------------------------------------------------------------
  std::int64_t heap_capacity() const { return heap_capacity_; }
  double eden_capacity() const { return eden_capacity_; }
  double survivor_capacity() const { return survivor_capacity_; }
  double old_capacity() const { return old_capacity_; }
  double young_size() const { return young_size_; }

  /// Resizes the young generation (adaptive policies, G1 pause control),
  /// clamped to [1 MiB, min(max_young, 80% of the heap)]; when that cap is
  /// below 1 MiB the cap wins. Existing occupancy is preserved.
  void set_young_size(double bytes);
  double max_young_size() const { return max_young_size_; }

  // ---- allocation -------------------------------------------------------------
  /// Allocates `bytes` (already footprint-scaled). Humongous/pretenured
  /// bytes go straight to the old generation; the rest fills eden.
  void allocate(double bytes);
  /// Fraction of allocation that bypasses the young generation (humongous
  /// objects under G1, pretenured large objects otherwise). Includes any
  /// region-rounding waste factor the collector wants to charge.
  void set_divert_frac(double frac) { divert_frac_ = frac; }
  double eden_used() const { return eden_used_; }
  double eden_free() const { return eden_capacity_ - eden_used_; }
  bool eden_full() const { return eden_used_ >= eden_capacity_ - 0.5; }

  // ---- scavenge -----------------------------------------------------------------
  struct ScavengeResult {
    double copied_bytes = 0;    ///< survivors copied (young pause cost basis)
    double promoted_bytes = 0;  ///< bytes moved into the old generation
    bool promotion_failure = false;  ///< old generation could not absorb them
    int tenuring_threshold = 0;      ///< threshold actually used
  };
  /// Collects the young generation. `adaptive` chooses the tenuring
  /// threshold that fits the survivor target (HotSpot's adaptive policy);
  /// otherwise max_tenuring is used. Overflow promotes oldest-first.
  ScavengeResult scavenge();

  // ---- old generation -------------------------------------------------------
  double old_used() const;
  double old_live() const { return old_long_ + old_mid_; }
  double old_free() const { return old_capacity_ - old_used(); }
  double old_occupancy_frac() const { return old_used() / old_capacity_; }
  double fragmentation() const { return old_frag_; }

  struct OldCollectResult {
    double live_marked = 0;  ///< bytes traced (mark cost basis)
    double moved = 0;        ///< bytes slid/compacted (0 for sweep)
    double reclaimed = 0;
  };
  /// Collects the old generation. Compacting collection (serial/parallel
  /// full GC, CMS foreground compaction) clears fragmentation; a CMS-style
  /// sweep reclaims garbage in place and *adds* fragmentation waste.
  OldCollectResult collect_old(bool compact);

  /// Reclaims up to `bytes` of old-generation garbage in place (G1 mixed
  /// collections evacuate a few old regions per pause). Returns the bytes
  /// actually reclaimed.
  double reclaim_old_dead(double bytes);

  /// Garbage currently sitting in the old generation.
  double old_dead() const { return old_dead_; }

  /// Whole-heap occupancy fraction (eden + survivors + old), for G1's IHOP.
  double heap_occupancy_frac() const;

  double peak_used() const { return peak_used_; }

 private:
  void note_peak();

  // Layout.
  std::int64_t heap_capacity_ = 0;
  double max_young_size_ = 0;
  double young_size_ = 0;
  double eden_capacity_ = 0;
  double survivor_capacity_ = 0;  ///< one survivor space
  double old_capacity_ = 0;
  int survivor_ratio_ = 8;
  double target_survivor_frac_ = 0.5;
  int max_tenuring_ = 15;
  int initial_tenuring_ = 7;
  bool adaptive_ = true;
  double divert_frac_ = 0.0;  ///< humongous/pretenured share of allocation

  // Lifetime parameters (footprint-scaled).
  double short_frac_ = 0.9;
  double mid_frac_ = 0.08;
  double short_lifetime_ = 1.5e6;
  double mid_lifetime_ = 24e6;
  double long_target_ = 0;   ///< permanent live set to accumulate
  double long_pace_alloc_ = 0;  ///< allocation over which it accumulates

  // Eden state.
  double eden_used_ = 0;
  double eden_long_ = 0;  ///< long-lived portion of eden_used_

  // Survivor age bands (index = age; [0] unused after a scavenge).
  static constexpr int kMaxAge = 16;
  struct Band {
    double mid = 0;
    double long_lived = 0;
    double total() const { return mid + long_lived; }
  };
  std::array<Band, kMaxAge> bands_{};
  double survivors_ = 0;  ///< sum of bands_ totals, as of the last scavenge

  // Old generation composition.
  double old_long_ = 0;
  double old_mid_ = 0;   ///< promoted mid-lived, still live
  double old_dead_ = 0;  ///< garbage awaiting an old collection
  double old_frag_ = 0;  ///< CMS fragmentation waste

  double long_allocated_ = 0;
  double peak_used_ = 0;
};

}  // namespace jat
