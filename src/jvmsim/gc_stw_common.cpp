#include "jvmsim/gc_stw_common.hpp"

#include <algorithm>

namespace jat::gc_detail {

namespace {
/// Old-generation occupancy that forces a full collection even without a
/// promotion failure (the next scavenge would very likely fail anyway).
constexpr double kOldFullThreshold = 0.98;
}  // namespace

StwGenerationalModel::StwGenerationalModel(const JvmParams& params,
                                           const MachineSpec& machine,
                                           int young_threads, int full_threads)
    : GcModel(params, machine),
      young_threads_(young_threads),
      full_threads_(full_threads) {}

GcModel::CollectionEvent StwGenerationalModel::on_eden_full(HeapSim& heap) {
  CollectionEvent event;
  event.young_gc = true;
  const auto scavenge = heap.scavenge();
  const SimTime young = young_pause(scavenge, heap.old_used(), young_threads_);
  event.pause = young;

  if (scavenge.promotion_failure ||
      heap.old_occupancy_frac() > kOldFullThreshold) {
    event.full_gc = true;
    event.promotion_failure = scavenge.promotion_failure;
    const double before = std::max(heap.old_used(), 1.0);
    const auto collect = heap.collect_old(/*compact=*/true);
    event.pause += full_pause(collect, full_threads_, /*compacting=*/true);
    event.out_of_memory = note_full_gc(collect.reclaimed / before);
    // The permanent live set may simply not fit the old generation.
    if (heap.old_used() > heap.old_capacity()) event.out_of_memory = true;
  }

  adapt_young(heap, young);
  return event;
}

}  // namespace jat::gc_detail
