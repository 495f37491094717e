#include "jvmsim/gc_model.hpp"

#include <algorithm>

#include "jvmsim/gc_impl.hpp"
#include "support/error.hpp"

namespace jat {

namespace {

/// A full collection must reclaim at least this fraction of the old
/// generation to count as effective for the GC-overhead limit.
constexpr double kEffectiveReclaimFrac = 0.02;
/// Consecutive futile full collections before the overhead-limit OOME.
constexpr int kFutileFullGcLimit = 12;
/// Promotion copies are costlier than survivor copies (card marking,
/// old-space allocation).
constexpr double kPromotionCostFactor = 1.3;

}  // namespace

GcModel::GcModel(const JvmParams& params, const MachineSpec& machine)
    : params_(params), machine_(machine) {}

void GcModel::set_mean_object_size(double bytes) {
  // Copying and marking are per-object as much as per-byte: small objects
  // collect slower per byte than big arrays.
  object_size_factor_ = bytes / (bytes + 48.0);
}

std::unique_ptr<GcModel> GcModel::create(const JvmParams& params,
                                         const WorkloadSpec& workload,
                                         const MachineSpec& machine,
                                         HeapSim& heap) {
  std::unique_ptr<GcModel> model;
  switch (params.gc.algorithm) {
    case GcAlgorithm::kSerial:
      model = gc_detail::make_serial(params, workload, machine, heap);
      break;
    case GcAlgorithm::kParallel:
      model = gc_detail::make_parallel(params, workload, machine, heap);
      break;
    case GcAlgorithm::kCms:
      model = gc_detail::make_cms(params, workload, machine, heap);
      break;
    case GcAlgorithm::kG1:
      model = gc_detail::make_g1(params, workload, machine, heap);
      break;
  }
  if (model == nullptr) throw SimError("GcModel::create: unknown algorithm");
  model->set_mean_object_size(workload.mean_object_size);
  return model;
}

SimTime GcModel::young_pause(const HeapSim::ScavengeResult& scavenge,
                             double old_used, int threads) const {
  const double speedup = stw_speedup(threads);
  const double copy_rate =
      machine_.young_copy_rate * object_size_factor_ * speedup;
  double seconds = machine_.gc_pause_floor_ms / 1e3;
  seconds += scavenge.copied_bytes / copy_rate;
  seconds += scavenge.promoted_bytes * (kPromotionCostFactor - 1.0) / copy_rate;
  seconds += old_used / (machine_.card_scan_rate * speedup);
  return SimTime::seconds(seconds);
}

SimTime GcModel::full_pause(const HeapSim::OldCollectResult& collect, int threads,
                            bool compacting) const {
  const double speedup = stw_speedup(threads);
  double seconds = 4.0 * machine_.gc_pause_floor_ms / 1e3;
  seconds += collect.live_marked / (machine_.mark_rate * speedup);
  if (compacting) {
    seconds += collect.moved / (machine_.compact_rate * speedup);
  } else {
    seconds += collect.reclaimed / (machine_.sweep_rate * speedup);
  }
  return SimTime::seconds(seconds);
}

void GcModel::adapt_young(HeapSim& heap, SimTime last_young_pause) {
  if (!params_.heap.adaptive_sizing) return;
  const SimTime goal = params_.gc.pause_goal;
  if (!goal.is_infinite() && last_young_pause > goal) {
    heap.set_young_size(heap.young_size() * 0.85);
    return;
  }
  // Throughput policy: a bigger eden means fewer collections and fewer
  // survivors; grow while the old generation has slack. The footprint goal
  // keeps ergonomic growth well below the configured maximum — HotSpot's
  // adaptive policy balances throughput *against* memory, which is exactly
  // why pinning a large NewSize with adaptive sizing off is a classic
  // hand-tuning win that the defaults do not reach on their own.
  const double footprint_cap = 0.45 * heap.max_young_size();
  if (heap.young_size() < footprint_cap && heap.old_occupancy_frac() < 0.70) {
    heap.set_young_size(std::min(heap.young_size() * 1.12, footprint_cap));
  }
}

bool GcModel::note_full_gc(double reclaimed_frac) {
  if (reclaimed_frac < kEffectiveReclaimFrac) {
    ++futile_full_gcs_;
  } else {
    futile_full_gcs_ = 0;
  }
  return params_.gc.overhead_limit && futile_full_gcs_ >= kFutileFullGcLimit;
}

GcModel::CollectionEvent GcModel::full_collection(HeapSim& heap) {
  CollectionEvent event;
  event.full_gc = true;
  if (params_.gc.scavenge_before_full) {
    const auto scavenge = heap.scavenge();
    event.pause += young_pause(scavenge, heap.old_used(), params_.gc.stw_threads);
  }
  const double before = heap.old_used();
  const auto collect = heap.collect_old(/*compact=*/true);
  event.pause += full_pause(collect, full_gc_threads(), /*compacting=*/true);
  const double frac = before > 0 ? collect.reclaimed / before : 1.0;
  event.out_of_memory = note_full_gc(frac);
  return event;
}

GcModel::CollectionEvent GcModel::on_conc_event(HeapSim&) { return {}; }

void GcModel::advance_time(SimTime) {}

}  // namespace jat
