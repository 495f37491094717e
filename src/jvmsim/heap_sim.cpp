#include "jvmsim/heap_sim.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/units.hpp"

namespace jat {

namespace {

/// Fraction of CMS-swept garbage that turns into free-list fragmentation
/// waste, and the cap on total waste as a fraction of the old generation.
constexpr double kFragPerSweep = 0.08;
constexpr double kFragCapFrac = 0.30;

/// Promoted mid-lived objects linger this multiple of their young lifetime
/// before becoming old-generation garbage.
constexpr double kOldMidLifetimeScale = 4.0;

}  // namespace

HeapSim::HeapSim(const HeapParams& params, const WorkloadSpec& workload,
                 double footprint_factor, double expected_total_alloc) {
  heap_capacity_ = params.max_heap;
  max_young_size_ = static_cast<double>(params.max_young_size);
  survivor_ratio_ = std::max(1, params.survivor_ratio);
  target_survivor_frac_ = params.target_survivor_frac;
  max_tenuring_ = std::clamp(params.max_tenuring, 0, kMaxAge - 1);
  initial_tenuring_ = std::clamp(params.initial_tenuring, 0, max_tenuring_);
  adaptive_ = params.adaptive_sizing;

  short_frac_ = workload.short_lived_frac;
  mid_frac_ = workload.mid_lived_frac;
  short_lifetime_ = workload.short_lifetime_alloc * footprint_factor;
  mid_lifetime_ = workload.mid_lifetime_alloc * footprint_factor;
  long_target_ = workload.long_lived_bytes * footprint_factor;
  // The permanent live set accumulates over roughly the first third of the
  // run's allocation.
  long_pace_alloc_ = std::max(expected_total_alloc * 0.35, long_target_);

  // Humongous objects bypass the young generation when pretenuring is on
  // (PretenureSizeThreshold catches them); G1 configures this separately.
  if (params.pretenure_threshold > 0 && params.pretenure_threshold <= kMiB) {
    divert_frac_ = workload.humongous_frac;
  }

  set_young_size(static_cast<double>(params.young_size));
}

void HeapSim::set_young_size(double bytes) {
  const double heap = static_cast<double>(heap_capacity_);
  // Not std::clamp: the cap can fall below 1 MiB (a tiny MaxNewSize), and
  // clamp with hi < lo is undefined. The cap wins.
  double young = std::min(std::max(bytes, 1.0 * kMiB), std::min(max_young_size_, heap * 0.8));
  // The boundary cannot move below what the old generation already holds.
  const double min_old = old_used() * 1.05;
  if (heap - young < min_old) young = std::max(1.0 * kMiB, heap - min_old);
  young_size_ = young;
  const double r = static_cast<double>(survivor_ratio_);
  survivor_capacity_ = young / (r + 2.0);
  eden_capacity_ = young - 2.0 * survivor_capacity_;
  old_capacity_ = heap - young;
}

void HeapSim::allocate(double bytes) {
  if (bytes <= 0) return;
  double long_frac = 0.0;
  if (long_allocated_ < long_target_) {
    long_frac = std::min(0.5, long_target_ / long_pace_alloc_);
  }
  const double diverted = bytes * divert_frac_;
  // Diverted (humongous) bytes behave like mid-lived old-gen residents.
  old_mid_ += diverted;
  const double into_eden = bytes - diverted;
  eden_used_ += into_eden;
  const double long_bytes = into_eden * long_frac;
  eden_long_ += long_bytes;
  long_allocated_ += long_bytes + diverted * long_frac;
  note_peak();
}

HeapSim::ScavengeResult HeapSim::scavenge() {
  ScavengeResult result;
  const double e = std::max(eden_used_, 1.0);

  // Live bytes at scavenge time, by lifetime class.
  const double transient = std::max(0.0, eden_used_ - eden_long_);
  const double live_short = short_frac_ * std::min(transient, short_lifetime_);
  const double live_mid = mid_frac_ * std::min(transient, mid_lifetime_);
  const double live_long = eden_long_;

  // Age the survivor bands: mid-lived content dies geometrically with the
  // allocation that passed since the last scavenge.
  const double p_survive = mid_lifetime_ / (mid_lifetime_ + e);
  for (int age = kMaxAge - 1; age >= 1; --age) {
    Band& to = bands_[static_cast<std::size_t>(age)];
    const Band from = age > 0 ? bands_[static_cast<std::size_t>(age - 1)] : Band{};
    to.mid = from.mid * p_survive;
    to.long_lived = from.long_lived;
    if (age == 1) {
      to.mid += live_mid;
      to.long_lived += live_long;
    }
  }
  bands_[0] = Band{};

  // Promoted mid-lived objects in the old generation decay into garbage.
  const double old_decay = std::exp(-e / (mid_lifetime_ * kOldMidLifetimeScale));
  old_dead_ += old_mid_ * (1.0 - old_decay);
  old_mid_ *= old_decay;

  // Pick the tenuring threshold. The adaptive policy uses the largest
  // threshold whose retained bytes fit the survivor target; a fixed policy
  // uses MaxTenuringThreshold.
  int threshold = max_tenuring_;
  if (adaptive_) {
    const double target = survivor_capacity_ * target_survivor_frac_;
    // retained_upto[t]: bytes aged 1..t, summed in ascending age order, so
    // each entry is bit-identical to summing afresh for threshold t.
    std::array<double, kMaxAge> retained_upto{};
    double retained = 0;
    for (int age = 1; age <= max_tenuring_; ++age) {
      retained += bands_[static_cast<std::size_t>(age)].total();
      retained_upto[static_cast<std::size_t>(age)] = retained;
    }
    for (threshold = max_tenuring_; threshold > 0; --threshold) {
      if (retained_upto[static_cast<std::size_t>(threshold)] <= target) break;
    }
    threshold = std::max(threshold, std::min(1, max_tenuring_));
  }
  result.tenuring_threshold = threshold;

  // Promote everything at or beyond the threshold (threshold 0 promotes all).
  double promoted = 0;
  for (int age = kMaxAge - 1; age >= 1; --age) {
    if (age < threshold) continue;
    Band& band = bands_[static_cast<std::size_t>(age)];
    old_mid_ += band.mid;
    old_long_ += band.long_lived;
    promoted += band.total();
    band = Band{};
  }
  if (threshold == 0) {
    // Everything that survived eden promotes directly.
    old_mid_ += live_mid;
    old_long_ += live_long;
    promoted += live_mid + live_long;
    bands_[1] = Band{};
  }

  // Hard survivor-capacity overflow promotes oldest-first.
  double retained = 0;
  for (int age = 1; age < kMaxAge; ++age) retained += bands_[static_cast<std::size_t>(age)].total();
  if (retained + live_short > survivor_capacity_) {
    for (int age = kMaxAge - 1; age >= 1 && retained + live_short > survivor_capacity_;
         --age) {
      Band& band = bands_[static_cast<std::size_t>(age)];
      old_mid_ += band.mid;
      old_long_ += band.long_lived;
      promoted += band.total();
      retained -= band.total();
      band = Band{};
    }
  }

  result.copied_bytes = retained + live_short + promoted;
  result.promoted_bytes = promoted;
  result.promotion_failure = promoted > old_free();

  eden_used_ = 0;
  eden_long_ = 0;
  // Survivor bands change only here; cache their total for note_peak().
  double survivors = 0;
  for (const Band& band : bands_) survivors += band.total();
  survivors_ = survivors;
  note_peak();
  return result;
}

double HeapSim::old_used() const {
  return old_long_ + old_mid_ + old_dead_ + old_frag_;
}

HeapSim::OldCollectResult HeapSim::collect_old(bool compact) {
  OldCollectResult result;
  result.live_marked = old_long_ + old_mid_;
  result.reclaimed = old_dead_;
  old_dead_ = 0;
  if (compact) {
    result.moved = result.live_marked;
    result.reclaimed += old_frag_;
    old_frag_ = 0;
  } else {
    // Sweeping frees in place; some of the space returns as fragmented
    // free-list chunks that large promotions cannot use.
    old_frag_ = std::min(old_frag_ + result.reclaimed * kFragPerSweep,
                         old_capacity_ * kFragCapFrac);
  }
  return result;
}

double HeapSim::reclaim_old_dead(double bytes) {
  const double reclaimed = std::min(bytes, old_dead_);
  old_dead_ -= reclaimed;
  return reclaimed;
}

double HeapSim::heap_occupancy_frac() const {
  return (eden_used_ + survivors_ + old_used()) / static_cast<double>(heap_capacity_);
}

void HeapSim::note_peak() {
  peak_used_ = std::max(peak_used_, eden_used_ + survivors_ + old_used());
}

}  // namespace jat
