// Decoded simulator parameters.
//
// JvmParams is the bridge between the flag world and the simulator: every
// impactful flag in the catalog is read exactly once here, and the rest of
// jvmsim works with this plain struct. decode_params also resolves
// ergonomics (derived young-generation bounds, collector defaulting) the
// way HotSpot does at startup.
#pragma once

#include <cstdint>
#include <string>

#include "flags/configuration.hpp"
#include "support/sim_time.hpp"

namespace jat {

enum class GcAlgorithm { kSerial, kParallel, kCms, kG1 };

const char* to_string(GcAlgorithm algorithm);

struct HeapParams {
  std::int64_t initial_heap = 0;
  std::int64_t max_heap = 0;
  std::int64_t young_size = 0;      ///< resolved young generation size
  std::int64_t max_young_size = 0;  ///< resolved upper bound
  int survivor_ratio = 8;           ///< eden : survivor-space
  double target_survivor_frac = 0.5;
  int max_tenuring = 15;
  int initial_tenuring = 7;
  std::int64_t metaspace_trigger = 0;
  std::int64_t max_metaspace = 0;
  std::int64_t pretenure_threshold = 0;  ///< 0 = disabled
  bool use_tlab = true;
  bool resize_tlab = true;
  bool compressed_oops = true;
  bool large_pages = false;
  bool pretouch = false;
  bool numa = false;
  double min_free_ratio = 0.40;
  double max_free_ratio = 0.70;
  bool adaptive_sizing = true;
};

struct GcParams {
  GcAlgorithm algorithm = GcAlgorithm::kParallel;
  bool parallel_old = true;
  int stw_threads = 8;
  int conc_threads = 2;
  SimTime pause_goal;
  double gc_time_ratio = 99.0;
  bool parallel_ref_proc = false;
  bool scavenge_before_full = true;
  bool overhead_limit = true;

  // CMS
  double cms_initiating_frac = 0.68;
  bool cms_occupancy_only = false;
  bool cms_parallel_remark = true;
  bool cms_parallel_initial_mark = true;
  bool cms_scavenge_before_remark = false;
  bool cms_incremental = false;
  bool cms_precleaning = true;

  // G1
  std::int64_t g1_region_size = 1 << 20;
  double g1_new_min_frac = 0.05;
  double g1_new_max_frac = 0.60;
  double g1_ihop_frac = 0.45;
  int g1_mixed_count_target = 8;
  double g1_heap_waste_frac = 0.05;
  double g1_live_threshold_frac = 0.85;
  double g1_reserve_frac = 0.10;
  int g1_refinement_threads = 4;
};

struct JitParams {
  bool interpret_only = false;  ///< -Xint
  bool compile_all = false;     ///< -Xcomp
  bool client_vm = false;       ///< -client: C1 only, no C2
  bool tiered = true;
  int stop_at_level = 4;
  std::int64_t compile_threshold = 10000;  ///< non-tiered / client trigger
  std::int64_t tier3_invocations = 200;
  std::int64_t tier4_invocations = 5000;
  int compiler_threads = 3;
  bool background = true;
  std::int64_t code_cache_capacity = 48 << 20;
  bool code_cache_flushing = true;
  bool osr = true;
  /// Peak-speed multipliers for compiled code, folded from the inlining /
  /// optimisation flag settings (1.0 = default flag settings).
  double c1_quality = 1.0;
  double c2_quality = 1.0;
  /// Extra multiplier applied to the workload's vectorisable fraction.
  double vector_quality = 1.0;
  /// Extra multiplier applied to the workload's crypto fraction.
  double crypto_speed = 3.0;  ///< speed of crypto kernels vs plain code
  /// Interpreter speed multiplier from interpreter flags.
  double interpreter_quality = 1.0;
  /// Compiled-code size multiplier from inlining aggressiveness.
  double code_bloat = 1.0;
  /// Fractional reduction of allocation (escape analysis).
  double alloc_elision = 0.0;
  /// Fractional reduction of lock operations (lock elision).
  double lock_elision = 0.0;
};

struct RuntimeParams {
  bool biased_locking = true;
  SimTime biased_delay;
  int pre_block_spin = 10;
  SimTime safepoint_interval;
  bool counted_loop_safepoints = false;
  bool verify_remote = true;
  bool verify_local = false;
  bool cds = true;
};

struct JvmParams {
  HeapParams heap;
  GcParams gc;
  JitParams jit;
  RuntimeParams runtime;
};

/// Decodes a configuration into simulator parameters, resolving HotSpot
/// ergonomics. Call only on startable configurations (see validate.hpp);
/// decode itself never throws on startable inputs.
JvmParams decode_params(const Configuration& config);

}  // namespace jat
