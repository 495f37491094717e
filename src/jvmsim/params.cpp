#include "jvmsim/params.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "flags/reader.hpp"

namespace jat {

const char* to_string(GcAlgorithm algorithm) {
  switch (algorithm) {
    case GcAlgorithm::kSerial: return "serial";
    case GcAlgorithm::kParallel: return "parallel";
    case GcAlgorithm::kCms: return "cms";
    case GcAlgorithm::kG1: return "g1";
  }
  return "?";
}

namespace {

/// Every flag decode reads, resolved to ids once per registry.
constexpr std::string_view kDecodedFlags[] = {
    "InitialHeapSize", "MaxHeapSize", "NewSize", "MaxNewSize", "NewRatio",
    "SurvivorRatio", "TargetSurvivorRatio", "MaxTenuringThreshold",
    "InitialTenuringThreshold", "MetaspaceSize", "MaxMetaspaceSize",
    "PretenureSizeThreshold", "UseTLAB", "ResizeTLAB", "UseCompressedOops",
    "UseLargePages", "AlwaysPreTouch", "UseNUMA", "MinHeapFreeRatio",
    "MaxHeapFreeRatio", "UseAdaptiveSizePolicy", "UseSerialGC",
    "UseConcMarkSweepGC", "UseG1GC", "UseParallelOldGC", "ParallelGCThreads",
    "UseParNewGC", "ConcGCThreads", "MaxGCPauseMillis", "GCTimeRatio",
    "ParallelRefProcEnabled", "ScavengeBeforeFullGC", "UseGCOverheadLimit",
    "CMSInitiatingOccupancyFraction", "UseCMSInitiatingOccupancyOnly",
    "CMSParallelRemarkEnabled", "CMSParallelInitialMarkEnabled",
    "CMSScavengeBeforeRemark", "CMSIncrementalMode", "CMSPrecleaningEnabled",
    "G1HeapRegionSize", "G1NewSizePercent", "G1MaxNewSizePercent",
    "InitiatingHeapOccupancyPercent", "G1MixedGCCountTarget",
    "G1HeapWastePercent", "G1MixedGCLiveThresholdPercent", "G1ReservePercent",
    "G1ConcRefinementThreads", "MaxInlineSize", "FreqInlineSize",
    "MaxInlineLevel", "InlineSmallCode", "ExecutionMode", "VMMode",
    "TieredCompilation", "TieredStopAtLevel", "CompileThreshold",
    "Tier3InvocationThreshold", "Tier4InvocationThreshold", "CICompilerCount",
    "BackgroundCompilation", "ReservedCodeCacheSize", "UseCodeCacheFlushing",
    "UseOnStackReplacement", "DoEscapeAnalysis", "EliminateAllocations",
    "EliminateLocks", "AggressiveOpts", "UseTypeProfile",
    "UseOptoBiasInlining", "UseSuperWord", "MaxVectorSize", "LoopUnrollLimit",
    "UseLoopPredicate", "UseAES", "UseAESIntrinsics", "UseSHA",
    "UseCRC32Intrinsics", "RewriteBytecodes", "RewriteFrequentPairs",
    "UseInlineCaches", "UseFastAccessorMethods",
    "C1OptimizeVirtualCallProfiling", "C1UpdateMethodData", "UseBiasedLocking",
    "BiasedLockingStartupDelay", "PreBlockSpin", "GuaranteedSafepointInterval",
    "UseCountedLoopSafepoints", "BytecodeVerificationRemote",
    "BytecodeVerificationLocal", "UseSharedSpaces",
};
using Reader = FlagReader<kDecodedFlags>;

/// Saturating benefit curve: 0 at x=0, 0.5 at x=half, -> 1. Used for
/// "more helps with diminishing returns" flag responses.
double sat(double x, double half) { return x / (x + half); }

HeapParams decode_heap(const Reader& c) {
  HeapParams h;
  h.initial_heap = c.get_int("InitialHeapSize");
  h.max_heap = c.get_int("MaxHeapSize");
  h.initial_heap = std::min(h.initial_heap, h.max_heap);

  // Young generation ergonomics: an explicit MaxNewSize wins; otherwise the
  // young generation is heap/(NewRatio+1), like GenCollectorPolicy.
  const std::int64_t new_size = c.get_int("NewSize");
  const std::int64_t max_new = c.get_int("MaxNewSize");
  const std::int64_t by_ratio = h.max_heap / (c.get_int("NewRatio") + 1);
  h.max_young_size = max_new > 0 ? std::min(max_new, h.max_heap) : by_ratio;
  // Initial young size: an explicit NewSize wins; otherwise ergonomics
  // start it well below the bound and leave growth to the adaptive policy
  // (collectors without one keep this initial size, like real ParNew).
  const std::int64_t ergonomic_young =
      static_cast<std::int64_t>(0.35 * static_cast<double>(h.max_young_size));
  // Not std::clamp: MaxNewSize may lie below the 1 MiB floor, and clamp
  // with hi < lo is undefined. The cap wins.
  h.young_size = std::min(std::max(std::max(new_size, ergonomic_young),
                                   std::int64_t{1} << 20),
                          h.max_young_size);

  h.survivor_ratio = static_cast<int>(c.get_int("SurvivorRatio"));
  h.target_survivor_frac = static_cast<double>(c.get_int("TargetSurvivorRatio")) / 100.0;
  h.max_tenuring = static_cast<int>(c.get_int("MaxTenuringThreshold"));
  h.initial_tenuring =
      std::min(static_cast<int>(c.get_int("InitialTenuringThreshold")), h.max_tenuring);
  h.metaspace_trigger = c.get_int("MetaspaceSize");
  h.max_metaspace = c.get_int("MaxMetaspaceSize");
  h.pretenure_threshold = c.get_int("PretenureSizeThreshold");
  h.use_tlab = c.get_bool("UseTLAB");
  h.resize_tlab = c.get_bool("ResizeTLAB");
  h.compressed_oops = c.get_bool("UseCompressedOops");
  h.large_pages = c.get_bool("UseLargePages");
  h.pretouch = c.get_bool("AlwaysPreTouch");
  h.numa = c.get_bool("UseNUMA");
  h.min_free_ratio = static_cast<double>(c.get_int("MinHeapFreeRatio")) / 100.0;
  h.max_free_ratio = static_cast<double>(c.get_int("MaxHeapFreeRatio")) / 100.0;
  h.adaptive_sizing = c.get_bool("UseAdaptiveSizePolicy");
  return h;
}

GcParams decode_gc(const Reader& c) {
  GcParams g;
  if (c.get_bool("UseSerialGC")) {
    g.algorithm = GcAlgorithm::kSerial;
  } else if (c.get_bool("UseConcMarkSweepGC")) {
    g.algorithm = GcAlgorithm::kCms;
  } else if (c.get_bool("UseG1GC")) {
    g.algorithm = GcAlgorithm::kG1;
  } else {
    // UseParallelGC, or nothing selected: ergonomics pick the throughput
    // collector on server-class machines.
    g.algorithm = GcAlgorithm::kParallel;
  }
  g.parallel_old = c.get_bool("UseParallelOldGC");
  g.stw_threads = g.algorithm == GcAlgorithm::kSerial
                      ? 1
                      : static_cast<int>(c.get_int("ParallelGCThreads"));
  // CMS without ParNew collects the young generation single-threaded.
  if (g.algorithm == GcAlgorithm::kCms && !c.get_bool("UseParNewGC")) {
    g.stw_threads = 1;
  }
  g.conc_threads = static_cast<int>(c.get_int("ConcGCThreads"));
  const std::int64_t pause_ms = c.get_int("MaxGCPauseMillis");
  if (pause_ms > 0) {
    g.pause_goal = SimTime::millis(pause_ms);
  } else {
    // Ergonomics: G1 targets 200 ms, the throughput collectors have none.
    g.pause_goal = g.algorithm == GcAlgorithm::kG1 ? SimTime::millis(200)
                                                   : SimTime::infinite();
  }
  g.gc_time_ratio = static_cast<double>(c.get_int("GCTimeRatio"));
  g.parallel_ref_proc = c.get_bool("ParallelRefProcEnabled");
  g.scavenge_before_full = c.get_bool("ScavengeBeforeFullGC");
  g.overhead_limit = c.get_bool("UseGCOverheadLimit");

  g.cms_initiating_frac =
      static_cast<double>(c.get_int("CMSInitiatingOccupancyFraction")) / 100.0;
  g.cms_occupancy_only = c.get_bool("UseCMSInitiatingOccupancyOnly");
  g.cms_parallel_remark = c.get_bool("CMSParallelRemarkEnabled");
  g.cms_parallel_initial_mark = c.get_bool("CMSParallelInitialMarkEnabled");
  g.cms_scavenge_before_remark = c.get_bool("CMSScavengeBeforeRemark");
  g.cms_incremental = c.get_bool("CMSIncrementalMode");
  g.cms_precleaning = c.get_bool("CMSPrecleaningEnabled");

  g.g1_region_size = c.get_int("G1HeapRegionSize");
  g.g1_new_min_frac = static_cast<double>(c.get_int("G1NewSizePercent")) / 100.0;
  g.g1_new_max_frac = static_cast<double>(c.get_int("G1MaxNewSizePercent")) / 100.0;
  g.g1_ihop_frac =
      static_cast<double>(c.get_int("InitiatingHeapOccupancyPercent")) / 100.0;
  g.g1_mixed_count_target = static_cast<int>(c.get_int("G1MixedGCCountTarget"));
  g.g1_heap_waste_frac = static_cast<double>(c.get_int("G1HeapWastePercent")) / 100.0;
  g.g1_live_threshold_frac =
      static_cast<double>(c.get_int("G1MixedGCLiveThresholdPercent")) / 100.0;
  g.g1_reserve_frac = static_cast<double>(c.get_int("G1ReservePercent")) / 100.0;
  g.g1_refinement_threads = static_cast<int>(c.get_int("G1ConcRefinementThreads"));
  return g;
}

/// Folds the inlining flags into a peak-speed multiplier and a code-size
/// multiplier. More inlining helps with diminishing returns, then costs
/// instruction-cache efficiency; the optimum sits above the defaults for
/// call-dense code, matching folklore and the paper's observed wins.
void decode_inlining(const Reader& c, JitParams& j) {
  const double max_inline = static_cast<double>(c.get_int("MaxInlineSize"));
  const double freq_inline = static_cast<double>(c.get_int("FreqInlineSize"));
  const double level = static_cast<double>(c.get_int("MaxInlineLevel"));
  const double small_code = static_cast<double>(c.get_int("InlineSmallCode"));

  double quality = 0.86;
  quality += 0.10 * sat(max_inline, 30.0);
  quality += 0.05 * sat(freq_inline, 250.0);
  quality += 0.03 * sat(level, 6.0);
  quality += 0.02 * sat(small_code, 800.0);
  // Past ~4x the defaults, icache pressure eats the gains.
  quality -= 0.00006 * std::max(0.0, max_inline - 150.0);
  quality -= 0.00001 * std::max(0.0, freq_inline - 1000.0);
  j.c2_quality *= quality;
  j.c1_quality *= 0.97 + 0.03 * sat(max_inline, 30.0);
  j.code_bloat *= 1.0 + 0.5 * sat(max_inline, 200.0) + 0.2 * sat(freq_inline, 1200.0);
}

JitParams decode_jit(const Reader& c) {
  JitParams j;
  const std::string& exec = c.get_enum("ExecutionMode");
  j.interpret_only = exec == "int";
  j.compile_all = exec == "comp";
  j.client_vm = c.get_enum("VMMode") == "client";
  j.tiered = c.get_bool("TieredCompilation") && !j.client_vm;
  j.stop_at_level = static_cast<int>(c.get_int("TieredStopAtLevel"));
  if (!j.tiered) j.stop_at_level = 4;
  j.compile_threshold = c.get_int("CompileThreshold");
  j.tier3_invocations = c.get_int("Tier3InvocationThreshold");
  j.tier4_invocations = c.get_int("Tier4InvocationThreshold");
  j.compiler_threads = static_cast<int>(c.get_int("CICompilerCount"));
  // -Xcomp blocks execution on first-call compilation: effectively
  // foreground compilation regardless of BackgroundCompilation.
  j.background = c.get_bool("BackgroundCompilation") && !j.compile_all;
  j.code_cache_capacity = c.get_int("ReservedCodeCacheSize");
  j.code_cache_flushing = c.get_bool("UseCodeCacheFlushing");
  j.osr = c.get_bool("UseOnStackReplacement");

  decode_inlining(c, j);

  // C2 optimisation package.
  if (c.get_bool("DoEscapeAnalysis")) {
    j.c2_quality *= 1.02;
    if (c.get_bool("EliminateAllocations")) j.alloc_elision += 0.10;
    if (c.get_bool("EliminateLocks")) j.lock_elision += 0.15;
  }
  if (c.get_bool("AggressiveOpts")) j.c2_quality *= 1.015;
  if (c.get_bool("UseTypeProfile")) j.c2_quality *= 1.02;
  if (!c.get_bool("UseOptoBiasInlining")) j.c2_quality *= 0.998;

  // Vectorisation package: multiplies only the workload's vector fraction.
  double vec = 1.0;
  if (c.get_bool("UseSuperWord")) {
    vec += 0.8 * sat(static_cast<double>(c.get_int("MaxVectorSize")), 16.0);
  }
  const double unroll = static_cast<double>(c.get_int("LoopUnrollLimit"));
  vec += 0.35 * sat(unroll, 60.0) - 0.0004 * std::max(0.0, unroll - 200.0);
  if (c.get_bool("UseLoopPredicate")) vec += 0.05;
  j.vector_quality = vec;

  // Crypto kernels: intrinsics make them several times faster.
  double crypto = 1.0;
  if (c.get_bool("UseAES") && c.get_bool("UseAESIntrinsics")) crypto += 2.2;
  if (c.get_bool("UseSHA")) crypto += 0.5;
  if (c.get_bool("UseCRC32Intrinsics")) crypto += 0.2;
  j.crypto_speed = crypto;

  // Interpreter fast paths.
  double interp = 1.0;
  if (c.get_bool("RewriteBytecodes")) {
    interp *= 1.04;
    if (c.get_bool("RewriteFrequentPairs")) interp *= 1.04;
  }
  if (c.get_bool("UseInlineCaches")) interp *= 1.06;
  if (c.get_bool("UseFastAccessorMethods")) interp *= 1.01;
  j.interpreter_quality = interp;

  // C1 detail flags.
  if (c.get_bool("C1OptimizeVirtualCallProfiling")) j.c1_quality *= 1.005;
  if (!c.get_bool("C1UpdateMethodData") && j.tiered) {
    j.c2_quality *= 0.99;  // worse profiles reach C2
  }
  return j;
}

RuntimeParams decode_runtime(const Reader& c) {
  RuntimeParams r;
  r.biased_locking = c.get_bool("UseBiasedLocking");
  r.biased_delay = SimTime::millis(c.get_int("BiasedLockingStartupDelay"));
  r.pre_block_spin = static_cast<int>(c.get_int("PreBlockSpin"));
  const std::int64_t interval = c.get_int("GuaranteedSafepointInterval");
  r.safepoint_interval =
      interval == 0 ? SimTime::infinite() : SimTime::millis(interval);
  r.counted_loop_safepoints = c.get_bool("UseCountedLoopSafepoints");
  r.verify_remote = c.get_bool("BytecodeVerificationRemote");
  r.verify_local = c.get_bool("BytecodeVerificationLocal");
  r.cds = c.get_bool("UseSharedSpaces");
  return r;
}

}  // namespace

JvmParams decode_params(const Configuration& config) {
  const Reader reader(config);
  JvmParams p;
  p.heap = decode_heap(reader);
  p.gc = decode_gc(reader);
  p.jit = decode_jit(reader);
  p.runtime = decode_runtime(reader);
  return p;
}

}  // namespace jat
