#include "jvmsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "flags/validate.hpp"
#include "jvmsim/gc_model.hpp"
#include "jvmsim/heap_sim.hpp"
#include "jvmsim/jit_model.hpp"
#include "jvmsim/lock_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace jat {

namespace {

/// Footprint growth when compressed oops are off (wider references).
constexpr double kUncompressedOopsFactor = 1.25;
/// Metaspace consumed per loaded class.
constexpr double kBytesPerClass = 4096.0;
/// Allocation slow-path drag when TLABs are disabled, per MiB/unit rate.
constexpr double kNoTlabDragPerMiB = 0.35;

struct EngineState {
  double work_done = 0;
  SimTime now;
  double committed = 0;  ///< heap bytes committed so far (pretouch skips this)
  bool startup_recorded = false;
};

double misc_speed_factor(const JvmParams& p, const WorkloadSpec& w) {
  double factor = 1.0;
  const double mem_intensity = std::min(1.0, w.alloc_rate / (512.0 * 1024.0));
  if (p.heap.large_pages) factor *= 1.0 + 0.035 * mem_intensity;
  if (p.heap.numa && w.app_threads >= 4) factor *= 1.015;
  if (!p.heap.use_tlab) {
    const double rate_mib = w.alloc_rate / (1024.0 * 1024.0);
    factor *= 1.0 / (1.0 + kNoTlabDragPerMiB * rate_mib);
  } else if (!p.heap.resize_tlab && w.app_threads > 4) {
    factor *= 0.995;
  }
  return factor;
}

}  // namespace

RunResult refused_start(const std::string& fatal) {
  RunResult result;
  result.crashed = true;
  result.crash_reason = "VM failed to start: " + fatal;
  result.total_time = SimTime::seconds(1.0);
  return result;
}

JvmSimulator::JvmSimulator(SimOptions options) : options_(options) {}

RunResult JvmSimulator::run(const Configuration& config,
                            const WorkloadSpec& workload,
                            std::uint64_t seed) const {
  const std::string fatal = first_fatal(config);
  if (!fatal.empty()) return refused_start(fatal);
  return run(decode_params(config), workload, seed);
}

RunResult JvmSimulator::run(const JvmParams& params, const WorkloadSpec& workload,
                            std::uint64_t seed) const {
  return noised(simulate(params, workload), workload, seed);
}

Trajectory JvmSimulator::simulate(const JvmParams& params,
                                  const WorkloadSpec& workload) const {
  const auto problems = workload.problems();
  if (!problems.empty()) {
    throw SimError("invalid workload " + workload.name + ": " + problems.front());
  }

  Trajectory trajectory;
  RunResult& result = trajectory.result;
  std::shared_ptr<RunTrace> trace;
  if (options_.collect_trace) {
    trace = std::make_shared<RunTrace>();
    result.trace = trace;
  }

  const JvmParams& p = params;
  const MachineSpec& machine = options_.machine;
  const double footprint = p.heap.compressed_oops ? 1.0 : kUncompressedOopsFactor;
  const double alloc_per_work =
      workload.alloc_rate * footprint * (1.0 - p.jit.alloc_elision);
  const double expected_alloc = alloc_per_work * workload.total_work;

  HeapSim heap(p.heap, workload, footprint, expected_alloc);
  result.heap_capacity = heap.heap_capacity();
  auto gc = GcModel::create(p, workload, machine, heap);
  JitModel jit(p.jit, workload, machine);
  LockModel locks(p.runtime, p.jit, workload);

  EngineState st;

  // ---- metaspace -----------------------------------------------------------
  const double metaspace_needed = workload.startup_classes * kBytesPerClass;
  if (metaspace_needed > static_cast<double>(p.heap.max_metaspace)) {
    result.crashed = true;
    result.crash_reason = "OutOfMemoryError: Metaspace";
    result.total_time = SimTime::seconds(2.0);
    trajectory.takes_noise = false;
    return trajectory;
  }

  // ---- startup: class loading, CDS, verification, pretouch ------------------
  double verify_factor = 1.0;
  if (p.runtime.verify_remote) verify_factor += 0.15;
  if (p.runtime.verify_local) verify_factor += 0.10;
  const double cds_factor = p.runtime.cds ? 0.80 : 1.0;
  const SimTime class_load = SimTime::millis(static_cast<std::int64_t>(
      workload.startup_classes * machine.class_load_ms * verify_factor *
      cds_factor));
  result.class_load_time = class_load;
  st.now += class_load;

  if (p.heap.pretouch) {
    st.now += SimTime::seconds(static_cast<double>(heap.heap_capacity()) /
                               machine.heap_commit_rate);
    st.committed = static_cast<double>(heap.heap_capacity());
  } else {
    st.committed = static_cast<double>(p.heap.initial_heap);
  }

  // Metadata-threshold collections while classes load.
  double trigger = static_cast<double>(p.heap.metaspace_trigger);
  while (trigger < metaspace_needed) {
    const auto event = gc->full_collection(heap);
    st.now += event.pause;
    result.gc_pause_total += event.pause;
    ++result.full_gc_count;
    trigger *= 2.0;
  }

  // ---- helper lambdas --------------------------------------------------------
  const double ttsp_ms =
      machine.ttsp_base_ms + machine.ttsp_per_thread_ms * workload.app_threads +
      (!p.runtime.counted_loop_safepoints ? 2.0 * workload.vector_frac : 0.0);
  const SimTime ttsp = SimTime::micros(static_cast<std::int64_t>(ttsp_ms * 1e3));

  auto charge_gc_event = [&](const GcModel::CollectionEvent& event) {
    const SimTime pause = event.pause * workload.gc_sensitivity + ttsp;
    if (trace != nullptr) {
      GcEvent record;
      record.at = st.now;
      record.pause = pause;
      record.promotion_failure = event.promotion_failure;
      if (event.concurrent_mode_failure) {
        record.kind = GcEventKind::kConcurrentFailure;
      } else if (event.full_gc) {
        record.kind = GcEventKind::kFull;
      } else if (event.finished_concurrent) {
        record.kind = GcEventKind::kConcurrentEnd;
      } else if (event.started_concurrent) {
        record.kind = GcEventKind::kConcurrentStart;
      } else {
        record.kind = GcEventKind::kYoung;
      }
      record.heap_used_after = static_cast<std::int64_t>(
          heap.heap_occupancy_frac() * static_cast<double>(heap.heap_capacity()));
      record.old_used_after = static_cast<std::int64_t>(heap.old_used());
      record.young_size = static_cast<std::int64_t>(heap.young_size());
      trace->gc_events.push_back(record);
    }
    st.now += pause;
    result.safepoint_overhead += ttsp;
    result.gc_pause_total += pause;
    result.gc_pause_max = std::max(result.gc_pause_max, pause);
    if (event.young_gc) ++result.young_gc_count;
    if (event.full_gc) ++result.full_gc_count;
    if (event.started_concurrent) ++result.concurrent_cycles;
    if (event.concurrent_mode_failure) ++result.concurrent_mode_failures;
    if (event.promotion_failure) ++result.promotion_failures;
    // Compilation proceeds while mutators are paused.
    jit.advance(0.0, pause);
    return !event.out_of_memory;
  };

  auto charge_commit_growth = [&] {
    if (p.heap.pretouch) return;
    const double peak = heap.peak_used();
    if (peak > st.committed) {
      st.now += SimTime::seconds((peak - st.committed) / machine.heap_commit_rate);
      st.committed = peak;
    }
  };

  const double misc_factor = misc_speed_factor(p, workload);
  const double safepoint_tax =
      p.runtime.safepoint_interval.is_infinite()
          ? 0.0
          : ttsp_ms / p.runtime.safepoint_interval.as_millis();

  // ---- main loop ---------------------------------------------------------------
  std::int64_t events = 0;
  bool oom = false;
  while (st.work_done < workload.total_work) {
    if (++events > options_.max_events ||
        st.now.as_seconds() > options_.max_sim_seconds) {
      result.crashed = true;
      result.crash_reason = events > options_.max_events
                                ? "simulator event limit exceeded"
                                : "run exceeded the harness timeout";
      break;
    }

    // Foreground (-Xbatch) compilation stalls the application.
    if (!p.jit.background && jit.busy_compilers() > 0) {
      SimTime dt = jit.time_until_next_completion();
      dt = std::min(dt, gc->time_until_conc_event());
      jit.advance(0.0, dt);
      gc->advance_time(dt);
      st.now += dt;
      result.compile_cpu = jit.compile_cpu();
      if (gc->time_until_conc_event() <= SimTime::zero()) {
        if (!charge_gc_event(gc->on_conc_event(heap))) {
          oom = true;
          break;
        }
      }
      continue;
    }

    // Current rates.
    const double speed = jit.speed_mix();
    const int avail_cores = std::max(
        1, machine.cores - jit.busy_compilers() - gc->active_conc_threads());
    const double parallel_factor =
        static_cast<double>(std::min(avail_cores, workload.app_threads)) /
        static_cast<double>(std::min(machine.cores, workload.app_threads));
    const double throughput = speed * parallel_factor * misc_factor;  // units/ms
    const double lock_us = locks.overhead_us_per_work(st.now);
    double unit_time_ms = 1.0 / throughput + lock_us / 1e3;
    unit_time_ms *= 1.0 + safepoint_tax;

    // Next event horizon, in work units.
    double dw = workload.total_work - st.work_done;
    dw = std::min(dw, heap.eden_free() / alloc_per_work);
    dw = std::min(dw, jit.work_until_next_enqueue());
    const SimTime t_compile = jit.time_until_next_completion();
    if (!t_compile.is_infinite()) {
      dw = std::min(dw, t_compile.as_millis() / unit_time_ms);
    }
    const SimTime t_conc = gc->time_until_conc_event();
    if (!t_conc.is_infinite()) {
      dw = std::min(dw, t_conc.as_millis() / unit_time_ms);
    }
    if (st.now < p.runtime.biased_delay && p.runtime.biased_locking) {
      const SimTime to_bias = p.runtime.biased_delay - st.now;
      dw = std::min(dw, to_bias.as_millis() / unit_time_ms);
    }
    if (!st.startup_recorded) {
      dw = std::min(dw, workload.startup_work - st.work_done);
    }
    dw = std::max(dw, 1e-9);

    // Advance.
    const SimTime dt = SimTime::micros(
        static_cast<std::int64_t>(std::ceil(dw * unit_time_ms * 1e3)));
    st.work_done += dw;
    st.now += dt;
    result.lock_overhead +=
        SimTime::micros(static_cast<std::int64_t>(dw * lock_us));
    heap.allocate(dw * alloc_per_work);
    jit.advance(dw, dt);
    gc->advance_time(dt);
    result.compile_cpu = jit.compile_cpu();

    if (!st.startup_recorded && st.work_done >= workload.startup_work) {
      result.startup_time = st.now;
      st.startup_recorded = true;
    }

    // Fire due events.
    if (heap.eden_full()) {
      if (!charge_gc_event(gc->on_eden_full(heap))) {
        oom = true;
        break;
      }
      charge_commit_growth();
    }
    if (gc->time_until_conc_event() <= SimTime::zero()) {
      if (!charge_gc_event(gc->on_conc_event(heap))) {
        oom = true;
        break;
      }
    }
    charge_commit_growth();
  }

  if (oom) {
    result.crashed = true;
    result.crash_reason = "OutOfMemoryError: Java heap space";
  }

  // ---- finalise -----------------------------------------------------------------
  result.work_done = st.work_done;
  result.concurrent_gc_cpu = gc->concurrent_cpu();
  result.compiles_c1 = jit.compiles_c1();
  result.compiles_c2 = jit.compiles_c2();
  result.code_cache_used = jit.code_cache_used();
  result.code_cache_disabled = jit.compiler_disabled();
  result.code_cache_flushes = jit.flush_count();
  result.peak_heap_used = static_cast<std::int64_t>(heap.peak_used());
  if (!st.startup_recorded) result.startup_time = st.now;
  result.total_time = st.now;
  return trajectory;
}

RunResult noised(Trajectory trajectory, const WorkloadSpec& workload,
                 std::uint64_t seed) {
  RunResult& result = trajectory.result;
  if (trajectory.takes_noise) {
    // Run-to-run measurement noise: the only draw a run makes.
    Rng rng(mix64(seed, fnv1a64(workload.name)));
    const double noise = rng.lognormal_median(1.0, workload.noise_sigma);
    result.total_time = result.total_time * noise;
    result.startup_time = result.startup_time * noise;
  }
  return std::move(result);
}

}  // namespace jat
