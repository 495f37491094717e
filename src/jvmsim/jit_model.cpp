#include "jvmsim/jit_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace jat {

namespace {

constexpr int kBucketCount = 48;
/// C2 code is denser in optimisation but larger in bytes than C1 output.
constexpr double kC2SizeFactor = 1.4;
/// Tier-3 (C1 with profiling) code carries instrumentation overhead.
constexpr double kProfiledC1SizeFactor = 1.15;
/// The client compiler triggers far earlier than the server default.
constexpr double kClientThresholdScale = 0.15;
/// A flushed method restarts with half its trigger budget already earned,
/// so still-hot flushed code recompiles quickly (and can thrash).
constexpr double kFlushRestartFraction = 0.5;

double harmonic_pair(double frac_special, double special_speed) {
  // Speed of code whose `frac_special` portion runs `special_speed` times
  // faster than the rest (time-weighted composition).
  if (frac_special <= 0.0 || special_speed <= 0.0) return 1.0;
  return 1.0 / ((1.0 - frac_special) + frac_special / special_speed);
}

/// Invocation count that triggers a compile to `tier` (1 = C1, 2 = C2).
double compile_threshold(const JitParams& params, double scale, int tier) {
  double base;
  if (params.client_vm) {
    base = static_cast<double>(params.compile_threshold) * kClientThresholdScale;
  } else if (!params.tiered) {
    base = static_cast<double>(params.compile_threshold);
  } else if (tier == 1) {
    base = static_cast<double>(params.tier3_invocations);
  } else {
    base = static_cast<double>(params.tier4_invocations);
  }
  return std::max(1.0, base * scale);
}

}  // namespace

JitModel::JitModel(const JitParams& params, const WorkloadSpec& workload,
                   const MachineSpec& machine)
    : params_(params), machine_(machine), jni_frac_(workload.jni_frac) {
  const int bucket_count = std::min(kBucketCount, std::max(1, workload.method_count));
  methods_per_bucket_ =
      static_cast<double>(workload.method_count) / bucket_count;
  // On-stack replacement lets backedge counters trigger compiles long
  // before the invocation thresholds would: loop-dominated code (high
  // vectorisable fraction) warms up almost immediately when OSR is on,
  // and pays dearly when it is off.
  const double threshold_scale = params_.osr
                                    ? 1.0 / (1.0 + 4.0 * workload.vector_frac)
                                    : 1.8 * (1.0 + 2.0 * workload.vector_frac);

  // Zipf execution weights; bucket 0 is the hottest.
  const auto count = static_cast<std::size_t>(bucket_count);
  buckets_.resize(count);
  double total_weight = 0;
  for (std::size_t i = 0; i < count; ++i) {
    buckets_[i].weight =
        std::pow(static_cast<double>(i + 1), -workload.hot_zipf_exponent);
    total_weight += buckets_[i].weight;
  }
  invocations_.assign(count, 0.0);
  invocation_rates_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    Bucket& bucket = buckets_[i];
    bucket.weight /= total_weight;
    invocation_rates_[i] =
        bucket.weight * workload.invocations_per_work / methods_per_bucket_;
  }

  code_size_per_method_ = workload.code_size_per_method * params_.code_bloat;

  const bool compile_all = params_.compile_all && !params_.interpret_only;
  if (compile_all) {
    // -Xcomp: every *loaded* method is compiled before it first runs, with
    // no profile data. Programs load far more methods than ever get hot,
    // so each bucket's job is inflated by the loaded/executed ratio, and
    // the profile-free code is slower than profile-guided output.
    const double loaded_methods =
        std::max<double>(workload.method_count,
                         static_cast<double>(workload.startup_classes) * 8.0);
    compile_all_inflation_ =
        loaded_methods / static_cast<double>(workload.method_count);
    params_.c2_quality *= 0.92;
    params_.c1_quality *= 0.95;
  }

  // Per-run constants: nothing below changes while the run lasts.
  const double crypto = harmonic_pair(workload.crypto_frac, params_.crypto_speed);
  const double vec = harmonic_pair(workload.vector_frac, params_.vector_quality);
  tier_speed_[0] = workload.interpreter_speed * params_.interpreter_quality;
  // C1 gets intrinsics but not the vectorising optimisations.
  tier_speed_[1] = workload.c1_speed * params_.c1_quality * crypto;
  tier_speed_[2] = params_.c2_quality * crypto * vec;
  threshold_[1] = compile_threshold(params_, threshold_scale, 1);
  threshold_[2] = compile_threshold(params_, threshold_scale, 2);
  if (params_.client_vm) {
    top_tier_ = 1;
  } else if (!params_.tiered) {
    top_tier_ = 2;
  } else if (params_.stop_at_level <= 0) {
    top_tier_ = 0;
  } else {
    top_tier_ = params_.stop_at_level >= 4 ? 2 : 1;
  }
  for (Bucket& bucket : buckets_) {
    bucket.mix_weight = (1.0 - jni_frac_) * bucket.weight;
  }

  enqueue_at_.resize(count);
  for (std::size_t i = 0; i < count; ++i) refresh_enqueue_state(i);
  refresh_speed_mix();
  // A bucket has at most one job queued, so neither list ever reallocates.
  queue_.reserve(count);
  finished_.reserve(count);

  if (compile_all) {
    for (std::size_t i = 0; i < count; ++i) {
      const int tier = buckets_[i].next_tier;
      if (tier > 0) enqueue(i, tier);
    }
    start_pending_jobs();
  }
}

int JitModel::next_tier_for(const Bucket& bucket) const {
  if (params_.interpret_only || compiler_disabled_) return -1;
  const int current = std::max(bucket.tier, bucket.pending_tier);
  if (current >= top_tier_) return -1;
  // Non-tiered server jumps straight to C2; tiered goes through C1 first.
  if (!params_.tiered && !params_.client_vm) return 2;
  return current + 1;
}

void JitModel::refresh_enqueue_state(std::size_t index) {
  // A queued bucket cannot enqueue again until its job completes.
  Bucket& bucket = buckets_[index];
  bucket.next_tier = bucket.pending_tier >= 0 ? -1 : next_tier_for(bucket);
  enqueue_at_[index] = bucket.next_tier > 0
                           ? threshold_[static_cast<std::size_t>(bucket.next_tier)]
                           : std::numeric_limits<double>::infinity();
}

void JitModel::refresh_speed_mix() {
  // Harmonic composition: time per unit of work is the weighted sum of
  // per-bucket times; JNI work runs at fixed speed 1. Always the full sum in
  // bucket order: an incremental update would round differently.
  double time = jni_frac_ / 1.0;
  for (const Bucket& bucket : buckets_) {
    time += bucket.mix_weight / tier_speed_[static_cast<std::size_t>(bucket.tier)];
  }
  speed_mix_ = 1.0 / time;
}

int JitModel::busy_compilers() const {
  int busy = 0;
  for (const Job& job : queue_) {
    if (job.in_flight) ++busy;
  }
  return busy;
}

double JitModel::work_until_next_enqueue() const {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  double best = kNever;
  for (std::size_t i = 0; i < enqueue_at_.size(); ++i) {
    const double threshold = enqueue_at_[i];
    const double rate = invocation_rates_[i];
    if (threshold == kNever || rate <= 0) continue;
    const double need = threshold - invocations_[i];
    best = std::min(best, std::max(0.0, need) / rate);
  }
  return best;
}

SimTime JitModel::time_until_next_completion() const {
  const double rate_c1 = machine_.c1_compile_rate;
  const double rate_c2 = machine_.c2_compile_rate;
  double best_seconds = std::numeric_limits<double>::infinity();
  for (const Job& job : queue_) {
    if (!job.in_flight) continue;
    const double rate = job.tier == 2 ? rate_c2 : rate_c1;
    best_seconds = std::min(best_seconds, job.remaining_bytes / rate);
  }
  if (!std::isfinite(best_seconds)) return SimTime::infinite();
  // Round up so callers that advance exactly this long always complete the
  // job (truncation would strand sub-microsecond remainders forever).
  return SimTime::micros(
      static_cast<std::int64_t>(std::ceil(best_seconds * 1e6)) + 1);
}

void JitModel::advance(double work_delta, SimTime time_delta) {
  // 1. Invocation counters advance with application work. Enqueueing
  // bucket i touches only bucket i's state, so all counters can move first
  // and the thresholds be checked after, still in bucket order.
  if (work_delta > 0) {
    const std::size_t count = invocations_.size();
    for (std::size_t i = 0; i < count; ++i) {
      invocations_[i] += invocation_rates_[i] * work_delta;
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (invocations_[i] >= enqueue_at_[i]) enqueue(i, buckets_[i].next_tier);
    }
  }

  // 2. Compile progress advances with wall time.
  if (time_delta > SimTime::zero()) {
    const double seconds = time_delta.as_seconds();
    finished_.clear();
    for (Job& job : queue_) {
      if (!job.in_flight) continue;
      const double rate =
          job.tier == 2 ? machine_.c2_compile_rate : machine_.c1_compile_rate;
      job.remaining_bytes -= rate * seconds;
      if (job.remaining_bytes <= 1e-3) finished_.push_back(job);
    }
    if (!finished_.empty()) {
      std::erase_if(queue_, [](const Job& job) {
        return job.in_flight && job.remaining_bytes <= 1e-3;
      });
      for (const Job& job : finished_) complete_job(job);
      // Completions (and the flushes they trigger) are the only tier changes.
      refresh_speed_mix();
    }
  }
  start_pending_jobs();
}

void JitModel::enqueue(std::size_t index, int tier) {
  buckets_[index].pending_tier = tier;
  refresh_enqueue_state(index);
  Job job;
  job.bucket = index;
  job.tier = tier;
  const double size_factor =
      tier == 2 ? kC2SizeFactor
                : (params_.tiered ? kProfiledC1SizeFactor : 1.0);
  job.total_bytes = methods_per_bucket_ * code_size_per_method_ * size_factor *
                    compile_all_inflation_;
  job.remaining_bytes = job.total_bytes;
  queue_.push_back(job);
}

void JitModel::start_pending_jobs() {
  // Compiler threads beyond the machine's cores cannot compile in parallel.
  const int max_parallel = std::min(params_.compiler_threads, machine_.cores);
  int busy = busy_compilers();
  for (Job& job : queue_) {
    if (busy >= max_parallel) break;
    if (!job.in_flight) {
      job.in_flight = true;
      ++busy;
    }
  }
}

bool JitModel::ensure_cache_space(double bytes) {
  if (cache_used_ + bytes <= static_cast<double>(params_.code_cache_capacity)) {
    return true;
  }
  if (!params_.code_cache_flushing) {
    // JDK-7 behaviour: "CodeCache is full. Compiler has been disabled."
    compiler_disabled_ = true;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      Bucket& bucket = buckets_[i];
      if (bucket.pending_tier >= 0 && bucket.tier < bucket.pending_tier) {
        bucket.pending_tier = -1;
      }
      refresh_enqueue_state(i);  // no bucket enqueues again
    }
    queue_.clear();
    return false;
  }
  // Flush coldest compiled buckets until the new code fits.
  while (cache_used_ + bytes > static_cast<double>(params_.code_cache_capacity)) {
    std::size_t coldest = buckets_.size();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const Bucket& bucket = buckets_[i];
      if (bucket.code_c1 + bucket.code_c2 <= 0) continue;
      if (coldest == buckets_.size() || bucket.weight < buckets_[coldest].weight) {
        coldest = i;
      }
    }
    if (coldest == buckets_.size()) return false;  // nothing left to flush
    Bucket& flushed = buckets_[coldest];
    cache_used_ -= flushed.code_c1 + flushed.code_c2;
    flushed.code_c1 = 0;
    flushed.code_c2 = 0;
    flushed.tier = 0;
    refresh_enqueue_state(coldest);
    if (flushed.next_tier > 0) {
      // The method interprets again; if it stays hot it re-earns a compile.
      invocations_[coldest] =
          threshold_[static_cast<std::size_t>(flushed.next_tier)] *
          kFlushRestartFraction;
    }
    ++flush_count_;
  }
  return true;
}

void JitModel::complete_job(const Job& job) {
  Bucket& bucket = buckets_[job.bucket];
  const double rate =
      job.tier == 2 ? machine_.c2_compile_rate : machine_.c1_compile_rate;
  compile_cpu_ += SimTime::seconds(job.total_bytes / rate);
  bucket.pending_tier = -1;
  if (!ensure_cache_space(job.total_bytes)) {
    refresh_enqueue_state(job.bucket);
    return;
  }

  cache_used_ += job.total_bytes;
  if (job.tier == 2) {
    bucket.code_c2 = job.total_bytes;
    if (!params_.tiered) {
      bucket.code_c1 = 0;  // nothing to replace
    }
    bucket.tier = 2;
    compiles_c2_ += static_cast<std::int64_t>(methods_per_bucket_ + 0.5);
    // Once C2 code is installed the profiled C1 version is made not-entrant
    // and reclaimed by the sweeper.
    if (bucket.code_c1 > 0) {
      cache_used_ -= bucket.code_c1;
      bucket.code_c1 = 0;
    }
  } else {
    bucket.code_c1 = job.total_bytes;
    bucket.tier = std::max(bucket.tier, 1);
    compiles_c1_ += static_cast<std::int64_t>(methods_per_bucket_ + 0.5);
  }
  // A newly installed tier may immediately qualify for the next one.
  refresh_enqueue_state(job.bucket);
  if (invocations_[job.bucket] >= enqueue_at_[job.bucket]) {
    enqueue(job.bucket, bucket.next_tier);
  }
}

}  // namespace jat
