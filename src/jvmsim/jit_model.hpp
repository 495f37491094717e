// Tiered JIT compilation model.
//
// Methods are aggregated into hotness buckets with Zipf-distributed
// execution weights. Each bucket accumulates per-method invocation counts
// as application work progresses; crossing a tier threshold enqueues a
// compile job, a bounded pool of compiler threads drains the queue, and
// completed jobs shift the execution-speed mix toward the compiled tiers.
// The code cache bounds how much compiled code can exist: when it fills,
// either cold code is flushed (UseCodeCacheFlushing) or compilation shuts
// down for good, exactly like the JDK 7-era VM.
//
// The engine queries the model once or more per simulated event, so values
// that change only with a bucket's state (its next tier and that tier's
// threshold, the speed mix) are kept in tables refreshed at the transitions
// that can change them, never recomputed per query. Every table entry is
// computed by the same expression, over the same operands in the same
// order, as a per-query recomputation would, so results are bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "jvmsim/machine.hpp"
#include "jvmsim/params.hpp"
#include "support/sim_time.hpp"
#include "workloads/workload.hpp"

namespace jat {

class JitModel {
 public:
  JitModel(const JitParams& params, const WorkloadSpec& workload,
           const MachineSpec& machine);

  /// Current execution speed relative to ideal fully-compiled code (1.0):
  /// the harmonic mix over buckets at their current tiers, including the
  /// vectorisation / intrinsics / quality factors.
  double speed_mix() const { return speed_mix_; }

  /// Compiler threads currently busy (they occupy machine cores).
  int busy_compilers() const;

  /// Work units until the next bucket crosses a compile threshold
  /// (infinity when none will).
  double work_until_next_enqueue() const;

  /// Simulated time until the next in-flight compile finishes
  /// (infinite when none are in flight).
  SimTime time_until_next_completion() const;

  /// Advances application work (drives invocation counters => enqueues)
  /// and wall time (drives compile progress => completions).
  void advance(double work_delta, SimTime time_delta);

  // ---- stats ----------------------------------------------------------------
  std::int64_t compiles_c1() const { return compiles_c1_; }
  std::int64_t compiles_c2() const { return compiles_c2_; }
  SimTime compile_cpu() const { return compile_cpu_; }
  std::int64_t code_cache_used() const { return static_cast<std::int64_t>(cache_used_); }
  bool compiler_disabled() const { return compiler_disabled_; }
  std::int64_t flush_count() const { return flush_count_; }

 private:
  // Tier of a bucket's installed code: 0 interpreter, 1 = C1, 2 = C2.
  struct Bucket {
    double weight = 0;      ///< share of execution
    double mix_weight = 0;  ///< (1 - jni_frac) * weight: its speed-mix term
    int tier = 0;
    int pending_tier = -1;  ///< tier queued/in-flight, -1 = none
    int next_tier = -1;     ///< tier it would enqueue next, -1 = none
    double code_c1 = 0;     ///< installed code bytes
    double code_c2 = 0;
  };
  struct Job {
    std::size_t bucket = 0;
    int tier = 1;
    double remaining_bytes = 0;
    double total_bytes = 0;
    bool in_flight = false;
  };

  int next_tier_for(const Bucket& bucket) const;  ///< -1 when fully compiled
  /// Re-derives bucket `index`'s next tier and enqueue threshold; called at
  /// every transition that can change them (enqueue, completion, flush,
  /// compiler disable).
  void refresh_enqueue_state(std::size_t index);
  /// Reruns the speed-mix sum; called after any batch of completions.
  void refresh_speed_mix();
  void enqueue(std::size_t index, int tier);
  void start_pending_jobs();
  void complete_job(const Job& job);
  bool ensure_cache_space(double bytes);

  JitParams params_;
  MachineSpec machine_;
  double jni_frac_ = 0;
  double methods_per_bucket_ = 1;
  double code_size_per_method_ = 1200;  ///< bloat-scaled compiled size
  double compile_all_inflation_ = 1.0;  ///< -Xcomp loaded/executed ratio

  // Per-run constants, fixed once the constructor returns.
  std::array<double, 3> tier_speed_{};  ///< execution speed by tier
  std::array<double, 3> threshold_{};   ///< OSR-scaled trigger count by tier ([0] unused)
  int top_tier_ = 0;                    ///< highest tier compilation reaches

  std::vector<Bucket> buckets_;
  // Per-bucket hot state, indexed like buckets_.
  std::vector<double> invocations_;       ///< per-method count so far
  std::vector<double> invocation_rates_;  ///< per-method invocations per work unit
  std::vector<double> enqueue_at_;  ///< next tier's threshold, +inf when none
  double speed_mix_ = 0;            ///< speed_mix() as of the last tier change

  std::vector<Job> queue_;     ///< jobs in enqueue order; `in_flight` marks the running ones
  std::vector<Job> finished_;  ///< scratch: jobs completed by one advance()
  double cache_used_ = 0;
  bool compiler_disabled_ = false;

  std::int64_t compiles_c1_ = 0;
  std::int64_t compiles_c2_ = 0;
  std::int64_t flush_count_ = 0;
  SimTime compile_cpu_;
};

}  // namespace jat
