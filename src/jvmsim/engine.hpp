// The simulated HotSpot JVM: the public entry point of jvmsim.
//
// JvmSimulator::run executes one (configuration, workload, seed) triple and
// returns a RunResult. A run is a seed-free trajectory plus one noise draw:
// simulate() plays the workload under the decoded parameters without any
// randomness, and noised() multiplies that trajectory's total and startup
// times by one lognormal draw keyed on the seed. Runs are deterministic in
// all three inputs, so the harness can reproduce any measurement exactly,
// and repetitions of one configuration can share one simulated trajectory.
//
// The engine is a discrete-event simulation over continuous rates: between
// events the application executes work, allocates, and advances invocation
// counters at rates derived from the current JIT tier mix, core
// availability, and lock overheads; events are eden exhaustion, JIT
// compile enqueue/completion, concurrent-GC milestones, and the biased-
// locking activation edge.
#pragma once

#include <cstdint>
#include <string>

#include "flags/configuration.hpp"
#include "jvmsim/machine.hpp"
#include "jvmsim/params.hpp"
#include "jvmsim/run_result.hpp"
#include "workloads/workload.hpp"

namespace jat {

struct SimOptions {
  MachineSpec machine;
  /// Abort (as a crash) runs whose simulated time exceeds this bound —
  /// models the harness killing a hung JVM.
  double max_sim_seconds = 7200.0;
  /// Hard event-count backstop against model bugs.
  std::int64_t max_events = 4'000'000;
  /// Record a per-run GC event timeline in RunResult::trace (costs
  /// allocation per collection; off for tuning throughput).
  bool collect_trace = false;
};

/// A run before its measurement noise: `result` holds the simulated total
/// and startup times. The early Metaspace OutOfMemoryError takes no noise
/// (it reports exactly two seconds), so it clears `takes_noise`.
struct Trajectory {
  RunResult result;
  bool takes_noise = true;
};

class JvmSimulator {
 public:
  explicit JvmSimulator(SimOptions options = {});

  /// Runs the workload under the configuration. Non-startable
  /// configurations and OutOfMemoryErrors come back as crashed results (the
  /// tuner treats those as worst-possible, like the paper's harness).
  RunResult run(const Configuration& config, const WorkloadSpec& workload,
                std::uint64_t seed) const;

  /// Same, for already-decoded parameters (skips flag access; used by
  /// simulator unit tests and the micro-benchmarks). Equal to
  /// noised(simulate(params, workload), workload, seed).
  RunResult run(const JvmParams& params, const WorkloadSpec& workload,
                std::uint64_t seed) const;

  /// The seed-free part of run(): the workload's trajectory under `params`,
  /// with noise-free total and startup times.
  Trajectory simulate(const JvmParams& params,
                      const WorkloadSpec& workload) const;

  const SimOptions& options() const { return options_; }

 private:
  SimOptions options_;
};

/// One measurement of `trajectory`: its result with `seed`'s run-to-run
/// noise on total_time and startup_time, when it takes noise.
RunResult noised(Trajectory trajectory, const WorkloadSpec& workload,
                 std::uint64_t seed);

/// The result of a configuration the VM refuses to start; `fatal` is
/// first_fatal()'s message. A crash after one second: a real harness
/// detects a refused start quickly.
RunResult refused_start(const std::string& fatal);

}  // namespace jat
