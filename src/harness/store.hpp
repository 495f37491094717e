// Cross-session result store: persistent, content-addressed reuse of
// measurements across tuning sessions.
//
// The paper tunes every benchmark from scratch, but successive campaigns
// over the same descriptors keep re-discovering the same measurements.
// BestConfig and OneStopTuner both show that reusing prior results across
// tuning runs is the cheapest large speedup available to a configuration
// tuner. This store is that reuse layer: an append-only on-disk index
// keyed by (space fingerprint, workload fingerprint, config fingerprint,
// objective id) mapping to full per-repetition MetricVector records.
//
// On-disk form
//   One JSONL file (`store.jsonl` inside the store directory) in the
//   session journal's record dialect (journal.hpp): each line is a trace
//   JSONL object plus a trailing FNV-1a content checksum, appended with a
//   single write(2). Two record types: `store_result` (one measurement)
//   and `store_workload` (a workload's descriptor feature vector, the
//   basis for cross-workload neighbor ranking). The reader is tolerant:
//   corrupt lines are skipped and counted, a torn trailing line is
//   physically truncated (writable stores) before the first append.
//
// Concurrency
//   Multiple sessions — and forked sandbox workers — share one store file
//   safely via advisory file locking: every append (and the open-time tail
//   repair) holds an exclusive flock(2), and each append is a single
//   O_APPEND write, so records never interleave. Sessions read the index
//   at open; appends made by other sessions after that are picked up at
//   their next open (the in-memory index is a snapshot, which keeps
//   lookups deterministic for the lifetime of a session). flock is
//   per-open-file-description, so the store reopens its descriptor after
//   a fork: a sandbox worker's appends lock and land independently of its
//   parent's.
//
// What is stored
//   Only trustworthy measurements: valid (at least one successful
//   repetition, not crashed) and complete (StopReason kFull or
//   kConverged). Raced-out, budget-cut, and cancelled measurements are
//   truncated summaries that would pollute transfer; crashes are cheap to
//   re-discover and configuration-caused ones are workload-specific.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

#include "harness/measurement.hpp"
#include "support/error.hpp"
#include "workloads/workload.hpp"

namespace jat {

/// Raised on store misuse (unopenable directory, write to a read-only
/// store). Read-path oddities never throw: the tolerant reader skips and
/// counts them, and append failures disable further writes with a warning
/// instead of failing the measurement that triggered them.
class StoreError : public Error {
 public:
  explicit StoreError(const std::string& what) : Error(what) {}
};

struct StoreOptions {
  /// A read-only store never appends (and never repairs a torn tail), so
  /// its in-memory index is a pure function of the file at open time —
  /// what the determinism matrix needs to run the same store through
  /// several session arms.
  bool read_only = false;
};

/// The content address of one stored measurement. Two sessions that agree
/// on all four components measured the same thing: same flag space, same
/// workload descriptor, same configuration, same scoring.
struct StoreKey {
  std::uint64_t space_fingerprint = 0;
  std::uint64_t workload_fingerprint = 0;
  std::uint64_t config_fingerprint = 0;
  std::string objective;  ///< objective id (objective.hpp)

  friend bool operator==(const StoreKey& a, const StoreKey& b) = default;
  friend auto operator<=>(const StoreKey& a, const StoreKey& b) = default;
};

/// One stored measurement: the full per-repetition record, not just the
/// scalar — so a store hit rebuilds the exact Measurement (times, metric
/// rows, stop reason) the original session cached.
struct StoreRecord {
  StoreKey key;
  std::string workload;      ///< workload name (diagnostics)
  std::string command_line;  ///< canonical flag rendering of the config
  /// Scalarized objective (mean of per-repetition values, lower is
  /// better); the ranking key for top-k and neighbor queries.
  double objective_value = 0.0;
  std::vector<double> times_ms;
  std::vector<MetricVector> rep_metrics;
  StopReason stop = StopReason::kFull;
  int failed_reps = 0;
  std::uint64_t seed = 0;  ///< runner base seed that produced it

  /// Rebuilds the measurement exactly as the producing runner cached it
  /// (summary recomputed from times_ms, which is deterministic).
  Measurement to_measurement() const;
};

/// A workload's descriptor snapshot: the numeric feature vector neighbor
/// ranking measures distance over (workload_features()).
struct StoreWorkloadInfo {
  std::uint64_t space_fingerprint = 0;
  std::uint64_t workload_fingerprint = 0;
  std::string name;
  std::vector<double> features;
};

struct StoreStats {
  std::int64_t records = 0;    ///< deduped index size
  std::int64_t workloads = 0;  ///< workload descriptors known
  std::int64_t loaded = 0;     ///< record lines read at open
  std::int64_t dropped = 0;    ///< corrupt/torn lines skipped at open
  std::int64_t hits = 0;       ///< lookups answered
  std::int64_t misses = 0;     ///< lookups not answered
  std::int64_t appends = 0;    ///< records appended by this session
};

class ResultStore {
 public:
  /// Opens (creating the directory and file as needed, unless read-only)
  /// the store in `dir`. Loads the current index under a shared flock;
  /// writable stores first repair a torn tail under an exclusive one.
  /// Throws StoreError when the directory or file cannot be opened.
  static std::shared_ptr<ResultStore> open(const std::string& dir,
                                           StoreOptions options = {});
  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& path() const { return path_; }
  bool read_only() const { return options_.read_only; }

  /// The record stored under `key`, or nullptr. Pointers stay valid for
  /// the store's lifetime (node-based index). Counts hits/misses.
  const StoreRecord* lookup(const StoreKey& key);

  /// The descriptor stored for a workload fingerprint, or nullptr. Like
  /// lookup(), the pointer stays valid for the store's lifetime.
  const StoreWorkloadInfo* workload_info(
      std::uint64_t workload_fingerprint) const;

  /// Inserts (or upgrades) a record and appends it to the file. A record
  /// no better than the stored one — fewer successful repetitions — is
  /// dropped without an append, so re-measuring sessions do not bloat the
  /// log. Read-only stores update nothing. Never throws: an append that
  /// fails at the filesystem disables further writes with a warning.
  void put(StoreRecord record);

  /// Registers a workload descriptor (once per fingerprint): the basis
  /// for neighbor queries from other sessions.
  void put_workload(std::uint64_t space_fingerprint,
                    const WorkloadSpec& workload);

  /// The k best (lowest objective_value, ties by config fingerprint)
  /// stored configs for one (space, workload, objective). Deterministic
  /// for a fixed index.
  std::vector<const StoreRecord*> top_k(std::uint64_t space_fingerprint,
                                        std::uint64_t workload_fingerprint,
                                        const std::string& objective,
                                        std::size_t k) const;

  /// Structural-neighbor transfer: for up to `k` *other* workloads under
  /// the same space/objective, ranked by ascending descriptor distance to
  /// `features` (ties by workload fingerprint), the best stored config of
  /// each. Workloads without a stored descriptor or without any valid
  /// record are skipped.
  std::vector<const StoreRecord*> neighbors(std::uint64_t space_fingerprint,
                                            std::uint64_t workload_fingerprint,
                                            const std::vector<double>& features,
                                            const std::string& objective,
                                            std::size_t k) const;

  StoreStats stats() const;

 private:
  ResultStore() = default;
  void load(int fd);
  bool absorb(StoreRecord record);        ///< index insert/upgrade (mutex_ held)
  void append_line(std::string line);     ///< flock + single write
  int writable_fd();                      ///< lazy open; reopens after fork

  std::string path_;
  StoreOptions options_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  pid_t fd_pid_ = -1;  ///< pid that opened fd_ (fork detection)
  bool write_failed_ = false;
  std::map<StoreKey, StoreRecord> index_;
  std::map<std::uint64_t, StoreWorkloadInfo> workloads_;
  StoreStats stats_;
};

/// Fingerprint of a workload descriptor: the name mixed with the bit
/// patterns of its feature vector, so any change to the descriptor keys a
/// fresh store namespace instead of silently reusing stale results.
std::uint64_t workload_fingerprint(const WorkloadSpec& workload);

/// The numeric feature vector neighbor ranking operates on: every
/// structural field of the descriptor, log-compressed where scales span
/// orders of magnitude, fractions raw. noise_sigma is excluded — run
/// noise is measurement infrastructure, not program structure.
std::vector<double> workload_features(const WorkloadSpec& workload);

/// Root-mean-square distance between two feature vectors; +inf when the
/// lengths disagree (a descriptor from an incompatible writer).
double workload_distance(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace jat
