// Durable session journal: a write-ahead log of everything a tuning
// session commits, so a crash, OOM-kill, or operator interrupt never
// throws away hours of measurements.
//
// The ask/tell inversion (tuner/scheduler.hpp) makes recovery cheap to do
// *correctly*: strategy state is a pure function of the ordered, committed
// tell ledger, so a session can be reconstructed by re-running the
// strategy and answering its proposals from the journal instead of the
// harness. SessionJournal is the ledger's durable form: one JSONL record
// per committed evaluation (appended *before* the result is applied — WAL
// semantics), preceded by a metadata record that pins everything the
// replay depends on (flag-space fingerprint, seed, strategy, budget,
// window). Records are appended through the log layer at the end of this
// header, which cuts a failed append back instead of leaving it partial,
// with an fsync every `sync_every` records; each carries a content
// checksum, and the reader truncates at the first corrupt or partial
// record, so a torn tail costs at most the unsynced suffix — which resume
// simply re-measures.
//
// Duplicate or out-of-order sequence numbers, or a metadata record that
// does not match the resuming session, are *not* corruption: they mean a
// wrong file or changed code, and silently truncating would discard valid
// work. Those raise a structured JournalError instead.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/fault.hpp"
#include "harness/measurement.hpp"
#include "support/error.hpp"
#include "support/sim_time.hpp"
#include "support/trace.hpp"

namespace jat {

class Configuration;
class FlagRegistry;

/// Raised on journal misuse and resume incompatibilities. Mismatches carry
/// the offending field and both values, so callers (and operators) see
/// *what* disagrees, not just that something does.
class JournalError : public Error {
 public:
  explicit JournalError(const std::string& what) : Error(what) {}
  JournalError(std::string field, std::string journaled, std::string session)
      : Error("journal incompatible with session: " + field + " is '" +
              journaled + "' in the journal but '" + session +
              "' in the session"),
        field_(std::move(field)),
        journaled_(std::move(journaled)),
        session_(std::move(session)) {}

  /// Empty unless this is a field-mismatch error.
  const std::string& field() const { return field_; }
  const std::string& journaled_value() const { return journaled_; }
  const std::string& session_value() const { return session_; }

 private:
  std::string field_;
  std::string journaled_;
  std::string session_;
};

/// Everything a bit-identical replay depends on, pinned in the journal's
/// first record. `eval_threads` is informational only (parallelism changes
/// wall clock, never the trajectory) and deliberately not validated.
struct JournalMeta {
  int version = 1;
  std::string kind = "single";  ///< "single" | "suite"
  /// Objective id (objective.hpp). Journals written under the default
  /// run_time objective omit the field and stay version-1 byte-identical
  /// to pre-objective journals; any other objective bumps the record to
  /// version 2 (kVersionObjectives) and journals per-record metric
  /// vectors. Absent in old journals ⇒ resumes as "run_time".
  std::string objective = "run_time";
  std::string workload;         ///< workload name (suite: names joined by ",")
  std::string tuner;
  std::uint64_t seed = 0;
  SimTime budget;
  int repetitions = 0;
  std::size_t inflight = 0;
  std::size_t eval_threads = 0;
  double per_run_overhead_s = 0.0;
  double racing_factor = 0.0;
  /// Adaptive measurement policy (harness/measure_policy.hpp). Defaults
  /// match MeasurementPolicyOptions with `adaptive` off, so journals
  /// written before the policy existed validate against policy-off
  /// sessions unchanged.
  bool adaptive = false;
  int min_reps = 2;
  int max_reps = 10;
  double ci_rel = 0.02;
  double race_p = 0.05;
  /// Fingerprint of the flag space the session searched (defaults
  /// fingerprint mixed with the registry size): a journal from a different
  /// flag registry replays into nonsense and must be refused.
  std::uint64_t space_fingerprint = 0;
  bool resilient = false;
  /// Fingerprint over the fault-injection options (0 = no injection).
  std::uint64_t fault_fingerprint = 0;
};

/// One committed evaluation, exactly as the scheduler applied it: the
/// measurement plus the metered budget cost, keyed by its commit order
/// (`seq` == the ResultDb row index). Costs are stored as integer
/// microseconds and times as full-precision decimals, so a replayed
/// session's budget clock and objectives are bit-identical.
struct JournalEval {
  std::int64_t seq = 0;
  std::uint64_t fingerprint = 0;
  std::string phase;
  std::string command_line;
  std::vector<double> times_ms;
  /// Per-repetition metric rows (aligned with times_ms). Only journaled
  /// under a non-run_time objective — run_time records stay byte-identical
  /// to the metric-less version-1 form, whose replay needs only times_ms.
  std::vector<MetricVector> rep_metrics;
  bool crashed = false;
  std::string crash_reason;
  FaultClass fault = FaultClass::kNone;
  int attempts = 1;
  int failed_reps = 0;
  StopReason stop = StopReason::kFull;  ///< why repetitions stopped
  SimTime cost;          ///< exact budget charge of this evaluation
  SimTime budget_spent;  ///< clock position when committed (diagnostic)

  /// Rebuilds the committed measurement (summary recomputed from times_ms,
  /// which is deterministic).
  Measurement to_measurement() const;
};

struct JournalOptions {
  /// fsync after every Nth eval append (1 = every append; 0 = only on
  /// flush/close). Metadata and end records always sync.
  int sync_every = 8;
  /// Fault-injection hook for crash tests and the CI kill-and-resume job:
  /// when > 0, raise SIGKILL immediately after the Nth eval record is made
  /// durable — a deterministic "power cut" mid-budget.
  int crash_after_appends = 0;
};

/// A recoverable oddity the tolerant reader noticed but proceeded past:
/// an unknown fault/stop label (read as clean — surfaced so it is never
/// *silently* read as clean) or an uninterpretable metric block.
struct JournalWarning {
  std::size_t line = 0;   ///< 1-based journal line the oddity was read from
  std::string field;      ///< record field ("fault", "stop", "metrics")
  std::string value;      ///< the offending value
  std::string message;    ///< human-readable description
};

/// The write-ahead journal itself. Single-writer (the scheduler's control
/// thread); each append is one journal_append_line(), so a concurrent
/// reader or a crash never observes an interleaved record — at worst a
/// torn final line, which the tolerant reader drops.
class SessionJournal {
 public:
  /// Base format: metric-less records, implicit run_time objective.
  static constexpr int kVersion = 1;
  /// Format with an `objective` meta field and per-record metric vectors;
  /// written whenever the session's objective is not run_time.
  static constexpr int kVersionObjectives = 2;

  /// The version a session must stamp into its meta record for a given
  /// objective id: kVersion for "run_time", kVersionObjectives otherwise.
  static int version_for_objective(const std::string& objective_id) {
    return objective_id == "run_time" ? kVersion : kVersionObjectives;
  }

  /// Creates (truncating) a fresh journal. The session writes the metadata
  /// record via write_meta() once it knows its configuration.
  static SessionJournal create(const std::string& path,
                               JournalOptions options = {});
  /// Opens an existing journal for resume: reads the valid prefix
  /// (truncating the file at the first corrupt or partial record), then
  /// positions for appending. Throws JournalError when the file cannot be
  /// opened, holds no valid metadata record, or contains duplicate /
  /// out-of-order sequence numbers.
  static SessionJournal resume(const std::string& path,
                               JournalOptions options = {});

  SessionJournal(SessionJournal&& other) noexcept;
  SessionJournal& operator=(SessionJournal&& other) noexcept;
  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;
  ~SessionJournal();

  const std::string& path() const { return path_; }
  bool has_meta() const { return meta_.has_value(); }
  const JournalMeta& meta() const;

  /// Committed evaluations loaded at open, in seq order. Stable for the
  /// lifetime of the journal (live appends are not added to it).
  const std::vector<JournalEval>& committed() const { return committed_; }
  /// Corrupt/partial trailing records dropped by the tolerant reader.
  std::size_t dropped_records() const { return dropped_; }
  /// Structured warnings from the tolerant reader: unknown fault/stop
  /// labels (which read as clean but should never do so silently) and
  /// uninterpretable metric blocks. Empty on a healthy journal.
  const std::vector<JournalWarning>& warnings() const { return warnings_; }
  /// True when a journal_end record was seen: the journaled session ran to
  /// completion (resuming it extends the search only if budget remains).
  bool ended() const { return ended_; }
  /// Evaluations recorded in this journal: loaded prefix + live appends.
  std::size_t records_written() const { return committed_.size() + appended_; }

  // Durability: every write and every fsync is checked. A failed write or
  // fsync throws JournalError naming the path and errno, and is never
  // retried, so a record is reported durable only when its sync succeeded.

  /// Writes the metadata record (first record; always fsynced). Only valid
  /// on a fresh journal.
  void write_meta(const JournalMeta& meta);
  /// Appends one committed evaluation, fsynced every `sync_every` appends.
  /// Call *before* applying the result (WAL order); a crash between append
  /// and apply merely replays the record on resume.
  void append(const JournalEval& eval);
  /// Marks a clean end of session (best config and validated objectives);
  /// always fsynced.
  void append_end(std::uint64_t best_fingerprint, double best_ms,
                  double default_ms, std::int64_t evaluations);
  /// Forces everything written so far to stable storage.
  void flush();

 private:
  SessionJournal() = default;
  void write_line(std::string line, bool sync);
  /// fsync, throwing JournalError on failure (mutex_ held).
  void sync_or_throw();
  /// Closes the descriptor after a best-effort fsync whose failure cannot
  /// be reported (noexcept: it runs in the destructor). Durability comes
  /// from the last synced write; call flush() to learn whether it held.
  void close() noexcept;

  std::string path_;
  int fd_ = -1;
  JournalOptions options_;
  std::optional<JournalMeta> meta_;
  std::vector<JournalEval> committed_;
  std::size_t dropped_ = 0;
  std::vector<JournalWarning> warnings_;
  std::size_t appended_ = 0;
  bool ended_ = false;
  std::mutex mutex_;
};

// ---- journal record dialect -------------------------------------------------
//
// Shared with the cross-session result store (harness/store.hpp), which
// persists its records through the exact same on-disk form: one trace-JSONL
// object per line plus a trailing `,"crc":"<16 hex>"}` FNV-1a content
// checksum, appended and read back through the log layer below, whose
// reader treats any checksum or parse failure as corruption.

/// Serialises one record: the trace JSONL form of `event` with the CRC
/// suffix spliced in before the closing brace.
std::string journal_encode_record(const TraceEvent& event);

/// Checksum-validating inverse of journal_encode_record(); nullopt on any
/// corruption (bad suffix, checksum mismatch, unparseable body). `line_no`
/// only labels diagnostics.
std::optional<TraceEvent> journal_decode_record(std::string_view line,
                                                std::size_t line_no);

/// The same validation without building an event: the checksum is hashed
/// over the line in place, then `visit` sees each field of the body as
/// scan_trace_jsonl_fields() reads it. Returns false on any corruption, in
/// which case `visit` may already have seen some fields.
bool journal_scan_record(std::string_view line, std::size_t line_no,
                         const JsonFieldVisitor& visit);

/// %.17g rendering used for every double in journal/store records — the
/// shortest decimal form that round-trips each bit.
std::string journal_render_double(double value);

/// Space-separated %.17g stream (times_ms, metric rows, feature vectors)
/// and its parser. The parser reads each token as strtod does and stops at
/// the first unparseable one, so a damaged stream yields a shorter vector,
/// never a crash.
std::string journal_render_doubles(const std::vector<double>& values);
std::vector<double> journal_parse_doubles(std::string_view text);

/// A record's metric block: `metric_cols` plus the per-repetition rows as
/// one row-major %.17g stream (`metrics`). Adds nothing for no rows.
void journal_put_metrics(TraceEvent& event,
                         const std::vector<MetricVector>& rows);
/// Its inverse over the stream's parsed `values`: the rows of `reps`
/// repetitions, or nullopt unless `cols` is kMetricCount and there are
/// exactly reps × cols values.
std::optional<std::vector<MetricVector>> journal_metric_rows(
    std::int64_t cols, const std::vector<double>& values, std::size_t reps);

// ---- the append-only log under both durable files ---------------------------
//
// The journal and the result store keep their records as lines of one
// append-only file. These two functions are the only code that reads,
// cuts or appends either file; the callers add their schema, locking and
// sync policy.

/// Receives one complete, non-empty line (without its newline) and its
/// 1-based line number; returns false to reject it.
using JournalLineKeeper =
    std::function<bool(std::string_view line, std::size_t line_no)>;

/// Reads the file behind `fd` with one read sized by fstat(2) and passes
/// its complete lines to `keep` until it rejects one. The first rejected or
/// unterminated line ends the valid prefix: `dropped` counts the non-empty
/// pieces from there on, and a writable file (not `read_only`) is cut
/// there, so the next append starts a clean line. Returns false, with
/// errno set, when the read or the cut fails.
bool journal_load_lines(int fd, bool read_only, const JournalLineKeeper& keep,
                        std::size_t& dropped);

/// Appends `line` and its newline to `fd` (opened O_APPEND) through
/// write_all(). When a write fails partway, the file is cut back to where
/// the line began, so it never holds a partial line; returns false with the
/// write's errno. Callers sharing the file serialise their appends.
bool journal_append_line(int fd, std::string line);

/// Fingerprint of a flag space for JournalMeta::space_fingerprint.
std::uint64_t space_fingerprint(const FlagRegistry& registry);

/// Fingerprint of a fault-injection campaign (0 when no fault is enabled):
/// two sessions with equal fingerprints draw identical faults.
std::uint64_t fault_options_fingerprint(const FaultOptions& options);

/// Builds the journal record for one committed evaluation of `config`,
/// whose fingerprint the caller already holds (the scheduler computes it
/// once per evaluation). `include_metrics` copies the measurement's
/// per-repetition metric rows into the record; sessions set it exactly when
/// their objective is not run_time, so run_time journals stay
/// byte-identical to version 1.
JournalEval make_journal_eval(std::int64_t seq, const Configuration& config,
                              std::uint64_t fingerprint,
                              const Measurement& measurement, SimTime cost,
                              SimTime budget_spent, const std::string& phase,
                              bool include_metrics = false);
/// Same, for callers holding only the configuration: computes its
/// fingerprint.
JournalEval make_journal_eval(std::int64_t seq, const Configuration& config,
                              const Measurement& measurement, SimTime cost,
                              SimTime budget_spent, const std::string& phase,
                              bool include_metrics = false);

/// Validates a resuming session against the journaled metadata; throws a
/// field-level JournalError on the first mismatch, in record order.
/// `eval_threads` is exempt (see JournalMeta).
void validate_resume_meta(const JournalMeta& journaled,
                          const JournalMeta& session);

}  // namespace jat
