// Reconstruction of session-level results from a trace alone.
//
// Everything the bench binaries used to re-derive from ResultDb (F4
// convergence staircases, per-phase budget attribution, recovery counters)
// is reconstructible from the trace events a TuningSession emits. This
// header is that reconstruction: split a trace into sessions, validate
// events against the documented schema, and compute the derived tables.
// tools/trace_report is a thin CLI over these functions; tests use them to
// pin trace-vs-outcome equivalence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/sim_time.hpp"
#include "support/trace.hpp"

namespace jat {

/// Budget and evaluation count attributed to one tuner phase. Attribution
/// charges each evaluation's budget delta (its t_s minus the previous
/// eval's) to the phase that proposed it; under parallel evaluation the
/// split is approximate per phase but the total is exact.
struct PhaseBudget {
  std::string phase;
  SimTime spent;
  std::int64_t evaluations = 0;
  std::int64_t incumbent_updates = 0;
};

/// One tuning session reconstructed from its trace slice
/// (session_start .. session_end).
struct SessionTrace {
  std::string workload;
  std::string tuner;
  SimTime budget;
  bool complete = false;  ///< a session_end event was seen

  /// Best-so-far staircase over the *search* evaluations: (budget position,
  /// incumbent objective) at every improvement — ResultDb::best_trajectory
  /// reconstructed from eval events.
  std::vector<std::pair<SimTime, double>> convergence;
  /// Incumbent objective at a budget position (staircase lookup; +inf
  /// before the first finite evaluation).
  double best_at(SimTime budget_position) const;

  /// Per-phase budget attribution, in first-seen phase order.
  std::vector<PhaseBudget> phase_budgets;

  // Search-side counters reconstructed from events.
  std::int64_t evaluations = 0;      ///< eval events
  std::int64_t incumbent_updates = 0;
  /// session_end's count; cache_hit events in a trace cut before it
  std::int64_t cache_hits = 0;
  std::int64_t retries = 0;          ///< retry events
  std::int64_t recovered = 0;        ///< evals that succeeded after retries
  std::int64_t quarantined = 0;
  std::int64_t quarantine_hits = 0;
  std::int64_t breaker_trips = 0;

  // Adaptive measurement policy counters (rep_stop / topup events; zero for
  // traces predating the policy and for policy-off sessions that never
  // truncated a measurement).
  std::int64_t reps_converged = 0;   ///< rep_stop events with stop=converged
  std::int64_t reps_raced_out = 0;   ///< rep_stop events with stop=raced_out
  std::int64_t reps_budget_cut = 0;  ///< rep_stop events with stop=budget_cut
  std::int64_t reps_cancelled = 0;   ///< rep_stop events with stop=cancelled
  std::int64_t topups = 0;           ///< raced-out winners re-measured

  // Scheduler pipeline counters (dispatch/complete/window events; zero for
  // traces predating the EvalScheduler).
  std::int64_t dispatched = 0;       ///< dispatch events
  std::int64_t completed = 0;        ///< complete events
  std::int64_t inflight_cap = 0;     ///< configured window size
  std::int64_t max_inflight = 0;     ///< peak window occupancy observed
  double avg_inflight = 0.0;         ///< mean occupancy at delivery

  // Durability and cancellation (journal_* / cancelled events;
  // zero/empty for traces predating the session journal).
  bool resumed = false;              ///< session_start carried resumed=true
  std::string journal_mode;          ///< "fresh" | "resume" | "" (no journal)
  std::int64_t journal_records = 0;  ///< committed records at journal open
  std::int64_t journal_dropped = 0;  ///< corrupt/partial records truncated
  std::int64_t journal_replayed = 0; ///< evaluations answered from the journal
  std::int64_t journal_replay_total = 0;
  std::int64_t journal_flushed = 0;  ///< records written at final flush
  bool cancelled = false;            ///< a cancelled event was seen
  std::int64_t drained = 0;          ///< in-flight evals drained on cancel

  // Cross-session result store counters (store_open / store_hit /
  // warm_start events; zero/false for store-less sessions and traces
  // predating the store).
  bool store_open = false;           ///< a store_open event was seen
  std::int64_t store_records = 0;    ///< deduped index size at store open
  std::int64_t store_hits = 0;       ///< store_hit events (zero-budget)
  std::int64_t store_appends = 0;    ///< records published (session_end)
  std::int64_t warm_seeds = 0;       ///< warm-start seeds replayed
  std::int64_t charged_evaluations = 0;  ///< nonzero-cost commits (session_end)

  // Out-of-process sandbox counters (sandbox_* / worker_* events; zero for
  // in-process sessions and traces predating the sandbox).
  std::int64_t sandbox_spawns = 0;   ///< sandbox_spawn events (incl. respawns)
  std::int64_t sandbox_respawns = 0; ///< worker_respawn events
  std::int64_t sandbox_deaths = 0;   ///< worker_exit events (crash/hang/torn)
  std::int64_t sandbox_kills = 0;    ///< sandbox_kill events (term + kill)

  // Session summary as emitted in validation / session_end events.
  double baseline_ms = 0.0;    ///< search-time default measurement
  double default_ms = 0.0;     ///< validated default
  double best_ms = 0.0;        ///< validated best
  double improvement = 0.0;
  std::int64_t runs = 0;
  SimTime budget_spent;

  std::vector<TraceEvent> events;  ///< the session's raw slice
};

/// Splits a trace into sessions on session_start boundaries (events before
/// the first session_start form a headless session) and reconstructs each.
std::vector<SessionTrace> analyze_trace(const std::vector<TraceEvent>& events);

/// Validates one event against the documented schema (EXPERIMENTS.md,
/// "Trace event schema"): known type, required fields present and of the
/// required kind. Returns an empty string when valid, else a diagnostic.
std::string validate_trace_event(const TraceEvent& event);

/// Renders a human-readable report (summary, convergence checkpoints,
/// per-phase budget table) for all sessions in a trace.
std::string render_trace_report(const std::vector<SessionTrace>& sessions,
                                int checkpoints = 8);

}  // namespace jat
