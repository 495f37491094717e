#include "harness/trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "support/table.hpp"
#include "support/units.hpp"

namespace jat {

double SessionTrace::best_at(SimTime budget_position) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [at, objective] : convergence) {
    if (at <= budget_position) {
      best = objective;
    } else {
      break;
    }
  }
  return best;
}

namespace {

PhaseBudget& phase_entry(SessionTrace& session, const std::string& phase) {
  for (auto& entry : session.phase_budgets) {
    if (entry.phase == phase) return entry;
  }
  session.phase_budgets.push_back(PhaseBudget{phase, SimTime::zero(), 0, 0});
  return session.phase_budgets.back();
}

void reconstruct(SessionTrace& session) {
  double best = std::numeric_limits<double>::infinity();
  SimTime prev_eval_at = SimTime::zero();
  for (const TraceEvent& e : session.events) {
    if (e.type == "session_start") {
      session.workload = e.get_string("workload");
      session.tuner = e.get_string("tuner");
      session.budget = SimTime::seconds(e.get_double("budget_s"));
      session.resumed = e.get_bool("resumed");
    } else if (e.type == "eval") {
      ++session.evaluations;
      const double objective = e.get_double("objective_ms");
      if (objective < best) {
        best = objective;
        session.convergence.emplace_back(e.at, best);
      }
      PhaseBudget& entry = phase_entry(session, e.get_string("phase"));
      ++entry.evaluations;
      entry.spent += e.at - prev_eval_at;
      prev_eval_at = e.at;
      if (e.get_int("attempts") > 1 && std::isfinite(objective)) {
        ++session.recovered;
      }
    } else if (e.type == "incumbent") {
      ++session.incumbent_updates;
      ++phase_entry(session, e.get_string("phase")).incumbent_updates;
    } else if (e.type == "cache_hit") {
      ++session.cache_hits;
    } else if (e.type == "retry") {
      ++session.retries;
    } else if (e.type == "rep_stop") {
      const std::string stop = e.get_string("stop");
      if (stop == "converged") {
        ++session.reps_converged;
      } else if (stop == "raced_out") {
        ++session.reps_raced_out;
      } else if (stop == "budget_cut") {
        ++session.reps_budget_cut;
      } else if (stop == "cancelled") {
        ++session.reps_cancelled;
      }
    } else if (e.type == "topup") {
      ++session.topups;
    } else if (e.type == "quarantine") {
      ++session.quarantined;
    } else if (e.type == "quarantine_hit") {
      ++session.quarantine_hits;
    } else if (e.type == "breaker") {
      if (e.get_bool("open")) ++session.breaker_trips;
    } else if (e.type == "dispatch") {
      ++session.dispatched;
    } else if (e.type == "complete") {
      ++session.completed;
    } else if (e.type == "window") {
      session.inflight_cap = e.get_int("inflight_cap");
      session.max_inflight = e.get_int("max_inflight");
      session.avg_inflight = e.get_double("avg_inflight");
    } else if (e.type == "journal_open") {
      session.journal_mode = e.get_string("mode");
      session.journal_records = e.get_int("records");
      session.journal_dropped = e.get_int("dropped");
    } else if (e.type == "journal_replay") {
      session.journal_replayed = e.get_int("replayed");
      session.journal_replay_total = e.get_int("total");
    } else if (e.type == "journal_flush") {
      session.journal_flushed = e.get_int("records");
    } else if (e.type == "cancelled") {
      session.cancelled = true;
      session.drained = e.get_int("drained");
    } else if (e.type == "sandbox_spawn") {
      ++session.sandbox_spawns;
    } else if (e.type == "worker_respawn") {
      ++session.sandbox_respawns;
    } else if (e.type == "worker_exit") {
      ++session.sandbox_deaths;
    } else if (e.type == "sandbox_kill") {
      ++session.sandbox_kills;
    } else if (e.type == "store_open") {
      session.store_open = true;
      session.store_records = e.get_int("records");
    } else if (e.type == "store_hit") {
      ++session.store_hits;
    } else if (e.type == "warm_start") {
      session.warm_seeds = e.get_int("seeds");
    } else if (e.type == "baseline") {
      session.baseline_ms = e.get_double("objective_ms");
    } else if (e.type == "validation") {
      session.default_ms = e.get_double("default_ms");
      session.best_ms = e.get_double("best_ms");
    } else if (e.type == "session_end") {
      session.complete = true;
      session.default_ms = e.get_double("default_ms", session.default_ms);
      session.best_ms = e.get_double("best_ms", session.best_ms);
      session.improvement = e.get_double("improvement");
      session.runs = e.get_int("runs");
      // The session's own count: suite members emit no cache_hit events.
      session.cache_hits = e.get_int("cache_hits", session.cache_hits);
      session.budget_spent = SimTime::seconds(e.get_double("budget_spent_s"));
      session.store_appends = e.get_int("store_appends");
      session.charged_evaluations = e.get_int("charged_evaluations");
    }
  }
  if (!session.complete && session.default_ms > 0.0) {
    session.improvement =
        (session.default_ms - session.best_ms) / session.default_ms;
  }
}

}  // namespace

std::vector<SessionTrace> analyze_trace(const std::vector<TraceEvent>& events) {
  std::vector<SessionTrace> sessions;
  for (const TraceEvent& e : events) {
    if (e.type == "session_start" || sessions.empty()) {
      sessions.emplace_back();
    }
    sessions.back().events.push_back(e);
  }
  for (SessionTrace& session : sessions) reconstruct(session);
  return sessions;
}

// ---- schema validation ------------------------------------------------------

namespace {

enum class FieldKind { kString, kInt, kNumber, kBool };

struct FieldSpec {
  const char* name;
  FieldKind kind;
};

struct EventSpec {
  const char* type;
  std::vector<FieldSpec> required;
};

/// The documented schema (EXPERIMENTS.md, "Trace event schema"). Events may
/// carry extra fields; the required ones must be present and typed.
const std::vector<EventSpec>& schema() {
  static const std::vector<EventSpec> specs = {
      {"session_start",
       {{"workload", FieldKind::kString},
        {"tuner", FieldKind::kString},
        {"budget_s", FieldKind::kNumber},
        {"repetitions", FieldKind::kInt},
        {"seed", FieldKind::kInt},
        {"eval_threads", FieldKind::kInt},
        {"resilient", FieldKind::kBool}}},
      {"phase", {{"name", FieldKind::kString}}},
      {"eval",
       {{"fingerprint", FieldKind::kString},
        {"objective_ms", FieldKind::kNumber},
        {"phase", FieldKind::kString},
        {"fault", FieldKind::kString},
        {"attempts", FieldKind::kInt}}},
      {"incumbent",
       {{"fingerprint", FieldKind::kString},
        {"objective_ms", FieldKind::kNumber},
        {"phase", FieldKind::kString}}},
      {"structural_choice",
       {{"signature", FieldKind::kString},
        {"fingerprint", FieldKind::kString},
        {"objective_ms", FieldKind::kNumber}}},
      {"line_search",
       {{"flag", FieldKind::kString},
        {"value", FieldKind::kInt},
        {"objective_ms", FieldKind::kNumber},
        {"accepted", FieldKind::kBool}}},
      {"dispatch",
       {{"id", FieldKind::kInt},
        {"fingerprint", FieldKind::kString},
        {"inflight", FieldKind::kInt}}},
      {"complete",
       {{"id", FieldKind::kInt},
        {"fingerprint", FieldKind::kString},
        {"objective_ms", FieldKind::kNumber},
        {"cost_s", FieldKind::kNumber},
        {"inflight", FieldKind::kInt}}},
      {"window",
       {{"inflight_cap", FieldKind::kInt},
        {"dispatched", FieldKind::kInt},
        {"max_inflight", FieldKind::kInt},
        {"avg_inflight", FieldKind::kNumber}}},
      {"cache_hit",
       {{"fingerprint", FieldKind::kString}, {"joined", FieldKind::kBool}}},
      {"retry",
       {{"fingerprint", FieldKind::kString},
        {"attempt", FieldKind::kInt},
        {"fault", FieldKind::kString}}},
      {"rep_stop",
       {{"fingerprint", FieldKind::kString},
        {"stop", FieldKind::kString},
        {"reps", FieldKind::kInt},
        {"failed_reps", FieldKind::kInt}}},
      {"topup",
       {{"fingerprint", FieldKind::kString},
        {"added_reps", FieldKind::kInt},
        {"objective_ms", FieldKind::kNumber},
        {"stop", FieldKind::kString}}},
      {"quarantine",
       {{"fingerprint", FieldKind::kString}, {"reason", FieldKind::kString}}},
      {"quarantine_hit", {{"fingerprint", FieldKind::kString}}},
      {"breaker", {{"open", FieldKind::kBool}}},
      {"store_open",
       {{"path", FieldKind::kString},
        {"records", FieldKind::kInt},
        {"workloads", FieldKind::kInt},
        {"read_only", FieldKind::kBool}}},
      {"store_hit", {{"fingerprint", FieldKind::kString}}},
      {"warm_start",
       {{"seeds", FieldKind::kInt},
        {"same_workload", FieldKind::kInt},
        {"neighbors", FieldKind::kInt}}},
      {"journal_open",
       {{"path", FieldKind::kString},
        {"mode", FieldKind::kString},
        {"records", FieldKind::kInt},
        {"dropped", FieldKind::kInt}}},
      {"journal_replay",
       {{"replayed", FieldKind::kInt}, {"total", FieldKind::kInt}}},
      {"journal_flush", {{"records", FieldKind::kInt}}},
      {"cancelled", {{"drained", FieldKind::kInt}}},
      {"sandbox_spawn",
       {{"worker", FieldKind::kInt}, {"pid", FieldKind::kInt}}},
      {"worker_exit",
       {{"worker", FieldKind::kInt},
        {"pid", FieldKind::kInt},
        {"cause", FieldKind::kString}}},
      {"worker_respawn",
       {{"worker", FieldKind::kInt}, {"pid", FieldKind::kInt}}},
      {"sandbox_kill",
       {{"worker", FieldKind::kInt},
        {"pid", FieldKind::kInt},
        {"stage", FieldKind::kString}}},
      {"baseline", {{"objective_ms", FieldKind::kNumber}}},
      {"validation",
       {{"default_ms", FieldKind::kNumber},
        {"best_ms", FieldKind::kNumber},
        {"search_best_ms", FieldKind::kNumber},
        {"accepted", FieldKind::kBool}}},
      {"session_end",
       {{"workload", FieldKind::kString},
        {"tuner", FieldKind::kString},
        {"default_ms", FieldKind::kNumber},
        {"best_ms", FieldKind::kNumber},
        {"improvement", FieldKind::kNumber},
        {"evaluations", FieldKind::kInt},
        {"runs", FieldKind::kInt},
        {"cache_hits", FieldKind::kInt},
        {"budget_spent_s", FieldKind::kNumber}}},
      {"metrics", {}},  // free-form counter/gauge snapshot
  };
  return specs;
}

bool kind_matches(const TraceValue& value, FieldKind kind) {
  switch (kind) {
    case FieldKind::kString:
      return std::holds_alternative<std::string>(value);
    case FieldKind::kInt:
      return std::holds_alternative<std::int64_t>(value);
    case FieldKind::kBool:
      return std::holds_alternative<bool>(value);
    case FieldKind::kNumber:
      if (std::holds_alternative<std::int64_t>(value) ||
          std::holds_alternative<double>(value)) {
        return true;
      }
      // Non-finite doubles round-trip through JSONL as these strings.
      if (const auto* s = std::get_if<std::string>(&value)) {
        return *s == "inf" || *s == "-inf" || *s == "nan";
      }
      return false;
  }
  return false;
}

}  // namespace

std::string validate_trace_event(const TraceEvent& event) {
  for (const EventSpec& spec : schema()) {
    if (event.type != spec.type) continue;
    for (const FieldSpec& field : spec.required) {
      const TraceValue* value = event.find(field.name);
      if (value == nullptr) {
        return "event '" + event.type + "': missing field '" + field.name + "'";
      }
      if (!kind_matches(*value, field.kind)) {
        return "event '" + event.type + "': field '" + field.name +
               "' has the wrong type";
      }
    }
    return "";
  }
  return "unknown event type '" + event.type + "'";
}

// ---- report rendering -------------------------------------------------------

std::string render_trace_report(const std::vector<SessionTrace>& sessions,
                                int checkpoints) {
  std::ostringstream out;
  checkpoints = std::max(1, checkpoints);
  for (const SessionTrace& session : sessions) {
    out << "== session: " << session.workload << " / " << session.tuner
        << " ==\n";
    out << "  budget " << session.budget.to_string() << ", spent "
        << session.budget_spent.to_string() << "; " << session.evaluations
        << " evaluations (" << session.cache_hits << " cache hits), "
        << session.runs << " runs\n";
    out << "  validated: default " << fmt(session.default_ms, 0)
        << " ms -> best " << fmt(session.best_ms, 0) << " ms ("
        << format_percent(session.improvement) << " improvement)\n";
    if (session.retries + session.quarantined + session.quarantine_hits +
            session.breaker_trips > 0) {
      out << "  resilience: " << session.retries << " retries, "
          << session.recovered << " recovered, " << session.quarantined
          << " quarantined (" << session.quarantine_hits << " hits), "
          << session.breaker_trips << " breaker trips\n";
    }
    if (session.reps_converged + session.reps_raced_out +
            session.reps_budget_cut + session.reps_cancelled + session.topups >
        0) {
      out << "  measurement policy: " << session.reps_converged
          << " converged early, " << session.reps_raced_out << " raced out, "
          << session.reps_budget_cut << " budget-cut, "
          << session.reps_cancelled << " cancelled, " << session.topups
          << " topped up\n";
    }
    if (!session.journal_mode.empty()) {
      out << "  durability: journal opened " << session.journal_mode;
      if (session.journal_mode == "resume") {
        out << " (" << session.journal_records << " committed records";
        if (session.journal_dropped > 0) {
          out << ", " << session.journal_dropped << " corrupt dropped";
        }
        out << "; replayed " << session.journal_replayed << "/"
            << session.journal_replay_total << ")";
      }
      out << ", " << session.journal_flushed << " records flushed\n";
    }
    if (session.store_open || session.store_hits > 0 ||
        session.warm_seeds > 0) {
      out << "  store: " << session.store_records << " record(s) at open, "
          << session.store_hits << " store hit(s), " << session.store_appends
          << " appended, " << session.warm_seeds << " warm-start seed(s)";
      if (session.charged_evaluations > 0) {
        out << ", " << session.charged_evaluations << " charged evaluation(s)";
      }
      out << '\n';
    }
    if (session.cancelled) {
      out << "  cancelled: admission closed, " << session.drained
          << " in-flight evaluation(s) drained\n";
    }
    if (session.sandbox_spawns > 0) {
      out << "  sandbox: " << session.sandbox_spawns << " worker(s) spawned, "
          << session.sandbox_deaths << " died ("
          << session.sandbox_respawns << " respawned), "
          << session.sandbox_kills << " watchdog kill signal(s)\n";
    }
    if (session.dispatched > 0) {
      out << "  pipeline: " << session.dispatched << " dispatched, window cap "
          << session.inflight_cap << ", peak " << session.max_inflight
          << " in flight (avg " << fmt(session.avg_inflight, 2) << ")\n";
    }
    if (!session.complete) {
      out << "  (incomplete trace: no session_end event)\n";
    }

    const SimTime horizon =
        session.budget_spent.is_zero() && !session.convergence.empty()
            ? session.convergence.back().first
            : session.budget_spent;
    if (!session.convergence.empty() && !horizon.is_zero()) {
      out << "\n  convergence (incumbent vs budget):\n";
      TextTable curve({"budget", "incumbent_ms", "improvement"});
      const double reference =
          session.baseline_ms > 0.0 ? session.baseline_ms : session.default_ms;
      for (int i = 1; i <= checkpoints; ++i) {
        const SimTime at =
            horizon * (static_cast<double>(i) / static_cast<double>(checkpoints));
        const double incumbent = session.best_at(at);
        const double improvement =
            reference > 0.0 && std::isfinite(incumbent)
                ? (reference - incumbent) / reference
                : 0.0;
        curve.add_row({at.to_string(),
                       std::isfinite(incumbent) ? fmt(incumbent, 0) : "inf",
                       format_percent(improvement)});
      }
      out << curve.render();
    }

    if (!session.phase_budgets.empty()) {
      out << "\n  per-phase budget attribution:\n";
      TextTable phases({"phase", "evals", "incumbents", "budget_s", "share"});
      SimTime total = SimTime::zero();
      for (const PhaseBudget& entry : session.phase_budgets) {
        total += entry.spent;
      }
      for (const PhaseBudget& entry : session.phase_budgets) {
        phases.add_row({entry.phase, std::to_string(entry.evaluations),
                        std::to_string(entry.incumbent_updates),
                        fmt(entry.spent.as_seconds(), 1),
                        format_percent(total.is_zero() ? 0.0
                                                       : entry.spent / total)});
      }
      out << phases.render();
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace jat
