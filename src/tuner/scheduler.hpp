// EvalScheduler: a bounded in-flight evaluation window around an ask/tell
// SearchStrategy.
//
// The control loop alternates two steps:
//   fill    — while the window has space and the committed budget is not
//             exhausted, ask the strategy for proposals and dispatch them
//             (submitted to the session's ThreadPool when one exists;
//             queued for lazy inline execution otherwise);
//   deliver — take the *oldest* in-flight evaluation, wait for its result,
//             commit it on the control thread (TuningContext::commit folds
//             its cost into the committed ledger, then records the ResultDb
//             row, trace and incumbent), and tell the strategy.
//
// Because admission gates on the committed ledger (never the live clock,
// whose value mid-measurement depends on thread timing), every budget
// position the scheduler traces is the ledger's, and tells are delivered in
// proposal order, the full ask/tell trajectory — and with config-keyed
// measurement seeds, the full outcome — is bit-identical for any
// eval_threads at a fixed window size. The window admits work only while
// committed spend is below the budget, so the total charge can overshoot by
// at most one in-flight window, never unboundedly.
#pragma once

#include <cstdint>
#include <deque>
#include <future>

#include "tuner/strategy.hpp"

namespace jat {

class EvalScheduler {
 public:
  /// `inflight` is the most evaluations in flight at once (0 counts as 1).
  /// Deliberately *not* derived from the thread count: the window size
  /// shapes the ask/tell trajectory, so a fixed window keeps outcomes
  /// identical across eval_threads.
  EvalScheduler(TuningContext& ctx, std::size_t inflight);

  /// Drives the strategy to completion: begin, fill/deliver until the
  /// strategy stops proposing or the committed budget is exhausted and the
  /// window has drained, then finish. When the context carries armed replay
  /// records, the first evaluations are answered from the journal instead
  /// of being measured (same commits, same tells — a resumed session
  /// re-traverses the journaled prefix bit-identically, then continues
  /// live). When the context's CancellationToken fires, admission closes,
  /// the in-flight window drains (their results are committed — measured
  /// work is never thrown away), and run() returns early.
  void run(SearchStrategy& strategy);

  // Mean window occupancy at delivery over the last run (the "window"
  // trace event).
  double avg_inflight() const;
  /// True when the last run stopped on cancellation (not budget/strategy).
  bool cancelled_run() const { return cancelled_run_; }

 private:
  struct InFlight {
    InFlight(std::uint64_t id, Proposal proposal)
        : id(id),
          tag(proposal.tag),
          phase(std::move(proposal.phase)),
          config(std::move(proposal.config)),
          fingerprint(config.fingerprint()) {}

    std::uint64_t id;
    std::uint64_t tag;
    std::string phase;
    Configuration config;
    /// config.fingerprint(), computed once at dispatch and reused by the
    /// trace events, replay, the evaluator stack, commit, and the
    /// observation.
    std::uint64_t fingerprint;
    /// True when this proposal's result is answered from the journal
    /// (resume replay) instead of being measured.
    bool replay = false;
    /// Evaluation hints snapshotted at dispatch time on the control thread
    /// (incumbent statistics for adaptive racing). Captured at dispatch —
    /// not at execution — so the measurement's racing decisions depend only
    /// on the deterministic dispatch order, never on eval_threads timing.
    EvalHints hints;
    /// Valid when a pool dispatched the measurement; otherwise the
    /// evaluation runs inline at delivery time (same trajectory either
    /// way — see the determinism contract in strategy.hpp).
    std::future<TuningContext::MeasuredEval> pending;
  };

  void dispatch(Proposal proposal);
  void deliver(SearchStrategy& strategy);
  bool committed_exhausted() const {
    return ctx_->committed_spent() >= ctx_->budget().total();
  }

  TuningContext* ctx_;
  std::size_t inflight_;
  StrategyContext strategy_ctx_;
  std::deque<InFlight> window_;
  std::uint64_t next_id_ = 0;
  /// ResultDb rows that existed when run() started; proposal id i commits
  /// as row db_base_ + i, which is how dispatch maps ids onto journal
  /// replay positions.
  std::size_t db_base_ = 0;
  bool cancelled_run_ = false;

  std::int64_t dispatched_ = 0;
  std::size_t max_inflight_ = 0;
  std::int64_t inflight_samples_ = 0;
  std::int64_t inflight_sum_ = 0;
};

}  // namespace jat
