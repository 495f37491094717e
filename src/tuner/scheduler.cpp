#include "tuner/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace jat {

EvalScheduler::EvalScheduler(TuningContext& ctx, SchedulerOptions options)
    : ctx_(&ctx), options_(options) {
  if (options_.inflight == 0) options_.inflight = 1;
}

double EvalScheduler::avg_inflight() const {
  return inflight_samples_ > 0 ? static_cast<double>(inflight_sum_) /
                                     static_cast<double>(inflight_samples_)
                               : 0.0;
}

void EvalScheduler::dispatch(Proposal proposal) {
  InFlight flight(next_id_++, std::move(proposal));
  // Proposal id i commits as ResultDb row db_base_ + i, so the journal
  // record at that index — when one exists — already holds its result.
  flight.replay = db_base_ + flight.id < ctx_->replay_total();
  if (!flight.replay && ctx_->measurement_policy().adaptive) {
    flight.hints.incumbent = ctx_->incumbent_snapshot();
  }
  // A configuration already in the window is measured at delivery, after
  // the earlier proposal committed, instead of on the pool: otherwise
  // whichever thread reaches the runner first pays the measurement and the
  // other the cache hit, and the journal would record that race. This way
  // the earlier proposal always pays, exactly as in a serial run.
  const auto in_window = [&] {
    return std::any_of(window_.begin(), window_.end(), [&](const InFlight& f) {
      return f.fingerprint == flight.fingerprint;
    });
  };
  if (ThreadPool* pool = ctx_->pool();
      pool != nullptr && !flight.replay && !in_window()) {
    // The lambda must not touch the InFlight entry (the deque reallocates);
    // copy the configuration, its fingerprint and the hints into the task.
    Configuration config = flight.config;
    flight.pending =
        pool->submit([this, config = std::move(config),
                      fingerprint = flight.fingerprint,
                      hints = flight.hints]() mutable {
          return ctx_->measure_only(config, fingerprint, hints);
        });
  }
  if (ctx_->tracing()) {
    ctx_->trace_event(TraceEvent("dispatch", ctx_->budget().spent())
                          .with("id", static_cast<std::int64_t>(flight.id))
                          .with("fingerprint",
                                fingerprint_hex(flight.fingerprint))
                          .with("inflight", static_cast<std::int64_t>(
                                                window_.size() + 1)));
  }
  window_.push_back(std::move(flight));
  ++dispatched_;
  max_inflight_ = std::max(max_inflight_, window_.size());
}

void EvalScheduler::deliver(SearchStrategy& strategy) {
  inflight_sum_ += static_cast<std::int64_t>(window_.size());
  ++inflight_samples_;
  InFlight flight = std::move(window_.front());
  window_.pop_front();
  TuningContext::MeasuredEval result =
      flight.replay            ? ctx_->replay_next(flight.fingerprint)
      : flight.pending.valid()
          ? flight.pending.get()
          : ctx_->measure_only(flight.config, flight.fingerprint, flight.hints);
  // commit() may top up a raced-out result; it updates `result` in place so
  // the committed ledger below folds in the extra charge.
  const double objective = ctx_->commit(flight.config, flight.fingerprint,
                                        result, flight.replay, flight.phase);
  committed_spent_ += result.cost;
  ++committed_evals_;
  if (ctx_->tracing()) {
    ctx_->trace_event(
        TraceEvent("complete", ctx_->budget().spent())
            .with("id", static_cast<std::int64_t>(flight.id))
            .with("fingerprint", fingerprint_hex(flight.fingerprint))
            .with("objective_ms", objective)
            .with("cost_s", result.cost.as_seconds())
            .with("inflight", static_cast<std::int64_t>(window_.size())));
  }
  Observation observation;
  observation.id = flight.id;
  observation.tag = flight.tag;
  observation.config = &flight.config;
  observation.fingerprint = flight.fingerprint;
  observation.objective = objective;
  observation.cost = result.cost;
  observation.fault = result.measurement.fault;
  strategy.tell(observation);
}

void EvalScheduler::run(SearchStrategy& strategy) {
  // The ledger opens at whatever the session already spent (baseline
  // measurement): deterministic, since everything before run() is serial.
  committed_spent_ = ctx_->budget().spent();
  committed_evals_ = static_cast<std::int64_t>(ctx_->db().size());
  db_base_ = ctx_->db().size();
  cancelled_run_ = false;
  window_.clear();
  next_id_ = 0;
  dispatched_ = 0;
  max_inflight_ = 0;
  inflight_samples_ = 0;
  inflight_sum_ = 0;

  strategy_ctx_.tuning_ = ctx_;
  strategy_ctx_.committed_spent_ = &committed_spent_;
  strategy_ctx_.committed_evals_ = &committed_evals_;
  strategy_ctx_.rng_salt_ = mix64(ctx_->rng().next_u64(), 0x61736b2f74656c6cULL);

  strategy.begin(strategy_ctx_);

  std::vector<Proposal> proposals;
  std::int64_t drained = 0;
  while (true) {
    // Fill the window; a strategy yielding (empty ask) stops this pass.
    // Cancellation closes admission but never the deliver step below:
    // evaluations already in flight drain and commit normally.
    bool yielded = false;
    while (window_.size() < options_.inflight && !committed_exhausted() &&
           !ctx_->cancelled()) {
      proposals.clear();
      strategy.ask(proposals, options_.inflight - window_.size());
      if (proposals.empty()) {
        yielded = true;
        break;
      }
      for (Proposal& proposal : proposals) dispatch(std::move(proposal));
    }
    if (ctx_->cancelled() && !cancelled_run_) {
      cancelled_run_ = true;
      drained = static_cast<std::int64_t>(window_.size());
    }
    if (window_.empty()) {
      // Nothing in flight: a yield here means the strategy is done, an
      // exhausted committed budget closes admission for good, and a
      // cancelled session has finished draining.
      if (yielded || committed_exhausted() || ctx_->cancelled()) break;
      continue;
    }
    deliver(strategy);
  }

  strategy.finish();

  if (cancelled_run_ && ctx_->tracing()) {
    ctx_->trace_event(TraceEvent("cancelled", ctx_->budget().spent())
                          .with("drained", drained));
  }

  if (ctx_->tracing()) {
    ctx_->trace_event(
        TraceEvent("window", ctx_->budget().spent())
            .with("inflight_cap", static_cast<std::int64_t>(options_.inflight))
            .with("dispatched", dispatched_)
            .with("max_inflight", static_cast<std::int64_t>(max_inflight_))
            .with("avg_inflight", avg_inflight()));
  }
}

}  // namespace jat
