// Tuning-time budget accounting.
//
// The paper gives each benchmark a fixed wall-clock tuning budget
// (200 minutes). We charge simulated time instead: every candidate run
// costs its simulated duration plus a fixed harness overhead (JVM spawn,
// result collection), so "improvement vs tuning time" curves have the
// paper's semantics without wall-clock hours. Thread-safe: parallel
// evaluators charge concurrently. Admission is not the clock's business:
// the EvalScheduler admits on its committed ledger (tuner/scheduler.hpp),
// which bounds overshoot to one in-flight window.
//
// MeteredBudget is one measurement's view of the clock: it tallies the
// charges of that measurement across every evaluator layer (runner, fault
// injector, resilience), so a scheduler can account per-evaluation cost
// without modifying any layer, and optionally caps them at a deadline.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "support/cancellation.hpp"
#include "support/sim_time.hpp"

namespace jat {

class BudgetClock {
 public:
  explicit BudgetClock(SimTime total) : total_(total) {}
  virtual ~BudgetClock() = default;

  BudgetClock(const BudgetClock&) = delete;
  BudgetClock& operator=(const BudgetClock&) = delete;

  SimTime total() const { return total_; }
  virtual SimTime spent() const {
    return SimTime::micros(spent_us_.load(std::memory_order_relaxed));
  }
  SimTime remaining() const {
    const SimTime s = spent();
    return s >= total_ ? SimTime::zero() : total_ - s;
  }
  virtual bool exhausted() const { return spent() >= total_; }

  /// Charges a cost; the clock may overshoot on the run in flight when it
  /// expires (like a real harness finishing its last measurement).
  virtual void charge(SimTime cost) {
    spent_us_.fetch_add(cost.as_micros(), std::memory_order_relaxed);
  }

 private:
  SimTime total_;
  std::atomic<std::int64_t> spent_us_{0};
};

/// One evaluation's view of a parent clock. It forwards charges to the
/// parent, sharing its global spent/exhausted view (so layers like the
/// runner's mid-measurement expiry checks behave identically), and tallies
/// the charges made through *this* view: one per measurement gives the
/// scheduler the exact budget cost of that evaluation, whatever evaluator
/// layers charged it. With a null parent it is a free-standing tally with
/// an unlimited budget.
///
/// An optional deadline caps what the evaluation may consume. Once the
/// tally reaches it, charges are clamped so the parent is never billed
/// past it, exhausted() reports true (which the runner's between-repetition
/// expiry check turns into a cutoff), and the optional CancellationToken is
/// cancelled so cooperative layers below stop early. This is how the
/// resilience layer turns an injected hang — a single lump charge of the
/// full hang timeout — into a bounded, classified kTimeout instead of a
/// budget sinkhole.
class MeteredBudget final : public BudgetClock {
 public:
  explicit MeteredBudget(BudgetClock* parent,
                         SimTime deadline = SimTime::infinite(),
                         CancellationToken* token = nullptr)
      : BudgetClock(parent != nullptr ? parent->total() : SimTime::infinite()),
        parent_(parent),
        deadline_us_(deadline.as_micros()),
        token_(token) {}

  SimTime spent() const override {
    return parent_ != nullptr ? parent_->spent() : metered();
  }

  bool exhausted() const override {
    return tripped() || (parent_ != nullptr && parent_->exhausted());
  }

  void charge(SimTime cost) override {
    const std::int64_t us = cost.as_micros();
    const std::int64_t before =
        metered_us_.fetch_add(us, std::memory_order_relaxed);
    // What the deadline still allows: compared with the charge, never
    // summed with it, so the unlimited deadline (INT64_MAX µs) cannot
    // overflow.
    const std::int64_t room =
        before >= deadline_us_ ? 0 : deadline_us_ - before;
    if (us >= room && token_ != nullptr) token_->cancel();
    const std::int64_t allowed = std::min(us, room);
    if (allowed > 0 && parent_ != nullptr) {
      parent_->charge(SimTime::micros(allowed));
    }
  }

  /// Total this evaluation attempted to charge (uncapped).
  SimTime metered() const {
    return SimTime::micros(metered_us_.load(std::memory_order_relaxed));
  }
  /// True once the deadline has been hit.
  bool tripped() const {
    return metered_us_.load(std::memory_order_relaxed) >= deadline_us_;
  }

 private:
  BudgetClock* parent_;
  std::int64_t deadline_us_;
  CancellationToken* token_;
  std::atomic<std::int64_t> metered_us_{0};
};

}  // namespace jat
