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
// without modifying any layer.
#pragma once

#include <atomic>
#include <cstdint>

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
class MeteredBudget final : public BudgetClock {
 public:
  explicit MeteredBudget(BudgetClock* parent)
      : BudgetClock(parent != nullptr ? parent->total() : SimTime::infinite()),
        parent_(parent) {}

  SimTime spent() const override {
    return parent_ != nullptr ? parent_->spent() : metered();
  }

  bool exhausted() const override {
    return parent_ != nullptr && parent_->exhausted();
  }

  void charge(SimTime cost) override {
    metered_us_.fetch_add(cost.as_micros(), std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->charge(cost);
  }

  /// Total this evaluation charged.
  SimTime metered() const {
    return SimTime::micros(metered_us_.load(std::memory_order_relaxed));
  }

 private:
  BudgetClock* parent_;
  std::atomic<std::int64_t> metered_us_{0};
};

}  // namespace jat
