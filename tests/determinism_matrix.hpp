// Parameterized determinism matrix: the bit-identity contract, stated once.
//
// Four test files used to carry hand-rolled copies of the same loop — run a
// reference session, rerun it under some execution-mode variation
// (eval_threads, sandbox, an objective, the adaptive policy), and compare
// the outcome and the evaluation log row by row. The copies drifted in
// which fields they compared; this header is the consolidation. A test
// states the *matrix* (which execution modes must not change the
// trajectory) and the helper asserts the full contract for every cell:
//
//   - incumbent fingerprint, validated default/best objectives
//   - evaluation, run, simulation, cache-hit, store-hit and
//     charged-evaluation counters, and the budget spent
//   - the ResultDb log row for row: fingerprint, objective, phase,
//     attempts, stop reason, budget position
//
// Budget positions are compared in every cell, threaded ones included:
// each row records the committed ledger (TuningContext::committed_spent()),
// never the live clock that in-flight evaluations on other threads charge.
//
// Execution modes live here; *trajectory* inputs (seed, budget, inflight,
// racing, objective, store) belong in the base SessionOptions the caller
// fixes for the whole matrix.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tuner/session.hpp"
#include "tuner/strategy.hpp"
#include "tuner/suite_session.hpp"
#include "workloads/workload.hpp"

namespace jat {

/// One execution-mode cell: these settings must not change the trajectory.
struct DeterminismCase {
  std::size_t eval_threads = 0;
  bool sandbox = false;
  std::size_t sandbox_workers = 2;

  std::string label() const {
    std::string out = "eval_threads=" + std::to_string(eval_threads);
    if (sandbox) {
      out += " sandbox(workers=" + std::to_string(sandbox_workers) + ")";
    }
    return out;
  }
};

/// The reference cell plus the variations. The reference is always
/// (eval_threads=0, no sandbox) with the caller's base options.
struct DeterminismMatrix {
  std::vector<DeterminismCase> cases;
  /// Compare per-row stop reasons (meaningful when the adaptive
  /// measurement policy is on; kFull everywhere otherwise).
  bool compare_stop = false;
};

using StrategyFactory = std::function<std::unique_ptr<SearchStrategy>()>;

/// Asserts that `got` reproduces `reference` bit for bit under the matrix
/// contract. Exposed separately so tests that construct sessions in
/// nonstandard ways (resume, suite) can reuse the comparison.
inline void expect_identical_outcome(const TuningOutcome& reference,
                                     const TuningOutcome& got,
                                     const DeterminismMatrix& matrix,
                                     const std::string& label) {
  EXPECT_EQ(got.best_config.fingerprint(), reference.best_config.fingerprint())
      << label;
  EXPECT_EQ(got.default_ms, reference.default_ms) << label;
  EXPECT_EQ(got.best_ms, reference.best_ms) << label;
  EXPECT_EQ(got.evaluations, reference.evaluations) << label;
  EXPECT_EQ(got.runs, reference.runs) << label;
  EXPECT_EQ(got.simulations, reference.simulations) << label;
  EXPECT_EQ(got.cache_hits, reference.cache_hits) << label;
  EXPECT_EQ(got.store_hits, reference.store_hits) << label;
  EXPECT_EQ(got.warm_seeds, reference.warm_seeds) << label;
  EXPECT_EQ(got.charged_evaluations, reference.charged_evaluations) << label;
  EXPECT_EQ(got.budget_spent, reference.budget_spent) << label;

  ASSERT_NE(reference.db, nullptr) << label;
  ASSERT_NE(got.db, nullptr) << label;
  ASSERT_EQ(got.db->size(), reference.db->size()) << label;
  for (std::size_t i = 0; i < reference.db->size(); ++i) {
    const EvalRecord a = reference.db->get(i);
    const EvalRecord b = got.db->get(i);
    EXPECT_EQ(b.fingerprint, a.fingerprint) << label << " row " << i;
    EXPECT_EQ(b.objective_ms, a.objective_ms) << label << " row " << i;
    EXPECT_EQ(b.phase, a.phase) << label << " row " << i;
    EXPECT_EQ(b.attempts, a.attempts) << label << " row " << i;
    if (matrix.compare_stop) {
      EXPECT_EQ(b.stop, a.stop) << label << " row " << i;
    }
    EXPECT_EQ(b.budget_spent, a.budget_spent) << label << " row " << i;
  }
}

/// Runs the reference session and every matrix cell with a fresh strategy,
/// asserting the full bit-identity contract per cell. Returns the reference
/// outcome so callers can make additional assertions on it.
inline TuningOutcome run_determinism_matrix(const JvmSimulator& simulator,
                                            const WorkloadSpec& workload,
                                            const SessionOptions& base,
                                            const StrategyFactory& make_strategy,
                                            const DeterminismMatrix& matrix,
                                            const std::string& tag = {}) {
  SessionOptions reference_options = base;
  reference_options.eval_threads = 0;
  reference_options.sandbox = false;
  TuningSession reference_session(simulator, workload, reference_options);
  auto reference_strategy = make_strategy();
  if (reference_strategy == nullptr) {
    ADD_FAILURE() << "null strategy for " << tag;
    throw std::runtime_error("determinism matrix: null strategy");
  }
  const TuningOutcome reference = reference_session.run(*reference_strategy);
  EXPECT_GE(reference.evaluations, 2) << tag;

  for (const DeterminismCase& cell : matrix.cases) {
    SessionOptions options = base;
    options.eval_threads = cell.eval_threads;
    options.sandbox = cell.sandbox;
    if (cell.sandbox) options.sandbox_options.workers = cell.sandbox_workers;
    TuningSession session(simulator, workload, options);
    auto strategy = make_strategy();
    const TuningOutcome outcome = session.run(*strategy);
    const std::string label =
        tag.empty() ? cell.label() : tag + " " + cell.label();
    expect_identical_outcome(reference, outcome, matrix, label);
  }
  return reference;
}

// ---- suite sessions ----------------------------------------------------------

/// A three-program suite small enough for exhaustive suite tests: one
/// allocation-bound, one code-bound, one flat member.
inline std::vector<WorkloadSpec> mini_suite() {
  const auto mini = [](const char* name, double alloc_kib, int methods) {
    WorkloadSpec w;
    w.name = name;
    w.total_work = 400;
    w.startup_work = 80;
    w.startup_classes = 1200;
    w.alloc_rate = alloc_kib * 1024;
    w.method_count = methods;
    w.noise_sigma = 0.01;
    return w;
  };
  return {mini("mini-alloc", 900, 2500), mini("mini-code", 150, 9000),
          mini("mini-flat", 300, 4000)};
}

/// The suite form of the contract: incumbent, geomean ratio, per-member
/// improvements, every outcome counter, and the log row by row.
inline void expect_identical_outcome(const SuiteOutcome& reference,
                                     const SuiteOutcome& got,
                                     const DeterminismMatrix& matrix,
                                     const std::string& label) {
  EXPECT_EQ(got.best_config.fingerprint(), reference.best_config.fingerprint())
      << label;
  EXPECT_EQ(got.geomean_ratio, reference.geomean_ratio) << label;
  EXPECT_EQ(got.per_workload_improvement, reference.per_workload_improvement)
      << label;
  EXPECT_EQ(got.workload_names, reference.workload_names) << label;
  EXPECT_EQ(got.evaluations, reference.evaluations) << label;
  EXPECT_EQ(got.simulations, reference.simulations) << label;
  EXPECT_EQ(got.store_hits, reference.store_hits) << label;
  EXPECT_EQ(got.store_appends, reference.store_appends) << label;
  EXPECT_EQ(got.warm_seeds, reference.warm_seeds) << label;
  EXPECT_EQ(got.charged_evaluations, reference.charged_evaluations) << label;
  EXPECT_EQ(got.cancelled, reference.cancelled) << label;
  EXPECT_EQ(got.budget_spent, reference.budget_spent) << label;

  ASSERT_NE(reference.db, nullptr) << label;
  ASSERT_NE(got.db, nullptr) << label;
  ASSERT_EQ(got.db->size(), reference.db->size()) << label;
  for (std::size_t i = 0; i < reference.db->size(); ++i) {
    const EvalRecord a = reference.db->get(i);
    const EvalRecord b = got.db->get(i);
    EXPECT_EQ(b.fingerprint, a.fingerprint) << label << " row " << i;
    EXPECT_EQ(b.objective_ms, a.objective_ms) << label << " row " << i;
    EXPECT_EQ(b.phase, a.phase) << label << " row " << i;
    EXPECT_EQ(b.attempts, a.attempts) << label << " row " << i;
    if (matrix.compare_stop) {
      EXPECT_EQ(b.stop, a.stop) << label << " row " << i;
    }
    EXPECT_EQ(b.budget_spent, a.budget_spent) << label << " row " << i;
  }
}

/// run_determinism_matrix() for a SuiteTuningSession over `suite`.
inline SuiteOutcome run_determinism_matrix(
    const JvmSimulator& simulator, const std::vector<WorkloadSpec>& suite,
    const SessionOptions& base, const StrategyFactory& make_strategy,
    const DeterminismMatrix& matrix, const std::string& tag = {}) {
  SessionOptions reference_options = base;
  reference_options.eval_threads = 0;
  reference_options.sandbox = false;
  SuiteTuningSession reference_session(simulator, suite, reference_options);
  auto reference_strategy = make_strategy();
  if (reference_strategy == nullptr) {
    ADD_FAILURE() << "null strategy for " << tag;
    throw std::runtime_error("determinism matrix: null strategy");
  }
  const SuiteOutcome reference = reference_session.run(*reference_strategy);
  EXPECT_GE(reference.evaluations, 2) << tag;

  for (const DeterminismCase& cell : matrix.cases) {
    SessionOptions options = base;
    options.eval_threads = cell.eval_threads;
    options.sandbox = cell.sandbox;
    if (cell.sandbox) options.sandbox_options.workers = cell.sandbox_workers;
    SuiteTuningSession session(simulator, suite, options);
    auto strategy = make_strategy();
    const SuiteOutcome outcome = session.run(*strategy);
    const std::string label =
        tag.empty() ? cell.label() : tag + " " + cell.label();
    expect_identical_outcome(reference, outcome, matrix, label);
  }
  return reference;
}

}  // namespace jat
