// The tuner zoo: the paper's hierarchical auto-tuner plus the baselines
// the evaluation compares against.
//
// Every algorithm is a native ask/tell SearchStrategy (tuner/strategy.hpp):
// ask() emits candidate configurations, tell() folds results back in, and
// the EvalScheduler pipelines measurement around them. Point-based
// algorithms emit speculative proposals (several mutations of the current
// point in flight at once, (1+λ)-style); population and sweep algorithms
// emit their natural batches. Restart-style moves use "anchor" proposals —
// in-order tell delivery guarantees the anchor's result arrives before any
// follow-up proposed after it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tuner/strategy.hpp"

namespace jat {

/// Flat random sampling. `density` is the fraction of flags randomised per
/// candidate; `flat` ignores the hierarchy entirely (can emit non-startable
/// configurations — the classic failure of naive whole-JVM search).
/// Candidates come from per-proposal RNG streams, so the sampled sequence
/// does not even depend on the in-flight window size.
class RandomSearch : public SearchStrategy {
 public:
  explicit RandomSearch(double density = 1.0, bool flat = false)
      : density_(density), flat_(flat) {}
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  double density_;
  bool flat_;
  std::uint64_t next_proposal_ = 0;
};

/// First-improvement hill climbing from the incumbent, with occasional
/// structural moves and random restarts on stagnation.
class HillClimber : public SearchStrategy {
 public:
  HillClimber();
  ~HillClimber() override;
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Simulated annealing; temperature decays with committed budget
/// consumption.
class SimulatedAnnealing : public SearchStrategy {
 public:
  SimulatedAnnealing();
  ~SimulatedAnnealing() override;
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Generational GA with tournament selection, uniform crossover, elitism.
/// A generation streams through the scheduler window; breeding happens at
/// the generation barrier (all results in). `flat` swaps in the
/// structure-blind operators (bench_t5's "genetic-flat" baseline).
class GeneticTuner : public SearchStrategy {
 public:
  explicit GeneticTuner(bool flat = false);
  ~GeneticTuner() override;
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  struct Impl;
  bool flat_;
  std::unique_ptr<Impl> impl_;
};

/// OpenTuner-style ensemble: a sliding-window AUC bandit arbitrates among
/// mutation/crossover/random/structure operators.
class BanditEnsemble : public SearchStrategy {
 public:
  BanditEnsemble();
  ~BanditEnsemble() override;
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Iterated local search (ParamILS-style): local first-improvement
/// descent, perturbation kicks, better-acceptance between basins.
class IteratedLocalSearch : public SearchStrategy {
 public:
  IteratedLocalSearch();
  ~IteratedLocalSearch() override;
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The paper's Hot Spot Auto-tuner: explore the structural flag
/// combinations first (collector, tiered JIT, VM/exec mode), then descend
/// into the hierarchy nodes those choices activate with coordinate search,
/// then refine by hill climbing until the budget runs out. The structural
/// sweep and the per-flag candidate probes are speculative multi-proposal
/// asks; geometric line searches extend in speculative chunks.
class HierarchicalTuner : public SearchStrategy {
 public:
  /// bench_f7's ablation switches.
  struct Options {
    bool structural_first = true;  ///< false: skip the structural phase
    bool gate_subtrees = true;     ///< false: tune inactive flags too
  };
  HierarchicalTuner();
  explicit HierarchicalTuner(Options options);
  ~HierarchicalTuner() override;
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  struct Impl;
  Options options_;
  std::unique_ptr<Impl> impl_;
};

/// Prior-work baseline: tunes only the classic hand-picked subset (heap
/// sizes, young generation, collector choice, GC threads) and nothing else.
class SubsetTuner : public SearchStrategy {
 public:
  SubsetTuner();
  explicit SubsetTuner(std::vector<std::string> flag_names);
  ~SubsetTuner() override;
  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;

 private:
  struct Impl;
  std::vector<std::string> flag_names_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace jat
