// Warm-start transfer seeding: replay prior configurations before search.
//
// A session given a cross-session store (harness/store.hpp) does not start
// from the default configuration's neighborhood: the best known configs for
// its workload — and for structurally similar workloads — are proposed
// first, as ordinary evaluations in a "warm_start" phase, and their results
// absorbed into the incumbent *before* the wrapped strategy's begin().
// Strategies that seed from ctx.best_config() (hill climbing, the
// hierarchical tuner's subtree phases) therefore start in the best known
// region. With store reads enabled the seed evaluations are store hits and
// charge zero budget; the transfer is free.
//
// This is a decorator, not a strategy of its own: name() forwards to the
// wrapped strategy (journal metadata and CSV tuner labels are unchanged),
// and observation ids are shifted so the inner strategy sees the same
// 0-based id stream it would see without seeding — its trajectory, given
// the warmed incumbent, is independent of the seed count.
#pragma once

#include <vector>

#include "tuner/strategy.hpp"

namespace jat {

class WarmStartStrategy : public SearchStrategy {
 public:
  /// Decorates `inner` (not owned; must outlive this object) with a seed
  /// replay prefix.
  WarmStartStrategy(SearchStrategy& inner, std::vector<Configuration> seeds);

  std::string name() const override;
  void begin(StrategyContext& ctx) override;
  void ask(std::vector<Proposal>& out, std::size_t max) override;
  void tell(const Observation& observation) override;
  void finish() override;

 private:
  SearchStrategy* inner_;
  std::vector<Configuration> seeds_;
  std::size_t asked_ = 0;  ///< seeds proposed so far
  std::size_t told_ = 0;   ///< seed observations absorbed so far
  bool inner_begun_ = false;
};

}  // namespace jat
