// OpenTuner-style technique ensemble with a sliding-window AUC credit
// bandit: each operator earns credit when the candidate it produced
// improves on its parent, weighted toward recent outcomes; operator choice
// maximises credit plus an exploration bonus.
//
// Ask/tell split: ask() picks the operator from the current credit state
// and generates the candidate (tagging the proposal with the operator id);
// tell() pays the credit and advances the current point. Proposals in
// flight together read the same credit snapshot — the bandit learns at
// window granularity, which is the standard batched-bandit compromise.
#include "tuner/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

namespace jat {

namespace {

constexpr std::size_t kWindow = 60;  ///< outcomes remembered per operator
constexpr double kExploration = 0.3;

struct OperatorStats {
  std::deque<bool> window;  ///< recent outcomes (true = improved)
  std::size_t uses = 0;

  /// Area-under-curve credit: recent successes weigh more.
  double auc() const {
    if (window.empty()) return 0.0;
    double credit = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < window.size(); ++i) {
      const double weight = static_cast<double>(i + 1);
      credit += weight * (window[i] ? 1.0 : 0.0);
      norm += weight;
    }
    return credit / norm;
  }
};

enum Op : std::size_t {
  kMutateSmall = 0,
  kMutateLarge,
  kMutateWide,
  kStructure,
  kCrossRandom,
  kRandom,
  kOpCount,
};

}  // namespace

struct BanditEnsemble::Impl {
  std::vector<OperatorStats> stats{kOpCount};
  std::size_t total_uses = 0;
  Configuration current;
  double current_objective = 0.0;

  explicit Impl(Configuration seed, double objective)
      : current(std::move(seed)), current_objective(objective) {}
};

BanditEnsemble::BanditEnsemble() = default;
BanditEnsemble::~BanditEnsemble() = default;

std::string BanditEnsemble::name() const { return "bandit"; }

void BanditEnsemble::begin(StrategyContext& ctx) {
  SearchStrategy::begin(ctx);
  ctx.set_phase("bandit");
  impl_ = std::make_unique<Impl>(ctx.best_config(), ctx.best_objective());
}

void BanditEnsemble::ask(std::vector<Proposal>& out, std::size_t max) {
  Impl& s = *impl_;
  while (out.size() < max) {
    // Pick the operator with the best credit + exploration bonus.
    std::size_t op = 0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < s.stats.size(); ++i) {
      const double bonus =
          kExploration *
          std::sqrt(std::log(static_cast<double>(s.total_uses + 2)) /
                    static_cast<double>(s.stats[i].uses + 1));
      const double score = s.stats[i].auc() + bonus;
      if (score > best_score) {
        best_score = score;
        op = i;
      }
    }

    Configuration candidate = s.current;
    switch (static_cast<Op>(op)) {
      case kMutateSmall:
        ctx().space().mutate(candidate, ctx().rng(), 1, 0.5);
        break;
      case kMutateLarge:
        ctx().space().mutate(candidate, ctx().rng(), 3, 1.0);
        break;
      case kMutateWide:
        ctx().space().mutate(candidate, ctx().rng(), 6, 2.0);
        break;
      case kStructure:
        ctx().space().mutate_structure(candidate, ctx().rng());
        break;
      case kCrossRandom: {
        const Configuration mate =
            ctx().space().random_config(ctx().rng(), 0.15);
        candidate = ctx().space().crossover(s.current, mate, ctx().rng());
        break;
      }
      case kRandom:
        candidate = ctx().space().random_config(ctx().rng(), 0.15);
        break;
      case kOpCount:
        break;
    }

    out.emplace_back(std::move(candidate), op);
    // Count the pick immediately so concurrent proposals spread across
    // operators instead of all draining the same exploration bonus.
    ++s.stats[op].uses;
    ++s.total_uses;
  }
}

void BanditEnsemble::tell(const Observation& observation) {
  Impl& s = *impl_;
  const bool improved = observation.objective < s.current_objective;
  OperatorStats& op = s.stats[observation.tag];
  op.window.push_back(improved);
  if (op.window.size() > kWindow) op.window.pop_front();
  if (improved) {
    s.current = *observation.config;
    s.current_objective = observation.objective;
  }
}

}  // namespace jat
