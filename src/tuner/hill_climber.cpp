#include "tuner/algorithms.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace jat {

namespace {
constexpr int kStagnationLimit = 40;  ///< failures before a restart
constexpr double kStructureProbability = 0.08;
}  // namespace

// Speculative (1+λ) hill climbing: ask() emits several mutations of the
// current point at once; tell() folds results back in first-improvement
// order. A restart bumps the epoch — results from pre-restart proposals
// carry the old epoch in their tag and are ignored — and proposes the
// restart point itself as an "anchor" whose objective (delivered before
// any follow-up, by the in-order tell guarantee) re-seats the comparison
// baseline.
struct HillClimber::Impl {
  Configuration current;
  double current_objective = std::numeric_limits<double>::infinity();
  int stagnation = 0;
  std::uint64_t epoch = 0;
  bool anchor_pending = false;

  explicit Impl(Configuration seed, double objective)
      : current(std::move(seed)), current_objective(objective) {}

  std::uint64_t tag(bool anchor) const { return (epoch << 1) | (anchor ? 1 : 0); }
};

HillClimber::HillClimber() = default;
HillClimber::~HillClimber() = default;

std::string HillClimber::name() const { return "hillclimb"; }

void HillClimber::begin(StrategyContext& ctx) {
  SearchStrategy::begin(ctx);
  ctx.set_phase("hillclimb");
  impl_ = std::make_unique<Impl>(ctx.best_config(), ctx.best_objective());
}

void HillClimber::ask(std::vector<Proposal>& out, std::size_t max) {
  Impl& s = *impl_;
  if (s.anchor_pending && out.size() < max) {
    out.emplace_back(s.current, s.tag(true));
    s.anchor_pending = false;
  }
  while (out.size() < max) {
    Configuration candidate = s.current;
    if (ctx().rng().chance(kStructureProbability)) {
      ctx().space().mutate_structure(candidate, ctx().rng());
    } else {
      const int flags = 1 + static_cast<int>(ctx().rng().next_below(3));
      ctx().space().mutate(candidate, ctx().rng(), flags);
    }
    out.emplace_back(std::move(candidate), s.tag(false));
  }
}

void HillClimber::tell(const Observation& observation) {
  Impl& s = *impl_;
  const std::uint64_t epoch = observation.tag >> 1;
  if (epoch != s.epoch) return;  // speculated before a restart
  if ((observation.tag & 1) != 0) {
    // Restart anchor: its objective becomes the comparison baseline for
    // the descendants already speculated from it.
    s.current_objective = observation.objective;
    return;
  }
  if (observation.objective < s.current_objective) {
    s.current = *observation.config;
    s.current_objective = observation.objective;
    s.stagnation = 0;
  } else if (++s.stagnation >= kStagnationLimit) {
    // Restart from a lightly-randomised incumbent.
    ++s.epoch;
    s.current = ctx().best_config();
    ctx().space().mutate(s.current, ctx().rng(), 5, 2.0);
    s.current_objective = std::numeric_limits<double>::infinity();
    s.anchor_pending = true;
    s.stagnation = 0;
  }
}

}  // namespace jat
