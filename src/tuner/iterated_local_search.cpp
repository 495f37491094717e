// Iterated local search (ParamILS-style): first-improvement local descent
// from the incumbent, then a perturbation kick (several simultaneous
// mutations, occasionally structural), accepting the new local optimum if
// it beats the old one. A standard algorithm-configuration baseline that
// sits between hill climbing and the GA in exploration strength.
//
// Ask/tell port: descent moves speculate around the current point; a kick
// bumps the epoch (stale descent results are ignored by tag) and proposes
// the kicked configuration as an anchor, whose in-order result re-seats
// the descent baseline before any follow-up arrives.
#include "tuner/algorithms.hpp"

#include <limits>
#include <utility>

namespace jat {

namespace {
constexpr int kDescentPatience = 25;  ///< consecutive failures ending a descent
constexpr int kKickStrength = 6;      ///< simultaneous mutations per kick
constexpr double kStructureKickProbability = 0.15;
}  // namespace

struct IteratedLocalSearch::Impl {
  Configuration home;
  double home_objective = std::numeric_limits<double>::infinity();
  Configuration current;
  double current_objective = std::numeric_limits<double>::infinity();
  int failures = 0;
  std::uint64_t epoch = 0;
  bool anchor_pending = false;

  Impl(Configuration seed, double objective)
      : home(seed),
        home_objective(objective),
        current(std::move(seed)),
        current_objective(objective) {}

  std::uint64_t tag(bool anchor) const { return (epoch << 1) | (anchor ? 1 : 0); }
};

IteratedLocalSearch::IteratedLocalSearch() = default;
IteratedLocalSearch::~IteratedLocalSearch() = default;

std::string IteratedLocalSearch::name() const { return "ils"; }

void IteratedLocalSearch::begin(StrategyContext& ctx) {
  SearchStrategy::begin(ctx);
  ctx.set_phase("ils");
  impl_ = std::make_unique<Impl>(ctx.best_config(), ctx.best_objective());
}

void IteratedLocalSearch::ask(std::vector<Proposal>& out, std::size_t max) {
  Impl& s = *impl_;
  if (s.anchor_pending && out.size() < max) {
    out.emplace_back(s.current, s.tag(true));
    s.anchor_pending = false;
  }
  while (out.size() < max) {
    Configuration candidate = s.current;
    ctx().space().mutate(candidate, ctx().rng(), 1,
                         ctx().rng().chance(0.3) ? 2.0 : 1.0);
    out.emplace_back(std::move(candidate), s.tag(false));
  }
}

void IteratedLocalSearch::tell(const Observation& observation) {
  Impl& s = *impl_;
  const std::uint64_t epoch = observation.tag >> 1;
  if (epoch != s.epoch) return;  // speculated before a kick
  if ((observation.tag & 1) != 0) {
    // The kicked configuration's own result: descent baseline for the
    // follow-ups already speculated from it.
    s.current_objective = observation.objective;
    return;
  }
  if (observation.objective < s.current_objective) {
    s.current = *observation.config;
    s.current_objective = observation.objective;
    s.failures = 0;
    return;
  }
  if (++s.failures < kDescentPatience) return;

  // Descent over. Better-acceptance, then a perturbation kick.
  if (s.current_objective < s.home_objective) {
    s.home = s.current;
    s.home_objective = s.current_objective;
  }
  ++s.epoch;
  s.current = s.home;
  if (ctx().rng().chance(kStructureKickProbability)) {
    ctx().space().mutate_structure(s.current, ctx().rng());
  }
  ctx().space().mutate(s.current, ctx().rng(), kKickStrength, 2.0);
  s.current_objective = std::numeric_limits<double>::infinity();
  s.anchor_pending = true;
  s.failures = 0;
}

}  // namespace jat
