#include "tuner/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace jat {

namespace {
constexpr double kInitialTempFrac = 0.08;  ///< of the default objective
constexpr double kStructureProbability = 0.06;
}  // namespace

// Speculative annealing: ask() emits mutations of the current point,
// tell() runs the Metropolis acceptance with the temperature taken from
// *committed* budget consumption (deterministic across eval_threads).
// Accepted moves re-seat the base point for subsequent proposals; the
// handful still in flight were speculated from the previous point, which
// is just the usual annealing walk with slightly stale parents.
struct SimulatedAnnealing::Impl {
  Configuration current;
  double current_objective = 0.0;
  double initial_temp = 1000.0;

  explicit Impl(Configuration seed, double objective)
      : current(std::move(seed)), current_objective(objective) {}
};

SimulatedAnnealing::SimulatedAnnealing() = default;
SimulatedAnnealing::~SimulatedAnnealing() = default;

std::string SimulatedAnnealing::name() const { return "annealing"; }

void SimulatedAnnealing::begin(StrategyContext& ctx) {
  SearchStrategy::begin(ctx);
  ctx.set_phase("annealing");
  impl_ = std::make_unique<Impl>(ctx.best_config(), ctx.best_objective());
  impl_->initial_temp = std::isfinite(impl_->current_objective)
                            ? impl_->current_objective * kInitialTempFrac
                            : 1000.0;
}

void SimulatedAnnealing::ask(std::vector<Proposal>& out, std::size_t max) {
  Impl& s = *impl_;
  while (out.size() < max) {
    Configuration candidate = s.current;
    if (ctx().rng().chance(kStructureProbability)) {
      ctx().space().mutate_structure(candidate, ctx().rng());
    } else {
      const int flags = 1 + static_cast<int>(ctx().rng().next_below(3));
      ctx().space().mutate(candidate, ctx().rng(), flags);
    }
    out.emplace_back(std::move(candidate));
  }
}

void SimulatedAnnealing::tell(const Observation& observation) {
  Impl& s = *impl_;
  // Geometric cooling driven by committed budget consumption.
  const double temp = s.initial_temp * std::pow(0.01, ctx().progress());

  bool accept = observation.objective < s.current_objective;
  if (!accept && std::isfinite(observation.objective) && temp > 0.0) {
    accept = ctx().rng().chance(
        std::exp(-(observation.objective - s.current_objective) / temp));
  }
  if (accept) {
    s.current = *observation.config;
    s.current_objective = observation.objective;
  }
}

}  // namespace jat
