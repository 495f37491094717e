#include "tuner/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace jat {

namespace {

constexpr std::size_t kPopulation = 20;
constexpr std::size_t kElite = 2;
constexpr int kTournament = 3;
constexpr double kCrossoverProbability = 0.7;
constexpr double kStructureProbability = 0.08;
/// Fraction of flags randomised in generation 0's individuals.
constexpr double kInitDensity = 0.10;

/// Index of the tournament winner (lowest objective) among `k` random picks.
std::size_t tournament_pick(const std::vector<double>& fitness, int k, Rng& rng) {
  std::size_t best = rng.next_below(fitness.size());
  for (int i = 1; i < k; ++i) {
    const std::size_t challenger = rng.next_below(fitness.size());
    if (fitness[challenger] < fitness[best]) best = challenger;
  }
  return best;
}

}  // namespace

// A generation streams through the scheduler window (ask() hands out
// members in index order, tagged with their slot); breeding happens at the
// generation barrier, once every member's result has been told. The window
// naturally drains across the barrier and refills from the new generation.
struct GeneticTuner::Impl {
  std::vector<Configuration> population;
  std::vector<double> fitness;
  std::size_t next_to_propose = 0;
  std::size_t results = 0;
};

GeneticTuner::GeneticTuner(bool flat) : flat_(flat) {}
GeneticTuner::~GeneticTuner() = default;

std::string GeneticTuner::name() const {
  return flat_ ? "genetic-flat" : "genetic";
}

void GeneticTuner::begin(StrategyContext& ctx) {
  SearchStrategy::begin(ctx);
  ctx.set_phase("genetic");
  impl_ = std::make_unique<Impl>();
  Impl& s = *impl_;

  // Generation 0: the incumbent plus lightly-randomised individuals.
  s.population.reserve(kPopulation);
  s.population.push_back(ctx.best_config());
  while (s.population.size() < kPopulation) {
    s.population.push_back(
        flat_ ? ctx.space().random_config_flat(ctx.rng(), kInitDensity)
              : ctx.space().random_config(ctx.rng(), kInitDensity));
  }
  s.fitness.assign(kPopulation, std::numeric_limits<double>::infinity());
}

void GeneticTuner::ask(std::vector<Proposal>& out, std::size_t max) {
  Impl& s = *impl_;
  while (out.size() < max && s.next_to_propose < s.population.size()) {
    out.emplace_back(s.population[s.next_to_propose], s.next_to_propose);
    ++s.next_to_propose;
  }
  // Mid-generation with every member in flight: yield until results arrive.
}

void GeneticTuner::tell(const Observation& observation) {
  Impl& s = *impl_;
  s.fitness[observation.tag] = observation.objective;
  if (++s.results < s.population.size()) return;
  if (ctx().exhausted()) return;  // no point breeding a generation nobody runs

  // Rank for elitism.
  std::vector<std::size_t> order(s.population.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return s.fitness[a] < s.fitness[b];
  });

  std::vector<Configuration> next;
  next.reserve(kPopulation);
  for (std::size_t e = 0; e < kElite; ++e) {
    next.push_back(s.population[order[e]]);
  }

  while (next.size() < kPopulation) {
    const std::size_t a = tournament_pick(s.fitness, kTournament, ctx().rng());
    Configuration child = s.population[a];
    if (ctx().rng().chance(kCrossoverProbability)) {
      const std::size_t b =
          tournament_pick(s.fitness, kTournament, ctx().rng());
      child = ctx().space().crossover(s.population[a], s.population[b],
                                      ctx().rng());
    }
    if (!flat_ && ctx().rng().chance(kStructureProbability)) {
      ctx().space().mutate_structure(child, ctx().rng());
    }
    const int flags = 1 + static_cast<int>(ctx().rng().next_below(4));
    if (flat_) {
      ctx().space().mutate_flat(child, ctx().rng(), flags);
    } else {
      ctx().space().mutate(child, ctx().rng(), flags);
    }
    next.push_back(std::move(child));
  }

  s.population = std::move(next);
  s.fitness.assign(kPopulation, std::numeric_limits<double>::infinity());
  s.next_to_propose = 0;
  s.results = 0;
}

}  // namespace jat
