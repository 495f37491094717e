// The simulator output pin's configuration corpus, shared by the pins that
// guard the simulator (test_engine.cpp) and the flag readers in front of it
// (test_flag_readers.cpp): every suite program with the default
// configuration and kConfigsPerProgram seeded random ones. Never change
// the corpus: the pinned hashes are computed over exactly these values.
#pragma once

#include <utility>
#include <vector>

#include "flags/hierarchy.hpp"
#include "support/rng.hpp"
#include "tuner/search_space.hpp"
#include "workloads/suites.hpp"

namespace jat {

inline constexpr int kConfigsPerProgram = 20;

inline std::vector<std::pair<const WorkloadSpec*, std::vector<Configuration>>>
pin_corpus() {
  constexpr double kDensities[] = {0.05, 0.15, 0.3};
  std::vector<const WorkloadSpec*> programs;
  for (const WorkloadSpec& w : specjvm2008_startup()) programs.push_back(&w);
  for (const WorkloadSpec& w : dacapo()) programs.push_back(&w);

  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(0x70696e5f32303135ULL);  // "pin_2015"
  std::vector<std::pair<const WorkloadSpec*, std::vector<Configuration>>>
      corpus;
  for (const WorkloadSpec* program : programs) {
    std::vector<Configuration> configs{Configuration(FlagRegistry::hotspot())};
    for (int i = 0; i < kConfigsPerProgram; ++i) {
      configs.push_back(space.random_config(rng, kDensities[i % 3]));
    }
    corpus.emplace_back(program, std::move(configs));
  }
  return corpus;
}

}  // namespace jat
