// T5 — Whole-JVM hierarchical tuning vs baselines at equal budget.
//
// Columns: the paper's tuner (hierarchical), the prior-work subset tuner,
// flat random sampling, a flat GA, and the OpenTuner-style bandit. The
// paper's claim is the left column: considering the entire JVM through the
// flag hierarchy beats both subset tuning and structure-blind search.
#include <memory>
#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "support/statistics.hpp"
#include "support/units.hpp"
#include "workloads/suites.hpp"

int main() {
  using namespace jat;
  const bench::Scale scale = bench::scale_from_env();
  set_log_level(LogLevel::kWarn);

  const std::vector<std::string> programs = {
      "startup.compiler.compiler", "startup.serial", "startup.crypto.rsa",
      "avrora", "pmd", "lusearch"};

  struct Strategy {
    const char* label;
    std::function<std::unique_ptr<SearchStrategy>()> make;
  };
  const std::vector<Strategy> strategies = {
      {"hierarchical", [] { return std::make_unique<HierarchicalTuner>(); }},
      {"subset", [] { return std::make_unique<SubsetTuner>(); }},
      {"random-flat",
       [] { return std::make_unique<RandomSearch>(0.15, /*flat=*/true); }},
      {"genetic-flat",
       [] { return std::make_unique<GeneticTuner>(/*flat=*/true); }},
      {"bandit", [] { return std::make_unique<BanditEnsemble>(); }},
      {"ils", [] { return std::make_unique<IteratedLocalSearch>(); }},
  };

  JvmSimulator simulator;
  std::vector<std::string> header = {"program"};
  for (const auto& s : strategies) header.push_back(s.label);
  TextTable table(header);

  std::vector<RunningStat> by_strategy(strategies.size());
  for (const auto& name : programs) {
    const WorkloadSpec& workload = find_workload(name);
    std::vector<std::string> row = {name};
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      SessionOptions options = bench::session_options(scale);
      options.budget =
          options.budget * std::max(1.0, workload.total_work / 6000.0);
      TuningSession session(simulator, workload, options);
      auto tuner = strategies[s].make();
      const TuningOutcome outcome = session.run(*tuner);
      by_strategy[s].add(outcome.improvement_frac());
      row.push_back(format_percent(outcome.improvement_frac()));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg = {"AVERAGE"};
  for (const auto& stat : by_strategy) avg.push_back(format_percent(stat.mean()));
  table.add_row(std::move(avg));

  bench::emit("T5: improvement by tuning strategy at equal budget (" +
                  scale.budget.to_string() + ")",
              table, "bench_t5_strategies.csv");
  std::printf("paper shape: whole-JVM hierarchical tuning wins on average; "
              "subset tuning and flat search trail\n");
  return 0;
}
