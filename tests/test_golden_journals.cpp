// Compatibility with journals already on disk: tests/golden/journal_*.jsonl
// were written by an earlier jat_tune build, each SIGKILLed (via
// --kill-after-evals) a few dozen evaluations into its session. Resuming
// one with this build must reach the outcome of an uninterrupted run:
// byte-identical tuned flags and evaluation log. The test drives the
// jat_tune binary itself, so the command line's restore of the journaled
// options from the metadata record is under test along with the session.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "jat_tune_cli.hpp"

namespace jat {
namespace {

struct GoldenJournal {
  const char* name;     ///< test suffix
  const char* journal;  ///< file under tests/golden/
  const char* args;     ///< the session the journal was cut from
};

class GoldenJournals : public ::testing::TestWithParam<GoldenJournal> {};

TEST_P(GoldenJournals, ResumeReachesTheUninterruptedOutcome) {
  const GoldenJournal& golden = GetParam();
  const std::string base =
      ::testing::TempDir() + "jat_golden_" + golden.name + "_";
  const std::string journal = base + "journal.jsonl";
  {
    // Resume appends to its journal: work on a copy.
    const std::string original =
        slurp(std::string(JAT_GOLDEN_DIR) + "/" + golden.journal);
    ASSERT_FALSE(original.empty()) << golden.journal;
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << original;
  }

  ASSERT_EQ(jat_tune(std::string(golden.args) + " --out '" + base +
                         "full.flags' --log '" + base + "full.csv'",
                     base + "full.out"),
            0)
      << slurp(base + "full.out");
  ASSERT_EQ(jat_tune("--resume '" + journal + "' --out '" + base +
                         "resumed.flags' --log '" + base + "resumed.csv'",
                     base + "resumed.out"),
            0)
      << slurp(base + "resumed.out");

  EXPECT_EQ(slurp(base + "resumed.flags"), slurp(base + "full.flags"));
  const std::string full_csv = slurp(base + "full.csv");
  ASSERT_FALSE(full_csv.empty());
  EXPECT_EQ(slurp(base + "resumed.csv"), full_csv);
}

INSTANTIATE_TEST_SUITE_P(
    ParentWritten, GoldenJournals,
    ::testing::Values(
        GoldenJournal{"single", "journal_single.jsonl",
                      "--workload startup.serial --budget 20 --seed 7"},
        GoldenJournal{"adaptive_pause_max", "journal_adaptive_pause_max.jsonl",
                      "--workload startup.serial --budget 20 --seed 7 "
                      "--adaptive-reps 6 --objective pause_max"},
        GoldenJournal{"resilient", "journal_resilient.jsonl",
                      "--workload startup.serial --budget 20 --seed 7 "
                      "--resilient"},
        GoldenJournal{"suite", "journal_suite.jsonl",
                      "--suite specjvm2008 --budget 300 --seed 7"}),
    [](const ::testing::TestParamInfo<GoldenJournal>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace jat
