// jat_tune's numeric flags: a value that does not parse whole or lies
// outside the flag's range is a usage error (exit 2, naming the flag)
// before any session starts. Each bad value comes before `--list`, which
// would otherwise print the workloads and exit 0, so a value the parser let
// through fails the test without starting a session.
#include <gtest/gtest.h>

#include <string>

#include "jat_tune_cli.hpp"

namespace jat {
namespace {

struct BadValue {
  const char* name;   ///< test suffix
  const char* flag;
  const char* value;  ///< shell-quoted
};

class NumericFlag : public ::testing::TestWithParam<BadValue> {};

TEST_P(NumericFlag, ExitsTwoNamingTheFlag) {
  const BadValue& bad = GetParam();
  const std::string log = ::testing::TempDir() + "jat_cli_" + bad.name + ".out";
  const int code =
      jat_tune(std::string("--workload startup.serial --budget 20 ") +
                   bad.flag + " " + bad.value + " --list",
               log);
  const std::string output = slurp(log);
  EXPECT_EQ(code, 2) << output;
  EXPECT_NE(output.find(std::string("error: ") + bad.flag), std::string::npos)
      << output;
}

INSTANTIATE_TEST_SUITE_P(
    Rejected, NumericFlag,
    ::testing::Values(
        BadValue{"threads_negative", "--threads", "-1"},
        BadValue{"threads_trailing_text", "--threads", "4x"},
        BadValue{"threads_empty", "--threads", "''"},
        BadValue{"eval_threads_negative", "--eval-threads", "-2"},
        BadValue{"inflight_negative", "--inflight", "-1"},
        BadValue{"inflight_zero", "--inflight", "0"},
        BadValue{"sandbox_workers_negative", "--sandbox-workers", "-1"},
        BadValue{"sandbox_workers_zero", "--sandbox-workers", "0"},
        BadValue{"reps_zero", "--reps", "0"},
        BadValue{"reps_negative", "--reps", "-3"},
        BadValue{"reps_fraction", "--reps", "2.5"},
        BadValue{"adaptive_reps_zero", "--adaptive-reps", "0"},
        BadValue{"budget_zero", "--budget", "0"},
        BadValue{"budget_negative", "--budget", "-20"},
        BadValue{"budget_trailing_text", "--budget", "20min"},
        BadValue{"budget_infinite", "--budget", "inf"},
        BadValue{"seed_negative", "--seed", "-1"},
        BadValue{"warm_start_negative", "--warm-start", "-1"},
        BadValue{"kill_after_evals_negative", "--kill-after-evals", "-25"},
        BadValue{"eval_deadline_negative", "--eval-deadline-s", "-1"},
        BadValue{"rlimit_cpu_negative", "--sandbox-rlimit-cpu", "-1"},
        BadValue{"rlimit_as_negative", "--sandbox-rlimit-as", "-512"},
        BadValue{"kill_rate_above_one", "--sandbox-inject-kill", "1.5"},
        BadValue{"wedge_rate_negative", "--sandbox-inject-wedge", "-0.1"},
        BadValue{"torn_rate_not_a_number", "--sandbox-inject-torn", "nan"},
        BadValue{"race_p_above_one", "--race-p", "2"},
        BadValue{"ci_rel_negative", "--ci-rel", "-0.02"}),
    [](const ::testing::TestParamInfo<BadValue>& info) {
      return std::string(info.param.name);
    });

TEST(NumericFlagRange, EdgeValuesAreAccepted) {
  const std::string log = ::testing::TempDir() + "jat_cli_edges.out";
  EXPECT_EQ(jat_tune("--budget 0.5 --seed 18446744073709551615 --reps 1 "
                     "--threads 0 --inflight 1 --warm-start 0 "
                     "--kill-after-evals 0 --adaptive-reps 1 --ci-rel 0 "
                     "--race-p 1 --sandbox-workers 1 --eval-deadline-s 0 "
                     "--sandbox-rlimit-cpu 0 --sandbox-rlimit-as 0 "
                     "--sandbox-inject-kill 0 --sandbox-inject-wedge 1 "
                     "--sandbox-inject-torn 0.5 --list",
                     log),
            0)
      << slurp(log);
}

}  // namespace
}  // namespace jat
