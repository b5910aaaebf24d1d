//===- programs_test.cpp - Benchmark program validation -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Compiles and runs every Table 3 benchmark program at the baseline and
/// at configuration C, checking that both halt, produce identical
/// output, and that configuration C never does worse on singleton
/// memory references.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <gtest/gtest.h>

using namespace ipra;
using namespace ipra::bench;

namespace {

class ProgramTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ProgramTest, BaselineRuns) {
  auto Sources = loadProgram(GetParam());
  BuildResult R = Pipeline(PipelineConfig::baseline()).build(Sources);
  RunResult Run = R.ok() ? runExecutable(R.Exe) : RunResult();
  ASSERT_TRUE(R.ok()) << R.text();
  ASSERT_TRUE(Run.Halted)
      << Run.Trap << (Run.OutOfFuel ? " (out of fuel)" : "");
  EXPECT_FALSE(Run.Output.empty());
  EXPECT_EQ(Run.ExitCode, 0);
  // Keep the simulation budget sane: under 100M cycles per program.
  EXPECT_LT(Run.Stats.Cycles, 100'000'000);
  EXPECT_GT(Run.Stats.Cycles, 1'000);
}

TEST_P(ProgramTest, ConfigCMatchesBaselineOutput) {
  auto Sources = loadProgram(GetParam());
  BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
  RunResult BaseRun = Base.ok() ? runExecutable(Base.Exe) : RunResult();
  ASSERT_TRUE(Base.ok()) << Base.text();
  ASSERT_TRUE(BaseRun.Halted) << BaseRun.Trap;

  BuildResult WithC = Pipeline(PipelineConfig::configC()).build(Sources);
  RunResult WithCRun = WithC.ok() ? runExecutable(WithC.Exe) : RunResult();
  ASSERT_TRUE(WithC.ok()) << WithC.text();
  ASSERT_TRUE(WithCRun.Halted) << WithCRun.Trap;

  EXPECT_EQ(WithCRun.Output, BaseRun.Output);
  EXPECT_EQ(WithCRun.ExitCode, BaseRun.ExitCode);
  // Promotion must not add singleton references.
  EXPECT_LE(WithCRun.Stats.SingletonRefs, BaseRun.Stats.SingletonRefs);
}

TEST_P(ProgramTest, AllRemainingConfigsMatch) {
  auto Sources = loadProgram(GetParam());
  BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
  RunResult BaseRun = Base.ok() ? runExecutable(Base.Exe) : RunResult();
  ASSERT_TRUE(BaseRun.Halted) << BaseRun.Trap;
  ProfileData Profile = BaseRun.Profile;

  struct Named {
    const char *Name;
    PipelineConfig Config;
  };
  const Named Configs[] = {
      {"A", PipelineConfig::configA()},
      {"B", PipelineConfig::configB()},
      {"D", PipelineConfig::configD()},
      {"E", PipelineConfig::configE()},
      {"F", PipelineConfig::configF()},
  };
  for (const Named &N : Configs) {
    BuildResult R = Pipeline(N.Config).build(Sources, &Profile);
    RunResult Run = R.ok() ? runExecutable(R.Exe) : RunResult();
    ASSERT_TRUE(R.ok())
        << N.Name << ": " << R.text();
    ASSERT_TRUE(Run.Halted) << N.Name << ": " << Run.Trap;
    EXPECT_EQ(Run.Output, BaseRun.Output) << "config " << N.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ProgramTest,
                         ::testing::Values("dhry", "fgrep", "othello",
                                           "war", "crtool", "protoc",
                                           "paopt", "disp"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
