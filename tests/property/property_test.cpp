//===- property_test.cpp - Property-based invariant suites ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Two property families, both parameterized over seeds:
///
///  1. Differential execution: random MiniC programs must behave
///     identically at every analyzer configuration (the master safety
///     property of interprocedural register allocation).
///  2. Analyzer invariants: random call graphs must yield webs,
///     colorings, clusters, and register sets satisfying the §4
///     correctness conditions (checked by the check* helpers).
///
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "core/Analyzer.h"
#include "driver/Driver.h"
#include "ir/IRGen.h"
#include "ir/Interp.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

#include <random>

using namespace ipra;
using ipra::test::generateRandomProgram;

namespace {

//===----------------------------------------------------------------------===//
// Family 1: differential execution of random programs.
//===----------------------------------------------------------------------===//

class DifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialTest, AllConfigsBehaveIdentically) {
  auto Sources = generateRandomProgram(GetParam());

  BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
  RunResult BaseRun = Base.ok() ? runExecutable(Base.Exe) : RunResult();
  ASSERT_TRUE(Base.ok()) << Base.text();
  ASSERT_TRUE(BaseRun.Halted)
      << BaseRun.Trap << (BaseRun.OutOfFuel ? " (fuel)" : "");

  ProfileData Profile = BaseRun.Profile;
  struct Named {
    const char *Name;
    PipelineConfig Config;
  };
  std::vector<Named> Configs = {
      {"A", PipelineConfig::configA()}, {"B", PipelineConfig::configB()},
      {"C", PipelineConfig::configC()}, {"D", PipelineConfig::configD()},
      {"E", PipelineConfig::configE()}, {"F", PipelineConfig::configF()},
  };
  // Also stress the §7.6.2 extensions.
  PipelineConfig Extended = PipelineConfig::configC();
  Extended.RelaxWebAvail = true;
  Extended.ImprovedFreeSets = true;
  Configs.push_back({"C+ext", Extended});
  PipelineConfig WithCSP = PipelineConfig::configC();
  WithCSP.CallerSavePropagation = true;
  Configs.push_back({"C+csp", WithCSP});
  PipelineConfig WithSplit = PipelineConfig::configC();
  WithSplit.Webs.SplitSparseWebs = true;
  Configs.push_back({"C+split", WithSplit});
  PipelineConfig WithMerge = PipelineConfig::configC();
  WithMerge.Webs.RemergeWebs = true;
  Configs.push_back({"C+merge", WithMerge});
  PipelineConfig WithBoth = PipelineConfig::configC();
  WithBoth.Webs.SplitSparseWebs = true;
  WithBoth.Webs.RemergeWebs = true;
  Configs.push_back({"C+split+merge", WithBoth});

  for (const Named &N : Configs) {
    BuildResult R = Pipeline(N.Config).build(Sources, &Profile);
    RunResult Run = R.ok() ? runExecutable(R.Exe) : RunResult();
    ASSERT_TRUE(R.ok()) << "config " << N.Name << ": " << R.text();
    ASSERT_TRUE(Run.Halted) << "config " << N.Name << ": " << Run.Trap;
    ASSERT_EQ(Run.Output, BaseRun.Output) << "config " << N.Name;
    ASSERT_EQ(Run.ExitCode, BaseRun.ExitCode) << "config " << N.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(1u, 101u));

/// The [Wall 86]-style link-time allocator rewrites finished machine
/// code with no IR-level information; random programs (with aliasing,
/// arrays, function pointers, recursion) must behave identically after
/// the rewrite.
class WallDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WallDifferentialTest, LinkTimeAllocationPreservesBehaviour) {
  auto Sources = generateRandomProgram(GetParam());

  BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
  RunResult BaseRun = Base.ok() ? runExecutable(Base.Exe) : RunResult();
  ASSERT_TRUE(Base.ok()) << Base.text();
  ASSERT_TRUE(BaseRun.Halted)
      << BaseRun.Trap << (BaseRun.OutOfFuel ? " (fuel)" : "");

  auto Wall = compileWallStyle(Sources);
  ASSERT_TRUE(Wall.Success) << Wall.ErrorText;
  RunResult R = runExecutable(Wall.Exe, 500'000'000);
  ASSERT_TRUE(R.Halted) << R.Trap;
  ASSERT_EQ(R.Output, BaseRun.Output);
  ASSERT_EQ(R.ExitCode, BaseRun.ExitCode);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WallDifferentialTest,
                         ::testing::Range(200u, 280u));

/// Three-way check: the reference IR interpreter (on unoptimized IR)
/// must agree with the full pipeline's machine execution, separating
/// optimizer bugs from code-generation bugs.
class InterpDifferentialTest : public ::testing::TestWithParam<unsigned> {
};

TEST_P(InterpDifferentialTest, IRInterpreterMatchesSimulator) {
  auto Sources = generateRandomProgram(GetParam());
  Sources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});

  // Front end + raw IR for the interpreter.
  DiagnosticEngine Diags;
  std::vector<std::unique_ptr<IRModule>> IRs;
  for (const SourceFile &Src : Sources) {
    Lexer Lex(Src.Name, Src.Text, Diags);
    Parser P(Src.Name, Lex.lexAll(), Diags);
    auto AST = P.parseModule();
    ASSERT_FALSE(Diags.hasErrors()) << Diags.renderAll();
    Sema S(Diags);
    ASSERT_TRUE(S.run(*AST)) << Diags.renderAll();
    IRs.push_back(generateIR(*AST, Diags));
  }
  std::vector<const IRModule *> Ptrs;
  for (auto &M : IRs)
    Ptrs.push_back(M.get());
  auto IRRun = interpretIR(Ptrs);
  ASSERT_TRUE(IRRun.Ok) << IRRun.Error;

  BuildResult Machine = Pipeline(PipelineConfig::configC())
                            .build(std::vector<SourceFile>(Sources.begin(),
                                                           Sources.end() - 1));
  RunResult MachineRun =
      Machine.ok() ? runExecutable(Machine.Exe) : RunResult();
  ASSERT_TRUE(Machine.ok()) << Machine.text();
  ASSERT_TRUE(MachineRun.Halted) << MachineRun.Trap;
  EXPECT_EQ(MachineRun.Output, IRRun.Output);
  EXPECT_EQ(MachineRun.ExitCode, IRRun.ExitCode);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpDifferentialTest,
                         ::testing::Range(60u, 100u));

/// Renders a linked executable as text (symbols, then code) so two links
/// can be compared byte for byte.
std::string renderExecutable(const Executable &Exe) {
  std::string Out = "data " + std::to_string(Exe.DataWords) + "\n";
  for (int32_t W : Exe.DataInit)
    Out += std::to_string(W) + " ";
  Out += "\n";
  for (const ExeSymbol &Sym : Exe.Symbols)
    Out += Sym.QualName + " " + std::to_string(Sym.Start) + " " +
           std::to_string(Sym.End) + "\n";
  for (const MInstr &I : Exe.Code)
    Out += I.toString() + "\n";
  return Out;
}

/// Every entry point runs the same per-module phase kernels, so the
/// fused build() must produce exactly the artifacts of the staged path
/// compileSummary -> analyze -> compileObject -> link, whatever the
/// thread count.
class FusedStagedTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedStagedTest, FusedBuildMatchesStagedPhases) {
  auto Sources = generateRandomProgram(GetParam());
  BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
  ASSERT_TRUE(Base.ok()) << Base.text();
  ProfileData Profile = runExecutable(Base.Exe).Profile;

  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  const std::pair<const char *, PipelineConfig> Configs[] = {
      {"A", PipelineConfig::configA()}, {"B", PipelineConfig::configB()},
      {"C", PipelineConfig::configC()}, {"D", PipelineConfig::configD()},
      {"E", PipelineConfig::configE()}, {"F", PipelineConfig::configF()},
  };
  for (auto [Name, Config] : Configs) {
    for (int Threads : {1, 4}) {
      SCOPED_TRACE(std::string("config ") + Name + ", threads " +
                   std::to_string(Threads));
      Config.NumThreads = Threads;
      const ProfileData *P = Config.UseProfile ? &Profile : nullptr;
      BuildResult Fused = Pipeline(Config).build(Sources, P);
      ASSERT_TRUE(Fused.ok()) << Fused.text();

      Pipeline Staged(Config);
      std::vector<std::string> Summaries;
      for (const SourceFile &Src : All) {
        SummaryResult S = Staged.compileSummary(Src);
        ASSERT_TRUE(S.ok()) << Src.Name << ": " << S.text();
        Summaries.push_back(S.SummaryText);
      }
      DatabaseResult DB = Staged.analyze(Summaries, P);
      ASSERT_TRUE(DB.ok()) << DB.text();
      std::vector<std::string> Objects;
      for (const SourceFile &Src : All) {
        ObjectResult O = Staged.compileObject(Src, DB.DatabaseText);
        ASSERT_TRUE(O.ok()) << Src.Name << ": " << O.text();
        Objects.push_back(O.ObjectText);
      }
      LinkedResult Linked = Staged.link(Objects);
      ASSERT_TRUE(Linked.ok()) << Linked.text();

      EXPECT_EQ(Fused.SummaryFiles, Summaries);
      EXPECT_EQ(Fused.DatabaseFile, DB.DatabaseText);
      EXPECT_EQ(Fused.ObjectFiles, Objects);
      EXPECT_EQ(renderExecutable(Fused.Exe), renderExecutable(Linked.Exe));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedStagedTest, ::testing::Range(1u, 21u));

//===----------------------------------------------------------------------===//
// Family 2: analyzer invariants over random call graphs.
//===----------------------------------------------------------------------===//

/// Builds a random module summary: a mostly-layered call graph with a
/// sprinkle of back edges (recursion) and indirect calls.
std::vector<ModuleSummary> randomSummaries(unsigned Seed) {
  std::mt19937 Rng(Seed);
  auto Rand = [&Rng](int N) {
    return static_cast<int>(Rng() % unsigned(N));
  };
  int NumProcs = 5 + Rand(40);
  int NumGlobals = 1 + Rand(20);

  ModuleSummary S;
  S.Module = "m";
  for (int I = 0; I < NumProcs; ++I) {
    ProcSummary P;
    P.QualName = I == 0 ? "main" : "p" + std::to_string(I);
    P.Module = "m";
    P.CalleeRegsNeeded = static_cast<unsigned>(Rand(10));
    S.Procs.push_back(std::move(P));
  }
  auto NameOf = [](int I) {
    return I == 0 ? std::string("main") : "p" + std::to_string(I);
  };
  for (int I = 0; I < NumProcs; ++I) {
    int Calls = Rand(4);
    for (int C = 0; C < Calls; ++C) {
      int Target = Rand(NumProcs);
      if (Target == I && Rand(2))
        continue; // Fewer self loops.
      // Mostly forward, occasionally backward (recursion).
      if (Target < I && Rand(4) != 0)
        Target = std::min(NumProcs - 1, I + 1 + Rand(4));
      S.Procs[I].Calls.push_back(
          CallSummary{NameOf(Target), 1 + Rand(30)});
    }
  }
  for (int G = 0; G < NumGlobals; ++G) {
    GlobalSummary GS;
    GS.QualName = "g" + std::to_string(G);
    GS.Module = "m";
    GS.IsScalar = Rand(10) != 0;   // Some arrays.
    GS.Aliased = Rand(10) == 0;    // Some aliased.
    S.Globals.push_back(GS);
    int Refs = 1 + Rand(4);
    for (int R = 0; R < Refs; ++R)
      S.Procs[Rand(NumProcs)].GlobalRefs.push_back(GlobalRefSummary{
          GS.QualName, 1 + Rand(40), Rand(2) == 0});
  }
  // Indirect calls.
  if (Rand(3) == 0) {
    S.Procs[Rand(NumProcs)].MakesIndirectCalls = true;
    S.Procs[Rand(NumProcs)].IndirectCallFreq = 1 + Rand(10);
    S.Procs[0].AddressTakenProcs.push_back(NameOf(Rand(NumProcs)));
  }
  return {S};
}

class AnalyzerInvariantTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AnalyzerInvariantTest, WebInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST_P(AnalyzerInvariantTest, RemergedWebInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);
  WebOptions Options;
  Options.RemergeWebs = true;
  auto Webs = buildWebs(CG, RS, Options);
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
  // Re-merging must never reduce the promotable priority mass.
  auto Plain = buildWebs(CG, RS);
  long long PlainMass = 0, MergedMass = 0;
  for (const Web &W : Plain)
    if (W.Considered)
      PlainMass += W.Priority;
  for (const Web &W : Webs)
    if (W.Considered)
      MergedMass += W.Priority;
  EXPECT_GE(MergedMass, PlainMass);
}

TEST_P(AnalyzerInvariantTest, ColoringInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);

  auto KWebs = buildWebs(CG, RS);
  colorWebsKRegisters(KWebs, CG, pr32::defaultWebColoringPool());
  auto Problems = checkColoring(KWebs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();

  auto GWebs = buildWebs(CG, RS);
  colorWebsGreedy(GWebs, CG);
  Problems = checkColoring(GWebs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();

  auto BWebs = buildBlanketWebs(CG, RS, 6, pr32::defaultWebColoringPool());
  Problems = checkColoring(BWebs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST_P(AnalyzerInvariantTest, ClusterInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  auto Clusters = identifyClusters(CG);
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST_P(AnalyzerInvariantTest, RegisterSetInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  colorWebsKRegisters(Webs, CG, pr32::defaultWebColoringPool());
  auto Clusters = identifyClusters(CG);

  for (bool Relax : {false, true}) {
    for (bool Improved : {false, true}) {
      RegSetOptions Options;
      Options.RelaxWebAvail = Relax;
      Options.ImprovedFreeSets = Improved;
      auto Sets = computeRegisterSets(CG, Clusters, Webs, Options);
      auto Problems =
          checkRegisterSetInvariants(CG, Clusters, Webs, Sets);
      EXPECT_TRUE(Problems.empty())
          << "relax=" << Relax << " improved=" << Improved << ": "
          << Problems.front();
    }
  }
}

TEST_P(AnalyzerInvariantTest, DatabaseRoundTripsExactly) {
  auto Summaries = randomSummaries(GetParam());
  AnalyzerOptions Options;
  ProgramDatabase DB = runAnalyzer(Summaries, Options);
  std::string Text = DB.serialize();
  ProgramDatabase Parsed;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Text, Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.serialize(), Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerInvariantTest,
                         ::testing::Range(100u, 160u));

} // namespace
