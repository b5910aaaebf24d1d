//===- quickstart.cpp - Five-minute tour of the pipeline ------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Quickstart: compile a two-module MiniC program through the paper's
/// two-pass pipeline (Figure 1), once at the level-2 baseline and once
/// with interprocedural register allocation (configuration C), run both
/// on the PR32 simulator, and compare the counters the paper reports.
/// Along the way, the intermediate artifacts (a summary file and the
/// program database) are printed - these are the files that carry
/// interprocedural facts across module boundaries.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include <cstdio>

using namespace ipra;

int main() {
  // A little two-module program with hot globals: 'counter' and 'limit'
  // are accessed from both modules on every iteration.
  SourceFile Lib{"lib.mc",
                 "int counter;\n"
                 "int limit;\n"
                 "int step(int x) {\n"
                 "  counter = counter + x;\n"
                 "  if (counter > limit) counter = counter - limit;\n"
                 "  return counter;\n"
                 "}\n"};
  SourceFile Main{"main.mc",
                  "int counter;\n"
                  "int limit;\n"
                  "int step(int x);\n"
                  "int main() {\n"
                  "  limit = 1000;\n"
                  "  int r = 0;\n"
                  "  for (int i = 0; i < 500; i = i + 1)\n"
                  "    r = step(i) + r;\n"
                  "  print(r);\n"
                  "  print(counter);\n"
                  "  return 0;\n"
                  "}\n"};
  std::vector<SourceFile> Sources = {Lib, Main};

  // --- 1. Level-2 baseline: each module optimized in isolation. -----------
  BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
  if (!Base.ok()) {
    std::fprintf(stderr, "compile failed:\n%s\n", Base.text().c_str());
    return 1;
  }
  RunResult BaseRun = runExecutable(Base.Exe);
  std::printf("baseline output:\n%s", BaseRun.Output.c_str());
  std::printf("baseline cycles:            %lld\n",
              BaseRun.Stats.Cycles);
  std::printf("baseline singleton refs:    %lld\n\n",
              BaseRun.Stats.SingletonRefs);

  // --- 2. Interprocedural allocation (configuration C). -------------------
  BuildResult Ipra = Pipeline(PipelineConfig::configC()).build(Sources);
  RunResult IpraRun = Ipra.ok() ? runExecutable(Ipra.Exe) : RunResult();
  std::printf("IPRA (config C) output:\n%s", IpraRun.Output.c_str());
  std::printf("IPRA cycles:                %lld  (%.1f%% better)\n",
              IpraRun.Stats.Cycles,
              100.0 * (BaseRun.Stats.Cycles - IpraRun.Stats.Cycles) /
                  BaseRun.Stats.Cycles);
  std::printf("IPRA singleton refs:        %lld  (%.1f%% fewer)\n\n",
              IpraRun.Stats.SingletonRefs,
              100.0 *
                  (BaseRun.Stats.SingletonRefs -
                   IpraRun.Stats.SingletonRefs) /
                  BaseRun.Stats.SingletonRefs);

  // --- 3. The artifacts that cross module boundaries. ---------------------
  std::printf("summary file for lib.mc (compiler first phase output):\n");
  std::printf("%s\n", Ipra.SummaryFiles[0].c_str());
  std::printf("program database (program analyzer output):\n");
  std::printf("%s\n", Ipra.DatabaseFile.c_str());

  std::printf("analyzer: %d eligible globals, %d webs (%d colored), "
              "%d clusters (avg %.1f nodes)\n",
              Ipra.Analyzer.EligibleGlobals,
              Ipra.Analyzer.TotalWebs, Ipra.Analyzer.ColoredWebs,
              Ipra.Analyzer.NumClusters,
              Ipra.Analyzer.avgClusterSize());
  return 0;
}
