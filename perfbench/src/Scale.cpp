//===- Scale.cpp - The scale workload -------------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// A seeded synthetic program of 200 modules x 500 procedures (100k
/// procedures, 2000 globals), shaped like bench_analyzer_delta's, held
/// as summary texts. Each round applies one summary edit of each kind
/// (ref-freq, reg-need, call-freq, call-edge) to a seeded module and
/// re-analyzes through a DeltaAnalysis Pipeline that keeps its session,
/// re-sends the unchanged summaries once (a cache hit), and
/// ends with a cold analysis on a fresh Pipeline whose database must
/// be byte-equal to the last delta database. After the loop the final
/// summaries are analyzed once more stage by stage and the web,
/// coloring, cluster and register-set invariants are checked.
///
/// Front end, codegen and the simulator do no work on the 100k
/// program, whose build is its analysis: build_ms and rebuild_ms are
/// the cold and delta analyses. sim_mips and the quality geomeans need
/// simulated code, so they come from generated companion programs of
/// the edit workload's shape, built and run once after the timed loop.
///
/// The traced run analyzes through the core entry points (summary
/// read, call graph, refsets, mod/ref, webs, finish, database write;
/// a DeltaAnalyzer for the edits) with a span around each call.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/GPGCompose.h"
#include "analysis/ModRef.h"
#include "core/AnalyzerInternal.h"
#include "core/Clusters.h"
#include "core/DeltaAnalyzer.h"
#include "core/RefSets.h"
#include "core/RegSets.h"
#include "core/WebColor.h"
#include "core/Webs.h"

#include <algorithm>
#include <cstdio>

using namespace ipra;

namespace pb {

namespace {

constexpr int NumModules = 200;
constexpr int ProcsPerModule = 500;
constexpr int GlobalsPerModule = 10;
/// Companion programs for sim_mips and the quality geomeans; enough
/// that their geomeans spread little from seed to seed.
constexpr int CompanionPrograms = 12;

/// The analyzer configuration: column C with the §7.6 extensions the
/// delta bench uses (sparse-web splitting, caller-saves propagation).
PipelineConfig scaleConfig(bool Delta) {
  PipelineConfig C = PipelineConfig::configC();
  C.CallerSavePropagation = true;
  C.Webs.SplitSparseWebs = true;
  C.NumThreads = 1;
  C.DeltaAnalysis = Delta;
  // Each database is about 13 MB; a budget keeps the resident set from
  // growing with the number of edits a run fits in.
  C.CacheMemBudgetBytes = 64u << 20;
  return C;
}

std::string procName(int M, int P) {
  return M == 0 && P == 0 ? std::string("main")
                          : "p" + std::to_string(M) + "_" + std::to_string(P);
}

/// Each module is a layered DAG of procedures (layers of ten) whose last
/// layer sometimes calls into the next module; main fans out to every
/// module; each module owns ten globals referenced in 2-4 compact
/// regions of its own procedures, one in five also read next door. The
/// condensation is a long cross-module chain, so a one-module edit has
/// a local damage region.
std::vector<ModuleSummary> syntheticProgram(std::uint32_t Seed,
                                            const std::string &Fingerprint) {
  Rng R(Seed);
  constexpr int Layer = 10;
  std::vector<ModuleSummary> Mods(NumModules);
  for (int M = 0; M < NumModules; ++M) {
    Mods[M].Module = "m" + std::to_string(M);
    Mods[M].ConfigFingerprint = Fingerprint;
    for (int P = 0; P < ProcsPerModule; ++P) {
      ProcSummary PS;
      PS.QualName = procName(M, P);
      PS.Module = Mods[M].Module;
      PS.CalleeRegsNeeded = static_cast<unsigned>(R.below(8));
      PS.CallerRegsUsed = static_cast<unsigned>(R.below(0x3ff));
      Mods[M].Procs.push_back(std::move(PS));
    }
  }
  for (int M = 0; M < NumModules; ++M) {
    for (int P = 0; P < ProcsPerModule; ++P) {
      int Next = (P / Layer + 1) * Layer;
      if (Next < ProcsPerModule) {
        int Calls = 1 + R.below(3);
        for (int C = 0; C < Calls; ++C)
          Mods[M].Procs[P].Calls.push_back(CallSummary{
              procName(M, Next + R.below(std::min(Layer, ProcsPerModule - Next))),
              1 + R.below(20)});
      } else if (M + 1 < NumModules && R.below(3) == 0) {
        Mods[M].Procs[P].Calls.push_back(
            CallSummary{procName(M + 1, R.below(Layer)), 1 + R.below(10)});
      }
    }
    if (M > 0)
      Mods[0].Procs[0].Calls.push_back(
          CallSummary{procName(M, R.below(Layer)), 1 + R.below(20)});
  }
  for (int M = 0; M < NumModules; ++M) {
    for (int G = 0; G < GlobalsPerModule; ++G) {
      GlobalSummary GS;
      GS.QualName = "g" + std::to_string(M) + "_" + std::to_string(G);
      GS.Module = Mods[M].Module;
      GS.IsScalar = true;
      Mods[M].Globals.push_back(GS);
      int Regions = 2 + R.below(3);
      for (int Reg = 0; Reg < Regions; ++Reg) {
        ProcSummary &Seed = Mods[M].Procs[R.below(ProcsPerModule)];
        Seed.GlobalRefs.push_back(
            GlobalRefSummary{GS.QualName, 2 + R.below(50), R.below(3) == 0});
        // Half the time the region extends into module-local callees
        // (named p<M>_<index>).
        const std::string Local = "p" + std::to_string(M) + "_";
        for (const CallSummary &C : Seed.Calls) {
          if (R.below(2) != 0)
            break;
          if (C.QualCallee.rfind(Local, 0) != 0)
            continue;
          int Callee = std::stoi(C.QualCallee.substr(Local.size()));
          Mods[M].Procs[Callee].GlobalRefs.push_back(
              GlobalRefSummary{GS.QualName, 1 + R.below(10), false});
        }
      }
      if (M + 1 < NumModules && R.below(5) == 0)
        Mods[M + 1].Procs[R.below(ProcsPerModule)].GlobalRefs.push_back(
            GlobalRefSummary{GS.QualName, 1 + R.below(8), false});
    }
  }
  return Mods;
}

/// The summary edit kinds; each touches one procedure of module \p M.
constexpr int NumKinds = 4;
const char *const KindNames[NumKinds] = {"ref-freq", "reg-need", "call-freq",
                                         "call-edge"};

/// A value in [1, N] other than \p Old, so every edit changes the
/// summary text (an unchanged text would be an analyzer cache hit).
int changed(int Old, int N, Rng &R) {
  int New = 1 + R.below(N - 1);
  return New >= Old ? New + 1 : New;
}

void applyEdit(int Kind, ModuleSummary &Mod, int M, Rng &R) {
  switch (Kind) {
  case 0:
    for (ProcSummary &P : Mod.Procs)
      if (!P.GlobalRefs.empty()) {
        P.GlobalRefs.front().Freq = changed(P.GlobalRefs.front().Freq, 200, R);
        return;
      }
    return;
  case 1: {
    ProcSummary &P = Mod.Procs[R.below(ProcsPerModule)];
    P.CalleeRegsNeeded = static_cast<unsigned>(
        changed(static_cast<int>(P.CalleeRegsNeeded) + 1, 14, R) - 1);
    P.CallerRegsUsed = static_cast<unsigned>(R.below(0x3fff));
    return;
  }
  case 2:
    for (ProcSummary &P : Mod.Procs)
      if (!P.Calls.empty()) {
        P.Calls.front().Freq = changed(P.Calls.front().Freq, 60, R);
        return;
      }
    return;
  default: {
    // A new forward edge inside the module keeps the graph acyclic.
    int P = R.below(ProcsPerModule - 20);
    int Target = (P / 10 + 1 + R.below(2)) * 10 + R.below(10);
    Mod.Procs[P].Calls.push_back(
        CallSummary{procName(M, Target), 1 + R.below(20)});
    return;
  }
  }
}

struct Cold {
  std::string DbText;
  std::vector<std::string> Problems;
};

/// Cold analysis through the core entry points, one span per stage;
/// with \p Check, the invariant checkers run too (outside the spans).
Cold stagedCold(const std::vector<std::string> &Texts,
                const PipelineConfig &Config, bool Check,
                std::map<std::string, double> &Counts) {
  Cold Out;
  std::vector<ModuleSummary> Sums(Texts.size());
  {
    Span S("summary.read");
    for (size_t I = 0; I < Texts.size(); ++I) {
      std::string Error;
      if (!readSummary(Texts[I], Sums[I], Error)) {
        Out.Problems.push_back("summary: " + Error);
        return Out;
      }
    }
  }
  AnalyzerOptions AO = Config.analyzerOptions();
  AnalyzerStats Stats;
  std::unique_ptr<CallGraph> CG;
  if (AO.PointsTo == PointsToMode::GPG) {
    // As in runAnalyzer: a strengthened copy (residue-free summaries
    // keep their recorded facts, but the copy is still made).
    Span S("analysis.gpg");
    std::vector<ModuleSummary> Strengthened = Sums;
    if (strengthenSummariesWithGPG(Strengthened, AO.AssumeClosedWorld,
                                   nullptr))
      Sums = std::move(Strengthened);
  }
  {
    Span S("callgraph");
    CG = std::make_unique<CallGraph>(Sums, CallProfile{},
                                     AO.PointsTo != PointsToMode::Off);
  }
  std::unique_ptr<RefSets> RS;
  {
    Span S("core.refsets");
    RS = std::make_unique<RefSets>(*CG, AO.AssumeClosedWorld);
  }
  ModRefInfo MR;
  if (AO.ModRef) {
    Span S("analysis.modref");
    MR = computeModRef(*CG, AO.AssumeClosedWorld);
  }
  const ModRefInfo *MRP = AO.ModRef ? &MR : nullptr;
  std::vector<Web> Webs;
  {
    Span S("core.webs");
    Webs = analyzer_detail::discoverPromotionWebs(*CG, *RS, AO, Stats, MRP);
  }
  ProgramDatabase DB;
  {
    Span S("core.finish");
    DB = analyzer_detail::finishFromWebs(*CG, *RS, Webs, AO, Stats, MRP);
  }
  {
    Span S("core.db_write");
    DB.ConfigFingerprint = Config.fingerprint();
    Out.DbText = DB.serialize();
  }
  Counts["core.coloring_ms"] += Stats.ColoringMs;
  Counts["core.clusters_ms"] += Stats.ClustersMs;
  Counts["core.regsets_ms"] += Stats.RegSetsMs;
  Counts["core.db_bytes"] += static_cast<double>(Out.DbText.size());
  double WebNodes = 0;
  for (const Web &W : Webs)
    WebNodes += static_cast<double>(W.Nodes.size());
  Counts["core.web_nodes"] += WebNodes;
  double Edges = 0;
  for (const CGNode &N : CG->nodes())
    Edges += static_cast<double>(N.Succs.size());
  Counts["callgraph.nodes"] += CG->size();
  Counts["callgraph.edges"] += Edges;
  Counts["callgraph.sccs"] +=
      CG->size() ? *std::max_element(CG->sccIds().begin(), CG->sccIds().end()) + 1
                 : 0;

  if (Check) {
    auto Add = [&Out](const char *What, const std::vector<std::string> &V) {
      for (const std::string &P : V)
        Out.Problems.push_back(std::string(What) + ": " + P);
    };
    Add("webs", checkWebInvariants(*CG, *RS, Webs));
    Add("coloring", checkColoring(Webs));
    ClusterOptions CO = AO.Clusters;
    CO.AssumeClosedWorld = AO.AssumeClosedWorld;
    std::vector<Cluster> Clusters = identifyClusters(*CG, CO);
    Add("clusters", checkClusterInvariants(*CG, Clusters));
    std::vector<ProcDirectives> Sets =
        computeRegisterSets(*CG, Clusters, Webs, AO.RegSets);
    Add("regsets", checkRegisterSetInvariants(*CG, Clusters, Webs, Sets));
  }
  return Out;
}

/// Simulated figures of the companion programs.
struct Companion {
  std::vector<double> Cycles, MemRefs, Singletons, Words;
  double SimInsns = 0, SimMs = 0;
};

/// Cold-builds, runs and checks the companion programs, outside the
/// timed loop.
Companion companionPrograms(const Options &O, Report &R) {
  PipelineConfig Config = PipelineConfig::configC();
  Config.NumThreads = 1;
  Companion C;
  for (int P = 0; P < CompanionPrograms; ++P) {
    GenProgram Prog(O.Seed * 1000003u + static_cast<unsigned>(P), 24, 6, 2);
    BuildResult Build = Pipeline(Config).build(Prog.sources());
    if (!Build.ok()) {
      R.op(false, "companion build: " + Build.text());
      continue;
    }
    std::string Out, Error;
    int Exit = 0;
    Clock::time_point T0 = Clock::now();
    RunResult Run = runExecutable(Build.Exe);
    C.SimMs += msSince(T0);
    C.SimInsns += static_cast<double>(Run.Stats.Instructions);
    R.op(Run.Halted &&
             interpretReference(Prog.sources(), Out, Exit, Error) &&
             Out == Run.Output && Exit == Run.ExitCode,
         "companion program differs from the interpreter " + Error);
    C.Cycles.push_back(static_cast<double>(Run.Stats.Cycles));
    C.MemRefs.push_back(static_cast<double>(Run.Stats.MemRefs));
    C.Singletons.push_back(static_cast<double>(Run.Stats.SingletonRefs));
    C.Words.push_back(static_cast<double>(Build.Exe.Code.size()));
  }
  return C;
}

} // namespace

void runScale(const Options &O, Report &R) {
  const PipelineConfig ColdConfig = scaleConfig(false);
  const PipelineConfig DeltaConfig = scaleConfig(true);
  std::vector<ModuleSummary> Mods;
  std::vector<std::string> Texts;

  // Set-up: generate and serialise the summaries.
  double SetupS = timedSetup([&] {
    Mods = syntheticProgram(O.Seed, ColdConfig.compileFingerprint());
    Texts.clear();
    for (const ModuleSummary &M : Mods)
      Texts.push_back(writeSummary(M));
  });

  Tracer T;
  if (O.Trace)
    T.activate();
  std::map<std::string, double> Counts;
  double ColdOps = 0, DeltaOps = 0, ColdOpMs = 0, DeltaOpMs = 0;

  Pipeline DeltaPipe(DeltaConfig);
  DeltaAnalyzer Staged; // The traced run's delta path.
  AnalyzerOptions AO = DeltaConfig.analyzerOptions();
  std::string LastDelta;
  // Prime the retained session (a cold analysis, not a sample).
  if (O.Trace) {
    std::vector<ModuleSummary> Sums(Texts.size());
    std::string Error;
    for (size_t I = 0; I < Texts.size(); ++I)
      readSummary(Texts[I], Sums[I], Error);
    Staged.analyze(Sums, AO);
  } else {
    DatabaseResult Prime = DeltaPipe.analyze(Texts);
    R.op(Prime.ok(), "priming analysis failed");
  }

  std::vector<std::vector<double>> DeltaMs(NumKinds);
  std::vector<double> ColdMs, CachedMs;
  Rng Edits(O.Seed ^ 0x5ca1eu);
  long long Requests = 0;
  int Round = 0;
  Clock::time_point Start = Clock::now();
  do {
    for (int K = 0; K < NumKinds; ++K) {
      int M = 1 + Edits.below(NumModules - 1);
      applyEdit(K, Mods[M], M, Edits);
      Texts[M] = writeSummary(Mods[M]);
      std::string Tag = std::string("delta ") + KindNames[K] + " m" +
                        std::to_string(M);
      if (O.Trace) {
        Clock::time_point T0 = Clock::now();
        std::vector<ModuleSummary> Sums(Texts.size());
        {
          Span S("core.delta.read");
          std::string Error;
          for (size_t I = 0; I < Texts.size(); ++I)
            readSummary(Texts[I], Sums[I], Error);
        }
        ProgramDatabase DB;
        {
          Span S("core.delta");
          DB = Staged.analyze(Sums, AO);
        }
        {
          Span S("core.delta.db_write");
          DB.ConfigFingerprint = DeltaConfig.fingerprint();
          LastDelta = DB.serialize();
        }
        double Ms = msSince(T0);
        const AnalyzerStats &AS = Staged.stats();
        const DeltaStats &DS = Staged.deltaStats();
        double Finish = AS.ColoringMs + AS.ClustersMs + AS.RegSetsMs;
        Counts["core.delta.refsets_ms"] += AS.RefSetsMs;
        Counts["core.delta.modref_ms"] += AS.ModRefMs;
        Counts["core.delta.webs_ms"] += AS.WebsMs;
        Counts["core.delta.finish_ms"] += Finish;
        Counts["core.delta.damaged_sccs"] += DS.DamagedSccs;
        Counts["core.delta.web_reuse"] += DS.reuseRatio();
        Counts["core.delta.incremental"] +=
            DS.Mode == DeltaMode::Incremental ? 1 : 0;
        DeltaOps += 1;
        DeltaOpMs += Ms;
        R.op(true, Tag);
        continue;
      }
      Clock::time_point T0 = Clock::now();
      DatabaseResult D = DeltaPipe.analyze(Texts);
      double Ms = msSince(T0);
      ++Requests;
      R.op(D.ok() && !D.FromCache, Tag + ": " + D.text());
      if (!D.ok())
        continue;
      DeltaMs[K].push_back(Ms);
      LastDelta = D.DatabaseText;
    }

    if (!O.Trace) {
      // The same summaries again: the database comes from the cache.
      Clock::time_point T0 = Clock::now();
      DatabaseResult Again = DeltaPipe.analyze(Texts);
      double Ms = msSince(T0);
      ++Requests;
      bool Ok = Again.ok() && Again.FromCache && Again.DatabaseText == LastDelta;
      R.op(Ok, "unchanged re-analysis missed the cache or differs");
      if (Ok)
        CachedMs.push_back(Ms);
    }

    // A cold analysis of the same summaries must give the same bytes.
    std::string ColdDb;
    Clock::time_point T0 = Clock::now();
    if (O.Trace) {
      Span S("cold");
      ColdDb = stagedCold(Texts, ColdConfig, false, Counts).DbText;
    } else {
      Pipeline ColdPipe(ColdConfig);
      DatabaseResult D = ColdPipe.analyze(Texts);
      ColdDb = D.ok() ? D.DatabaseText : "";
    }
    double Ms = msSince(T0);
    ++Requests;
    bool Ok = !ColdDb.empty() && ColdDb == LastDelta;
    R.op(Ok, "cold analysis differs from the delta database (round " +
                 std::to_string(Round) + ")");
    if (Ok) {
      ColdMs.push_back(Ms);
      ColdOps += 1;
      ColdOpMs += Ms;
    }
    ++Round;
  } while (secondsSince(Start) < O.Seconds);
  double LoopS = secondsSince(Start);

  // Invariants of the final state, stage by stage, outside the loop
  // and outside the trace.
  Tracer::deactivate();
  {
    std::map<std::string, double> Ignored;
    Cold Final = stagedCold(Texts, ColdConfig, true, Ignored);
    bool Ok = Final.Problems.empty() && Final.DbText == LastDelta;
    for (const std::string &P : Final.Problems)
      std::fprintf(stderr, "perfbench: invariant: %s\n", P.c_str());
    R.op(Ok, "final-state invariants or staged database differ");
  }

  if (O.Trace) {
    std::map<std::string, double> Values;
    auto Totals = T.totals();
    for (const auto &[Name, V] : Totals) {
      bool Delta = Name.rfind("core.delta", 0) == 0;
      Values[spanMetricName(Name)] = V.SelfMs / (Delta ? DeltaOps : ColdOps);
    }
    for (const auto &[Name, V] : Counts) {
      bool Delta = Name.rfind("core.delta", 0) == 0;
      Values[Name] = V / (Delta ? DeltaOps : ColdOps);
    }
    // The delta analyzer's own span minus its timed sub-stages: summary
    // diffing, the GPG copy and database assembly.
    Values["core.delta.other_ms"] =
        Totals["core.delta"].SelfMs / DeltaOps - Values["core.delta.refsets_ms"] -
        Values["core.delta.modref_ms"] - Values["core.delta.webs_ms"] -
        Values["core.delta.finish_ms"];
    Values["core.delta.ms"] = DeltaOpMs / DeltaOps;
    Values["trace.op_ms"] = median(ColdMs);
    double Spans = static_cast<double>(T.size()) / (ColdOps + DeltaOps);
    reportLayers(R, Values, ColdOpMs / ColdOps, Spans);
    std::string Path = O.OutDir + "/trace-scale.json";
    if (!T.writeChromeJson(Path))
      R.broken("cannot write " + Path);
    return;
  }

  Companion Comp = companionPrograms(O, R);
  std::vector<double> KindMedians;
  for (const std::vector<double> &V : DeltaMs)
    if (!V.empty())
      KindMedians.push_back(median(V));
  double ReanalyzeMs = geomean(KindMedians);
  R.metric("setup_s", SetupS, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("build_ms", median(ColdMs), "ms");
  R.metric("sim_mips", Comp.SimInsns / (Comp.SimMs / 1000.0) / 1e6, "Minsn/s");
  R.metric("cycles_geomean", geomean(Comp.Cycles), "cycles");
  R.metric("memrefs_geomean", geomean(Comp.MemRefs), "count");
  R.metric("singleton_refs_geomean", geomean(Comp.Singletons), "count");
  R.metric("code_words_geomean", geomean(Comp.Words), "count");
  R.metric("analyze_ms", median(ColdMs), "ms");
  R.metric("reanalyze_ms", ReanalyzeMs, "ms");
  R.metric("rebuild_ms", ReanalyzeMs, "ms");
  R.metric("cached_ms", median(CachedMs), "ms");
  R.metric("requests_per_s", static_cast<double>(Requests) / LoopS, "1/s");
}

} // namespace pb
