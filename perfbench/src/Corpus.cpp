//===- Corpus.cpp - The corpus workload -----------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Cold builds of every bench/programs program under the baseline and
/// configurations A-F (Tables 4/5), round-robin over (program, config)
/// pairs in a seeded order, one fresh single-threaded Pipeline with only
/// the in-memory cache per cold build. Each cold build is followed by
/// an unchanged rebuild and a one-module edit rebuild on the same
/// Pipeline. Each pair is simulated once per run; B and F take their
/// profile from the baseline run.
///
/// The traced run replaces the rebuilds by a layer-by-layer replay of
/// the same build through the layers' own entry points, with a span
/// around each call, and checks that the replay's artifacts are
/// byte-identical to the Pipeline's.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/GPG.h"
#include "analysis/IPRAVerify.h"
#include "analysis/PointsTo.h"
#include "codegen/CodeGen.h"
#include "ir/IRGen.h"
#include "ir/Verifier.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "link/Linker.h"
#include "link/ObjectIO.h"
#include "opt/Passes.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

using namespace ipra;

namespace pb {

namespace {

const char *const ProgramNames[] = {"crtool", "dhry",     "disp",  "fgrep",
                                    "othello", "paopt",   "protoc", "ptrchase",
                                    "rotab",  "war"};

struct NamedConfig {
  const char *Name;
  PipelineConfig Config;
  bool Profiled;
};

std::vector<NamedConfig> corpusConfigs() {
  std::vector<NamedConfig> Cs = {
      {"base", PipelineConfig::baseline(), false},
      {"A", PipelineConfig::configA(), false},
      {"B", PipelineConfig::configB(), true},
      {"C", PipelineConfig::configC(), false},
      {"D", PipelineConfig::configD(), false},
      {"E", PipelineConfig::configE(), false},
      {"F", PipelineConfig::configF(), true},
  };
  for (NamedConfig &C : Cs)
    C.Config.NumThreads = 1;
  return Cs;
}

struct Program {
  std::string Name;
  std::vector<SourceFile> Sources;
  std::string Output;
  int ExitCode = 0;
  ProfileData Profile;
};

/// Per-pair samples and the first build's outcome.
struct PairState {
  int Prog = 0, Config = 0;
  std::vector<double> ColdMs, CachedMs, EditMs, AnalyzeMs, ReanalyzeMs;
  bool Simulated = false;
  /// Verdict of the first build's run and verify-ipra checks.
  bool Checked = false;
  std::string Why;
  std::string Artifacts;
  RunStats Run;
  double CodeWords = 0;
};

/// The edited copy of a program: one module gains an unused procedure,
/// so its summary changes (the analyzer reruns) and the program's
/// behaviour does not.
std::vector<SourceFile> editedSources(const std::vector<SourceFile> &Src,
                                      Rng &R) {
  std::vector<SourceFile> Out = Src;
  int M = R.below(static_cast<int>(Out.size()));
  int K = R.below(1000);
  Out[M].Text += "\nint pbedit_" + std::to_string(K) + "(int x) { return x + " +
                 std::to_string(K) + "; }\n";
  return Out;
}

bool checkRun(const Program &P, const RunResult &Run, std::string &Why) {
  if (!Run.Halted) {
    Why = "did not halt: " + Run.Trap;
    return false;
  }
  if (Run.Output != P.Output || Run.ExitCode != P.ExitCode) {
    Why = "simulator output differs from the IR interpreter";
    return false;
  }
  return true;
}

bool checkIPRA(const BuildResult &B, std::string &Why) {
  ProgramDatabase DB;
  std::string Error;
  if (!ProgramDatabase::deserialize(B.DatabaseFile, DB, Error)) {
    Why = "database: " + Error;
    return false;
  }
  std::vector<ObjectFile> Objects;
  for (const std::string &Text : B.ObjectFiles) {
    ObjectFile Obj;
    if (!readObjectFile(Text, Obj, Error)) {
      Why = "object: " + Error;
      return false;
    }
    Objects.push_back(std::move(Obj));
  }
  IPRAVerifyResult V = verifyIPRA(Objects, DB);
  if (!V.ok()) {
    Why = "verify-ipra: " + V.text();
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The layer-by-layer replay (traced run only).
//===----------------------------------------------------------------------===//

/// Counts the replay gathers per build.
struct ReplayCounts {
  double SummaryBytes = 0, IRInsns = 0, SpillInsns = 0, SpilledRanges = 0,
         CodeWords = 0;
};

void optimizeModule(IRModule &IR, const ProgramDatabase *DB, bool LocalGP,
                    const GlobalAliasFacts *Alias) {
  for (auto &F : IR.Functions) {
    OptOptions Opts;
    Opts.LocalGlobalPromotion = LocalGP;
    Opts.Alias = Alias;
    if (DB)
      for (const PromotedGlobal &P : DB->lookup(F->qualifiedName()).Promoted) {
        std::string Plain = P.QualName;
        size_t Colon = Plain.rfind(':');
        if (Colon != std::string::npos)
          Plain = Plain.substr(Colon + 1);
        Opts.SkipGlobals.insert(Plain);
      }
    optimizeFunction(*F, Opts);
  }
}

ObjectFile assemble(const IRModule &IR, std::vector<ObjFunction> Funcs) {
  ObjectFile Obj;
  Obj.Module = IR.Name;
  for (const IRGlobal &G : IR.Globals) {
    ObjGlobal OG;
    OG.QualName = G.qualifiedName();
    OG.SizeWords = G.SizeWords;
    OG.Init = G.Init;
    if (!G.FuncInit.empty()) {
      OG.FuncInit = G.FuncInit;
      for (const auto &F : IR.Functions)
        if (F->Name == G.FuncInit)
          OG.FuncInit = F->qualifiedName();
    }
    Obj.Globals.push_back(std::move(OG));
  }
  for (ObjFunction &F : Funcs)
    Obj.Functions.push_back(std::move(F));
  return Obj;
}

/// Rebuilds \p Sources under \p Config through each layer's entry point
/// and returns the artifacts in artifactText form ("" on failure).
std::string replayBuild(const std::vector<SourceFile> &Sources,
                        const PipelineConfig &Config,
                        const ProfileData *Profile, ReplayCounts &Counts) {
  std::vector<SourceFile> All = withRuntime(Sources);
  const std::string CompileFP = Config.compileFingerprint();
  std::vector<std::unique_ptr<ModuleAST>> ASTs;
  for (const SourceFile &Src : All) {
    Span S("lang");
    DiagnosticEngine Diags;
    Lexer Lex(Src.Name, Src.Text, Diags);
    Parser P(Src.Name, Lex.lexAll(), Diags);
    auto AST = P.parseModule();
    Sema Check(Diags);
    if (Diags.hasErrors() || !Check.run(*AST))
      return "";
    ASTs.push_back(std::move(AST));
  }

  // Phase 2's front half: lower, points-to, optimise under the
  // database, verify.
  auto LowerAndOptimize = [&](const ModuleAST &AST, const ProgramDatabase *DB)
      -> std::unique_ptr<IRModule> {
    std::unique_ptr<IRModule> IR;
    {
      Span S("ir");
      DiagnosticEngine Diags;
      IR = generateIR(AST, Diags);
    }
    std::unique_ptr<ModulePointsTo> PT;
    if (Config.PointsTo != PointsToMode::Off) {
      Span S("analysis.points_to");
      PT = std::make_unique<ModulePointsTo>(*IR);
    }
    {
      Span S("opt");
      optimizeModule(*IR, DB, Config.LocalGlobalPromotion, PT.get());
    }
    Span S("ir");
    if (!verifyModule(*IR).empty())
      return nullptr;
    return IR;
  };

  // Phase 1: summaries, then the analyzer.
  ProgramDatabase DB;
  std::string DbText;
  bool HaveDB = false;
  if (Config.Ipra) {
    std::vector<ModuleSummary> Summaries;
    for (size_t I = 0; I < All.size(); ++I) {
      std::unique_ptr<IRModule> IR;
      {
        Span S("ir");
        DiagnosticEngine Diags;
        IR = generateIR(*ASTs[I], Diags);
        if (!verifyModule(*IR).empty())
          return "";
      }
      std::unique_ptr<ModulePointsTo> PT;
      if (Config.PointsTo != PointsToMode::Off) {
        Span S("analysis.points_to");
        PT = std::make_unique<ModulePointsTo>(*IR);
      }
      {
        Span S("opt");
        optimizeModule(*IR, nullptr, Config.LocalGlobalPromotion, PT.get());
      }
      ModuleSummary Summary;
      {
        Span S("summary");
        std::map<std::string, TrialCodeGenInfo> Estimates;
        for (auto &F : IR->Functions) {
          CodeGenResult CG = generateCode(*IR, *F, ProcDirectives());
          if (CG.Success)
            Estimates[F->Name] = TrialCodeGenInfo{
                CG.RA.CalleeRegsUsed,
                static_cast<unsigned>(CG.CallerRegsWritten)};
        }
        Summary = buildModuleSummary(*IR, Estimates);
        if (PT)
          PT->applyToSummary(Summary);
      }
      if (Config.PointsTo == PointsToMode::GPG) {
        Span S("analysis.gpg");
        buildGPGSummary(*IR, Summary);
      }
      Span S("summary");
      Summary.ConfigFingerprint = CompileFP;
      std::string Text = writeSummary(Summary);
      Counts.SummaryBytes += static_cast<double>(Text.size());
      ModuleSummary Parsed;
      std::string Error;
      if (!readSummary(Text, Parsed, Error))
        return "";
      Summaries.push_back(std::move(Parsed));
    }
    Span S("core.analyze");
    CallProfile CP;
    if (Config.UseProfile && Profile) {
      CP.CallCounts = Profile->CallCounts;
      CP.EdgeCounts = Profile->EdgeCounts;
    }
    ProgramDatabase Produced =
        runAnalyzer(Summaries, Config.analyzerOptions(), CP);
    Produced.ConfigFingerprint = Config.fingerprint();
    DbText = Produced.serialize();
    std::string Error;
    if (!ProgramDatabase::deserialize(DbText, DB, Error))
      return "";
    HaveDB = true;
  }

  // Phase 2: objects.
  std::vector<std::string> ObjTexts;
  std::vector<ObjectFile> Objects;
  for (size_t I = 0; I < All.size(); ++I) {
    std::unique_ptr<IRModule> IR =
        LowerAndOptimize(*ASTs[I], HaveDB ? &DB : nullptr);
    if (!IR)
      return "";
    Span S("codegen");
    CallClobberResolver Clobbers;
    if (HaveDB && Config.CallerSavePropagation)
      Clobbers = [&DB](const std::string &Callee) {
        return DB.lookup(Callee).SubtreeClobber;
      };
    std::vector<ObjFunction> Funcs;
    for (auto &F : IR->Functions) {
      for (const auto &B : F->Blocks)
        Counts.IRInsns += static_cast<double>(B->Instrs.size());
      ProcDirectives Dir =
          HaveDB ? DB.lookup(F->qualifiedName()) : ProcDirectives();
      Dir.Caller &= ~Config.LinkerReservedRegs;
      Dir.Callee &= ~Config.LinkerReservedRegs;
      Dir.Free &= ~Config.LinkerReservedRegs;
      CodeGenResult CG = generateCode(*IR, *F, Dir, Clobbers);
      if (!CG.Success)
        return "";
      Counts.SpillInsns += 2.0 * std::popcount(CG.Frame.SavedRegs);
      Counts.SpilledRanges += CG.RA.SpillCount;
      Funcs.push_back(std::move(CG.Obj));
    }
    std::string Text = writeObjectFile(assemble(*IR, std::move(Funcs)));
    ObjectFile Parsed;
    std::string Error;
    if (!readObjectFile(Text, Parsed, Error))
      return "";
    ObjTexts.push_back(std::move(Text));
    Objects.push_back(std::move(Parsed));
  }
  {
    Span S("link");
    LinkResult Linked = linkObjects(Objects);
    if (!Linked.Success)
      return "";
    Counts.CodeWords += static_cast<double>(Linked.Exe.Code.size());
  }
  return artifactText(DbText, ObjTexts);
}

} // namespace

void runCorpus(const Options &O, Report &R) {
  const std::vector<NamedConfig> Configs = corpusConfigs();
  std::vector<Program> Programs;

  // Set-up: load the sources, interpret them for the reference output,
  // and collect the baseline profiles B and F consume.
  bool SetupOk = true;
  double SetupS = timedSetup([&] {
    Programs.clear();
    for (const char *Name : ProgramNames) {
      Program P;
      P.Name = Name;
      P.Sources = loadProgram(O.ProgramsDir, Name);
      std::string Error;
      if (P.Sources.empty() ||
          !interpretReference(P.Sources, P.Output, P.ExitCode, Error)) {
        R.broken(P.Name + ": reference interpretation failed: " + Error);
        SetupOk = false;
        continue;
      }
      Pipeline Base(Configs[0].Config);
      BuildResult B = Base.build(P.Sources);
      if (!B.ok()) {
        R.broken(P.Name + ": baseline profile build failed");
        SetupOk = false;
        continue;
      }
      P.Profile = runExecutable(B.Exe).Profile;
      Programs.push_back(std::move(P));
    }
  });
  if (!SetupOk || Programs.empty())
    return;

  std::vector<PairState> Pairs;
  for (size_t P = 0; P < Programs.size(); ++P)
    for (size_t C = 0; C < Configs.size(); ++C) {
      PairState S;
      S.Prog = static_cast<int>(P);
      S.Config = static_cast<int>(C);
      Pairs.push_back(std::move(S));
    }

  Tracer T;
  if (O.Trace)
    T.activate();
  std::map<std::string, double> Layer;
  // OpMs sums the timed builds: requests_per_s leaves the checks out.
  double ColdBuilds = 0, SimInsns = 0, SimMs = 0, OpMs = 0;
  ReplayCounts Counts;

  Rng Order(O.Seed);
  Clock::time_point Start = Clock::now();
  long long Builds = 0;
  double ColdOpMs = 0;
  int Round = 0;
  do {
    std::vector<size_t> Idx(Pairs.size());
    for (size_t I = 0; I < Idx.size(); ++I)
      Idx[I] = I;
    std::shuffle(Idx.begin(), Idx.end(), Order.engine());
    for (size_t I : Idx) {
      PairState &S = Pairs[I];
      const Program &P = Programs[S.Prog];
      const NamedConfig &C = Configs[S.Config];
      const ProfileData *Prof = C.Profiled ? &P.Profile : nullptr;
      std::string Tag = P.Name + "/" + C.Name;

      Pipeline Pipe(C.Config);
      Clock::time_point T0 = Clock::now();
      BuildResult B;
      {
        Span Sp("driver.build");
        B = Pipe.build(P.Sources, Prof);
      }
      double ColdMs = msSince(T0);
      ++Builds;
      OpMs += ColdMs;
      bool Ok = B.ok();
      std::string Artifacts =
          Ok ? artifactText(B.DatabaseFile, B.ObjectFiles) : "";
      if (Ok && !S.Simulated) {
        // The first build of a pair is run and checked; later rounds
        // must reproduce its artifacts, so its verdict stands for them.
        Clock::time_point TS = Clock::now();
        RunResult Run;
        {
          Span Sp("sim");
          Run = runExecutable(B.Exe);
        }
        SimMs += msSince(TS);
        SimInsns += static_cast<double>(Run.Stats.Instructions);
        S.Checked = checkRun(P, Run, S.Why) &&
                    (!C.Config.Ipra || checkIPRA(B, S.Why));
        S.Simulated = true;
        S.Artifacts = Artifacts;
        S.Run = Run.Stats;
        S.CodeWords = static_cast<double>(B.Exe.Code.size());
      }
      std::string Why = Ok ? S.Why : B.text();
      if (Ok && Artifacts != S.Artifacts) {
        Ok = false;
        Why = "cold build artifacts differ between rounds";
      }
      Ok = Ok && S.Checked;
      R.op(Ok, Tag + ": cold build: " + Why);
      if (!Ok)
        continue;
      S.ColdMs.push_back(ColdMs);
      ColdOpMs += ColdMs;
      if (C.Config.Ipra)
        S.AnalyzeMs.push_back(B.Stats.AnalyzerMs);
      ColdBuilds += 1;

      if (O.Trace) {
        const PipelineStats &PS = B.Stats;
        Layer["driver.phase1_ms"] += PS.Phase1Ms;
        Layer["driver.analyze_ms"] += PS.AnalyzerMs;
        Layer["driver.phase2_ms"] += PS.Phase2Ms;
        Layer["driver.overhead_ms"] +=
            ColdMs - PS.Phase1Ms - PS.AnalyzerMs - PS.Phase2Ms - PS.LinkMs;
        Layer["driver.link_ms"] += PS.LinkMs;
        Layer["core.webs_colored"] += B.Analyzer.ColoredWebs;
        std::string Replayed;
        {
          Span Sp("replay");
          Replayed = replayBuild(P.Sources, C.Config, Prof, Counts);
        }
        R.op(Replayed == Artifacts,
             Tag + ": layer replay differs from the Pipeline build");
        continue;
      }

      // Unchanged rebuild: every artifact comes from the cache.
      T0 = Clock::now();
      BuildResult Again = Pipe.build(P.Sources, Prof);
      double CachedMs = msSince(T0);
      ++Builds;
      OpMs += CachedMs;
      Ok = Again.ok() &&
           artifactText(Again.DatabaseFile, Again.ObjectFiles) == Artifacts &&
           Again.Stats.Phase1CacheMisses == 0 &&
           Again.Stats.Phase2CacheMisses == 0;
      R.op(Ok, Tag + ": unchanged rebuild differs or missed the cache");
      if (Ok)
        S.CachedMs.push_back(CachedMs);

      // One-module edit rebuild.
      Rng EditRng(O.Seed * 7919u + static_cast<unsigned>(Round * 131 + I));
      std::vector<SourceFile> Edited = editedSources(P.Sources, EditRng);
      T0 = Clock::now();
      BuildResult Edit = Pipe.build(Edited, Prof);
      double EditMs = msSince(T0);
      ++Builds;
      OpMs += EditMs;
      Ok = Edit.ok() && Edit.Stats.Phase2CacheMisses >= 1;
      if (Ok && Round == 0) {
        // The first round checks each pair's incremental rebuild
        // against a cold build of the edited sources.
        Pipeline Fresh(C.Config);
        BuildResult Cold = Fresh.build(Edited, Prof);
        Ok = Cold.ok() && artifactText(Cold.DatabaseFile, Cold.ObjectFiles) ==
                              artifactText(Edit.DatabaseFile, Edit.ObjectFiles);
      }
      R.op(Ok, Tag + ": edit rebuild differs from a cold build: " +
                   Edit.text());
      if (Ok) {
        S.EditMs.push_back(EditMs);
        if (C.Config.Ipra)
          S.ReanalyzeMs.push_back(Edit.Stats.AnalyzerMs);
      }
    }
    ++Round;
  } while (secondsSince(Start) < O.Seconds);

  if (O.Trace) {
    addSpanTimes(Layer, T, 1.0);
    std::map<std::string, double> PerBuild;
    for (const auto &[Name, V] : Layer)
      PerBuild[Name] = V / ColdBuilds;
    PerBuild["summary.bytes"] = Counts.SummaryBytes / ColdBuilds;
    PerBuild["opt.ir_insns"] = Counts.IRInsns / ColdBuilds;
    PerBuild["codegen.spill_insns"] = Counts.SpillInsns / ColdBuilds;
    PerBuild["codegen.spilled_ranges"] = Counts.SpilledRanges / ColdBuilds;
    PerBuild["link.code_words"] = Counts.CodeWords / ColdBuilds;
    std::vector<double> PairMedians;
    for (const PairState &S : Pairs)
      if (!S.ColdMs.empty())
        PairMedians.push_back(median(S.ColdMs));
    PerBuild["trace.op_ms"] = geomean(PairMedians);
    // One simulation per pair and run.
    PerBuild["sim.ms"] = SimMs / static_cast<double>(Pairs.size());
    PerBuild["sim.instructions"] = SimInsns / static_cast<double>(Pairs.size());
    // Spans per build: the Pipeline build, the replay and its layer
    // calls (sim spans are per pair, not per build).
    double Spans = static_cast<double>(T.size()) / ColdBuilds;
    reportLayers(R, PerBuild, ColdOpMs / ColdBuilds, Spans);
    std::string Path = O.OutDir + "/trace-corpus.json";
    if (!T.writeChromeJson(Path))
      R.broken("cannot write " + Path);
    return;
  }

  std::vector<double> Cold, Cached, Edit, Analyze, Reanalyze, Cycles, MemRefs,
      Singletons, Words;
  // Per-(program, config) rows for the reference tables.
  std::ofstream Rows(O.OutDir + "/corpus-rows.json");
  Rows << "[\n";
  for (size_t I = 0; I < Pairs.size(); ++I) {
    const PairState &S = Pairs[I];
    Rows << "  {\"program\": \"" << Programs[S.Prog].Name
         << "\", \"config\": \"" << Configs[S.Config].Name
         << "\", \"cycles\": " << S.Run.Cycles
         << ", \"memrefs\": " << S.Run.MemRefs
         << ", \"singletons\": " << S.Run.SingletonRefs
         << ", \"code_words\": " << S.CodeWords
         << ", \"build_ms\": " << median(S.ColdMs) << ", \"checked\": "
         << (S.Checked ? "true" : "false") << "}"
         << (I + 1 < Pairs.size() ? ",\n" : "\n");
  }
  Rows << "]\n";
  for (const PairState &S : Pairs) {
    // Quality covers every simulated pair, whatever its check verdict,
    // so which pairs the geomeans cover does not depend on pass/fail.
    if (S.Simulated) {
      Cycles.push_back(static_cast<double>(S.Run.Cycles));
      MemRefs.push_back(static_cast<double>(S.Run.MemRefs));
      Singletons.push_back(static_cast<double>(S.Run.SingletonRefs));
      Words.push_back(S.CodeWords);
    }
    if (S.ColdMs.empty() || S.CachedMs.empty() || S.EditMs.empty())
      continue;
    Cold.push_back(median(S.ColdMs));
    Cached.push_back(median(S.CachedMs));
    Edit.push_back(median(S.EditMs));
    if (!S.AnalyzeMs.empty())
      Analyze.push_back(median(S.AnalyzeMs));
    if (!S.ReanalyzeMs.empty())
      Reanalyze.push_back(median(S.ReanalyzeMs));
  }
  R.metric("setup_s", SetupS, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("build_ms", geomean(Cold), "ms");
  R.metric("sim_mips", SimInsns / (SimMs / 1000.0) / 1e6, "Minsn/s");
  R.metric("cycles_geomean", geomean(Cycles), "cycles");
  R.metric("memrefs_geomean", geomean(MemRefs), "count");
  R.metric("singleton_refs_geomean", geomean(Singletons), "count");
  R.metric("code_words_geomean", geomean(Words), "count");
  R.metric("analyze_ms", geomean(Analyze), "ms");
  R.metric("reanalyze_ms", geomean(Reanalyze), "ms");
  R.metric("rebuild_ms", geomean(Edit), "ms");
  R.metric("cached_ms", geomean(Cached), "ms");
  R.metric("requests_per_s", static_cast<double>(Builds) / (OpMs / 1000.0),
           "1/s");
}

} // namespace pb
