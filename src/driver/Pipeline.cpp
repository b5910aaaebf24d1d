//===- Pipeline.cpp - Phase-granular incremental pipeline -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/GPG.h"
#include "analysis/Lint.h"
#include "analysis/PointsTo.h"
#include "codegen/CodeGen.h"
#include "driver/Driver.h"
#include "ir/IRGen.h"
#include "ir/Verifier.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "link/Linker.h"
#include "link/ObjectIO.h"
#include "opt/Passes.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <deque>
#include <sstream>

using namespace ipra;

namespace {

/// Parses and checks one module; returns null on error.
std::unique_ptr<ModuleAST> frontEnd(const SourceFile &Source,
                                    DiagnosticEngine &Diags) {
  Lexer Lex(Source.Name, Source.Text, Diags);
  Parser P(Source.Name, Lex.lexAll(), Diags);
  auto AST = P.parseModule();
  if (Diags.hasErrors())
    return nullptr;
  Sema S(Diags);
  if (!S.run(*AST))
    return nullptr;
  return AST;
}

/// Per-function level-2 optimization, with promoted globals excluded
/// from local promotion (§5: the dedicated register takes over) and
/// optional points-to alias facts refining the kill points.
void optimizeForDirectives(IRModule &IR, const ProgramDatabase *DB,
                           bool LocalGlobalPromotion,
                           const GlobalAliasFacts *Alias = nullptr) {
  for (auto &F : IR.Functions) {
    OptOptions Options;
    Options.LocalGlobalPromotion = LocalGlobalPromotion;
    Options.Alias = Alias;
    if (DB) {
      ProcDirectives Dir = DB->lookup(F->qualifiedName());
      for (const PromotedGlobal &P : Dir.Promoted) {
        // Directive names are qualified; the local pass sees plain
        // module-level names.
        std::string Plain = P.QualName;
        size_t Colon = Plain.rfind(':');
        if (Colon != std::string::npos)
          Plain = Plain.substr(Colon + 1);
        Options.SkipGlobals.insert(Plain);
      }
    }
    optimizeFunction(*F, Options);
  }
}

/// The linker's verdict as a Status, moving the executable out on
/// success.
Status linkStatus(LinkResult Linked, Executable &Exe) {
  if (!Linked.Success) {
    std::string Text = "link failed:";
    for (const std::string &E : Linked.Errors)
      Text += "\n  " + E;
    return Status::error(std::move(Text));
  }
  Exe = std::move(Linked.Exe);
  return Status::success();
}

/// Assembles the textual object file for one compiled module.
ObjectFile assembleObject(const IRModule &IR,
                          std::vector<ObjFunction> Funcs) {
  ObjectFile Obj;
  Obj.Module = IR.Name;
  for (const IRGlobal &G : IR.Globals) {
    ObjGlobal OG;
    OG.QualName = G.qualifiedName();
    OG.SizeWords = G.SizeWords;
    OG.Init = G.Init;
    if (!G.FuncInit.empty()) {
      // Resolve the initializer function's qualified name.
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

/// Deterministic text rendering of a profile, for the analyzer cache
/// key (std::map iteration is ordered).
std::string serializeProfile(const CallProfile &CP) {
  std::ostringstream OS;
  for (const auto &[Name, N] : CP.CallCounts)
    OS << "c " << Name << " " << N << "\n";
  for (const auto &[Edge, N] : CP.EdgeCounts)
    OS << "e " << Edge.first << " " << Edge.second << " " << N << "\n";
  return OS.str();
}

/// The analyzer cache entry bundles the AnalyzerStats with the database
/// text (a cached analyzer run must still report its statistics):
/// one "analyzer-stats <20 counters> <6 sub-phase ms>" line, then the
/// database verbatim. Entries written under an older field count fail
/// the parse below and degrade to a cache miss.
std::string statsHeader(const AnalyzerStats &S) {
  std::ostringstream OS;
  OS << "analyzer-stats " << S.EligibleGlobals << " " << S.TotalWebs << " "
     << S.ConsideredWebs << " " << S.ColoredWebs << " " << S.SplitWebs
     << " " << S.RemergedWebs << " " << S.NumClusters << " "
     << S.TotalClusterNodes << " " << S.MaxClusterSize << " "
     << S.EscapesRefuted << " " << S.IndirectCallersResolved << " "
     << S.GPGComposedProcs << " " << S.GPGContexts << " "
     << S.GPGRefutedBeyondAndersen << " " << S.GPGResolvedBeyondAndersen
     << " " << S.ReadOnlyGlobals << " " << S.WriteOnlyGlobals << " "
     << S.DeadGlobals << " " << S.UninitReadGlobals << " " << S.DeadProcs
     << " " << S.RefSetsMs << " " << S.ModRefMs << " " << S.WebsMs << " "
     << S.ColoringMs << " " << S.ClustersMs << " " << S.RegSetsMs << "\n";
  return OS.str();
}

bool splitStatsEntry(const std::string &Entry, AnalyzerStats &S,
                     std::string &DbText) {
  size_t NL = Entry.find('\n');
  if (NL == std::string::npos)
    return false;
  std::istringstream IS(Entry.substr(0, NL));
  std::string Tag;
  IS >> Tag >> S.EligibleGlobals >> S.TotalWebs >> S.ConsideredWebs >>
      S.ColoredWebs >> S.SplitWebs >> S.RemergedWebs >> S.NumClusters >>
      S.TotalClusterNodes >> S.MaxClusterSize >> S.EscapesRefuted >>
      S.IndirectCallersResolved >> S.GPGComposedProcs >> S.GPGContexts >>
      S.GPGRefutedBeyondAndersen >> S.GPGResolvedBeyondAndersen >>
      S.ReadOnlyGlobals >> S.WriteOnlyGlobals >> S.DeadGlobals >>
      S.UninitReadGlobals >> S.DeadProcs >> S.RefSetsMs >> S.ModRefMs >>
      S.WebsMs >> S.ColoringMs >> S.ClustersMs >> S.RegSetsMs;
  if (Tag != "analyzer-stats" || IS.fail())
    return false;
  DbText = Entry.substr(NL + 1);
  return true;
}

std::string summaryKey(const std::string &CompileFP,
                       const SourceFile &Source) {
  return hashParts({"summary", CompileFP, Source.Name, Source.Text});
}

std::string objectKey(const std::string &CompileFP,
                      const SourceFile &Source, const std::string &Slice) {
  return hashParts({"object", CompileFP, Source.Name, Source.Text, Slice});
}

} // namespace

Pipeline::Pipeline(PipelineConfig Config_,
                   std::shared_ptr<ArtifactCache> SharedCache,
                   std::shared_ptr<AnalyzerSession> SharedSession)
    : Config(std::move(Config_)),
      Cache(SharedCache
                ? std::move(SharedCache)
                : std::make_shared<ArtifactCache>(ArtifactCacheConfig{
                      Config.CacheDir, Config.CacheMemBudgetBytes,
                      Config.CacheDiskBudgetBytes,
                      Config.CacheDiskTTLSeconds})),
      Session(SharedSession ? std::move(SharedSession)
                            : std::make_shared<AnalyzerSession>()),
      CompileFP(Config.compileFingerprint()),
      AnalyzerFP(Config.analyzerFingerprint()),
      FullFP(Config.fingerprint()) {}

bool Pipeline::analyzeCached(const std::vector<ModuleSummary> &Summaries,
                             const std::vector<std::string> &SummaryTexts,
                             const CallProfile &CP, AnalyzerStats &Stats,
                             std::string &DbText, ProgramDatabase &DB,
                             bool &FromCache, std::string &Mode,
                             DeltaStats &DS, std::string &Error) {
  FromCache = false;
  Mode = "full";
  DS = DeltaStats();
  std::string ProfileText = serializeProfile(CP);
  std::vector<std::string_view> Parts{"database", AnalyzerFP, ProfileText};
  for (const std::string &T : SummaryTexts)
    Parts.push_back(T);
  std::string Key = hashParts(Parts);

  if (auto Entry = Cache->get(Key)) {
    AnalyzerStats CachedStats;
    std::string CachedDb;
    if (splitStatsEntry(*Entry, CachedStats, CachedDb)) {
      ProgramDatabase Parsed;
      std::string ParseError;
      if (ProgramDatabase::deserialize(CachedDb, Parsed, ParseError) &&
          Parsed.ConfigFingerprint == FullFP) {
        DB = std::move(Parsed);
        DbText = std::move(CachedDb);
        Stats = CachedStats;
        FromCache = true;
        Mode = "cached";
        return true;
      }
    }
    Cache->invalidate(Key); // Corrupt or stale entry: recompute.
  }

  ProgramDatabase Produced;
  if (Config.DeltaAnalysis) {
    // Damage-region re-analysis over the state the session retained
    // from the previous miss; byte-identical to the cold run by
    // construction (falls back internally when the edit is
    // inexpressible). The session serializes concurrent callers, so
    // same-program requests coalesce instead of racing.
    AnalyzerSession::Outcome O =
        Session->analyze(Summaries, Config.analyzerOptions(), CP);
    Produced = std::move(O.DB);
    Stats = O.Stats;
    DS = O.Delta;
    if (DS.Mode == DeltaMode::Incremental)
      Mode = "delta";
  } else {
    Produced = runAnalyzer(Summaries, Config.analyzerOptions(), CP, &Stats);
  }
  Produced.ConfigFingerprint = FullFP;
  // Round-trip through the database file format (§2).
  DbText = Produced.serialize();
  if (!ProgramDatabase::deserialize(DbText, DB, Error))
    return false;
  Cache->put(Key, statsHeader(Stats) + DbText);
  return true;
}

Status Pipeline::executeAnalyze(const BuildRequest &Req,
                                BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.AnalyzerMs);
  std::vector<ModuleSummary> Summaries;
  for (const std::string &Text : Req.Summaries) {
    ModuleSummary S;
    std::string Error;
    if (!readSummary(Text, S, Error))
      return Status::error("bad summary file: " + Error);
    if (!S.ConfigFingerprint.empty() && S.ConfigFingerprint != CompileFP)
      return Status::error(
          "bad summary file: summary for module '" + S.Module +
          "' was produced under a different compiler configuration "
          "(fingerprint " +
          S.ConfigFingerprint + ", expected " + CompileFP +
          "); re-run phase 1 with matching options");
    Summaries.push_back(std::move(S));
  }

  CallProfile CP;
  if (Config.UseProfile && Req.Profile) {
    CP.CallCounts = Req.Profile->CallCounts;
    CP.EdgeCounts = Req.Profile->EdgeCounts;
  }
  ProgramDatabase DB;
  bool FromCache = false;
  std::string Mode;
  std::string Error;
  if (!analyzeCached(Summaries, Req.Summaries, CP, Resp.Analyzer,
                     Resp.Database, DB, FromCache, Mode, Resp.Delta,
                     Error))
    return Status::error("database round-trip failed: " + Error);
  Resp.FromCache = FromCache;
  Resp.Stats.AnalyzerMode = Mode;
  if (FromCache) {
    ++Resp.Stats.AnalyzerCacheHits;
    Resp.Stats.CacheBytesSaved += Resp.Database.size();
  } else {
    ++Resp.Stats.AnalyzerCacheMisses;
  }
  Resp.Stats.DatabaseBytes = Resp.Database.size();
  return Status::success();
}

//===----------------------------------------------------------------------===//
// The per-module phase kernels. Every entry point — the fused build, the
// per-phase requests and lint — maps these over its modules, so each
// compiler phase has exactly one implementation.
//===----------------------------------------------------------------------===//

/// One module's source and its front end, run at most once and only on
/// demand: a module whose artifacts all come out of the cache is never
/// parsed (the cached artifact proves the source it hashes compiled
/// cleanly), and a cold build parses each module once for both phases.
/// Each module keeps its own diagnostic engine; merging in module order
/// keeps the rendered text independent of worker scheduling.
class Pipeline::ModuleUnit {
public:
  explicit ModuleUnit(const SourceFile &Source) : Source(Source) {}

  const SourceFile &source() const { return Source; }
  const DiagnosticEngine &diags() const { return Diags; }
  bool frontEndFailed() const { return Parsed && !AST; }

  /// The checked AST, or null on a front-end error (see diags()).
  const ModuleAST *ast(ModulePipelineStats &MS) {
    if (!Parsed) {
      ScopedTimerMs Timer(MS.FrontEndMs);
      AST = frontEnd(Source, Diags);
      Parsed = true;
    }
    return AST.get();
  }

private:
  const SourceFile &Source;
  std::unique_ptr<ModuleAST> AST;
  DiagnosticEngine Diags;
  bool Parsed = false;
};

/// The phase-1 kernel's output: the summary text plus its parsed form,
/// and the solver counters of a recompile (zero on a cache hit).
struct Pipeline::SummaryArtifact : Status {
  std::string Text;
  ModuleSummary Summary;
  bool FromCache = false;
  PointsToStats PointsTo;
  GPGBuildStats GPG;
};

/// The phase-2 kernel's output: the object text plus its parsed form.
struct Pipeline::ObjectArtifact : Status {
  std::string Text;
  ObjectFile Object;
  bool FromCache = false;
};

Pipeline::SummaryArtifact Pipeline::summaryKernel(ModuleUnit &M,
                                                  ModulePipelineStats &MS) {
  SummaryArtifact Out;
  std::string Key = summaryKey(CompileFP, M.source());
  if (auto Entry = Cache->get(Key)) {
    std::string Error;
    if (readSummary(*Entry, Out.Summary, Error) &&
        Out.Summary.ConfigFingerprint == CompileFP) {
      Out.Text = std::move(*Entry);
      Out.FromCache = MS.Phase1FromCache = true;
      Out.Ok = true;
      return Out;
    }
    Cache->invalidate(Key); // Corrupt or stale entry: recompute.
    Out.Summary = ModuleSummary();
  }

  const ModuleAST *AST = M.ast(MS);
  if (!AST) {
    Out.Diags.addAll(M.diags());
    return Out;
  }
  ScopedTimerMs Timer(MS.Phase1Ms);
  DiagnosticEngine Diags;
  auto IR = generateIR(*AST, Diags);
  auto Problems = verifyModule(*IR);
  if (!Problems.empty()) {
    Out.Diags.error("phase 1 IR verification failed: " + Problems[0]);
    return Out;
  }
  // Points-to runs on the pristine pre-optimization IR (optimization
  // only removes access sites, so the facts stay sound afterwards); its
  // facts feed the optimizer below and the summary later.
  std::unique_ptr<ModulePointsTo> PT;
  if (Config.PointsTo != PointsToMode::Off) {
    ScopedTimerMs PTTimer(MS.PointsToMs);
    PT = std::make_unique<ModulePointsTo>(*IR);
    Out.PointsTo = PT->stats();
  }
  optimizeForDirectives(*IR, nullptr, Config.LocalGlobalPromotion,
                        PT.get());

  // Trial code generation for the register-need estimates and the
  // caller-saves footprints (§6, §7.6.2).
  std::map<std::string, TrialCodeGenInfo> Estimates;
  for (auto &F : IR->Functions) {
    CodeGenResult CG = generateCode(*IR, *F, ProcDirectives());
    if (CG.Success)
      Estimates[F->Name] = TrialCodeGenInfo{
          CG.RA.CalleeRegsUsed,
          static_cast<unsigned>(CG.CallerRegsWritten)};
  }
  ModuleSummary Summary = buildModuleSummary(*IR, Estimates);
  if (PT)
    PT->applyToSummary(Summary);
  // GPG mode additionally attaches the module's composable points-to
  // residue (summary format v4); the analyzer composes the residues
  // bottom-up and strengthens the Andersen facts above.
  if (Config.PointsTo == PointsToMode::GPG) {
    ScopedTimerMs GPGTimer(MS.PointsToMs);
    Out.GPG = buildGPGSummary(*IR, Summary);
  }
  // Round-trip through the textual summary-file format, stamped with
  // the compile fingerprint; failures are never cached.
  Summary.ConfigFingerprint = CompileFP;
  Out.Text = writeSummary(Summary);
  std::string Error;
  if (!readSummary(Out.Text, Out.Summary, Error)) {
    Out.Diags.error("summary round-trip failed: " + Error);
    return Out;
  }
  Cache->put(Key, Out.Text);
  Out.Ok = true;
  return Out;
}

Pipeline::ObjectArtifact Pipeline::objectKernel(ModuleUnit &M,
                                                const ProgramDatabase *DB,
                                                const std::string &DbKey,
                                                ModulePipelineStats &MS) {
  ObjectArtifact Out;
  std::string Key = objectKey(CompileFP, M.source(), DbKey);
  if (auto Entry = Cache->get(Key)) {
    std::string Error;
    if (readObjectFile(*Entry, Out.Object, Error)) {
      Out.Text = std::move(*Entry);
      Out.FromCache = MS.Phase2FromCache = true;
      Out.Ok = true;
      return Out;
    }
    Cache->invalidate(Key); // Corrupt entry: recompute.
    Out.Object = ObjectFile();
  }

  const ModuleAST *AST = M.ast(MS);
  if (!AST) {
    Out.Diags.addAll(M.diags());
    return Out;
  }
  ScopedTimerMs Timer(MS.Phase2Ms);
  DiagnosticEngine Diags;
  auto IR = generateIR(*AST, Diags);
  std::unique_ptr<ModulePointsTo> PT;
  if (Config.PointsTo != PointsToMode::Off) {
    ScopedTimerMs PTTimer(MS.PointsToMs);
    PT = std::make_unique<ModulePointsTo>(*IR);
  }
  optimizeForDirectives(*IR, DB, Config.LocalGlobalPromotion, PT.get());
  auto Problems = verifyModule(*IR);
  if (!Problems.empty()) {
    Out.Diags.error("phase 2 IR verification failed: " + Problems[0]);
    return Out;
  }

  // Per-callee clobber masks for the §7.6.2 extension; without a
  // database (or with the extension off) every call clobbers fully.
  CallClobberResolver Clobbers;
  if (DB && Config.CallerSavePropagation)
    Clobbers = [DB](const std::string &Callee) {
      return DB->lookup(Callee).SubtreeClobber;
    };

  std::vector<ObjFunction> Funcs;
  for (auto &F : IR->Functions) {
    ProcDirectives Dir = DB ? DB->lookup(F->qualifiedName()) : ProcDirectives();
    Dir.Caller &= ~Config.LinkerReservedRegs;
    Dir.Callee &= ~Config.LinkerReservedRegs;
    Dir.Free &= ~Config.LinkerReservedRegs;
    CodeGenResult CG = generateCode(*IR, *F, Dir, Clobbers);
    if (!CG.Success) {
      Out.Diags.error("register allocation failed for " + F->qualifiedName());
      return Out;
    }
    Funcs.push_back(std::move(CG.Obj));
  }
  // Round-trip through the textual object-file format: the object
  // really is a standalone artifact, like the paper's per-module object
  // files.
  Out.Text = writeObjectFile(assembleObject(*IR, std::move(Funcs)));
  std::string Error;
  if (!readObjectFile(Out.Text, Out.Object, Error)) {
    Out.Diags.error("object round-trip failed: " + Error);
    return Out;
  }
  Cache->put(Key, Out.Text);
  Out.Ok = true;
  return Out;
}

namespace {

/// Folds the outcome of one parallel map over \p Units into \p Diags, in
/// module order so the report does not depend on worker scheduling:
/// when any front end failed, every module's front-end diagnostics;
/// otherwise the first failed kernel's. Returns true when every kernel
/// succeeded.
template <typename UnitsT, typename ArtifactsT>
bool collectFailures(const UnitsT &Units, const ArtifactsT &Artifacts,
                     Diagnostics &Diags) {
  for (const auto &U : Units)
    if (U.frontEndFailed()) {
      for (const auto &V : Units)
        Diags.addAll(V.diags());
      return false;
    }
  for (const auto &A : Artifacts)
    if (!A.ok()) {
      Diags = A.Diags;
      return false;
    }
  return true;
}

/// Counts one kernel's cache hit or miss into a phase's counters.
template <typename ArtifactT>
void countCacheUse(const ArtifactT &A, unsigned &Hits, unsigned &Misses,
                   size_t &BytesSaved) {
  if (A.FromCache) {
    ++Hits;
    BytesSaved += A.Text.size();
  } else {
    ++Misses;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The fused incremental build.
//===----------------------------------------------------------------------===//

BuildResult Pipeline::buildImpl(const std::vector<SourceFile> &Sources,
                                const ProfileData *Profile,
                                DeltaStats *OutDS) {
  BuildResult Result;
  PipelineStats &PS = Result.Stats;
  ScopedTimerMs TotalTimer(PS.TotalMs);
  const unsigned Threads = resolveThreadCount(Config.NumThreads);
  ThreadPool Pool(Threads);
  PS.ThreadsUsed = Threads;

  std::vector<SourceFile> AllSources = Sources;
  AllSources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  const size_t NumModules = AllSources.size();
  PS.Modules.resize(NumModules);
  std::deque<ModuleUnit> Units;
  for (size_t I = 0; I < NumModules; ++I) {
    PS.Modules[I].Name = AllSources[I].Name;
    Units.emplace_back(AllSources[I]);
  }

  // ---- Compiler first phase, one job per module; each job writes only
  // its own slots, so artifacts are byte-identical at any thread count.
  // Cache key: compile fingerprint x module name x source text.
  ProgramDatabase DB;
  bool HaveDB = false;
  std::vector<ModuleSummary> Summaries(NumModules);
  if (Config.Ipra) {
    std::vector<std::string> SummaryTexts(NumModules);
    {
      ScopedTimerMs Timer(PS.Phase1Ms);
      std::vector<SummaryArtifact> Artifacts(NumModules);
      parallelForEach(Pool, NumModules, [&](size_t I) {
        Artifacts[I] = summaryKernel(Units[I], PS.Modules[I]);
      });
      if (!collectFailures(Units, Artifacts, Result.Diags))
        return Result;
      for (size_t I = 0; I < NumModules; ++I) {
        SummaryArtifact &A = Artifacts[I];
        countCacheUse(A, PS.Phase1CacheHits, PS.Phase1CacheMisses,
                      PS.CacheBytesSaved);
        PS.PointsToConstraints += A.PointsTo.Constraints;
        PS.PointsToIterations += A.PointsTo.Iterations;
        PS.GPGUpdates += A.GPG.Updates;
        PS.GPGCallSites += A.GPG.CallSites;
        PS.Modules[I].SummaryBytes = A.Text.size();
        PS.SummaryBytes += A.Text.size();
        SummaryTexts[I] = std::move(A.Text);
        Summaries[I] = std::move(A.Summary);
      }
      Result.SummaryFiles = SummaryTexts;
    }

    // ---- Program analyzer: the one whole-program step. Web discovery
    // inside it fans out per global onto the configured thread count
    // (output is byte-identical at any value); the remaining stages are
    // sequential. Cache key: analyzer fingerprint x profile x every
    // summary text.
    ScopedTimerMs Timer(PS.AnalyzerMs);
    CallProfile CP;
    if (Config.UseProfile && Profile) {
      CP.CallCounts = Profile->CallCounts;
      CP.EdgeCounts = Profile->EdgeCounts;
    }
    bool FromCache = false;
    std::string Mode;
    DeltaStats DS;
    std::string Error;
    if (!analyzeCached(Summaries, SummaryTexts, CP, Result.Analyzer,
                       Result.DatabaseFile, DB, FromCache, Mode, DS,
                       Error)) {
      Result.Diags.error("database round-trip failed: " + Error);
      return Result;
    }
    if (FromCache) {
      ++PS.AnalyzerCacheHits;
      PS.CacheBytesSaved += Result.DatabaseFile.size();
    } else {
      ++PS.AnalyzerCacheMisses;
    }
    if (OutDS)
      *OutDS = DS;
    PS.AnalyzerMode = Mode;
    PS.AnalyzerChangedProcs = DS.ChangedProcs;
    PS.AnalyzerDamagedSccs = DS.DamagedSccs;
    PS.AnalyzerTotalSccs = DS.TotalSccs;
    PS.AnalyzerDamagedGlobals = DS.DamagedGlobals;
    PS.AnalyzerTotalGlobals = DS.TotalGlobals;
    PS.AnalyzerReuseRatio =
        Mode == "delta" ? DS.reuseRatio() : 0.0;
    if (Config.DeltaAnalysis && DS.Mode == DeltaMode::Full)
      PS.AnalyzerFallbackReason = DS.FallbackReason;
    PS.AnalyzerRefSetsMs = Result.Analyzer.RefSetsMs;
    PS.AnalyzerWebsMs = Result.Analyzer.WebsMs;
    PS.AnalyzerColoringMs = Result.Analyzer.ColoringMs;
    PS.AnalyzerClustersMs = Result.Analyzer.ClustersMs;
    PS.AnalyzerRegSetsMs = Result.Analyzer.RegSetsMs;
    PS.PointsToEscapesRefuted =
        static_cast<unsigned>(Result.Analyzer.EscapesRefuted);
    PS.PointsToIndirectResolved =
        static_cast<unsigned>(Result.Analyzer.IndirectCallersResolved);
    PS.GPGComposedProcs =
        static_cast<unsigned>(Result.Analyzer.GPGComposedProcs);
    PS.GPGContexts = static_cast<unsigned>(Result.Analyzer.GPGContexts);
    PS.GPGRefutedBeyondAndersen =
        static_cast<unsigned>(Result.Analyzer.GPGRefutedBeyondAndersen);
    PS.GPGResolvedBeyondAndersen =
        static_cast<unsigned>(Result.Analyzer.GPGResolvedBeyondAndersen);
    PS.ModRefReadOnlyGlobals =
        static_cast<unsigned>(Result.Analyzer.ReadOnlyGlobals);
    PS.ModRefWriteOnlyGlobals =
        static_cast<unsigned>(Result.Analyzer.WriteOnlyGlobals);
    PS.ModRefDeadGlobals =
        static_cast<unsigned>(Result.Analyzer.DeadGlobals);
    PS.ModRefUninitReadGlobals =
        static_cast<unsigned>(Result.Analyzer.UninitReadGlobals);
    PS.ModRefDeadProcs = static_cast<unsigned>(Result.Analyzer.DeadProcs);
    PS.ModRefMs = Result.Analyzer.ModRefMs;
    PS.DatabaseBytes = Result.DatabaseFile.size();
    HaveDB = true;
  }

  // ---- Compiler second phase, one job per module. Cache key: compile
  // fingerprint x module name x source text x the module's database
  // slice — after an edit, only modules whose slice the analyzer
  // actually moved recompile.
  std::vector<ObjectFile> Objects(NumModules);
  {
    ScopedTimerMs Timer(PS.Phase2Ms);
    std::vector<ObjectArtifact> Artifacts(NumModules);
    parallelForEach(Pool, NumModules, [&](size_t I) {
      std::string Slice =
          HaveDB ? DB.sliceFor(Summaries[I], Config.CallerSavePropagation)
                 : std::string();
      Artifacts[I] = objectKernel(Units[I], HaveDB ? &DB : nullptr, Slice,
                                  PS.Modules[I]);
    });
    if (!collectFailures(Units, Artifacts, Result.Diags))
      return Result;
    for (size_t I = 0; I < NumModules; ++I) {
      ObjectArtifact &A = Artifacts[I];
      countCacheUse(A, PS.Phase2CacheHits, PS.Phase2CacheMisses,
                    PS.CacheBytesSaved);
      ModulePipelineStats &MS = PS.Modules[I];
      MS.Functions = static_cast<unsigned>(A.Object.Functions.size());
      MS.ObjectBytes = A.Text.size();
      PS.ObjectBytes += A.Text.size();
      PS.FrontEndMs += MS.FrontEndMs;
      PS.PointsToMs += MS.PointsToMs;
      Result.ObjectFiles.push_back(std::move(A.Text));
      Objects[I] = std::move(A.Object);
    }
  }

  // ---- Link.
  ScopedTimerMs Timer(PS.LinkMs);
  static_cast<Status &>(Result) =
      linkStatus(linkObjects(Objects), Result.Exe);
  if (!Result.ok())
    return Result;

  // Snapshot the cache's occupancy/eviction gauges so `--stats` shows
  // whether a budget is biting (and how much it already reclaimed).
  ArtifactCacheStats CS = Cache->stats();
  PS.CacheMemBytes = CS.MemBytes;
  PS.CachePeakMemBytes = CS.PeakMemBytes;
  PS.CacheEvictions = CS.Evictions;
  PS.CacheEvictedBytes = CS.EvictedBytes;
  PS.CacheDiskEvictions = CS.DiskEvictions;
  return Result;
}

//===----------------------------------------------------------------------===//
// The canonical request entry point and the facade adapters.
//===----------------------------------------------------------------------===//

Status Pipeline::executeSummary(const BuildRequest &Req,
                                BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.Phase1Ms);
  PipelineStats &PS = Resp.Stats;
  for (const SourceFile &Source : Req.Modules) {
    ModuleUnit M(Source);
    ModulePipelineStats MS;
    SummaryArtifact A = summaryKernel(M, MS);
    if (!A.ok())
      return std::move(static_cast<Status &>(A));
    countCacheUse(A, PS.Phase1CacheHits, PS.Phase1CacheMisses,
                  PS.CacheBytesSaved);
    PS.SummaryBytes += A.Text.size();
    Resp.Summaries.push_back(std::move(A.Text));
  }
  Resp.FromCache = !Req.Modules.empty() && PS.Phase1CacheMisses == 0;
  return Status::success();
}

Status Pipeline::executeObject(const BuildRequest &Req,
                               BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.Phase2Ms);
  ProgramDatabase DB;
  const bool HaveDB = !Req.Database.empty();
  if (HaveDB) {
    std::string Error;
    if (!ProgramDatabase::deserialize(Req.Database, DB, Error))
      return Status::error("bad program database: " + Error);
    if (!DB.ConfigFingerprint.empty() && DB.ConfigFingerprint != FullFP)
      return Status::error(
          "bad program database: database was produced under a different "
          "configuration (fingerprint " +
          DB.ConfigFingerprint + ", expected " + FullFP +
          "); re-run the analyzer with matching options");
  }
  PipelineStats &PS = Resp.Stats;
  for (const SourceFile &Source : Req.Modules) {
    // A standalone request has no summary to compute the precise
    // database slice from; the whole database text stands in.
    ModuleUnit M(Source);
    ModulePipelineStats MS;
    ObjectArtifact A =
        objectKernel(M, HaveDB ? &DB : nullptr, Req.Database, MS);
    if (!A.ok())
      return std::move(static_cast<Status &>(A));
    countCacheUse(A, PS.Phase2CacheHits, PS.Phase2CacheMisses,
                  PS.CacheBytesSaved);
    PS.ObjectBytes += A.Text.size();
    Resp.Objects.push_back(std::move(A.Text));
  }
  Resp.FromCache = !Req.Modules.empty() && PS.Phase2CacheMisses == 0;
  return Status::success();
}

Status Pipeline::executeLink(const BuildRequest &Req, BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.LinkMs);
  std::vector<ObjectFile> Parsed;
  for (const std::string &Text : Req.Objects) {
    ObjectFile Obj;
    std::string Error;
    if (!readObjectFile(Text, Obj, Error))
      return Status::error("bad object file: " + Error);
    Parsed.push_back(std::move(Obj));
  }
  return linkStatus(linkObjects(Parsed), Resp.Exe);
}

Status Pipeline::executeLint(const BuildRequest &Req, BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  // Lint sees the program the fused build compiles: the user's modules
  // plus the runtime. The runtime's own findings are suppressed — its
  // unreferenced helpers are not the user's dead code — but its
  // summary stays in the graph so calls into it resolve.
  std::vector<SourceFile> AllSources = Req.Modules;
  AllSources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  std::vector<ModuleSummary> Summaries;
  PipelineStats &PS = Resp.Stats;
  {
    ScopedTimerMs Timer(PS.Phase1Ms);
    for (const SourceFile &Source : AllSources) {
      ModuleUnit M(Source);
      ModulePipelineStats MS;
      SummaryArtifact A = summaryKernel(M, MS);
      if (!A.ok())
        return std::move(static_cast<Status &>(A));
      countCacheUse(A, PS.Phase1CacheHits, PS.Phase1CacheMisses,
                    PS.CacheBytesSaved);
      Summaries.push_back(std::move(A.Summary));
    }
  }
  // Mod/ref verdicts run even under --modref=off: the flag gates what
  // allocation consumes, not what lint reports.
  ScopedTimerMs Timer(Resp.Stats.AnalyzerMs);
  CallProfile CP;
  CallGraph CG(Summaries, CP, Config.PointsTo != PointsToMode::Off);
  ModRefInfo MR = computeModRef(CG, Config.AssumeClosedWorld);
  LintResult LR = runLint(Summaries, CG, MR, "__runtime.mc");
  for (const LintDiagnostic &D : LR.Diagnostics) {
    Resp.Lints.push_back(D.render());
    Resp.LintsJson.push_back(D.renderJson());
  }
  Resp.FromCache = PS.Phase1CacheMisses == 0;
  return Status::success();
}

Status Pipeline::executeFull(const BuildRequest &Req, BuildResponse &Resp) {
  DeltaStats DS;
  BuildResult R = buildImpl(Req.Modules,
                            Req.Profile ? &*Req.Profile : nullptr, &DS);
  Resp.Summaries = std::move(R.SummaryFiles);
  Resp.Database = std::move(R.DatabaseFile);
  Resp.Objects = std::move(R.ObjectFiles);
  Resp.Exe = std::move(R.Exe);
  Resp.Analyzer = R.Analyzer;
  Resp.Delta = DS;
  Resp.Stats = std::move(R.Stats);
  Resp.FromCache = R.Ok && Resp.Stats.Phase1CacheMisses == 0 &&
                   Resp.Stats.AnalyzerCacheMisses == 0 &&
                   Resp.Stats.Phase2CacheMisses == 0;
  return std::move(static_cast<Status &>(R));
}

Result<BuildResponse> Pipeline::execute(const BuildRequest &Req) {
  Result<BuildResponse> R;
  R.Value.Program = Req.Program;
  R.Value.Phase = Req.Phase;
  // Linking is configuration-independent; every other phase's artifacts
  // are keyed on this pipeline's fingerprints, so a request built for a
  // different configuration must be rejected, not silently served.
  if (Req.Phase != BuildPhase::Link &&
      Req.Config.fingerprint() != FullFP) {
    static_cast<Status &>(R) = Status::error(
        "request configuration (fingerprint " + Req.Config.fingerprint() +
            ") does not match this pipeline (fingerprint " + FullFP + ")",
        "config-mismatch");
    return R;
  }
  Status S;
  switch (Req.Phase) {
  case BuildPhase::Summary:
    S = executeSummary(Req, R.Value);
    break;
  case BuildPhase::Analyze:
    S = executeAnalyze(Req, R.Value);
    break;
  case BuildPhase::Object:
    S = executeObject(Req, R.Value);
    break;
  case BuildPhase::Link:
    S = executeLink(Req, R.Value);
    break;
  case BuildPhase::Full:
    S = executeFull(Req, R.Value);
    break;
  case BuildPhase::Lint:
    S = executeLint(Req, R.Value);
    break;
  }
  static_cast<Status &>(R) = std::move(S);
  return R;
}

SummaryResult Pipeline::compileSummary(const SourceFile &Source) {
  Result<BuildResponse> R = execute(BuildRequest::summary(Config, {Source}));
  SummaryResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  if (!R.Value.Summaries.empty())
    Out.SummaryText = std::move(R.Value.Summaries.front());
  Out.FromCache = R.Value.FromCache;
  return Out;
}

DatabaseResult Pipeline::analyze(const std::vector<std::string> &SummaryTexts,
                                 const ProfileData *Profile) {
  BuildRequest Req = BuildRequest::analyze(Config, SummaryTexts);
  if (Profile)
    Req.Profile = *Profile;
  Result<BuildResponse> R = execute(Req);
  DatabaseResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.DatabaseText = std::move(R.Value.Database);
  Out.Stats = R.Value.Analyzer;
  Out.FromCache = R.Value.FromCache;
  Out.Mode = R.Value.Stats.AnalyzerMode;
  Out.Delta = R.Value.Delta;
  return Out;
}

ObjectResult Pipeline::compileObject(const SourceFile &Source,
                                     const std::string &DatabaseText) {
  Result<BuildResponse> R =
      execute(BuildRequest::object(Config, Source, DatabaseText));
  ObjectResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  if (!R.Value.Objects.empty())
    Out.ObjectText = std::move(R.Value.Objects.front());
  Out.FromCache = R.Value.FromCache;
  return Out;
}

LinkedResult Pipeline::link(const std::vector<std::string> &ObjectTexts) {
  Result<BuildResponse> R = execute(BuildRequest::link(ObjectTexts));
  LinkedResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.Exe = std::move(R.Value.Exe);
  return Out;
}

BuildResult Pipeline::build(const std::vector<SourceFile> &Sources,
                            const ProfileData *Profile) {
  BuildRequest Req = BuildRequest::full(Config, Sources);
  if (Profile)
    Req.Profile = *Profile;
  Result<BuildResponse> R = execute(Req);
  BuildResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.Exe = std::move(R.Value.Exe);
  Out.Analyzer = R.Value.Analyzer;
  Out.Stats = std::move(R.Value.Stats);
  Out.SummaryFiles = std::move(R.Value.Summaries);
  Out.DatabaseFile = std::move(R.Value.Database);
  Out.ObjectFiles = std::move(R.Value.Objects);
  return Out;
}

LintRunResult Pipeline::lint(const std::vector<SourceFile> &Sources) {
  Result<BuildResponse> R = execute(BuildRequest::lint(Config, Sources));
  LintRunResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.Lints = std::move(R.Value.Lints);
  Out.LintsJson = std::move(R.Value.LintsJson);
  return Out;
}
