//===- Edit.cpp - The edit workload ---------------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// A daemon runs in-process on a unix socket with an explicit worker
/// count. A closed loop of ServiceClients, each owning a seeded
/// generated MiniC program of 24 modules, sends one-module source edits
/// (body-only, global-reference-frequency, call-edge, in turn), each
/// followed by a build, and between edits an unchanged rebuild. Edit
/// builds write to the shared artifact cache; unchanged rebuilds only
/// read it.
///
/// Checks: every unchanged rebuild must be byte-equal to the edit build
/// before it. The state at the end of every VerifyEvery-th client round
/// is kept and, after the loop, cold-built one-shot: the reply's artifacts must be
/// byte-equal to that build, and the relinked reply must run to the IR
/// interpreter's output for the edited sources. Those one-shot builds
/// and runs give build_ms, analyze_ms and sim_mips here; the quality
/// geomeans come from the clients' initial programs, so they depend on
/// the seed only.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "service/Client.h"
#include "service/Daemon.h"

#include <unistd.h>

#include <memory>
#include <thread>

using namespace ipra;

namespace pb {

namespace {

constexpr int NumClients = 3;
constexpr unsigned NumWorkers = 3;
constexpr size_t CacheBudgetBytes = 16u << 20;
constexpr int EditsPerRound = 6; ///< Two of each edit kind.
/// Round-end states kept for the post-loop check: rounds 0, N, 2N, ...
/// (a cold one-shot build of 24 modules costs as much as ten edits).
constexpr int VerifyEvery = 16;

PipelineConfig editConfig() {
  PipelineConfig C = PipelineConfig::configC();
  C.NumThreads = 1;
  return C;
}

/// A state to verify after the loop: the sources and what the daemon
/// answered for them.
struct Snapshot {
  std::vector<SourceFile> Sources;
  BuildResponse Reply;
};

struct ClientState {
  std::unique_ptr<GenProgram> Prog;
  std::unique_ptr<ServiceClient> Conn;
  BuildResponse Initial;
  std::vector<std::vector<double>> EditMs{GenProgram::NumEditKinds};
  std::vector<double> CachedMs, ReanalyzeMs;
  std::vector<Snapshot> Snapshots;
  long long Requests = 0, Failed = 0, Attempted = 0;
  // Per-layer accumulators (traced run).
  double SojournMs = 0, OverheadMs = 0, ReplyBytes = 0, LinkMs = 0,
         Phase1Recompiled = 0, Phase2Recompiled = 0, DeltaRuns = 0,
         FullRuns = 0, CacheHits = 0, CacheLookups = 0, EditRequests = 0;
};

std::string programName(int C) { return "client" + std::to_string(C); }

double replyBytes(const BuildResponse &R) {
  double N = static_cast<double>(R.Database.size());
  for (const std::string &S : R.Summaries)
    N += static_cast<double>(S.size());
  for (const std::string &O : R.Objects)
    N += static_cast<double>(O.size());
  return N;
}

/// One request; false when the daemon did not answer a build.
bool request(ClientState &C, int Id, BuildResponse &Out, double &Ms) {
  BuildRequest Req =
      BuildRequest::full(editConfig(), C.Prog->sources(), programName(Id));
  Clock::time_point T0 = Clock::now();
  Result<BuildResponse> R = [&] {
    Span S("service.request");
    return C.Conn->request(Req);
  }();
  Ms = msSince(T0);
  ++C.Requests;
  if (!R.ok())
    return false;
  Out = std::move(R.Value);
  const PipelineStats &PS = Out.Stats;
  C.SojournMs += Ms;
  C.OverheadMs += Ms - PS.TotalMs;
  C.ReplyBytes += replyBytes(Out);
  C.LinkMs += PS.LinkMs;
  C.CacheHits += PS.Phase1CacheHits + PS.Phase2CacheHits + PS.AnalyzerCacheHits;
  C.CacheLookups += PS.Phase1CacheHits + PS.Phase2CacheHits +
                    PS.AnalyzerCacheHits + PS.Phase1CacheMisses +
                    PS.Phase2CacheMisses + PS.AnalyzerCacheMisses;
  return true;
}

void clientLoop(ClientState &C, int Id, std::uint32_t Seed, double Seconds,
                Clock::time_point Start) {
  Rng R(Seed);
  int Round = 0;
  do {
    BuildResponse Last;
    for (int E = 0; E < EditsPerRound; ++E) {
      auto Kind = static_cast<GenProgram::EditKind>(E % GenProgram::NumEditKinds);
      C.Prog->edit(Kind, R);
      BuildResponse Edit;
      double Ms = 0;
      ++C.Attempted;
      if (!request(C, Id, Edit, Ms)) {
        ++C.Failed;
        continue;
      }
      C.EditMs[static_cast<size_t>(Kind)].push_back(Ms);
      const PipelineStats &PS = Edit.Stats;
      C.EditRequests += 1;
      C.Phase1Recompiled += PS.Phase1CacheMisses;
      C.Phase2Recompiled += PS.Phase2CacheMisses;
      if (PS.AnalyzerMode == "delta")
        C.DeltaRuns += 1;
      else if (PS.AnalyzerMode == "full")
        C.FullRuns += 1;
      if (PS.AnalyzerCacheMisses > 0)
        C.ReanalyzeMs.push_back(PS.AnalyzerMs);

      BuildResponse Again;
      ++C.Attempted;
      if (!request(C, Id, Again, Ms) || Again.Objects != Edit.Objects ||
          Again.Database != Edit.Database) {
        ++C.Failed;
        continue;
      }
      C.CachedMs.push_back(Ms);
      Last = std::move(Edit);
    }
    if (Round % VerifyEvery == 0)
      C.Snapshots.push_back(Snapshot{C.Prog->sources(), std::move(Last)});
    ++Round;
  } while (secondsSince(Start) < Seconds);
}

/// Checks a reply against a cold one-shot build and the interpreter.
/// Fills the one-shot timings and the run.
bool verifyReply(const std::vector<SourceFile> &Sources,
                 const BuildResponse &Reply, double &ColdMs,
                 double &AnalyzerMs, RunResult &Run, double &SimMs,
                 double &CodeWords, std::string &Why) {
  Pipeline OneShot(editConfig());
  Clock::time_point T0 = Clock::now();
  BuildResult B = OneShot.build(Sources);
  ColdMs = msSince(T0);
  AnalyzerMs = B.Stats.AnalyzerMs;
  if (!B.ok()) {
    Why = "one-shot build failed: " + B.text();
    return false;
  }
  if (B.ObjectFiles != Reply.Objects || B.DatabaseFile != Reply.Database) {
    Why = "reply artifacts differ from a cold one-shot build";
    return false;
  }
  LinkedResult L = OneShot.link(Reply.Objects);
  if (!L.ok()) {
    Why = "relink failed: " + L.text();
    return false;
  }
  CodeWords = static_cast<double>(L.Exe.Code.size());
  T0 = Clock::now();
  Run = runExecutable(L.Exe);
  SimMs = msSince(T0);
  std::string Out, Error;
  int Exit = 0;
  if (!interpretReference(Sources, Out, Exit, Error)) {
    Why = Error;
    return false;
  }
  if (!Run.Halted || Run.Output != Out || Run.ExitCode != Exit) {
    Why = "relinked reply does not run to the interpreter's output";
    return false;
  }
  return true;
}

} // namespace

void runEdit(const Options &O, Report &R) {
  BuildServiceConfig SC;
  SC.Workers = NumWorkers;
  // A size-budgeted cache, as a long-running daemon would keep, so the
  // resident set does not grow with the number of requests in a run.
  SC.CacheMemBudgetBytes = CacheBudgetBytes;
  std::string Socket =
      O.OutDir + "/pb-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<Daemon> D;
  std::vector<ClientState> Clients(NumClients);
  bool SetupOk = true;

  // Set-up: daemon start and each client's first (cold) build.
  double SetupS = timedSetup([&] {
    Clients.clear();
    Clients.resize(NumClients);
    D.reset();
    D = std::make_unique<Daemon>(Socket, SC);
    std::string Error;
    if (!D->start(Error)) {
      R.broken("daemon: " + Error);
      SetupOk = false;
      return;
    }
    for (int C = 0; C < NumClients; ++C) {
      ClientState &CS = Clients[C];
      CS.Prog = std::make_unique<GenProgram>(
          O.Seed * 7717u + static_cast<unsigned>(C), 24, 6, 2);
      CS.Conn = std::make_unique<ServiceClient>();
      Status St = CS.Conn->connect(Socket);
      Result<BuildResponse> First =
          St.ok() ? CS.Conn->request(BuildRequest::full(
                        editConfig(), CS.Prog->sources(), programName(C)))
                  : Result<BuildResponse>(St);
      if (!First.ok()) {
        R.broken("client " + std::to_string(C) + " first build: " +
                 First.text());
        SetupOk = false;
        return;
      }
      CS.Initial = std::move(First.Value);
    }
  });
  if (!SetupOk)
    return;

  // Quality of the clients' initial programs (seed-determined).
  std::vector<double> Cycles, MemRefs, Singletons, Words;
  for (ClientState &C : Clients) {
    double ColdMs = 0, AnalyzerMs = 0, SimMs = 0, CodeWords = 0;
    RunResult Run;
    std::string Why;
    bool Ok = verifyReply(C.Prog->sources(), C.Initial, ColdMs, AnalyzerMs,
                          Run, SimMs, CodeWords, Why);
    R.op(Ok, "initial build: " + Why);
    Cycles.push_back(static_cast<double>(Run.Stats.Cycles));
    MemRefs.push_back(static_cast<double>(Run.Stats.MemRefs));
    Singletons.push_back(static_cast<double>(Run.Stats.SingletonRefs));
    Words.push_back(CodeWords);
  }

  Tracer T;
  if (O.Trace)
    T.activate();
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (int C = 0; C < NumClients; ++C)
    Threads.emplace_back(clientLoop, std::ref(Clients[C]), C,
                         O.Seed * 31u + static_cast<unsigned>(C), O.Seconds,
                         Start);
  for (std::thread &Th : Threads)
    Th.join();
  double LoopS = secondsSince(Start);
  for (ClientState &C : Clients)
    C.Conn->disconnect();
  D.reset(); // Drains and stops the daemon, joins its threads.
  Tracer::deactivate();

  // Post-loop verification of the kept round-end states.
  std::vector<double> OneShotMs, OneShotAnalyzerMs;
  double SimInsns = 0, SimMs = 0;
  long long Requests = 0;
  for (ClientState &C : Clients) {
    for (long long I = 0; I < C.Attempted; ++I)
      R.op(I >= C.Failed, "request failed or unchanged rebuild differs");
    Requests += C.Requests;
    for (const Snapshot &S : C.Snapshots) {
      double ColdMs = 0, AnalyzerMs = 0, Ms = 0, CodeWords = 0;
      RunResult Run;
      std::string Why;
      bool Ok = verifyReply(S.Sources, S.Reply, ColdMs, AnalyzerMs, Run, Ms,
                            CodeWords, Why);
      R.op(Ok, "round-end state: " + Why);
      if (!Ok)
        continue;
      OneShotMs.push_back(ColdMs);
      OneShotAnalyzerMs.push_back(AnalyzerMs);
      SimMs += Ms;
      SimInsns += static_cast<double>(Run.Stats.Instructions);
    }
  }

  if (O.Trace) {
    ClientState Sum;
    for (const ClientState &C : Clients) {
      Sum.SojournMs += C.SojournMs;
      Sum.OverheadMs += C.OverheadMs;
      Sum.ReplyBytes += C.ReplyBytes;
      Sum.LinkMs += C.LinkMs;
      Sum.Phase1Recompiled += C.Phase1Recompiled;
      Sum.Phase2Recompiled += C.Phase2Recompiled;
      Sum.DeltaRuns += C.DeltaRuns;
      Sum.FullRuns += C.FullRuns;
      Sum.CacheHits += C.CacheHits;
      Sum.CacheLookups += C.CacheLookups;
      Sum.EditRequests += C.EditRequests;
    }
    double N = static_cast<double>(Requests);
    std::map<std::string, double> Values = {
        {"service.sojourn_ms", Sum.SojournMs / N},
        {"service.overhead_ms", Sum.OverheadMs / N},
        {"service.reply_bytes", Sum.ReplyBytes / N},
        {"link.ms", Sum.LinkMs / N},
        {"driver.phase1_recompiled", Sum.Phase1Recompiled / Sum.EditRequests},
        {"driver.phase2_recompiled", Sum.Phase2Recompiled / Sum.EditRequests},
        {"core.analyses_delta", Sum.DeltaRuns / Sum.EditRequests},
        {"core.analyses_full", Sum.FullRuns / Sum.EditRequests},
        {"driver.cache_hit_ratio", Sum.CacheHits / Sum.CacheLookups},
        {"trace.op_ms", Sum.SojournMs / N},
    };
    reportLayers(R, Values, Sum.SojournMs / N, 1.0);
    std::string Path = O.OutDir + "/trace-edit.json";
    if (!T.writeChromeJson(Path))
      R.broken("cannot write " + Path);
    return;
  }

  std::vector<double> KindMedians, Cached, Reanalyze;
  for (int K = 0; K < GenProgram::NumEditKinds; ++K) {
    std::vector<double> All;
    for (const ClientState &C : Clients)
      All.insert(All.end(), C.EditMs[K].begin(), C.EditMs[K].end());
    if (!All.empty())
      KindMedians.push_back(median(All));
  }
  for (const ClientState &C : Clients) {
    Cached.insert(Cached.end(), C.CachedMs.begin(), C.CachedMs.end());
    Reanalyze.insert(Reanalyze.end(), C.ReanalyzeMs.begin(),
                     C.ReanalyzeMs.end());
  }
  R.metric("setup_s", SetupS, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("build_ms", median(OneShotMs), "ms");
  R.metric("sim_mips", SimInsns / (SimMs / 1000.0) / 1e6, "Minsn/s");
  R.metric("cycles_geomean", geomean(Cycles), "cycles");
  R.metric("memrefs_geomean", geomean(MemRefs), "count");
  R.metric("singleton_refs_geomean", geomean(Singletons), "count");
  R.metric("code_words_geomean", geomean(Words), "count");
  R.metric("analyze_ms", median(OneShotAnalyzerMs), "ms");
  R.metric("reanalyze_ms", median(Reanalyze), "ms");
  R.metric("rebuild_ms", geomean(KindMedians), "ms");
  R.metric("cached_ms", median(Cached), "ms");
  R.metric("requests_per_s", static_cast<double>(Requests) / LoopS, "1/s");
}

} // namespace pb
