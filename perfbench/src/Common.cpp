//===- Common.cpp - Shared pieces of the end-to-end benchmark -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/Driver.h"
#include "ir/IRGen.h"
#include "ir/Interp.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ipra;

namespace pb {

void Report::op(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: failed op: %s\n", What.c_str());
  }
}

void Report::broken(const std::string &What) {
  Correct = false;
  std::fprintf(stderr, "perfbench: check not carried out: %s\n",
               What.c_str());
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, std::isfinite(Value) ? Value : 0.0, Unit});
}

std::string Report::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    OS << (I ? ", " : "") << "\"" << Metrics[I].Name
       << "\": {\"value\": " << Buf << ", \"unit\": \"" << Metrics[I].Unit
       << "\"}";
  }
  OS << "}}";
  return OS.str();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<SourceFile> withRuntime(const std::vector<SourceFile> &Sources) {
  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  return All;
}

bool interpretReference(const std::vector<SourceFile> &Sources,
                        std::string &Output, int &ExitCode,
                        std::string &Error) {
  DiagnosticEngine Diags;
  std::vector<std::unique_ptr<IRModule>> IRs;
  for (const SourceFile &Src : withRuntime(Sources)) {
    Lexer Lex(Src.Name, Src.Text, Diags);
    Parser P(Src.Name, Lex.lexAll(), Diags);
    auto AST = P.parseModule();
    if (Diags.hasErrors()) {
      Error = Diags.renderAll();
      return false;
    }
    Sema S(Diags);
    if (!S.run(*AST)) {
      Error = Diags.renderAll();
      return false;
    }
    IRs.push_back(generateIR(*AST, Diags));
  }
  std::vector<const IRModule *> Ptrs;
  for (auto &M : IRs)
    Ptrs.push_back(M.get());
  IRRunResult R = interpretIR(Ptrs);
  if (!R.Ok) {
    Error = "interpreter: " + R.Error;
    return false;
  }
  Output = R.Output;
  ExitCode = R.ExitCode;
  return true;
}

std::vector<SourceFile> loadProgram(const std::string &Dir,
                                    const std::string &Name) {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir + "/" + Name))
    if (Entry.path().extension() == ".mc")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  std::vector<SourceFile> Sources;
  for (const auto &Path : Files) {
    std::ifstream In(Path);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Sources.push_back(SourceFile{Path.filename().string(), Buf.str()});
  }
  return Sources;
}

std::string artifactText(const std::string &Database,
                         const std::vector<std::string> &Objects) {
  std::string Out = Database;
  for (const std::string &O : Objects) {
    Out += "\n--- object\n";
    Out += O;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The generated MiniC program.
//===----------------------------------------------------------------------===//

namespace {
constexpr int LoopTrips = 4;   ///< Trips of every procedure's loop.
constexpr int Budget = 4;      ///< Call depth main starts each chain at.
constexpr int MainRounds = 6;  ///< Trips of main's driving loop.
} // namespace

GenProgram::GenProgram(std::uint32_t Seed, int NumModules,
                       int ProcsPerModule, int GlobalsPerModule_)
    : GlobalsPerModule(GlobalsPerModule_) {
  Rng R(Seed);
  Mods.resize(static_cast<size_t>(NumModules));
  for (Module &M : Mods)
    M.Procs.resize(static_cast<size_t>(ProcsPerModule));
  for (int M = 0; M < NumModules; ++M) {
    for (int P = 0; P < ProcsPerModule; ++P) {
      Proc &Pr = Mods[M].Procs[P];
      Pr.Constant = R.below(50);
      int Own = M * GlobalsPerModule;
      Pr.Globals.push_back(Own + R.below(GlobalsPerModule));
      // One procedure in three also touches a neighbour's global, so
      // some webs cross module boundaries.
      int Other = M + 1 < NumModules ? M + 1 : M - 1;
      if (Other >= 0 && R.below(3) == 0)
        Pr.Globals.push_back(Other * GlobalsPerModule +
                             R.below(GlobalsPerModule));
      else
        Pr.Globals.push_back(Own + R.below(GlobalsPerModule));
      for (int C = 0; C < 2; ++C) {
        Call T = forwardTarget(M, P, R);
        if (T.Module >= 0)
          Pr.Calls.push_back(T);
      }
    }
  }
  Sources.resize(static_cast<size_t>(NumModules));
  for (int M = 0; M < NumModules; ++M)
    render(M);
}

std::string GenProgram::globalName(int G) const {
  return "g" + std::to_string(G / GlobalsPerModule) + "_" +
         std::to_string(G % GlobalsPerModule);
}

std::string GenProgram::procName(int M, int P) const {
  return "m" + std::to_string(M) + "_f" + std::to_string(P);
}

GenProgram::Call GenProgram::forwardTarget(int M, int P, Rng &R) const {
  int Procs = static_cast<int>(Mods[M].Procs.size());
  bool Local = P + 1 < Procs;
  bool Next = M + 1 < numModules();
  if (Local && (!Next || R.below(2) == 0))
    return Call{M, P + 1 + R.below(Procs - P - 1)};
  if (Next)
    return Call{M + 1, R.below(static_cast<int>(Mods[M + 1].Procs.size()))};
  return Call{-1, -1};
}

void GenProgram::render(int M) {
  std::ostringstream Decls, Body;
  std::vector<int> UsedGlobals;
  std::vector<std::pair<int, int>> UsedProcs;
  auto UseGlobal = [&](int G) {
    if (std::find(UsedGlobals.begin(), UsedGlobals.end(), G) ==
        UsedGlobals.end())
      UsedGlobals.push_back(G);
  };
  auto UseProc = [&](const Call &C) {
    std::pair<int, int> Key{C.Module, C.Proc};
    if (C.Module != M &&
        std::find(UsedProcs.begin(), UsedProcs.end(), Key) == UsedProcs.end())
      UsedProcs.push_back(Key);
  };
  // Module 0 holds main, which prints every global and starts every
  // module's chain.
  if (M == 0)
    for (int G = 0; G < numModules() * GlobalsPerModule; ++G)
      UseGlobal(G);
  else
    for (int G = 0; G < GlobalsPerModule; ++G)
      UseGlobal(M * GlobalsPerModule + G);

  const std::vector<Proc> &Procs = Mods[M].Procs;
  // Forward declarations of this module's own procedures come first so
  // calls may go to later procedures.
  for (size_t P = 0; P < Procs.size(); ++P)
    Body << "int " << procName(M, static_cast<int>(P)) << "(int a, int b);\n";
  Body << "\n";
  for (size_t P = 0; P < Procs.size(); ++P) {
    const Proc &Pr = Procs[P];
    Body << "int " << procName(M, static_cast<int>(P)) << "(int a, int b) {\n"
         << "  if (a <= 0) return b + " << Pr.Constant << ";\n"
         << "  int s = b;\n"
         << "  for (int i = 0; i < " << LoopTrips << "; i = i + 1) {\n";
    for (size_t G = 0; G < Pr.Globals.size(); ++G) {
      std::string Name = globalName(Pr.Globals[G]);
      UseGlobal(Pr.Globals[G]);
      int Reps = G == 0 ? Pr.Reps : 1;
      for (int K = 0; K < Reps; ++K)
        Body << "    s = s + " << Name << ";\n"
             << "    " << Name << " = (s + i) % 251;\n";
    }
    Body << "  }\n";
    std::vector<Call> Calls = Pr.Calls;
    if (Pr.ExtraCall >= 0)
      Calls.push_back(Call{Pr.ExtraCall / 1000, Pr.ExtraCall % 1000});
    for (size_t C = 0; C < Calls.size(); ++C) {
      UseProc(Calls[C]);
      Body << "  s = s + " << procName(Calls[C].Module, Calls[C].Proc)
           << "(a - 1, s % " << (C + 3) << ");\n";
    }
    Body << "  return s % 1009;\n}\n\n";
  }
  if (M == 0) {
    for (int N = 1; N < numModules(); ++N)
      UseProc(Call{N, 0});
    Body << "int main() {\n  int r = 0;\n"
         << "  for (int it = 0; it < " << MainRounds << "; it = it + 1) {\n";
    for (int N = 0; N < numModules(); ++N)
      Body << "    r = (r + " << procName(N, 0) << "(" << Budget
           << ", it)) % 100003;\n";
    Body << "  }\n  print(r);\n";
    for (int G = 0; G < numModules() * GlobalsPerModule; ++G)
      Body << "  print(" << globalName(G) << ");\n";
    Body << "  return 0;\n}\n";
  }

  std::sort(UsedGlobals.begin(), UsedGlobals.end());
  for (int G : UsedGlobals)
    Decls << "int " << globalName(G) << ";\n";
  std::sort(UsedProcs.begin(), UsedProcs.end());
  for (const auto &[CM, CP] : UsedProcs)
    Decls << "int " << procName(CM, CP) << "(int a, int b);\n";
  Decls << "\n";
  Sources[M] = SourceFile{"mod" + std::to_string(M) + ".mc",
                          Decls.str() + Body.str()};
}

void GenProgram::edit(EditKind K, Rng &R) {
  int M = R.below(numModules());
  int P = R.below(static_cast<int>(Mods[M].Procs.size()));
  Proc &Pr = Mods[M].Procs[P];
  switch (K) {
  case EditKind::Body:
    // The summary does not change: phase 1 and phase 2 of this module
    // rerun, the analyzer is a cache hit.
    Pr.Constant = (Pr.Constant + 1 + R.below(40)) % 50;
    break;
  case EditKind::GlobalRefFreq:
    // More or fewer references to the first global: its reference
    // frequency in the summary moves.
    Pr.Reps = Pr.Reps % 3 + 1;
    break;
  case EditKind::CallEdge: {
    // Adds a forward call edge, or removes the one added before.
    if (Pr.ExtraCall >= 0) {
      Pr.ExtraCall = -1;
    } else {
      Call T = forwardTarget(M, P, R);
      if (T.Module < 0) // The very last procedure: edit its loop instead.
        Pr.Reps = Pr.Reps % 3 + 1;
      else
        Pr.ExtraCall = T.Module * 1000 + T.Proc;
    }
    break;
  }
  }
  render(M);
}

} // namespace pb
