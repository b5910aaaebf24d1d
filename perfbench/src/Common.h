//===- Common.h - Shared pieces of the end-to-end benchmark ----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the result report, statistics, the reference interpreter
/// oracle and the seeded MiniC program generator shared by the three
/// workloads (corpus, scale, edit).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "driver/Pipeline.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}
inline double secondsSince(Clock::time_point Start) {
  return msSince(Start) / 1000.0;
}

/// Command-line options of one run.
struct Options {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Corpus directory (one subdirectory of .mc modules per program).
  std::string ProgramsDir = "bench/programs";
  /// Directory for the unix socket and the Chrome trace file.
  std::string OutDir = ".bench_build/out";
};

/// What one run prints as its last line.
class Report {
public:
  /// Counts one attempted operation; a false \p Ok also counts it as
  /// failed and logs \p What to stderr.
  void op(bool Ok, const std::string &What = "");
  /// Marks the run incorrect: a check could not be carried out at all.
  void broken(const std::string &What);
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// The JSON result line.
  std::string json() const;

  bool hasMetrics() const { return !Metrics.empty(); }

private:
  bool Correct = true;
  long long Attempted = 0;
  long long Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
};

double median(std::vector<double> V);
double geomean(const std::vector<double> &V);
/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Set-up repetitions; setup_s is their median.
constexpr int SetupReps = 3;

/// The median of SetupReps timed runs of \p Fn, in seconds; \p Fn runs
/// its whole set-up each time and the last run's state is kept.
template <typename Fn> double timedSetup(Fn &&F) {
  std::vector<double> Times;
  for (int I = 0; I < SetupReps; ++I) {
    Clock::time_point T0 = Clock::now();
    F();
    Times.push_back(secondsSince(T0));
  }
  return median(Times);
}

/// A seeded sequence of [0, N) draws.
class Rng {
public:
  explicit Rng(std::uint32_t Seed) : Gen(Seed) {}
  int below(int N) {
    return static_cast<int>(Gen() % static_cast<unsigned>(N));
  }
  std::mt19937 &engine() { return Gen; }

private:
  std::mt19937 Gen;
};

/// Sources with the runtime module appended, as the fused build sees
/// them.
std::vector<ipra::SourceFile>
withRuntime(const std::vector<ipra::SourceFile> &Sources);

/// Runs the reference IR interpreter on the unoptimised IR of
/// \p Sources (runtime appended here). Returns false with \p Error set
/// when the program does not compile or does not finish.
bool interpretReference(const std::vector<ipra::SourceFile> &Sources,
                        std::string &Output, int &ExitCode,
                        std::string &Error);

/// Loads the modules of \p Dir/<Name>/ sorted by file name.
std::vector<ipra::SourceFile> loadProgram(const std::string &Dir,
                                          const std::string &Name);

/// Every artifact of a fused build, for byte comparisons.
std::string artifactText(const std::string &Database,
                         const std::vector<std::string> &Objects);

/// A seeded, generated multi-module MiniC program held as a model so
/// one-module edits can be applied and the module re-rendered.
///
/// Module m defines procedures m<m>_f<k>(a, b) and owns globals
/// g<m>_<j>. A procedure guards on its budget `a`, runs a fixed-trip
/// loop over a few globals, and calls forward (later procedures of its
/// module, or the next module) with a - 1, so the call graph is a DAG
/// and every run is short and finite. main calls each module's first
/// procedure and prints every global. Loop trips and call fan-out are
/// fixed, so the dynamic instruction count varies little with the seed.
class GenProgram {
public:
  GenProgram(std::uint32_t Seed, int Modules, int ProcsPerModule,
             int GlobalsPerModule);

  /// Rendered sources (main lives in module 0).
  const std::vector<ipra::SourceFile> &sources() const { return Sources; }
  int numModules() const { return static_cast<int>(Mods.size()); }

  /// The three one-module edit kinds; each re-renders only the edited
  /// module.
  enum class EditKind { Body, GlobalRefFreq, CallEdge };
  static constexpr int NumEditKinds = 3;
  void edit(EditKind K, Rng &R);

private:
  struct Call {
    int Module, Proc;
  };
  struct Proc {
    int Constant = 0;          ///< Returned on budget exhaustion.
    std::vector<int> Globals;  ///< Global ids read/written in the loop.
    int Reps = 1;              ///< Update statements per global.
    std::vector<Call> Calls;   ///< Forward calls.
    int ExtraCall = -1;        ///< Toggled by call-edge edits (-1: none).
  };
  struct Module {
    std::vector<Proc> Procs;
  };

  std::string globalName(int G) const;
  std::string procName(int M, int P) const;
  /// A forward call target for procedure (M, P), or {-1, -1}.
  Call forwardTarget(int M, int P, Rng &R) const;
  void render(int M);

  int GlobalsPerModule;
  std::vector<Module> Mods;
  std::vector<ipra::SourceFile> Sources;
};

} // namespace pb

#endif // PERFBENCH_COMMON_H
