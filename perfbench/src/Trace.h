//===- Trace.h - In-memory spans for the traced run ------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans (name, start, end, parent) recorded around the benchmark's
/// calls into each layer. Spans live in memory while the run measures
/// and are written out once at the end as Chrome trace-event JSON
/// (viewable in Perfetto or chrome://tracing). The per-layer metrics
/// are derived from them: inclusive and self time per span name.
///
/// A Span on a thread with no active Tracer costs one branch, so the
/// untraced run shares the traced run's code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

class Tracer {
public:
  struct Record {
    const char *Name;
    double StartUs, EndUs;
    int Parent; ///< Index of the enclosing span on the same thread, or -1.
    int Tid;
  };

  Tracer();
  /// Makes this tracer the one Spans on any thread record into.
  void activate();
  static Tracer *active();
  /// Stops recording; later Spans are no-ops.
  static void deactivate();

  /// Inclusive and self milliseconds summed per span name.
  struct Totals {
    double InclusiveMs = 0, SelfMs = 0;
    long long Count = 0;
  };
  std::map<std::string, Totals> totals() const;
  size_t size() const;

  /// Writes every span as a Chrome trace-event "X" event.
  bool writeChromeJson(const std::string &Path) const;

  /// Measured cost of recording one span, in microseconds.
  static double spanCostUs();

private:
  friend class Span;
  int begin(const char *Name, int Parent, int Tid);
  void end(int Index);
  double nowUs() const;

  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<Record> Records;
};

/// RAII span; a no-op when no tracer is active.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  int Index = -1;
  int SavedParent = -1;
};

} // namespace pb

#endif // PERFBENCH_TRACE_H
