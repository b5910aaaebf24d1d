//===- Workloads.h - The benchmark's three workloads -----------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload runs whole rounds of its operations for Options::Seconds,
/// checks every result, and fills the Report: the end-to-end metrics in
/// an untraced run, the per-layer metrics in a traced one (every
/// per-layer name is reported by every workload; a layer that does no
/// work in a workload reads 0 there).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Trace.h"

#include <map>
#include <string>

namespace pb {

void runCorpus(const Options &O, Report &R);
void runScale(const Options &O, Report &R);
void runEdit(const Options &O, Report &R);

/// The per-layer metric names with their units, in report order.
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

/// Reports every per-layer metric: the values in \p Values, 0 for the
/// rest; "op.ms" is \p OpMs, the traced run's mean op time, and the
/// trace.* metrics give what recording \p SpansPerOp spans per op costs.
void reportLayers(Report &R, const std::map<std::string, double> &Values,
                  double OpMs, double SpansPerOp);

/// The metric a span's self time is reported under: "lang" ->
/// "lang.ms", "core.refsets" -> "core.refsets_ms".
std::string spanMetricName(const std::string &Span);

/// Adds the per-op self times of the spans in \p T to \p Values:
/// spanMetricName(span) gets self-ms per \p Ops operations.
void addSpanTimes(std::map<std::string, double> &Values, const Tracer &T,
                  double Ops);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
