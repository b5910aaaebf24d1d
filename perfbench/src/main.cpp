//===- main.cpp - The end-to-end benchmark driver -------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// perfbench --workload corpus|scale|edit --seed N --seconds S --trace 0|1
///           [--programs DIR] [--out DIR]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. An untraced
/// run reports the end-to-end metrics, a traced run the per-layer ones.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace pb {

const std::vector<std::pair<std::string, std::string>> &layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      // every workload: the traced run's mean op time (corpus: cold
      // build; scale: staged cold analysis; edit: request sojourn).
      {"op.ms", "ms"},
      // corpus: the layer replay of each cold build.
      {"lang.ms", "ms"},
      {"ir.ms", "ms"},
      {"opt.ms", "ms"},
      {"analysis.points_to_ms", "ms"},
      {"analysis.gpg_ms", "ms"},
      {"summary.ms", "ms"},
      {"core.analyze_ms", "ms"},
      {"codegen.ms", "ms"},
      {"link.ms", "ms"},
      {"driver.phase1_ms", "ms"},
      {"driver.analyze_ms", "ms"},
      {"driver.phase2_ms", "ms"},
      {"driver.link_ms", "ms"},
      {"driver.overhead_ms", "ms"},
      {"summary.bytes", "bytes"},
      {"opt.ir_insns", "count"},
      {"core.webs_colored", "count"},
      {"codegen.spill_insns", "count"},
      {"codegen.spilled_ranges", "count"},
      {"link.code_words", "count"},
      {"sim.ms", "ms"},
      {"sim.instructions", "count"},
      // scale: the staged cold analysis and the delta re-analyses.
      {"summary.read_ms", "ms"},
      {"callgraph.ms", "ms"},
      {"core.refsets_ms", "ms"},
      {"analysis.modref_ms", "ms"},
      {"core.webs_ms", "ms"},
      {"core.web_nodes", "count"},
      {"core.finish_ms", "ms"},
      {"core.coloring_ms", "ms"},
      {"core.clusters_ms", "ms"},
      {"core.regsets_ms", "ms"},
      {"core.db_write_ms", "ms"},
      {"core.db_bytes", "bytes"},
      {"callgraph.nodes", "count"},
      {"callgraph.edges", "count"},
      {"callgraph.sccs", "count"},
      {"core.delta.ms", "ms"},
      {"core.delta.read_ms", "ms"},
      {"core.delta.refsets_ms", "ms"},
      {"core.delta.modref_ms", "ms"},
      {"core.delta.webs_ms", "ms"},
      {"core.delta.finish_ms", "ms"},
      {"core.delta.other_ms", "ms"},
      {"core.delta.db_write_ms", "ms"},
      {"core.delta.damaged_sccs", "count"},
      {"core.delta.web_reuse", "ratio"},
      {"core.delta.incremental", "ratio"},
      // edit: the service requests.
      {"service.sojourn_ms", "ms"},
      {"service.overhead_ms", "ms"},
      {"service.reply_bytes", "bytes"},
      {"driver.phase1_recompiled", "count"},
      {"driver.phase2_recompiled", "count"},
      {"core.analyses_delta", "ratio"},
      {"core.analyses_full", "ratio"},
      {"driver.cache_hit_ratio", "ratio"},
      // every workload: what the tracing itself costs. trace.op_ms is the
      // traced run's figure for the workload's headline time, computed as
      // the untraced run computes it (corpus: build_ms; scale: analyze_ms
      // of the staged analysis; edit: mean request latency).
      {"trace.op_ms", "ms"},
      {"trace.span_us", "us"},
      {"trace.spans_per_op", "count"},
      {"trace.overhead_pct", "%"},
  };
  return Names;
}

std::string spanMetricName(const std::string &Span) {
  return Span + (Span.find('.') == std::string::npos ? ".ms" : "_ms");
}

void addSpanTimes(std::map<std::string, double> &Values, const Tracer &T,
                  double Ops) {
  for (const auto &[Name, Tot] : T.totals())
    Values[spanMetricName(Name)] += Tot.SelfMs / Ops;
}

void reportLayers(Report &R, const std::map<std::string, double> &Values,
                  double OpMs, double SpansPerOp) {
  double SpanUs = Tracer::spanCostUs();
  for (const auto &[Name, Unit] : layerMetricNames()) {
    double V = 0;
    if (Name == "op.ms")
      V = OpMs;
    else if (Name == "trace.span_us")
      V = SpanUs;
    else if (Name == "trace.spans_per_op")
      V = SpansPerOp;
    else if (Name == "trace.overhead_pct")
      V = OpMs > 0 ? 100.0 * SpansPerOp * SpanUs / 1000.0 / OpMs : 0;
    else if (auto It = Values.find(Name); It != Values.end())
      V = It->second;
    R.metric(Name, V, Unit);
  }
}

} // namespace pb

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus|scale|edit --seed N "
               "--seconds S --trace 0|1 [--programs DIR] [--out DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  pb::Options O;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string Val = argv[++I];
    if (Arg == "--workload")
      O.Workload = Val;
    else if (Arg == "--seed")
      O.Seed = static_cast<unsigned>(std::strtoul(Val.c_str(), nullptr, 10));
    else if (Arg == "--seconds")
      O.Seconds = std::atof(Val.c_str());
    else if (Arg == "--trace")
      O.Trace = Val == "1";
    else if (Arg == "--programs")
      O.ProgramsDir = Val;
    else if (Arg == "--out")
      O.OutDir = Val;
    else
      return usage();
  }
  pb::Report R;
  if (O.Workload == "corpus")
    pb::runCorpus(O, R);
  else if (O.Workload == "scale")
    pb::runScale(O, R);
  else if (O.Workload == "edit")
    pb::runEdit(O, R);
  else
    return usage();
  if (!R.hasMetrics())
    return 1; // Set-up failed; the reason is on stderr.
  std::printf("%s\n", R.json().c_str());
  return 0;
}
