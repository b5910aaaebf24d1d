#!/usr/bin/env python3
"""End-to-end benchmark of the two-pass IPRA toolchain.

Run from the root of a checkout:

  python3 perfbench/run.py --workload corpus|scale|edit --seed N \
      --seconds S --trace 0|1
      Builds perfbench (and the repository's libraries under src/) into
      .bench_build on first use, runs one workload and prints its result
      as the last line of stdout: {"correct", "attempted", "failed",
      "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
      per-layer ones (and writes a Chrome trace to .bench_build/out/).

  python3 perfbench/run.py steady
      Two sets of ten runs of every workload (seeds 1..10 and 11..20) of
      the same build, each run_seconds long. For each (workload,
      end-to-end metric) prints both medians, the quartile spread of each
      set as a share of its median, and whether both spreads and the
      distance between the medians stay within the metric's bound in
      BENCHMARK.json. Exits 1 if any does not.

  python3 perfbench/run.py reference [--seed N]
      Regenerates the figures of perfbench/README.md: the per-(program,
      config) cycles / memory refs / singleton refs / code words rows of
      the corpus, and the traced layer breakdown of every workload with
      each layer's share of op time and the tracing overhead. Not a
      pass/fail check.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD = os.path.join(ROOT, BUILD) if not os.path.isabs(BUILD) else BUILD
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ["corpus", "scale", "edit"]
# Build and run with at most this many parallel jobs (the benchmark's own
# thread counts are fixed in its sources).
JOBS = max(1, min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds perfbench into BUILD (quietly when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt: run from the root of a full checkout")
    if not os.path.isdir(os.path.join(ROOT, "bench", "programs")):
        fail("no bench/programs: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", str(JOBS)], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (result dict, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--programs", os.path.join(ROOT, "bench", "programs"),
           "--out", OUT]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{workload} run exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} run printed no result")
    return json.loads(lines[-1]), r.stdout


def parse_flags(argv, spec):
    """Minimal --flag value parser over the names in spec (name -> type)."""
    out = {}
    i = 0
    while i < len(argv):
        name = argv[i].lstrip("-").replace("-", "_")
        if not argv[i].startswith("--") or name not in spec or i + 1 >= len(argv):
            fail(f"bad argument {argv[i]!r}; see perfbench/run.py")
        out[name] = spec[name](argv[i + 1])
        i += 2
    return out


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Quartile spread as a share of the median."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def steady(argv):
    parse_flags(argv, {})
    spec = benchmark_spec()
    runs = 10
    seconds = spec["run_seconds"]
    build()
    ok = True
    for w in WORKLOADS:
        sets = []
        for s in range(2):
            vals, shares = {}, []
            for i in range(runs):
                seed = s * runs + i + 1
                res, _ = run_once(w, seed, seconds, False)
                shares.append(res["failed"] / res["attempted"])
                for m, v in res["metrics"].items():
                    vals.setdefault(m, []).append(v["value"])
                print(f"  {w} set {s + 1} seed {seed}: attempted "
                      f"{res['attempted']} failed {res['failed']}",
                      file=sys.stderr)
            sets.append((vals, shares))
        print(f"\n{w}: failed share set1 {sorted(set(sets[0][1]))} "
              f"set2 {sorted(set(sets[1][1]))}")
        print(f"  {'metric':24} {'median1':>14} {'median2':>14} "
              f"{'spread1':>8} {'spread2':>8} {'bound':>6}  agree")
        for m in spec["end_to_end"]:
            a, b = sets[0][0][m["name"]], sets[1][0][m["name"]]
            m1, m2 = statistics.median(a), statistics.median(b)
            # Either set may be the faster one: the medians agree when
            # they are within the bound of each other.
            agree = abs(m2 - m1) <= m["bound"] * min(m1, m2)
            s1, s2 = spread(a), spread(b)
            within = s1 <= m["bound"] and s2 <= m["bound"]
            ok &= agree and within
            print(f"  {m['name']:24} {m1:14.6g} {m2:14.6g} {s1:8.3f} "
                  f"{s2:8.3f} {m['bound']:6.2f}  "
                  f"{'yes' if agree else 'NO'}{'' if within else ' (spread over bound)'}")
        ok &= set(sets[0][1]) == set(sets[1][1]) and len(set(sets[0][1])) == 1
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def reference(argv):
    flags = parse_flags(argv, {"seed": int})
    seed = flags.get("seed", 1)
    seconds = benchmark_spec()["run_seconds"]
    build()
    untraced, traced = {}, {}
    for w in WORKLOADS:
        untraced[w], _ = run_once(w, seed, seconds, False)
        traced[w], _ = run_once(w, seed, seconds, True)
    with open(os.path.join(OUT, "corpus-rows.json")) as f:
        rows = json.load(f)

    print(f"## Corpus rows (seed {seed})\n")
    print("| program | config | cycles | memory refs | singleton refs "
          "| code words | cold build ms |")
    print("|---|---|---:|---:|---:|---:|---:|")
    for r in rows:
        print(f"| {r['program']} | {r['config']} | {r['cycles']} | "
              f"{r['memrefs']} | {r['singletons']} | {r['code_words']} | "
              f"{r['build_ms']:.2f} |")

    def val(w, name):
        return traced[w]["metrics"][name]["value"]

    shares = {
        "corpus": ("op.ms", ["driver.phase1_ms", "driver.analyze_ms",
                             "driver.phase2_ms", "driver.link_ms",
                             "driver.overhead_ms"],
                   "replay", ["lang.ms", "ir.ms", "analysis.points_to_ms",
                              "opt.ms", "summary.ms", "analysis.gpg_ms",
                              "core.analyze_ms", "codegen.ms", "link.ms"]),
        "scale": ("op.ms", ["summary.read_ms", "analysis.gpg_ms",
                            "callgraph.ms", "core.refsets_ms",
                            "analysis.modref_ms", "core.webs_ms",
                            "core.finish_ms", "core.db_write_ms"],
                  "core.delta.ms", ["core.delta.read_ms",
                                    "core.delta.refsets_ms",
                                    "core.delta.modref_ms",
                                    "core.delta.webs_ms",
                                    "core.delta.finish_ms",
                                    "core.delta.other_ms",
                                    "core.delta.db_write_ms"]),
        "edit": ("service.sojourn_ms", ["service.overhead_ms", "link.ms"],
                 None, []),
    }
    for w in WORKLOADS:
        total, parts, total2, parts2 = shares[w]
        print(f"\n## {w}: traced layer breakdown (seed {seed})\n")
        print("| layer | ms per op | share |")
        print("|---|---:|---:|")
        groups = [(total, parts)]
        if total2:
            groups.append((total2, parts2))
        for tot_name, names in groups:
            if tot_name == "replay":
                tot = sum(val(w, n) for n in names)
                print(f"| *replay total* | {tot:.3f} | |")
            else:
                tot = val(w, tot_name)
                print(f"| *{tot_name}* | {tot:.3f} | 100% |")
            for n in names:
                print(f"| {n} | {val(w, n):.3f} | {100 * val(w, n) / tot:.1f}% |")
        print("\n| other per-layer metric | value |")
        print("|---|---:|")
        for n, v in traced[w]["metrics"].items():
            if v["value"] and not any(n in g for _, g in groups) \
                    and n not in (total, total2):
                print(f"| {n} ({v['unit']}) | {v['value']:.6g} |")

    print("\n## Tracing overhead\n")
    print("| workload | untraced | traced | difference "
          "| span cost (us) | spans per op | span share of op |")
    print("|---|---:|---:|---:|---:|---:|---:|")
    for w in WORKLOADS:
        op = val(w, "trace.op_ms")
        if w == "corpus":
            un = untraced[w]["metrics"]["build_ms"]["value"]
        elif w == "scale":
            un = untraced[w]["metrics"]["analyze_ms"]["value"]
        else:
            # Mean latency of a closed loop of three clients.
            n = untraced[w]["metrics"]["requests_per_s"]["value"]
            un = 1000.0 * 3 / n
        print(f"| {w} | {un:.3f} | {op:.3f} | {100 * (op - un) / un:+.1f}% | "
              f"{val(w, 'trace.span_us'):.3f} | {val(w, 'trace.spans_per_op'):.1f} | "
              f"{val(w, 'trace.overhead_pct'):.3f}% |")
    return 0


def main(argv):
    if argv and argv[0] == "steady":
        return steady(argv[1:])
    if argv and argv[0] == "reference":
        return reference(argv[1:])
    flags = parse_flags(argv, {"workload": str, "seed": int, "seconds": float,
                               "trace": int})
    for k in ("workload", "seed", "seconds", "trace"):
        if k not in flags:
            fail(f"missing --{k}")
    if flags["workload"] not in WORKLOADS:
        fail(f"unknown workload {flags['workload']!r}")
    build()
    _, out = run_once(flags["workload"], flags["seed"], flags["seconds"],
                      flags["trace"] == 1)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
