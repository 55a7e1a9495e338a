#!/usr/bin/env python3
"""The repository benchmark: builds capi_perfbench from the checkout's
sources, runs one workload, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload refine|overhead|adapt \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build and the results of every run
go to .bench_build/. With --trace 0 the last line of standard output is the
JSON object of the end-to-end metrics in BENCHMARK.json; with --trace 1 it
holds the per-layer metrics. The lines before it are the human-readable
report. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import report  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "capi_perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class Failure(Exception):
    pass


def run_child(cmd, timeout, log=None):
    """Runs cmd in its own process group; kills the whole group on timeout
    and always waits for it."""
    out = open(log, "a") if log else subprocess.DEVNULL
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT if log else None,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise Failure("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        if log:
            out.close()


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise Failure("no %s in %s: run from a full checkout" % (needed, ROOT))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_child(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, log):
            raise Failure("cmake configure failed, see " + log)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if run_child(["cmake", "--build", BUILD_DIR, "--target", "capi_perfbench",
                  "-j", jobs], BUILD_TIMEOUT_S, log):
        raise Failure("build failed, see " + log)


def measure(args):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    raw_path = stem + ".raw.json"
    if os.path.exists(raw_path):
        os.remove(raw_path)
    code = run_child([BINARY, "--workload", args.workload, "--seed",
                      str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out", raw_path],
                     RUN_TIMEOUT_S)
    if code != 0 or not os.path.exists(raw_path):
        raise Failure("capi_perfbench exited with %d" % code)
    with open(raw_path) as f:
        return json.load(f), stem


def print_named(workload, raw):
    """The workload's own end-to-end figures, by name with their units."""
    s = raw["samples"]
    print("setup_s: " + report.describe(s["setup_s"], "s"))
    print("peak_rss_mb: %.1f MB" % raw["counts"]["peak_rss_mb"])
    print("rep_s: " + report.describe(s["rep_s"], "s"))
    print("init_s: " + report.describe(s["init_s"], "s"))
    named = {"refine": (("select_s", "s", 1), ("reselect_s", "s", 1),
                        ("repatch_ms", "ms", 1)),
             "adapt": (("adapt_s", "s", 1), ("fleet_s", "s", 1))}
    for name, unit, scale in named.get(workload, ()):
        print("%s: %s" % (name, report.describe(s[name], unit, scale)))
    if workload != "overhead":
        return {}
    base, rows = report.table2(s)
    print("vanilla_s: " + report.describe(s["run_s.vanilla"], "s"))
    print("Table II factors over vanilla (median run / median vanilla run; "
          "IQR of per-repetition ratios; paper for OpenFOAM):")
    for config, row in rows.items():
        paper = report.PAPER_FACTORS.get(config)
        print("  %s_x: %.3f ratio  IQR [%.3f, %.3f]%s" % (
            config, row["x"], row["q1"], row["q3"],
            "  paper x%.2f" % paper if paper else ""))
    print("Table II shape (reported, not gated):")
    for invariant, holds, detail in report.shape_report(rows):
        print("  %-44s %s  %s" % (invariant, "holds" if holds else "FAILS", detail))
    if rows["full_talp"]["q1"] > rows["full_scorep"]["q3"]:
        print("  reproduction finding: full_talp_x is above full_scorep_x, "
              "the inverse of the paper's Score-P > TALP")
    return {"vanilla_s": base,
            **{c + "_x": r["x"] for c, r in rows.items()}}


def print_layers(raw, layers, shares, spans):
    table = report.span_table(spans)
    print("Per-span times over traced spans (median duration, median self):")
    for name in sorted(table):
        if name.startswith("bench."):
            continue
        durations, selfs = table[name]
        unit, scale = report.unit_of(name)
        print("  %-40s %10.4g %-2s self %10.4g %-2s (n=%d)" % (
            name, report.median(durations) * scale, unit,
            report.median(selfs) * scale, unit, len(durations)))
    for name in sorted(raw["samples"]):
        if name.split(".")[0] in report.LAYERS and not name.endswith(".untraced"):
            unit, scale = report.unit_of(name)
            print("  %-40s %s" % (name, report.describe(raw["samples"][name],
                                                        unit, scale)))
    if "binsim.virtual_ns.vanilla" in raw["counts"]:
        factors = report.virtual_factors(raw["counts"])
        print("Table II model: measured factor minus the prediction from sled "
              "pairs x ladder pair_ns, beside the RunStats::virtualNs factor:")
        for config, factor in factors.items():
            print("  model.residual.%-12s %+.3f   virtualNs factor %.3f" % (
                config, layers["model.residual." + config], factor))
    print("Self-time share of traced repetitions by layer:")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print("  %-10s %6.2f %%" % (layer, share))
    gap, holds = report.ladder_check(raw["counts"])
    print("Cost ladder (ns per enter+exit pair, call-path depth %d):" %
          raw["counts"]["ladder.depth"])
    for name in ("xraysim.unpatched_ns", "xraysim.dispatch_ns",
                 "scorepsim.cyg_pair_ns", "scorepsim.enter_exit_ns",
                 "talpsim.start_stop_ns", "pair_ns.scorep", "pair_ns.talp"):
        print("  %-24s %8.2f ns" % (name, layers[name]))
    print("  ladder sum: pair_ns.scorep - (dispatch_ns + cyg_pair_ns) = "
          "%.2f ns; tolerance +-%d%% of pair_ns.scorep: %s" % (
              gap, report.LADDER_TOLERANCE * 100,
              "within" if holds else "OUTSIDE"))
    print("Tracing overhead: %.2f %% (median traced repetition over "
          "median untraced one)" % layers["trace.overhead_pct"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("refine", "overhead", "adapt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    load_at_start = os.getloadavg()[0]
    try:
        build()
        machine = report.fingerprint(ROOT, BUILD_DIR, load_at_start)
        raw, stem = measure(args)
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    print("workload %s, seed %d, %d s, trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("machine: %s, %d cores, governor %s, %s, %s build, commit %s, "
          "load %.2f" % (machine["cpu"], machine["nproc"], machine["governor"],
                         machine["compiler"], machine["build_type"],
                         machine["commit"], machine["load_avg_1m"]))
    if machine["unreliable"]:
        print("unreliable environment: " + ", ".join(machine["unreliable"]))
    print("operations: %d attempted, %d failed" % (raw["attempted"],
                                                   raw["failed"]))
    for failure in raw["failures"]:
        print("  FAILED " + failure)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.trace:
        spans = raw["spans"]
        shares = report.layer_shares(spans)
        layers = report.per_layer(raw, report.span_table(spans), shares)
        print_layers(raw, layers, shares, spans)
        chosen, named = bench["per_layer"], {}
        values = layers
    else:
        named = print_named(args.workload, raw)
        chosen = bench["end_to_end"]
        values = report.end_to_end(raw)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in chosen}
    with open(stem + ".json", "w") as f:
        json.dump({"args": vars(args), "machine": machine, "metrics": metrics,
                   "named": named, "attempted": raw["attempted"],
                   "failed": raw["failed"], "failures": raw["failures"]},
                  f, indent=1)
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
