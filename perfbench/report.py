"""Summaries of one capi_perfbench run: statistics, span self times,
the end-to-end and per-layer metrics, the Table II shape report, the
cost-ladder sum check and the machine fingerprint.

Pure functions over the raw JSON capi_perfbench writes, so that
test_perfbench.py can check them without building anything.
"""

import os
import platform
import re
import statistics
import subprocess

LAYERS = ("apps", "cg", "select", "dyncapi", "xraysim", "binsim",
          "scorepsim", "talpsim", "mpisim", "adapt", "fleet")

# Metric grammar shared with BENCHMARK.json: names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

CONFIGS = ("vanilla", "inactive", "full_scorep", "full_talp",
           "ic_scorep", "ic_talp")

# Table II of the paper (OpenFOAM): slowdown over vanilla.
PAPER_FACTORS = {"full_talp": 3.76, "full_scorep": 6.7, "ic_scorep": 1.16,
                 "inactive": 1.0}

# pair_ns.scorep may differ from xraysim.dispatch_ns + scorepsim.cyg_pair_ns
# by this share of pair_ns.scorep: the cyg handler's own address lookup.
LADDER_TOLERANCE = 0.25


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or None while that percentile would not
    lie above the median (fewer than 20 samples).
    """
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return (100.0 * (n - 10) / n, ordered[n - 11])


def describe(values, unit, scale=1.0):
    """'median 1.23 ms, p90 1.40 ms (n=30)' for a list of samples."""
    text = "median %.4g %s" % (median(values) * scale, unit)
    t = tail(values)
    if t is not None:
        text += ", p%.0f %.4g %s" % (t[0], t[1] * scale, unit)
    return text + " (n=%d)" % len(values)


def unit_of(name):
    """Unit and scale from seconds for a span or sample name's suffix."""
    stem = name.split(".")[1] if "." in name else name
    for suffix, unit, scale in (("_ms", "ms", 1e3), ("_ns", "ns", 1e9),
                                ("_s", "s", 1.0)):
        if stem.endswith(suffix):
            return unit, scale
    return "s", 1.0


def span_self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. spans: [id, parent, name, start, end].
    Returns {id: self_ns}."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    selfs = {}
    for span_id, _, _, start, end in spans:
        covered = 0
        cursor = start
        for child in sorted(children.get(span_id, []), key=lambda s: s[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        selfs[span_id] = (end - start) - covered
    return selfs


def rep_trees(spans):
    """Ids of the spans under the traced repetition roots."""
    by_id = {s[0]: s for s in spans}
    roots = {s[0] for s in spans if s[2] == "bench.rep_s" and s[1] == 0}

    def root_of(span):
        while span[1] != 0:
            span = by_id[span[1]]
        return span[0]

    return [s[0] for s in spans if root_of(s) in roots]


def layer_shares(spans):
    """Share (%) of the summed self time of traced repetitions that each
    layer's own code takes. Spans of parallel ranks each count, so the sum
    can exceed wall time. The benchmark's own spans count as 'bench'."""
    ids = rep_trees(spans)
    selfs = span_self_times(spans)
    by_id = {s[0]: s for s in spans}
    per_layer = {}
    for span_id in ids:
        layer = by_id[span_id][2].split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0) + selfs[span_id]
    total = sum(per_layer.values())
    return {layer: 100.0 * ns / total if total else 0.0
            for layer, ns in per_layer.items()}


def span_table(spans):
    """{name: (durations in s, self times in s)} over every span."""
    selfs = span_self_times(spans)
    table = {}
    for span_id, _, name, start, end in spans:
        durations, self_times = table.setdefault(name, ([], []))
        durations.append((end - start) * 1e-9)
        self_times.append(selfs[span_id] * 1e-9)
    return table


def table2(samples):
    """Factors over vanilla: the config's median run over the vanilla
    median, with the IQR of the per-repetition ratios."""
    vanilla = samples["run_s.vanilla"]
    base = median(vanilla)
    rows = {}
    for config in CONFIGS[1:]:
        runs = samples["run_s." + config]
        ratios = [r / v for r, v in zip(runs, vanilla)]
        q1, _, q3 = quartiles(ratios)
        rows[config] = {"x": median(runs) / base, "q1": q1, "q3": q3}
    return base, rows


def shape_report(rows):
    """The paper's Table II shape invariants, each judged on the measured
    interquartile ranges. Returns [(invariant, holds, detail)]."""
    def iqr(config):
        return "[%.3f, %.3f]" % (rows[config]["q1"], rows[config]["q3"])

    checks = []
    inactive = rows["inactive"]
    checks.append(("xray inactive ~= vanilla (IQR contains 1.0)",
                   inactive["q1"] <= 1.0 <= inactive["q3"],
                   "inactive " + iqr("inactive")))
    for ic, full in (("ic_scorep", "full_scorep"), ("ic_talp", "full_talp")):
        checks.append(("%s < %s" % (ic, full),
                       rows[ic]["q3"] < rows[full]["q1"],
                       "%s %s vs %s %s" % (ic, iqr(ic), full, iqr(full))))
    checks.append(("full_scorep > full_talp (paper x6.7 > x3.76)",
                   rows["full_scorep"]["q1"] > rows["full_talp"]["q3"],
                   "full_scorep %s vs full_talp %s" % (iqr("full_scorep"),
                                                       iqr("full_talp"))))
    return checks


def ladder_check(counts):
    """(gap_ns, holds): pair_ns.scorep against its two rungs."""
    pair = counts["pair_ns.scorep"]
    gap = pair - counts["xraysim.dispatch_ns"] - counts["scorepsim.cyg_pair_ns"]
    return gap, abs(gap) <= LADDER_TOLERANCE * pair


def virtual_factors(counts):
    """RunStats::virtualNs of each config over vanilla's: the deterministic
    clock leaves probe cost out, so these stay near 1.0."""
    base = counts["binsim.virtual_ns.vanilla"]
    return {c: counts["binsim.virtual_ns." + c] / base for c in CONFIGS[1:]}


def model_residuals(samples, counts):
    """Measured factor minus the factor predicted from sled hits and the
    ladder: every rank's dispatched pairs cost pair_ns of its backend and
    every other call pays an unpatched sled pair. Ranks run in parallel,
    so a rank's share is half of the counted events."""
    def runs(config):
        return samples.get("run_s.%s.untraced" % config,
                           samples["run_s." + config])

    vanilla = median(runs("vanilla"))
    residuals = {}
    for config in CONFIGS[1:]:
        calls = counts["binsim.dynamic_calls." + config] / 2
        pairs = counts["binsim.sled_hits." + config] / 4
        backend = "pair_ns.talp" if config.endswith("talp") else "pair_ns.scorep"
        cost_ns = (pairs * counts.get(backend, 0.0) +
                   (calls - pairs) * counts["xraysim.unpatched_ns"])
        predicted = 1.0 + cost_ns * 1e-9 / vanilla
        measured = median(runs(config)) / vanilla
        residuals[config] = measured - predicted
    return residuals


def fingerprint(root, build_dir, load_avg):
    """Machine and build facts recorded with every result, plus the
    environment check: a run is 'unreliable' when the CPU frequency
    governor is readable and not 'performance', or the 1-minute load
    average at start (`load_avg`) exceeds the cores."""
    info = {"cpu": platform.processor() or "unknown", "nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            info["governor"] = f.read().strip()
    except OSError:
        info["governor"] = None
    info["load_avg_1m"] = load_avg
    compiler = build_type = None
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    info["build_type"] = build_type
    info["compiler"] = compiler
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=20)
            info["compiler"] = out.stdout.splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            pass
    info["commit"] = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=20)
            info["commit"] = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    reasons = []
    if info["governor"] not in (None, "performance"):
        reasons.append("governor %s" % info["governor"])
    if info["nproc"] and info["load_avg_1m"] > info["nproc"]:
        reasons.append("load %.2f > %d cores" % (info["load_avg_1m"],
                                                 info["nproc"]))
    info["unreliable"] = reasons
    return info


def end_to_end(raw):
    """The gated end-to-end metrics of an untraced run, in their units."""
    s = raw["samples"]
    return {
        "setup_s": median(s["setup_s"]),
        "peak_rss_mb": raw["counts"]["peak_rss_mb"],
        "rep_s": median(s["rep_s"]),
        "init_s": median(s["init_s"]),
    }


def per_layer(raw, spans_by_name, shares):
    """The per-layer metrics of a traced run, in their units."""
    counts = raw["counts"]
    s = raw["samples"]
    out = {}
    for name in ("apps.model_s", "cg.build_s", "cg.csr_s", "binsim.compile_s",
                 "binsim.process_s", "dyncapi.construct_s"):
        out[name] = median(spans_by_name[name][0])
    for layer in LAYERS:
        out[layer + ".self_pct"] = shares.get(layer, 0.0)
    for name in ("xraysim.unpatched_ns", "xraysim.dispatch_ns",
                 "scorepsim.cyg_pair_ns", "scorepsim.enter_exit_ns",
                 "talpsim.start_stop_ns", "pair_ns.scorep", "pair_ns.talp"):
        out[name] = counts[name]
    out["ladder.gap_ns"] = ladder_check(counts)[0]
    traced, untraced = median(s["rep_s"]), median(s["rep_s.untraced"])
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    for name in ("select.selected", "select.added", "select.stage_hit_ratio",
                 "select.cache_hit_ratio", "csr.full_builds", "csr.shared_hits",
                 "dyncapi.unresolvable", "xraysim.pages_written",
                 "xraysim.sleds_flipped", "xraysim.sleds_per_page",
                 "xraysim.rollbacks", "scorepsim.unresolved_ratio",
                 "scorepsim.suppressed_ratio", "adapt.epochs", "adapt.final_ic",
                 "fleet.bytes_per_frame", "fleet.policy_bytes",
                 "fleet.queue_depth_max"):
        out[name] = counts.get(name, 0.0)
    for config in CONFIGS[2:]:
        out["binsim.sled_hits." + config] = counts.get(
            "binsim.sled_hits." + config, 0.0)
    for config in ("full_scorep", "ic_scorep"):
        out["scorepsim.probe_events." + config] = counts.get(
            "scorepsim.probe_events." + config, 0.0)
    for config in ("full_talp", "ic_talp"):
        out["talpsim.regions." + config] = counts.get(
            "talpsim.regions." + config, 0.0)
        out["talpsim.failed_registrations." + config] = counts.get(
            "talpsim.failed_registrations." + config, 0.0)
    residuals = (model_residuals(s, counts) if "run_s.vanilla" in s else {})
    for config in CONFIGS[1:]:
        out["model.residual." + config] = residuals.get(config, 0.0)
    return out
