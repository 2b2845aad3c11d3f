#!/usr/bin/env python3
"""Layered benchmark of the T-Crowd reproduction.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload table7 --seed 1 --seconds 10 --trace 0

The first run builds the program and the benchmark from source with sbt
(perfbench/build.sbt) into .bench_build/; later runs reuse that build while
the sources are unchanged. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The full record
(environment, run settings, per-pass figures, output checks) is written to
.bench_build/results/<workload>/seed<seed>-trace<trace>.json.

Other modes:

    python3 perfbench/run.py --check-table7
        Runs the whole Table 7 with the default seeds and compares every
        score with bench_results/table7.txt at its printed precision.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
        Compares two result sets (directories of result records, e.g. copies
        of .bench_build/results) per workload and end-to-end metric.

See perfbench/README.md for the workloads, metrics and seed sets.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CLASSPATH_FILE = BUILD_DIR / "classpath.txt"
STAMP_FILE = BUILD_DIR / "build.stamp"
RESULTS_DIR = BUILD_DIR / "results"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
TABLE7_REF = ROOT / "bench_results" / "table7.txt"

WORKLOADS = ("table7", "scale", "online-struct")
# Heap of the benchmark JVM; kept small because the machine is shared.
XMX = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

JAVA_OPTS = [
    f"-Xmx{XMX}",
    "-XX:+UseG1GC",
    "-XX:-UsePerfData",
    "-Dspark.ui.enabled=false",
    # Spark on Java 17 needs these module openings (as spark-submit adds).
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


# ------------------------------------------------------------------- build

def source_hash():
    h = hashlib.sha256()
    files = [BENCH_DIR / "build.sbt", BENCH_DIR / "project" / "build.properties"]
    for base in (BENCH_DIR / "src", PROGRAM_SOURCES):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build used the same sources."""
    if not PROGRAM_SOURCES.is_dir():
        fail(f"program sources not found at {PROGRAM_SOURCES.relative_to(ROOT)}; "
             "run from the root of a full checkout")
    digest = source_hash()
    if CLASSPATH_FILE.is_file() and STAMP_FILE.is_file() \
            and STAMP_FILE.read_text().strip() == digest:
        return
    BUILD_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    repo_cfg = Path.home() / ".sbt" / "repositories"
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
        if repo_cfg.is_file():
            opts += (" -Dsbt.override.build.repos=true"
                     f" -Dsbt.repository.config={repo_cfg}")
    env["SBT_OPTS"] = opts.strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={BUILD_DIR / 'sbt-global'}",
           "writeClasspath"]
    log("building (sbt writeClasspath) ...")
    t0 = time.time()
    try:
        proc = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not CLASSPATH_FILE.is_file():
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")
    STAMP_FILE.write_text(digest + "\n")
    log(f"built in {time.time() - t0:.1f} s")


def java(args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark JVM; return the JSON record it prints last."""
    cp = CLASSPATH_FILE.read_text().strip()
    # Spark's block manager and the JVM's temporary files stay in the checkout.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JAVA_OPTS, f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           "-cp", cp, "perfbench.Main", *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark JVM exceeded {timeout} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("benchmark JVM printed no result")
    return json.loads(lines[-1])


# -------------------------------------------------------------- one run

def environment():
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": STAMP_FILE.read_text().strip(),
        "java_opts": JAVA_OPTS,
    }


def run_workload(a):
    build()
    rec = java(["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--table7-ref", str(TABLE7_REF),
                "--spans", str(RESULTS_DIR / a.workload / f"spans-seed{a.seed}.jsonl")])
    rec["env"].update(environment())
    untraced = RESULTS_DIR / a.workload / f"seed{a.seed}-trace0.json"
    if a.trace and untraced.is_file():
        # Tracing overhead: traced against untraced wall time, same seed.
        base = json.loads(untraced.read_text())["metrics"]["wall_s"]["value"]
        rec["trace_overhead"] = rec["metrics"]["trace.wall_s"]["value"] / base - 1
        log(f"tracing overhead {rec['trace_overhead']:+.1%} of wall_s")
    out = RESULTS_DIR / a.workload / f"seed{a.seed}-trace{a.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    for name, m in sorted(rec["metrics"].items()):
        log(f"{a.workload:13s} {name:32s} {m['value']:.6g} {m['unit']}")
    result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    # Print exactly the metrics BENCHMARK.json names; a missing one fails.
    named = benchmark_metrics(a.trace)
    missing = [n for n in named if n not in rec["metrics"]]
    rec.setdefault("checks_failed", []).extend(f"metric {n} missing" for n in missing)
    result["metrics"] = {n: rec["metrics"][n] for n in named if n in rec["metrics"]}
    result["failed"] += len(missing)
    result["correct"] = result["correct"] and not missing
    for c in rec.get("checks_failed", []):
        log(f"check failed: {c}")
    print(json.dumps(result))


def benchmark_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_table7():
    build()
    rec = java(["--check-table7", "--table7-ref", str(TABLE7_REF)], timeout=900)
    for c in rec.get("checks_failed", []):
        log(f"check failed: {c}")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed")}))
    sys.exit(0 if rec["correct"] else 1)


# --------------------------------------------------------------- compare

def load_results(d):
    """{(workload, seed): record} of the untraced runs under directory d."""
    out = {}
    for p in Path(d).rglob("*.json"):
        try:
            rec = json.loads(p.read_text())
        except (OSError, ValueError):
            continue
        run = rec.get("run", {})
        if run.get("trace") == 0 and "metrics" in rec:
            out[(run["workload"], run["seed"])] = rec
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(parent, change, bound, lower_better, wins, pairs):
    """A gain needs 9 of 10 pairs won and a median gap wider than the
    parent's quartile spread; a parent spread wider than the bound leaves
    the metric unresolved unless every change run beats every parent run."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1 if lower_better else -1
    gain = sign * (pm - cm)
    if pairs and wins >= 0.9 * pairs and gain > (p3 - p1):
        return "improved"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    if pm and -gain / abs(pm) > bound:
        return "worse"
    return "unchanged"


def compare(parent_dir, change_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_results(parent_dir), load_results(change_dir)
    print(f"{'workload':13s} {'metric':16s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'won':>7s}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        seeds = sorted({s for (wl, s) in parent if wl == w} & {s for (wl, s) in change if wl == w})
        if not seeds:
            print(f"{w:13s} (no paired runs)")
            continue
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pv = [parent[(w, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(w, s)]["metrics"][name]["value"] for s in seeds]
            wins = sum(1 for a, b in zip(pv, cv) if (b < a if lower else b > a))
            v = verdict(pv, cv, m["bound"], lower, wins, len(seeds))
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{w:13s} {name:16s} {'/'.join(f'{x:.4g}' for x in pq):>30s} "
                  f"{'/'.join(f'{x:.4g}' for x in cq):>30s} {wins:3d}/{len(seeds):<3d}  {v}")
        fr = [sum(r[(w, s)]["failed"] for s in seeds) / sum(r[(w, s)]["attempted"] for s in seeds)
              for r in (parent, change)]
        print(f"{w:13s} {'fail_ratio':16s} {fr[0]:>30.4g} {fr[1]:>30.4g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-table7", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    a = ap.parse_args()
    if a.compare:
        compare(*a.compare)
    elif a.check_table7:
        check_table7()
    elif a.workload:
        run_workload(a)
    else:
        ap.error("give --workload, --check-table7 or --compare")


if __name__ == "__main__":
    main()
