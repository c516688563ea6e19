#!/usr/bin/env python3
"""End-to-end benchmark of the Newtop stack over loopback UDP.

Usage (from the repository root):
  python3 bench/e2e/run.py                     # all four workloads, seed 1
  python3 bench/e2e/run.py --workload sym4_mesh --seed 3
  python3 bench/e2e/run.py --traced            # + traced replay and traces
  python3 bench/e2e/run.py --repeat 5          # seeds S..S+4: medians,
                                               # quartiles, derived bounds
  python3 bench/e2e/run.py --repeat 5 --update-bounds

Builds bench/e2e into build-e2e/ on first use, runs one newtop_e2e process
per workload and run, and prints every metric with its unit. The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics that BENCHMARK.json lists (end_to_end without tracing, per_layer
with --trace 1 / --traced). Exit status: 0 when every run passed its
oracle, 1 when one did not, 2 when the build failed, 3 when a run hung.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "newtop_e2e"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["sym4_mesh", "asym4_1k", "tree32", "crash5"]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Bound derivation (--repeat): a bound must hold three times the spread
# seen here. An end-to-end metric whose spread on some workload exceeds a
# third of the widest bound cannot get one, so it is too noisy to gate
# and becomes a per-layer metric.
BOUND_FLOOR, BOUND_CAP = 0.05, 0.25
DEMOTE_SPREAD = BOUND_CAP / 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout
    and waits for it, so no process outlives the call."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def build():
    """Configures (once) and builds newtop_e2e; compiler temporaries stay
    inside build-e2e/."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cache = BUILD / "CMakeCache.txt"
    with open(BUILD / "build.log", "w") as logf:
        def step(cmd):
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=logf,
                                stderr=subprocess.STDOUT, env=env)
            if code != 0:
                log(f"{' '.join(cmd[:2])} failed; see {logf.name}")
            return code == 0

        if not cache.exists() and not step(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]):
            cache.unlink(missing_ok=True)  # configure again next time
            return False
        return step(["cmake", "--build", str(BUILD), "--target",
                     "newtop_e2e", "-j", "4"])


def run_once(workload, seed, seconds, trace, echo):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}.json")]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif echo:
            print(line, flush=True)
    if code is None:
        log(f"{workload} seed {seed}: no result after {RUN_TIMEOUT_S}s; "
            "killed (counts as a failed run)")
        return None, 3
    if code == 3 or result is None:
        for line in out.splitlines():
            if "watchdog" in line:
                log(f"{workload} seed {seed}: {line.strip()}")
        return None, 3 if code == 3 else 1
    return result, code


def contract_line(result, names):
    """The benchmark's last line: only the metrics BENCHMARK.json names."""
    metrics, correct = {}, result["correct"]
    for name in names:
        m = result["metrics"].get(name)
        if m is None or m["value"] is None:
            correct = False
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def spread(values):
    """Interquartile distance over the median, as the acceptance check
    computes it (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else math.inf


def format_spec(spec):
    """BENCHMARK.json's layout: one line per workload and per metric."""
    parts = []
    for key, val in spec.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            items = ",\n".join("    " + json.dumps(v) for v in val)
            parts.append(f"  {json.dumps(key)}: [\n{items}\n  ]")
        else:
            parts.append(f"  {json.dumps(key)}: {json.dumps(val)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def summarize(spec, runs, update):
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    print("\nper-workload medians over "
          f"{max(len(r) for r in runs.values())} runs "
          "(q1..q3, spread = (q3 - q1) / median)")
    worst = {}
    for workload, results in runs.items():
        print(f"[{workload}]")
        names = list(results[0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results
                    if r["metrics"].get(name, {}).get("value") is not None]
            if not vals:
                continue
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            s = spread(vals)
            tag = ""
            if name in e2e:
                worst[name] = max(worst.get(name, 0.0), s)
                tag = " *"
            print(f"  {name:44s} {med:14.4f} {unit:8s} "
                  f"({q1:.4f}..{q3:.4f}, spread {s:.3f}){tag}")
    print("\n* end-to-end; derived bounds (3x the worst spread, "
          f"[{BOUND_FLOOR}, {BOUND_CAP}]):")
    demote = []
    for name, metric in e2e.items():
        s = worst.get(name, 0.0)
        if name == "setup_s":
            bound = BOUND_CAP  # only its median drift is gated: widest bound
        else:
            bound = min(BOUND_CAP, max(BOUND_FLOOR,
                                       math.ceil(3 * s * 100) / 100))
        verdict = ""
        if name != "setup_s" and s > DEMOTE_SPREAD:
            verdict = f"  DEMOTE: spread {s:.3f} > {DEMOTE_SPREAD:.3f}"
            demote.append(name)
        print(f"  {name:20s} worst spread {s:.3f}  bound {bound:.2f}"
              f"{verdict}")
        metric["bound"] = bound
    if update:
        for name in demote:
            m = e2e[name]
            spec["end_to_end"].remove(m)
            spec["per_layer"].append({"name": name, "unit": m["unit"],
                                      "better": m["better"]})
        SPEC.write_text(format_spec(spec))
        log(f"updated {SPEC.name}" +
            (f"; demoted {', '.join(demote)}" if demote else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, on seeds S, S+1, ...")
    ap.add_argument("--update-bounds", action="store_true",
                    help="with --repeat: write the derived bounds and "
                         "demotions into BENCHMARK.json")
    args = ap.parse_args()
    trace = args.traced or args.trace == 1

    spec = json.loads(SPEC.read_text())
    seconds = args.seconds or spec["run_seconds"]
    if not build():
        return 2
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    workloads = [args.workload] if args.workload else WORKLOADS
    single = len(workloads) == 1 and args.repeat == 1

    runs, status, attempted, failed = {}, 0, 0, 0
    all_correct = True
    for workload in workloads:
        for r in range(args.repeat):
            seed = args.seed + r
            result, code = run_once(workload, seed, seconds, trace,
                                    echo=args.repeat == 1)
            if result is None:
                status = max(status, code)
                all_correct = False
                continue
            line = contract_line(result, names)
            if not line["correct"]:
                status = max(status, 1)
                all_correct = False
            attempted += line["attempted"]
            failed += line["failed"]
            runs.setdefault(workload, []).append(result)
            if args.repeat > 1:
                print(f"{workload} seed {seed}: "
                      f"{'pass' if line['correct'] else 'FAIL'}  " +
                      "  ".join(f"{k} {v['value']:.4g}"
                                for k, v in line["metrics"].items()),
                      flush=True)
            if single:
                print(json.dumps(line))
                return status
    if args.repeat > 1 and runs:
        summarize(spec, runs, args.update_bounds)
    if status == 3 or not runs:
        return status or 1
    summary = {"correct": all_correct, "attempted": attempted,
               "failed": failed, "metrics": {}}
    for workload, results in runs.items():
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results
                    if r["metrics"].get(name, {}).get("value") is not None]
            if vals:
                summary["metrics"][f"{workload}.{name}"] = {
                    "value": statistics.median(vals),
                    "unit": results[0]["metrics"][name]["unit"]}
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
