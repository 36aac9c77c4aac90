"""Repeat the benchmark over seeds and write one results file:

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--seconds S] --out perfbench/results/NAME.json
    python3 perfbench/collect.py --compare BEFORE.json AFTER.json

The results file records the git sha, nproc, CPU model and the Python,
numpy and scipy versions, every run's metrics, and for each metric of
each workload its values, median, quartiles and spread, the spread
being (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  --compare prints, for every
metric and workload, how far AFTER's median moved from BEFORE's, as a
share of BEFORE's median, against the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import proc

BENCHMARK = json.loads((proc.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy")}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def collect(args) -> None:
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in BENCHMARK["workloads"]]
    seconds = args.seconds or BENCHMARK["run_seconds"]
    runs = []
    for seed in _seeds(args.seeds):
        for workload in workloads:
            argv = [sys.executable, str(proc.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=proc.ROOT, capture_output=True, text=True)
            took = time.perf_counter() - start
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2].removeprefix("# detail ")) if len(lines) > 1 else {}
            runs.append({"workload": workload, "seed": seed, "run_s": took, **result, "detail": detail})
            print(f"{workload:17s} seed {seed:3d}  {took:6.1f} s  correct={result['correct']}  "
                  + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {name: {**summarize([r["metrics"][name]["value"] for r in mine]),
                                    "unit": mine[0]["metrics"][name]["unit"]}
                             for name in mine[0]["metrics"]}
    report = {"machine": machine(), "seconds": seconds, "trace": args.trace, "runs": runs, "summary": summary}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = BOUNDS.get(name, {}).get("bound")
            flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:17s} {name:22s} median {s['median']:12.6g}  spread {s['spread'] or 0:.4f}"
                  f"  bound {bound}{flag}")


def compare(before_path: str, after_path: str) -> None:
    with open(before_path, encoding="utf-8") as fh:
        before = json.load(fh)["summary"]
    with open(after_path, encoding="utf-8") as fh:
        after = json.load(fh)["summary"]
    for workload, metrics in before.items():
        for name, b in metrics.items():
            a = after.get(workload, {}).get(name)
            spec = BOUNDS.get(name)
            if a is None or spec is None or not b["median"]:
                continue
            change = (a["median"] - b["median"]) / b["median"]
            worse = change if spec["better"] == "lower" else -change
            verdict = "WORSE" if worse > spec["bound"] else "ok"
            print(f"{workload:17s} {name:14s} {b['median']:12.6g} -> {a['median']:12.6g}  "
                  f"{100 * change:+7.2f}%  bound {100 * spec['bound']:.0f}%  {verdict}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.out:
        collect(args)
    else:
        parser.error("give --out or --compare")


if __name__ == "__main__":
    main()
