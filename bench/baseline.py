"""Run the benchmark over ten seeds and record medians and spreads.

From the repository root, the two recorded sets:

    python3 bench/baseline.py --first-seed 301 --out bench/baseline.json
    python3 bench/baseline.py --first-seed 401 --out bench/baseline.json

For every workload in BENCHMARK.json it runs ``bench/run.py`` once per
seed (--first-seed to --first-seed + 9) with the file's run_seconds and
--trace 0, then reports each end-to-end metric's median, quartiles
(statistics.quantiles, n=4) and spread, the interquartile distance as a
share of the median. With --out the set is added to the JSON file,
beside the sets already there for the same run_seconds, and each
metric's median is compared with theirs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    report = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "sets": [],
    }
    if args.out and args.out.is_file():
        kept = json.loads(args.out.read_text())
        if kept.get("run_seconds") == spec["run_seconds"]:
            report["sets"] = [s for s in kept["sets"] if s["seeds"] != seeds]
    workloads = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(wl, s, spec["run_seconds"]) for s in seeds]
        workloads[wl] = summary = {k: summarize([r[k] for r in runs]) for k in bounds}
        for k, s in summary.items():
            flag = "" if s["spread"] < bounds[k] / 3 else "  (above a third of its bound)"
            print(f"{wl} {k}: median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"bound {bounds[k]}{flag}", flush=True)
            for other in report["sets"]:
                theirs = other["workloads"][wl][k]["median"]
                print(f"    seeds {other['seeds'][0]}-{other['seeds'][-1]}: median {theirs:.4f}, "
                      f"this set differs by {s['median'] / theirs - 1:+.3f}")
    report["sets"].append({"seeds": seeds, "workloads": workloads})
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
