"""Seeded benchmark of linkcolor, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload braid_structural --seed 1 --seconds 45 --trace 0

Every workload runs closed loop: one client issuing the next operation
when the previous one returns, in one process on one thread. The
workloads and why each was chosen:

  braid_structural  the Smith normal form does nearly all the work and
                    enumeration none. Seeded braid closures of 50-600
                    crossings go through parse_diagram -> dehn_structure
                    -> structure_count (the factors-only path), checked
                    against Fox matrix ranks mod 2, 3, 5, 7 computed
                    with numpy.
  catalog_cli       what the braid closures bypass, in one pool: every
                    catalog diagram at moduli 2-9, plus seeded realized
                    diagrams within the 8-variable cap, with the
                    structural counts checked against both enumerations;
                    and in-process `linkcolor realize SPEC | linkcolor
                    snf -` and `linkcolor snf -` on dense matrices, the
                    witness path and the CLI's JSON, checked by
                    multiplying the printed witnesses.

A run is a whole number of passes, each over a fresh seeded pool of at
least 100 operations (see workloads.py). It stops at the pass boundary
nearest to --seconds of measured time, and without tracing after
MIN_PASSES at least. Answers are checked after each pass, outside the
timed region.

ops_per_s is the checked operations of all passes per second of
measured time. An operation slot's latency is the mean of its runs, one
per pass, each on a fresh input; latency_p50_ms and latency_p90_ms are
percentiles over the slots of those means. On a shared host the speed
of allocation-heavy code such as the Smith normal form on big integers
switches between phases up to about 1.7 times apart, each some seconds
long. A median over passes would snap to one phase or the other; a
mean moves only with the share of the run each phase took.

--trace 0 prints the end-to-end metrics. --trace 1 runs every operation
twice in turn, untraced and traced, prints the per-layer metrics from
the traced runs, reports the tracing overhead beside the untraced
latency, and writes the spans to bench/out/. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import END, NAME, PARENT, PROBE, START, Tracer, instrument, self_times

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_RUNS = 4  # before the passes and again after them
MIN_PASSES = 3
WORKLOAD_NAMES = ("braid_structural", "catalog_cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "diagram.parse_ms": "ms",
    "diagram.trace_ms": "ms",
    "diagram.crossings": "count",
    "diagram.regions": "count",
    "diagram.self_ms": "ms",
    "shading.checkerboard_ms": "ms",
    "shading.self_ms": "ms",
    "goeritz.matrix_ms": "ms",
    "goeritz.order": "count",
    "goeritz.nonzeros": "count",
    "goeritz.self_ms": "ms",
    "intlattice.invariant_factors_ms": "ms",
    "intlattice.snf_ms": "ms",
    "intlattice.witness_bits": "bits",
    "intlattice.unit_factors": "ratio",
    "intlattice.factor_bits": "bits",
    "intlattice.self_ms": "ms",
    "coloring.enumerate_ms": "ms",
    "coloring.states": "count",
    "coloring.hit_ratio": "ratio",
    "coloring.self_ms": "ms",
    "realize.build_ms": "ms",
    "realize.crossings": "count",
    "realize.self_ms": "ms",
    "cli.main_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.overhead_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}

RAISED = object()  # the answer of a run that raised
FACTORS_ONLY_SNF = "intlattice.invariant_factors/smith_normal_form"
LAYERS = ("diagram", "shading", "goeritz", "intlattice", "coloring", "realize", "cli", "bench")


def measure_setup(runs: int) -> list[float]:
    """Wall times for ``runs`` fresh interpreters to import linkcolor and
    linkcolor.cli."""
    cmd = [sys.executable, "-c", "import linkcolor, linkcolor.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


class Measurement:
    """Latencies and outcomes of one run."""

    def __init__(self) -> None:
        # traced -> slot -> latency of each run in that slot, in seconds
        self.latency: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.counts: dict[str, float] = {}

    def run_pass(self, wl, order, tracer=None) -> None:
        """Run each op once; with a tracer, once untraced and then once traced.
        The answers are checked after the pass, so that what a check
        allocates and frees does not shape the heap the next timed
        operation meets."""
        runs = []
        for i in order:
            runs.append((i, False, *self.attempt(wl.ops[i])))
            if tracer is not None:
                with instrument(tracer):
                    runs.append((i, True, *self.attempt(wl.ops[i], tracer)))
        for i, traced, elapsed, answer in runs:
            if answer is not RAISED:
                try:
                    counts = wl.ops[i].check(answer)
                except AssertionError as exc:
                    self._fail(wl.ops[i], f"wrong answer: {exc}")
                    continue
                self.latency[traced].setdefault(i, []).append(elapsed)
                if traced:
                    for key, value in counts.items():
                        self.counts[key] = self.counts.get(key, 0) + value
        self.busy += sum(elapsed for _, _, elapsed, _ in runs)
        self.passes += 1

    def attempt(self, op, tracer=None) -> tuple[float, object]:
        """Time one run of ``op``; return the latency and the answer, or
        RAISED if the run raised."""
        opid = self.attempted
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                answer = op.run()
            else:
                tracer.op = opid
                with tracer.span("bench.op"):
                    answer = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = perf_counter() - t0
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return elapsed, RAISED
        return perf_counter() - t0, answer

    def typical(self, traced: bool) -> dict[int, float]:
        """Each slot's mean latency over the passes."""
        return {i: statistics.fmean(v) for i, v in self.latency[traced].items()}

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        print(f"FAILED {op.label}: {why}", file=sys.stderr)


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end_metrics(m: Measurement, setup_s: float) -> dict:
    typical = list(m.typical(False).values())
    if not typical:
        raise RuntimeError(f"none of {m.attempted} operations succeeded")
    n = len(typical)
    runs = sum(len(v) for v in m.latency[False].values())
    p50, p90 = statistics.median(typical), percentile(typical, 90)
    rate = runs / m.busy
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s {setup_s:.4f} s (median of {2 * SETUP_RUNS} fresh interpreters, "
          f"half before and half after the passes)")
    print(f"ops_per_s {rate:.4f} 1/s ({runs} checked runs in {m.busy:.2f} s, {m.passes} passes)")
    print(f"latency_p50_ms {p50 * 1e3:.3f} ms (n={n} op slots, mean of {m.passes} runs each)")
    print(f"latency_p90_ms {p90 * 1e3:.3f} ms (n={n}, {sum(1 for v in typical if v > p90)} beyond)")
    print(f"fail_ratio {m.failed / m.attempted:.4f} ({m.failed}/{m.attempted})")
    print(f"peak_rss_mb {peak:.1f} MB")
    return {
        "setup_s": setup_s,
        "ops_per_s": rate,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak,
    }


def per_layer_metrics(m: Measurement, spans) -> dict:
    ops = max(1, sum(len(v) for v in m.latency[True].values()))
    incl: dict[str, float] = {}
    own = dict.fromkeys(LAYERS, 0.0)
    probes: dict[str, dict[str, list]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        parent = None if s[PARENT] is None else spans[s[PARENT]][NAME]
        name = s[NAME]
        if name == "intlattice.smith_normal_form" and parent == "intlattice.invariant_factors":
            name = FACTORS_ONLY_SNF  # part of the factors-only path, not the witness path
        incl[name] = incl.get(name, 0.0) + s[END] - s[START]
        own[name.split(".")[0]] += self_s
        if name == "realize.realize" or name == "intlattice.smith_normal_form":
            if parent == "cli.main":
                incl["cli.delegated"] = incl.get("cli.delegated", 0.0) + s[END] - s[START]
        for key, value in (s[PROBE] or {}).items():
            probes.setdefault(name, {}).setdefault(key, []).append(value)

    def ms(*names):
        return sum(incl.get(n, 0.0) for n in names) / ops * 1e3

    def mean(name, key):
        values = probes.get(name, {}).get(key)
        return statistics.fmean(values) if values else 0.0

    def total(key):
        return sum(sum(p.get(key, ())) for p in probes.values())

    factor_bits = [b for f in ("intlattice.invariant_factors", "intlattice.smith_normal_form")
                   for b in probes.get(f, {}).get("factor_bits", ())]
    typ_traced, typ_untraced = m.typical(True), m.typical(False)
    both = typ_traced.keys() & typ_untraced.keys()
    untraced = statistics.fmean(typ_untraced[i] for i in both) if both else 0.0
    traced = statistics.fmean(typ_traced[i] for i in both) if both else 0.0
    factors = total("factors")
    out = {
        "diagram.parse_ms": ms("diagram.parse_diagram"),
        "diagram.trace_ms": ms("diagram.trace_regions"),
        "diagram.crossings": mean("diagram.trace_regions", "crossings"),
        "diagram.regions": mean("diagram.trace_regions", "regions"),
        "shading.checkerboard_ms": ms("shading.checkerboard"),
        "goeritz.matrix_ms": ms("goeritz.goeritz_matrix"),
        "goeritz.order": mean("goeritz.goeritz_matrix", "order"),
        "goeritz.nonzeros": mean("goeritz.goeritz_matrix", "nonzeros"),
        "intlattice.invariant_factors_ms": ms("intlattice.invariant_factors"),
        "intlattice.snf_ms": ms("intlattice.smith_normal_form"),
        "intlattice.witness_bits": mean("intlattice.smith_normal_form", "witness_bits"),
        "intlattice.unit_factors": total("unit_factors") / factors if factors else 0.0,
        "intlattice.factor_bits": statistics.fmean(factor_bits) if factor_bits else 0.0,
        "coloring.enumerate_ms": ms("coloring.dehn_count_bruteforce",
                                    "coloring.fox_count_bruteforce"),
        "coloring.states": m.counts.get("states", 0) / ops,
        "coloring.hit_ratio": (m.counts.get("solutions", 0) / m.counts["states"]
                               if m.counts.get("states") else 0.0),
        "realize.build_ms": ms("realize.realize"),
        "realize.crossings": mean("realize.realize", "crossings"),
        "cli.main_ms": ms("cli.main"),
        "cli.output_bytes": m.counts.get("output_bytes", 0) / ops,
        "cli.overhead_ms": ms("cli.main") - ms("cli.delegated"),
        "trace.overhead_ms": (traced - untraced) * 1e3,
        "trace.overhead_share": (traced - untraced) / untraced if untraced else 0.0,
    }
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_ms"] = own[layer] / ops * 1e3
    print(f"mean run per op slot, mean over {len(both)} ops: untraced {untraced * 1e3:.3f} ms, "
          f"traced {traced * 1e3:.3f} ms, tracing overhead {out['trace.overhead_ms']:.3f} ms")
    print("self time per layer (traced ops):")
    busy = sum(own.values()) or 1.0
    for layer in LAYERS:
        print(f"  {layer:<11} {own[layer] / ops * 1e3:12.3f} ms/op {own[layer] / busy:7.1%}")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; print the report; return the result object."""
    if not (SRC / "linkcolor" / "__init__.py").is_file():
        raise FileNotFoundError(f"no linkcolor sources under {SRC}")
    if not trace:
        measure_setup(1)  # compiles the bytecode a user's first import leaves
        setup = measure_setup(SETUP_RUNS)
    sys.path.insert(0, str(SRC))
    import linkcolor

    if Path(linkcolor.__file__).resolve().parent != (SRC / "linkcolor").resolve():
        raise ImportError(f"linkcolor imported from {linkcolor.__file__}, not {SRC}")
    import workloads

    make = workloads.WORKLOADS[workload]
    m = Measurement()
    order_rng = random.Random(f"{seed}/order")
    try:
        make(seed, -1).ops[0].run()  # warm-up: first-call costs, not measured or checked
    except Exception:  # the measured passes record the failure
        pass
    tracer = Tracer()
    origin = perf_counter()
    min_passes = 1 if trace else MIN_PASSES
    last = 0.0  # measured time of the last pass
    while m.passes < min_passes or m.busy + last / 2 < seconds:
        wl = make(seed, m.passes)
        before = m.busy
        m.run_pass(wl, order_rng.sample(range(len(wl.ops)), len(wl.ops)), tracer if trace else None)
        last = m.busy - before
    print(f"workload {workload} seed {seed}: {len(wl.ops)} ops per pass, "
          f"{m.passes} passes, {m.busy:.2f} s measured")
    if trace:
        metrics = per_layer_metrics(m, tracer.spans)
        out = ROOT / "bench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"spans-{workload}-seed{seed}.jsonl"
        tracer.dump(path, origin)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(m, statistics.median(setup + measure_setup(SETUP_RUNS)))
        units = END_TO_END
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time per run, to the nearest whole pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One thread: keep numpy's BLAS pool, started at import, from spawning workers.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
