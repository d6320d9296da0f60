"""Tests of the benchmark itself: generators, answer checks and report.

Run from the repository root with ``python3 -m pytest bench``.
"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import linkcolor as lc  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from braid import braid_closure, braid_word, code_text  # noqa: E402
from checks import check_fox, check_snf_report, diagonal_factors, fox_counts  # noqa: E402


def test_braid_generator_is_deterministic_per_seed():
    def codes(seed):
        rng = random.Random(seed)
        return [code_text(braid_closure(s, braid_word(rng, s, c))) for s, c in ((5, 40), (9, 90))]

    assert codes(3) == codes(3)
    assert codes(3) != codes(4)


@pytest.mark.parametrize("seed", range(4))
def test_braid_closure_is_a_planar_diagram(seed):
    rng = random.Random(seed)
    strands, crossings = 7, 30
    d = lc.parse_diagram(code_text(braid_closure(strands, braid_word(rng, strands, crossings))))
    assert d.crossing_count == crossings
    assert lc.trace_regions(d).region_count == crossings + 2


@pytest.mark.parametrize("make", [workloads.braid_structural, workloads.catalog_oracle,
                                  workloads.cli_realize_snf])
def test_workload_pools_are_deterministic_per_seed_and_fresh_per_turn(make):
    a, b, c, d = make(5, 0), make(5, 0), make(6, 0), make(5, 1)
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    assert len(d.ops) == len(a.ops)
    first = [op.run() for op in a.ops[-22:-18]]
    assert first == [op.run() for op in b.ops[-22:-18]]
    assert first != [op.run() for op in c.ops[-22:-18]]
    assert first != [op.run() for op in d.ops[-22:-18]]


def test_fox_check_matches_structure_and_rejects_a_wrong_count():
    xs = braid_closure(5, braid_word(random.Random(1), 5, 40))
    rep = lc.dehn_structure(lc.parse_diagram(code_text(xs)))
    counts = {p: lc.structure_count(rep, p, "fox") for p in (2, 3, 5, 7)}
    assert counts == fox_counts(xs)
    check_fox(xs, counts)
    wrong = dict(counts)
    wrong[3] *= 3
    with pytest.raises(AssertionError):
        check_fox(xs, wrong)


def test_diagonal_factors_match_the_library():
    rng = random.Random(2)
    for _ in range(50):
        values = [rng.choice((0, 1, 2, 3, 4, 6, 9, 12)) for _ in range(rng.randint(1, 6))]
        assert diagonal_factors(values) == lc.invariant_factors(lc.IntMatrix.diagonal(values))


def test_snf_check_rejects_a_tampered_witness():
    matrix = [[2, 4, 1], [-3, 0, 5], [1, 1, 1]]
    report = json.loads(workloads._cli(["snf", "-"], json.dumps(matrix)))
    check_snf_report(report, matrix)
    report["u1"][0][0] = str(int(report["u1"][0][0]) + 1)
    with pytest.raises(AssertionError):
        check_snf_report(report, matrix)


def _listed(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run_trimmed(monkeypatch, tmp_path, name, keep, trace):
    make = getattr(workloads, name)

    def trimmed(seed, turn):
        wl = make(seed, turn)
        assert len(wl.ops) >= 100  # ten operations beyond the 90th percentile
        wl.ops = keep(wl.ops)
        return wl

    monkeypatch.setitem(workloads.WORKLOADS, name, trimmed)
    monkeypatch.setattr(run, "ROOT", tmp_path)  # span dumps go to tmp_path/bench/out
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return out.getvalue()


def _first(prefix):
    return lambda ops: [next(op for op in ops if op.label.startswith(prefix))]


# Slots kept: two braid closures; three catalog pairs, one
# `realize | snf -` and one dense `snf -`.
@pytest.mark.parametrize("name,keep", [
    ("braid_structural", lambda ops: ops[:2]),
    ("catalog_cli", lambda ops: ops[:3] + _first("realize|snf")(ops) + _first("snf dense")(ops)),
])
def test_every_listed_metric_is_printed(monkeypatch, tmp_path, name, keep):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines = _run_trimmed(monkeypatch, tmp_path, name, keep, trace).splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        listed = _listed(kind)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if trace == 0:
            printed = {line.split()[0] for line in lines[:-1] if line.strip()}
            assert set(listed) | {"fail_ratio"} <= printed
        elif name == "braid_structural":
            # The factors-only path must not count as the witness path.
            assert values["intlattice.invariant_factors_ms"] > 0
            assert values["intlattice.snf_ms"] == values["intlattice.witness_bits"] == 0
            assert values["coloring.enumerate_ms"] == values["cli.main_ms"] == 0
        else:
            for key in ("coloring.enumerate_ms", "intlattice.snf_ms", "intlattice.witness_bits",
                        "realize.build_ms", "cli.main_ms", "cli.overhead_ms"):
                assert values[key] > 0, key
