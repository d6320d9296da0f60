"""End-to-end command-line checks via subprocess."""

import contextlib
import io
import json
import random
import re
import subprocess
import sys
import time

import pytest
from conftest import src_env

from linkcolor import cli
from linkcolor.catalog import CODES
from linkcolor.cli import MAX_SNF_WORK, main
from linkcolor.coloring import MAX_FACTOR_WORK
from linkcolor.intlattice import IntMatrix, smith_normal_form
from linkcolor.realize import MAX_REALIZE_CROSSINGS, MAX_REALIZE_ORDER


def run(*argv, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "linkcolor", *argv],
        input=stdin, capture_output=True, text=True, timeout=120, env=src_env())


@pytest.fixture()
def trefoil_file(tmp_path):
    p = tmp_path / "trefoil.txt"
    p.write_text(CODES["trefoil"] + "\n")
    return str(p)


class TestRegions:
    def test_json_shape(self, trefoil_file):
        res = run("regions", trefoil_file)
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["crossings"] == "3"
        assert data["regions"] == "5"
        assert data["unbounded"] == "0"
        assert len(data["quadrants"]) == 3
        assert all(len(q) == 4 for q in data["quadrants"])
        assert data["circles"] == []

    def test_stdin_dash(self):
        res = run("regions", "-", stdin="O 2\n")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["regions"] == "3"
        assert data["circles"] == ["1", "2"]

    def test_plain(self, trefoil_file):
        res = run("regions", "--plain", trefoil_file)
        lines = res.stdout.splitlines()
        assert lines[0] == "regions 5"
        assert lines[1] == "unbounded 0"


class TestShadeAndMatrix:
    def test_shade_keys(self, trefoil_file):
        res = run("shade", trefoil_file)
        data = json.loads(res.stdout)
        assert set(data) == {"shading", "shaded", "unshaded", "beta_s", "beta_u"}
        assert data["shading"] == "0"
        assert "0" in data["unshaded"]

    def test_matrix_plain_rows(self, trefoil_file):
        res = run("matrix", "--plain", "--shading", "1", trefoil_file)
        assert res.stdout.splitlines() == ["-3 3", "3 -3"]

    def test_adjusted_pads(self, tmp_path):
        p = tmp_path / "u2.txt"
        p.write_text("O 2\n")
        raw = json.loads(run("matrix", str(p)).stdout)
        adj = json.loads(run("matrix", "--adjusted", str(p)).stdout)
        assert raw["matrix"] == [["0"]]
        assert adj["matrix"] == [["0", "0"], ["0", "0"]]
        assert raw["beta_s"] == "2"


class TestSnf:
    def test_bare_array(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("[[6, 4]]")
        data = json.loads(run("snf", str(p)).stdout)
        assert data["phi"] == ["0", "2"]
        assert data["rank"] == "1"

    def test_dict_with_string_entries(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"matrix": [["2", "0"], ["0", "3"]]}))
        data = json.loads(run("snf", str(p)).stdout)
        assert data["phi"] == ["6", "1"]

    def test_witness_shape(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("[[2, 4], [6, 8]]")
        data = json.loads(run("snf", str(p)).stdout)
        u1 = [[int(v) for v in row] for row in data["u1"]]
        u2 = [[int(v) for v in row] for row in data["u2"]]
        nf = [[int(v) for v in row] for row in data["normal_form"]]
        prod = IntMatrix.from_rows(u1, 2) @ IntMatrix.from_rows([[2, 4], [6, 8]], 2) \
            @ IntMatrix.from_rows(u2, 2)
        assert prod.to_lists() == nf

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("[[1, 2], [3]]")
        assert run("snf", str(p)).returncode == 2


@contextlib.contextmanager
def no_digit_limit():
    """Lift the interpreter's int/str digit limit (Python 3.11+) in the test itself."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestLongIntegers:
    """Integers past the default 4300-digit int/str limit, in and out."""

    def test_snf_output_past_the_limit(self, tmp_path):
        with no_digit_limit():
            a, b = 2 ** 8000, 3 ** 5000
            entries = [[str(a), "0"], ["0", str(b)]]
            want = str(a * b)
        assert len(want) > 4300
        p = tmp_path / "m.json"
        p.write_text(json.dumps(entries))
        for plain in ((), ("--plain",)):
            t0 = time.perf_counter()
            res = run("snf", *plain, str(p))
            elapsed = time.perf_counter() - t0
            assert res.returncode == 0, res.stderr
            assert elapsed < 1.0
            if plain:
                assert res.stdout == f"phi: {want} 1\n"
            else:
                assert json.loads(res.stdout)["phi"] == [want, "1"]

    @pytest.mark.parametrize("as_string", [True, False])
    def test_snf_input_past_the_limit(self, as_string, capsys):
        with no_digit_limit():
            value = -(2 ** 15000)
            text = str(value)
            want = text[1:]
        assert len(want) > 4300
        entry = json.dumps(text) if as_string else text
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        saved = sys.stdin
        sys.stdin = io.StringIO(f"[[{entry}, 0]]")
        try:
            code = main(["snf", "--plain", "-"])
        finally:
            sys.stdin = saved
        assert code == 0
        assert capsys.readouterr().out == f"phi: 0 {want}\n"
        # The in-process caller keeps its own limit.
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_decimal_round_trip(self):
        rng = random.Random(7)
        for digits in (1, 599, 600, 601, 1800, 4300, 4301, 9000):
            with no_digit_limit():
                text = str(rng.randrange(10 ** (digits - 1), 10 ** digits))
                value = int(text)
            for sign in ("", "-"):
                assert cli._parse_int(sign + text) == (-value if sign else value)
                assert cli._decimal(-value if sign else value) == sign + text
        assert cli._parse_int(" +" + "0" * 700 + "12 ") == 12
        for bad in ("", "-", "12a" * 300, "1 2", "--5"):
            with pytest.raises(ValueError):
                cli._parse_int(bad)


class TestColoringsAndFox:
    def test_colorings_keys(self, trefoil_file):
        res = run("colorings", "--mod", "3", "--bruteforce", trefoil_file)
        data = json.loads(res.stdout)
        assert data["phi"] == ["0", "3", "1"]
        assert data["modulus"] == "3"
        assert data["dehn_order_mod_m"] == "27"
        assert data["fox_order_mod_m"] == "9"
        assert data["bruteforce"] == "27"

    def test_fox_keys(self, trefoil_file):
        res = run("fox", "--mod", "3", "--bruteforce", trefoil_file)
        data = json.loads(res.stdout)
        assert data["arc_count"] == "3"
        assert data["fox_order_mod_m"] == "9"
        assert data["bruteforce"] == "9"

    def test_shading_flag_changes_phi_layout(self, trefoil_file):
        d0 = json.loads(run("colorings", "--mod", "5", trefoil_file).stdout)
        d1 = json.loads(run("colorings", "--mod", "5", "--shading", "1",
                            trefoil_file).stdout)
        assert d0["phi"] == ["0", "3", "1"]
        assert d1["phi"] == ["0", "3"]
        assert d0["dehn_order_mod_m"] == d1["dehn_order_mod_m"]


class TestRealizeAndPipe:
    def test_default_spec_is_unknot(self):
        data = json.loads(run("realize").stdout)
        assert data["spec"] == []
        assert data["diagram"] == "O 1"
        assert data["matrix"] == [["0"]]

    def test_pipe_realize_into_snf(self):
        first = run("realize", "0,3,3,1")
        assert first.returncode == 0
        piped = run("snf", "-", stdin=first.stdout)
        assert piped.returncode == 0
        got = json.loads(piped.stdout)

        rows = [[int(v) for v in row]
                for row in json.loads(first.stdout)["matrix"]]
        res = smith_normal_form(IntMatrix.from_rows(rows, 5))
        assert got["phi"] == [str(f) for f in res.phi]
        assert got["u1"] == [[str(v) for v in row] for row in res.u1.to_lists()]


class TestCompare:
    def test_kinked_trefoil(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(CODES["trefoil"])
        b.write_text(CODES["trefoil_kink"])
        res = run("compare", str(a), str(b))
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"shading0": True, "shading1": True}

    def test_distinct(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(CODES["trefoil"])
        b.write_text(CODES["figure_eight"])
        res = run("compare", "--plain", str(a), str(b))
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "shading0: not equivalent", "shading1: not equivalent"]


class TestExitCodes:
    def test_label_used_once(self):
        res = run("regions", "-", stdin="X(1,2,3,4)")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_missing_file(self):
        assert run("regions", "/nonexistent/diagram.txt").returncode == 2

    def test_bad_matrix_json(self):
        assert run("snf", "-", stdin="{nope").returncode == 2

    def test_bad_spec(self):
        assert run("realize", "3,x").returncode == 2
        assert run("realize", "3,-1").returncode == 2

    def test_nonplanar(self):
        res = run("regions", "-", stdin="X(1,2,1,2)")
        assert res.returncode == 3

    def test_bruteforce_needs_no_enum_cap(self, tmp_path, braid, capsys):
        # A 10-crossing closure has 12 regions and 10 arcs, past the old
        # default proxy cap of 8; only the work caps bound the count.
        p = tmp_path / "closure.txt"
        p.write_text(braid.code_text(braid.braid_closure(
            3, braid.braid_word(random.Random(10), 3, 10))))
        for cmd, key in (("colorings", "dehn_order_mod_m"), ("fox", "fox_order_mod_m")):
            assert main([cmd, "--mod", "3", "--bruteforce", str(p)]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["bruteforce"] == data[key]

    def test_state_budget(self, trefoil_file, capsys):
        # Z/100000 splits into 2^5 and 5^5 at once, so the direct count
        # runs. A product of two primes near 10^20 would need about
        # 10^20 trial divisions: refused at the factoring cap. Run
        # in-process so the bound times the refusal, not interpreter
        # start.
        assert main(["colorings", "--mod", "100000", "--bruteforce", trefoil_file]) == 0
        # A x A x A(3): 100000^2 * gcd(3, 100000) colorings.
        assert json.loads(capsys.readouterr().out)["bruteforce"] == str(100000 ** 2)
        modulus = (10 ** 20 + 39) * (10 ** 20 + 129)
        for cmd in ("colorings", "fox"):
            start = time.perf_counter()
            code = main([cmd, "--mod", str(modulus), "--bruteforce", trefoil_file])
            assert time.perf_counter() - start < 1.0
            assert code == 4
            err = capsys.readouterr().err
            assert re.search(r"needs up to 2\^\d+ word operations", err)
            assert str(MAX_FACTOR_WORK) in err

    def test_snf_work_bound(self, tmp_path, capsys):
        # A dense order-120 matrix, and a single row whose column
        # witness would be 5000x5000: refused before any reduction.
        rng = random.Random(3)
        for rows, cols in ((120, 120), (1, 5000)):
            p = tmp_path / f"m{rows}x{cols}.json"
            p.write_text(json.dumps([[rng.randint(-3, 3) for _ in range(cols)]
                                     for _ in range(rows)]))
            start = time.perf_counter()
            code = main(["snf", str(p)])
            assert time.perf_counter() - start < 1.0
            assert code == 4
            err = capsys.readouterr().err
            assert f"{rows}x{cols}" in err and str(MAX_SNF_WORK) in err

    def test_realize_size_bound(self, capsys):
        # One factor of 10^8 crossings, or 400 factors whose Goeritz
        # matrix has order 401: refused before building anything.
        for spec, estimate in (("100000000", "100000000 crossings"),
                               (",".join(["1"] * 400), "order 401")):
            start = time.perf_counter()
            code = main(["realize", spec])
            assert time.perf_counter() - start < 1.0
            assert code == 4
            err = capsys.readouterr().err
            assert estimate in err
            assert str(MAX_REALIZE_CROSSINGS) in err and str(MAX_REALIZE_ORDER) in err

    def test_realize_factor_past_the_digit_limit(self, capsys):
        # A factor of 4,400 digits: refused with exit 4, its crossing
        # count named by bit length, not converted to a numeral.
        start = time.perf_counter()
        code = main(["realize", "9" * 4400])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        err = capsys.readouterr().err
        assert "over 2^14616 crossings" in err and str(MAX_REALIZE_CROSSINGS) in err

    def test_deeply_nested_json(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 50_000)
        res = run("snf", str(p))
        assert res.returncode == 2
        assert "error:" in res.stderr and "Traceback" not in res.stderr

    def test_usage_error(self):
        assert run("colorings", "-") .returncode == 2


class TestParserReuse:
    # main() builds its parser once per process, so no call may leave
    # state in it that the next call sees.
    def test_defaults_after_an_override(self, trefoil_file, capsys):
        assert main(["colorings", "--shading", "1", "--mod", "3", trefoil_file]) == 0
        assert json.loads(capsys.readouterr().out)["phi"] == ["0", "3"]
        assert main(["colorings", "--mod", "3", trefoil_file]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["phi"] == ["0", "3", "1"]
        assert out == run("colorings", "--mod", "3", trefoil_file).stdout

    def test_valid_call_after_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text("[[2, 4, 4], [-6, 6, 12], [10, 4, 16]]")
        assert main(["snf", "--bogus", str(p)]) == 2
        capsys.readouterr()
        assert main(["snf", str(p)]) == 0
        assert capsys.readouterr().out == run("snf", str(p)).stdout


class TestImport:
    def test_no_numpy(self):
        # numpy cost most of the import time while the direct counters
        # used it; the library now needs only the standard library.
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, linkcolor, linkcolor.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=120, env=src_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


class TestDeterminism:
    def test_plain_output_stable(self, trefoil_file):
        first = run("matrix", "--plain", trefoil_file).stdout
        second = run("matrix", "--plain", trefoil_file).stdout
        assert first == second
