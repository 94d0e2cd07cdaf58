import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencoupling import cli, degeneracy, dp_asymptotics, ep_asymptotics, numkit, pairmodel
from eigencoupling import errors as errors_mod
from eigencoupling import family as family_mod
from eigencoupling.errors import ClassificationError, FamilyParseError
import argv_oracle
import test_golden
from planted import planted

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"
GOLDEN = Path(__file__).parent / "golden"

TOY_FAMILY = json.dumps({
    "m": 2, "n": 2,
    "terms": [
        {"exp": [0, 0], "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [1, 0], "re": [[0, 0], [1, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [0, 1], "re": [[0, 0], [0, 0]], "im": [[0, 0], [1, 0]]},
    ],
})

SEPARATED_FAMILY = json.dumps({
    "m": 2, "n": 1,
    "terms": [
        {"exp": [0], "re": [[1, 0], [0, 3]], "im": [[0, 0], [0, 0]]},
        {"exp": [1], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
    ],
})

#: a 1x1 family over two parameters: no eigenvalue pair to search
SCALAR_FAMILY = json.dumps({
    "m": 1, "n": 2,
    "terms": [{"exp": [0, 0], "re": [[1]], "im": [[0]]}],
})

#: the toy EP family plus p1^400 I: finite at the anchor, overflowing at |p1| = 10
OVERFLOWING_FAMILY = json.dumps({
    "m": 2, "n": 2,
    "terms": json.loads(TOY_FAMILY)["terms"] + [
        {"exp": [400, 0], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    ],
})


#: A(0) = 1000 I + [[0, 1e-3], [1e-7, 0]] beside 1005: A - lam0 I has singular
#: values 5, 1e-3 and 1e-7, a one-dimensional kernel against 1e-8 sigma_max(A)
#: but none against 1e-8 sigma_max(A - lam0 I)
SMALL_SHIFT_FAMILY = json.dumps({
    "m": 3, "n": 2,
    "terms": [
        {"exp": [0, 0], "re": [[1000, 1e-3, 0], [1e-7, 1000, 0], [0, 0, 1005]],
         "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
        {"exp": [1, 0], "re": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
         "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
        {"exp": [0, 1], "re": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
         "im": [[0, 0, 0], [1, 0, 0], [0, 0, 0]]},
    ],
})

#: finite at (0.9, 0), where 3e308 p1^2 I overflows dA/dp_1
OVERFLOWING_DERIVATIVE_FAMILY = json.dumps({
    "m": 2, "n": 2,
    "terms": [
        {"exp": [0, 0], "re": [[0, 1], [-0.9, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [1, 0], "re": [[0, 0], [1, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [0, 1], "re": [[0, 0], [0, 0]], "im": [[0, 0], [1, 0]]},
        {"exp": [3, 0], "re": [[1e308, 0], [0, 1e308]], "im": [[0, 0], [0, 0]]},
    ],
})

#: a DP at 0 whose c = dp1^2 + i dp2^2 has Im c constant along every p_1 sweep
FLAT_IM_FAMILY = json.dumps({
    "m": 2, "n": 2,
    "terms": [
        {"exp": [0, 0], "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [1, 0], "re": [[2, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [0, 1], "re": [[0, 0], [1, 0]], "im": [[0, 1], [0, 0]]},
    ],
})

#: A(p) = diag(p1, p2, 5): away from p1 = p2 the Newton Jacobian's chain
#: normalization (u1, v0) vanishes, since A - mean I is normal
DIAGONAL_FAMILY = json.dumps({
    "m": 3, "n": 2,
    "terms": [
        {"exp": [0, 0], "re": [[0, 0, 0], [0, 0, 0], [0, 0, 5]], "im": [[0] * 3] * 3},
        {"exp": [1, 0], "re": [[1, 0, 0], [0, 0, 0], [0, 0, 0]], "im": [[0] * 3] * 3},
        {"exp": [0, 1], "re": [[0, 0, 0], [0, 1, 0], [0, 0, 0]], "im": [[0] * 3] * 3},
    ],
})

#: an EP at 0 whose drift 1.6e308 dp1 overflows the pair mean on a loop of
#: radius 10, while the radicand dp1 + i dp2 stays finite
HUGE_DRIFT_FAMILY = json.dumps({
    "m": 2, "n": 2,
    "terms": [
        {"exp": [0, 0], "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [1, 0], "re": [[8e307, 0], [1, 8e307]], "im": [[0, 0], [0, 0]]},
        {"exp": [0, 1], "re": [[0, 0], [0, 0]], "im": [[0, 0], [1, 0]]},
    ],
})

#: A(p) = (p1 + i p2) I3: a triple eigenvalue everywhere, no pair apart from a third
SCALAR_TRIPLE_FAMILY = json.dumps({
    "m": 3, "n": 2,
    "terms": [
        {"exp": [0, 0], "re": [[0] * 3] * 3, "im": [[0] * 3] * 3},
        {"exp": [1, 0], "re": np.eye(3).tolist(), "im": [[0] * 3] * 3},
        {"exp": [0, 1], "re": [[0] * 3] * 3, "im": np.eye(3).tolist()},
    ],
})

#: A(p) = [[0, p1], [p2, 0]]: the pair +-sqrt(p1 p2) and no third eigenvalue
OFF_DIAGONAL_FAMILY = json.dumps({
    "m": 2, "n": 2,
    "terms": [
        {"exp": [1, 0], "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [0, 1], "re": [[0, 0], [1, 0]], "im": [[0, 0], [0, 0]]},
    ],
})


def scaled_dp_family(s, im01):
    """A = I + s p1 (1 + 0.5i) diag(1, -1) + s p2 [[0, 0.3 + im01 i],
    [0.7 + 0.2i, 0]]: a DP at 0 whose c scales with s^2."""
    return json.dumps({"m": 2, "n": 2, "terms": [
        {"exp": [0, 0], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
        {"exp": [1, 0], "re": [[s, 0], [0, -s]], "im": [[s / 2, 0], [0, -s / 2]]},
        {"exp": [0, 1], "re": [[0, 0.3 * s], [0.7 * s, 0]],
         "im": [[0, im01 * s], [0.2 * s, 0]]}]})


#: a DP at p = 0 of a 2x2 family over three parameters
THREE_PARAMETER_DP_FAMILY = json.dumps({
    "m": 2, "n": 3,
    "terms": [
        {"exp": [1, 0, 0], "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
        {"exp": [0, 1, 0], "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
        {"exp": [0, 0, 1], "re": [[0, 0], [0, 0]], "im": [[0, 1], [1, 0]]},
    ],
})

#: an EP at p* of a planted 3x3 family over three parameters
PLANTED_EP3 = planted(5, "EP", 3, n=3)
THREE_PARAMETER_EP_FAMILY = json.dumps({"m": 3, "n": 3, "terms": [
    {"exp": list(exps), "re": coeff.real.tolist(), "im": coeff.imag.tolist()}
    for coeff, exps in PLANTED_EP3.family.terms]})

#: diag(-30, 30, 55i): a cluster tolerance that joins -30 and 30 leaves 55i
#: closer to their mean than they are to each other
SPREAD_FAMILY = json.dumps({
    "m": 3, "n": 2,
    "terms": [{"exp": [0, 0], "re": [[-30, 0, 0], [0, 30, 0], [0, 0, 0]],
               "im": [[0, 0, 0], [0, 0, 0], [0, 0, 55]]}],
})

#: a family file in Latin-1, which is not UTF-8
LATIN1_FAMILY = '{"m": 1, "n": 1, "terms": [], "caf\u00e9": 0}'.encode("latin-1")

#: config files with an integer beyond the double range, or a count beyond
#: what numpy can size as an array of float64 (none of them is allocated)
HUGE_CONFIGS = {
    "rank400": {"family": "crystal-example-1", "at": "0,0", "tol_rank": 10**400},
    "cluster400": {"family": "crystal-example-1", "at": "0,0", "tol-cluster": 10**400},
    "res63": {"res": 2**63}, "samples63": {"samples": 2**63},
    "res60": {"res": 2**60}, "samples400": {"samples": 10**400},
}


def validate(report, schema_name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(report, schema)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_crystal_one_is_ep(self, capsys):
        code, out = run(capsys, "classify", "--family", "crystal-example-1",
                        "--at", "0,0")
        assert code == 0
        report = json.loads(out)
        validate(report, "classify_report.schema.json")
        assert report["kind"] == "EP"
        assert report["lambda0"]["re"] == pytest.approx(2.0, abs=1e-6)
        assert report["codimension"] == 2

    def test_crystal_two_is_dp(self, capsys):
        code, out = run(capsys, "classify", "--family", "crystal-example-2",
                        "--at", "0,0")
        assert code == 0
        report = json.loads(out)
        validate(report, "classify_report.schema.json")
        assert report["kind"] == "DP"
        assert report["lambda0"] == {"re": pytest.approx(1.0), "im": pytest.approx(5.0)}
        assert report["codimension"] == 6

    def test_kernel_decided_once(self, capsys, tmp_path):
        """classify calls A(0) an EP, and the chain the model needs is built
        on that kernel instead of a second rank decision that finds none."""
        fam = tmp_path / "small_shift.json"
        fam.write_text(SMALL_SHIFT_FAMILY)
        base = ["--family", str(fam), "--at", "0,0"]
        code, out = run(capsys, "classify", *base)
        assert code == 0 and json.loads(out)["kind"] == "EP"
        assert cli.main(["surface", *base, "--res", "5",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["loop", *base, "--loop", "0,0,0.01",
                         "--out", str(tmp_path / "l.csv")]) == 0

    def test_no_cluster_exit_two(self, capsys, tmp_path):
        fam = tmp_path / "sep.json"
        fam.write_text(SEPARATED_FAMILY)
        code, _ = run(capsys, "classify", "--family", str(fam), "--at", "0.3")
        assert code == 2


class TestSurface:
    def test_grid_matches_closed_form(self, capsys, tmp_path):
        out = tmp_path / "surface.csv"
        code, _ = run(capsys, "surface", "--family", "crystal-example-1",
                      "--at", "0,0", "--window", "-0.1,0.1", "--res", "41",
                      "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:6] == [
            "p1", "p2", "re_plus", "re_minus", "im_plus", "im_minus"]
        assert len(lines) == 1 + 41 * 41
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            s1, s2, re_p, re_m, im_p, im_m = vals[:6]
            rho = np.hypot(s1, s2)
            assert re_p == pytest.approx(2 + np.sqrt(2 * s2 + 2 * rho), abs=1e-10)
            assert re_m == pytest.approx(2 - np.sqrt(2 * s2 + 2 * rho), abs=1e-10)
            assert im_p == pytest.approx(-2 * s1 + np.sqrt(-2 * s2 + 2 * rho), abs=1e-10)
            assert im_m == pytest.approx(-2 * s1 - np.sqrt(-2 * s2 + 2 * rho), abs=1e-10)

    def test_minimal_resolution(self, capsys, tmp_path):
        out = tmp_path / "corners.csv"
        code, _ = run(capsys, "surface", "--family", "crystal-example-1",
                      "--at", "0,0", "--window", "-0.05,0.05", "--res", "2",
                      "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_dp_surface_matches_closed_form(self, capsys, tmp_path):
        out = tmp_path / "dp.csv"
        code, _ = run(capsys, "surface", "--family", "crystal-example-2",
                      "--at", "0,0", "--window", "-0.05,0.05", "--res", "5",
                      "--out", str(out))
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            vals = [float(tok) for tok in line.split(",")]
            s1, s2, re_p, re_m, im_p, im_m = vals[:6]
            c = (45 + 8j) * s1 * s1 + 128j * s1 * s2 + (-83 + 8j) * s2 * s2
            re_rad = np.sqrt((abs(c) + c.real) / 2)
            im_rad = np.sqrt((abs(c) - c.real) / 2)
            assert re_p == pytest.approx(1 - s1 + re_rad, abs=1e-10)
            assert re_m == pytest.approx(1 - s1 - re_rad, abs=1e-10)
            assert im_p == pytest.approx(5 - 4 * s1 - 2 * s2 + im_rad, abs=1e-10)
            assert im_m == pytest.approx(5 - 4 * s1 - 2 * s2 - im_rad, abs=1e-10)

    def test_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _ = run(capsys, "surface", "--family", "crystal-example-1",
                          "--at", "0,0", "--window", "-0.02,0.02", "--res", "5",
                          "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_requires_out(self, capsys):
        code, _ = run(capsys, "surface", "--family", "crystal-example-1",
                      "--at", "0,0")
        assert code == 1

    def test_seventeen_digit_round_trip(self, capsys, tmp_path):
        out = tmp_path / "digits.csv"
        run(capsys, "surface", "--family", "crystal-example-1", "--at", "0,0",
            "--window", "-0.013,0.029", "--res", "3", "--out", str(out))
        # every float token round-trips exactly
        for line in out.read_text().splitlines()[1:]:
            for tok in line.split(","):
                assert f"{float(tok):.17g}" == tok


def percent_g_rows(table):
    """The CSV lines of a 2-d float array by the '%.17g' template."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def neighbours(values):
    """values and the doubles on either side of each (inf past the largest)."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])


#: doubles where the array kernel of ``cli._rows`` is nearest to the edge of
#: what it decides itself, each set drawn from a generator seeded 19
CSV_FLOAT_SETS = {
    "powers of ten": lambda rng: signed(neighbours(
        [float(f"1e{k}") for k in range(-324, 309)])),
    "range ends": lambda rng: signed(neighbours(
        [1e16, 1e17, sys.float_info.max, sys.float_info.min, 5e-324])),
    "integers": lambda rng: signed(np.concatenate([
        np.arange(2 ** 53 - 3000, 2 ** 53 + 3000, dtype=float),
        1e17 + 16.0 * np.arange(-3000, 3000)])),
    "dyadic fractions": lambda rng: signed(
        rng.integers(1, 2 ** 40, 100_000) / 2.0 ** rng.integers(1, 90, 100_000)),
    "bit patterns": lambda rng: rng.integers(
        0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64),
    "short decimals": lambda rng: signed(short_decimals(rng)),
}


def short_decimals(rng):
    """float(f"{k}e{e}") for 40 k of each length 1-16 digits and e in [-30, 30]:
    17-digit forms that end in zeros or not, integers that end in zeros."""
    ks = [k for d in range(1, 17) for k in rng.integers(10 ** (d - 1), 10 ** d, 40).tolist()]
    return np.array([float(f"{k}e{e}") for k in ks for e in range(-30, 31)])


def last_digit_zero(values):
    """Whether the 17-digit decimal of each finite value ends in 0."""
    return np.array([("%.16e" % v).partition("e")[0][-1] == "0" for v in values.tolist()])


class TestCsvFloats:
    """``cli._rows`` writes every double as the bytes of '%.17g', from an
    array kernel and a per-value path for what the kernel cannot decide."""

    @settings(max_examples=300)
    @given(st.integers(1, 11).flatmap(lambda k: st.lists(
        st.lists(st.floats(), min_size=k, max_size=k), min_size=1, max_size=30)))
    def test_drawn_tables(self, rows):
        table = np.array(rows, dtype=float)
        assert b"".join(cli._rows(table)) == percent_g_rows(table).encode()

    @pytest.mark.parametrize("name", CSV_FLOAT_SETS)
    def test_fixed_sets(self, name):
        values = CSV_FLOAT_SETS[name](np.random.default_rng(19))
        # seven columns, so that rows span the kernel's chunks unevenly
        table = np.concatenate([values, np.zeros(-len(values) % 7)]).reshape(-1, 7)
        assert b"".join(cli._rows(table)) == percent_g_rows(table).encode()

    @pytest.mark.parametrize("zero", [False, True])
    def test_all_or_no_trailing_zero(self, zero):
        """Tables where no 17-digit decimal ends in 0 and where every one
        does: the kernel blanks trailing zeros only where the 17th is 0."""
        rng = np.random.default_rng(19)
        pool = np.concatenate([short_decimals(rng), rng.normal(0, 1e3, 10 ** 5),
                               rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(float)])
        pool = signed(pool[np.isfinite(pool)])
        values = pool[last_digit_zero(pool) == zero]
        assert len(values) > 50_000
        table = values[:len(values) // 7 * 7].reshape(-1, 7)
        assert b"".join(cli._rows(table)) == percent_g_rows(table).encode()

    def test_zeros_and_specials(self):
        table = np.array([[0.0, -0.0, np.inf], [-np.inf, np.nan, 1.0]])
        assert b"".join(cli._rows(table)) == b"0,-0,inf\n-inf,nan,1\n"

    @pytest.mark.parametrize("layout", ["C", "F", "column slice", "negative stride"])
    def test_caller_table_unchanged(self, layout):
        """The kernel works in place on its own arrays, never on the table:
        a chunk of a C-ordered table reaches it as a view. Two chunks of
        rows, with zeros, subnormals and non-finite values among them."""
        rng = np.random.default_rng(19)
        values = CSV_FLOAT_SETS["range ends"](rng).tolist() + [0.0, -0.0, np.inf, np.nan]
        pool = rng.permutation(np.resize(values, 3000 * 8))
        table = {"C": pool.reshape(3000, 8),
                 "F": np.asfortranarray(pool.reshape(3000, 8)),
                 "column slice": pool.reshape(3000, 8)[:, 1:6],
                 "negative stride": pool.reshape(3000, 8)[::-1, ::-2]}[layout]
        before = table.copy()
        assert b"".join(cli._rows(table)) == percent_g_rows(before).encode()
        assert table.tobytes() == before.tobytes()

    @pytest.mark.parametrize("name,rows", [("loop", 2048), ("surface", 256)])
    def test_traced_peak_per_value(self, name, rows):
        """What one ``_format`` call holds at once, its result included, as
        tracemalloc counts it: at most 160 bytes per value, on a chunk of a
        loop CSV's rows and on a block of a surface CSV's, each from the
        golden file of crystal-example-1."""
        path = GOLDEN / f"crystal-example-1.{name}.csv"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        block = np.resize(table, (rows, table.shape[1]))
        ends = np.full(block.shape[1], ord(","), np.uint64) << np.uint64(56)
        ends[-1] = ord("\n") << 56
        cli._format(block, ends)    # builds the digit tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._format(block, ends)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / block.size <= 160


class TestWriteFiles:
    """``cli._write_files`` writes bytes parts as they are, or no file."""

    def test_parts_land_verbatim(self, tmp_path):
        parts = [b"p1,p2\r\n", b"", b"\x00\xff\n", "café\n".encode()]
        cli._write_files((tmp_path / "a.csv", parts), (tmp_path / "b.json", [b"{}\n"]))
        assert (tmp_path / "a.csv").read_bytes() == b"".join(parts)
        assert (tmp_path / "b.json").read_bytes() == b"{}\n"

    def test_earlier_file_removed_when_later_fails(self, tmp_path):
        first = tmp_path / "a.csv"
        with pytest.raises(cli._UsageError, match="cannot write"):
            cli._write_files((first, [b"1,2\n"]), (tmp_path / "missing" / "b.json", [b"{}\n"]))
        assert list(tmp_path.iterdir()) == []


def planted_ep_family(tmp_path, m=6):
    """Two-parameter m x m family A(p) = S (J + p1 B1 + p2 B2) S^-1, where J
    holds a 2x2 Jordan block at 0.5 + 0.2i and m - 2 separated eigenvalues."""
    rng = np.random.default_rng(6)
    s = np.eye(m) + 0.2 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    s_inv = np.linalg.inv(s)
    jordan = np.diag(np.r_[[0.5 + 0.2j] * 2, 2.0 + 1.5j * np.arange(1, m - 1)])
    jordan[0, 1] = 1.0
    terms = []
    for exps, core in (([0, 0], jordan),
                       ([1, 0], rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))),
                       ([0, 1], rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))):
        coeff = s @ core @ s_inv
        terms.append({"exp": exps, "re": coeff.real.tolist(), "im": coeff.imag.tolist()})
    path = tmp_path / f"planted_ep_m{m}.json"
    path.write_text(json.dumps({"m": m, "n": 2, "terms": terms}))
    return str(path)


class TestThreadedSurface:
    """``surface`` factorises its blocks on a pool of threads while this
    thread pairs and formats the finished ones; its output must not depend on
    how many threads there are or in which order the blocks finish."""

    def run_with_pool(self, monkeypatch, capsys, workers, argv):
        """Exit code, stderr and written CSV of ``argv``; ``workers`` None
        keeps the process's own pool, and an executor is used as given."""
        from concurrent.futures import ThreadPoolExecutor
        pool = workers if isinstance(workers, ThreadPoolExecutor) else (
            ThreadPoolExecutor(max_workers=workers or 1))
        with pool, monkeypatch.context() as mp:
            if workers:
                mp.setattr(cli, "_pool", lambda: pool)
            code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("family", ["crystal-example-1", "planted-m6"])
    def test_csv_matches_serial_oracle(self, monkeypatch, capsys, tmp_path, family):
        """res 61 (15 blocks) against the grid done in one piece: one
        evaluate_many, one eigvals, one pairing and one line template."""
        if family == "planted-m6":
            family = planted_ep_family(tmp_path)
        argv = ["surface", "--family", family, "--at", "0,0", "--window=-0.05,0.05",
                "--res", "61", "--out", str(tmp_path / "s.csv")]
        code, err, csv = self.run_with_pool(monkeypatch, capsys, None, argv)
        assert (code, err) == (0, "")

        fam = cli._load_family(family)
        p0 = np.zeros(2)
        model = cli._anchor(fam, p0.tobytes(), degeneracy.DEFAULT_CLUSTER_TOL,
                            degeneracy.DEFAULT_RANK_TOL).model
        axis = np.linspace(-0.05, 0.05, 61)
        dps = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        values = np.linalg.eigvals(family_mod.evaluate_many(fam, p0 + dps))
        model_pair = pairmodel.sheets(model, dps)
        i, j, margin = numkit.pair_assignment(values, model_pair.pair)
        a, b = values[np.arange(len(dps)), i], values[np.arange(len(dps)), j]
        table = np.column_stack((
            p0 + dps, model_pair.sheets, np.maximum(a.real, b.real), np.minimum(a.real, b.real),
            np.maximum(a.imag, b.imag), np.minimum(a.imag, b.imag), margin < 1e-3))
        expected = ("p1,p2,re_plus,re_minus,im_plus,im_minus,re_plus_exact,re_minus_exact,"
                    "im_plus_exact,im_minus_exact,pair_margin_flag\n" + percent_g_rows(table))
        assert len(table) == 61 * 61 > 14 * cli.BLOCK
        assert csv == expected.encode()

    def test_blocks_finishing_out_of_order(self, monkeypatch, capsys, tmp_path):
        """Three workers, and the earlier a block is submitted the longer it
        sleeps, so later blocks finish first; the CSV keeps its order."""
        import time
        from concurrent.futures import ThreadPoolExecutor

        class LateFirst(ThreadPoolExecutor):
            def __init__(self, blocks):
                super().__init__(max_workers=3)
                self.blocks, self.submitted, self.finished = blocks, 0, []

            def submit(self, fn, *args):
                k = self.submitted
                self.submitted += 1

                def late():
                    time.sleep(0.02 * (self.blocks - k))
                    values = fn(*args)
                    self.finished.append(k)
                    return values
                return super().submit(late)

        argv = ["surface", "--family", "crystal-example-1", "--at", "0,0",
                "--window=-0.05,0.05", "--res", "37", "--out", str(tmp_path / "s.csv")]
        late = LateFirst(blocks=6)      # 37 * 37 points: 6 blocks
        shuffled = self.run_with_pool(monkeypatch, capsys, late, argv)
        assert late.submitted == 6 and late.finished != sorted(late.finished)
        assert shuffled == self.run_with_pool(monkeypatch, capsys, 1, argv)

    @pytest.mark.parametrize("workers", [None, 3], ids=["usable-cpus", "3-workers"])
    def test_error_with_blocks_in_flight(self, monkeypatch, capsys, tmp_path, workers):
        """A DomainError in the last block, with earlier blocks still on the
        workers, writes no CSV and leaves the next surface in the process
        untouched."""
        out = str(tmp_path / "s.csv")
        clean = ["surface", "--family", "crystal-example-1", "--at", "0,0",
                 "--window=-0.5,0.95,-0.2,0.2", "--res", "37", "--out", out]
        # as clean, but the last row of p1 = 1.0 leaves the chart: grid
        # points 1332..1368, all in the sixth block
        failing = clean[:5] + ["--window=-0.5,1.0,-0.2,0.2"] + clean[6:]
        first = self.run_with_pool(monkeypatch, capsys, workers, clean)
        assert first[0] == 0
        Path(out).unlink()
        code, err, csv = self.run_with_pool(monkeypatch, capsys, workers, failing)
        assert (code, csv) == (3, None)
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            "error: point [1.0, -0.2] outside the family domain"]
        assert self.run_with_pool(monkeypatch, capsys, workers, clean) == first

    def test_eigensolver_failure_exit_one(self, monkeypatch, capsys, tmp_path):
        """LAPACK's iteration cap on a block's stack ends like numkit's:
        exit 1, one error line and no CSV."""
        eigvals = np.linalg.eigvals

        def capped(a):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", capped)
        out = tmp_path / "s.csv"
        code = cli.main(["surface", "--family", "crystal-example-1", "--at", "0,0",
                         "--res", "37", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: eigensolver did not converge: Eigenvalues did not converge\n")
        assert not out.exists()

    @pytest.mark.parametrize("family", ["crystal-example-1", "planted-m6"])
    @pytest.mark.parametrize("workers", [None, 3], ids=["usable-cpus", "3-workers"])
    def test_csv_matches_one_worker(self, monkeypatch, capsys, tmp_path, family, workers):
        # res 37: 1369 points, five full blocks and a ragged sixth
        if family == "planted-m6":
            family = planted_ep_family(tmp_path)
        base = ["surface", "--family", family, "--at", "0,0", "--window=-0.05,0.05",
                "--res", "37", "--out"]
        pooled = self.run_with_pool(monkeypatch, capsys, workers, base + [str(tmp_path / "a.csv")])
        single = self.run_with_pool(monkeypatch, capsys, 1, base + [str(tmp_path / "b.csv")])
        assert pooled[0] == 0
        assert len(pooled[2].splitlines()) == 1 + 37 * 37
        assert pooled == single

    @pytest.mark.parametrize("workers", [None, 3], ids=["usable-cpus", "3-workers"])
    def test_chart_exit_matches_one_worker(self, monkeypatch, capsys, tmp_path, workers):
        # only the last row of p1 = 1.0 leaves the chart: grid points 1332..1368,
        # all in the sixth block
        argv = ["surface", "--family", "crystal-example-1", "--at", "0,0",
                "--window=-0.5,1.0,-0.2,0.2", "--res", "37", "--out", str(tmp_path / "s.csv")]
        pooled = self.run_with_pool(monkeypatch, capsys, workers, argv)
        single = self.run_with_pool(monkeypatch, capsys, 1, argv)
        assert pooled[0] == 3
        assert "outside the family domain" in pooled[1]
        assert pooled == single


def test_pool_built_by_surface_alone(tmp_path):
    """Importing the package and the other four commands neither import
    concurrent.futures nor build the pool; surface builds it once."""
    probe = """
import sys
import eigencoupling
from eigencoupling import cli
out = sys.argv[1]
seen = ["concurrent.futures" in sys.modules]
for argv in (["classify", "--at", "0,0"], ["scenario", "--at", "0,0"],
             ["find-ep", "--at", "0.05,-0.03"],
             ["loop", "--at", "0,0", "--loop", "0,0,0.01", "--out", out + "/l.csv"]):
    assert cli.main(argv + ["--family", "crystal-example-1"]) == 0, argv
    seen.append("concurrent.futures" in sys.modules)
seen.append(cli._pool.cache_info().currsize)
for _ in range(2):
    assert cli.main(["surface", "--family", "crystal-example-1", "--at", "0,0",
                     "--res", "3", "--out", out + "/s.csv"]) == 0
info = cli._pool.cache_info()
print(*seen, "concurrent.futures" in sys.modules, info.misses, info.hits)
"""
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-9:] == ["False"] * 5 + ["0", "True", "1", "1"]


#: the package's public names, by the module that defines them
EXPORTS = {
    "cli": (), "crystal_optics": (), "errors": (),
    "degeneracy": ("DPFrame", "JordanChain", "classify", "codimension", "dp_frame",
                   "find_double_eigenvalues", "find_ep", "jordan_chain"),
    "dp_asymptotics": ("DPLocalModel", "avoided_crossing_1p", "dp_sensitivities",
                       "one_param_slopes", "persistence_conditions", "reduced_problem",
                       "split_multiparam", "surface_classification_2p"),
    "ep_asymptotics": ("EPLocalModel", "LoopSpec", "branch_cuts", "complex_plane_conic",
                       "cross_section", "curve_split", "loop_trajectory", "sensitivities",
                       "surface_eval", "tangency_conditions"),
    "family": ("MatrixFamily", "PolynomialFamily", "derivative", "evaluate",
               "evaluate_many", "parse_family"),
    "numkit": ("eig_all", "hermitian_inner"),
    "pairmodel": ("PairSheets", "sheets"),
}


@pytest.mark.parametrize("crystal,kind", [("crystal-example-1", "ep_asymptotics"),
                                          ("crystal-example-2", "dp_asymptotics")])
def test_import_footprint(tmp_path, crystal, kind):
    """``import eigencoupling`` imports none of the package's modules; the
    benchmark's setup, a builtin crystal and a parsed family file, only
    those it runs; classify and find-ep neither asymptotics module; loop,
    scenario and surface only the one of the anchor's kind. Every public
    name resolves, lazily, to its module's object; another name is refused."""
    probe = """
import json, pathlib, sys
def loaded():
    return sorted(name.split(".", 1)[1] for name in sys.modules
                  if name.startswith("eigencoupling."))
crystal, path, out = sys.argv[1:]
import eigencoupling as ec
seen = [loaded()]
ec.crystal_optics.family_adapter(ec.crystal_optics.builtin_specs()[crystal])
ec.parse_family(pathlib.Path(path).read_text(encoding="utf-8"))
seen.append(loaded())
from eigencoupling import cli
codes = [cli.main(argv + ["--family", crystal]) for argv in (
    ["classify", "--at", "0,0"], ["find-ep", "--at", "0.05,-0.03"])]
seen.append(loaded())
codes += [cli.main(argv + ["--family", crystal]) for argv in (
    ["loop", "--at", "0,0", "--loop", "0,0,0.01", "--out", out + "/l.csv"],
    ["scenario", "--at", "0,0"], ["scenario", "--at", "0,0", "--offset", "0.01"],
    ["surface", "--at", "0,0", "--res", "3", "--out", out + "/s.csv"])]
seen.append(loaded())
print(json.dumps([codes, seen]))
"""
    src = str(Path(cli.__file__).parents[1])
    family = Path(__file__).parent / "families" / "planted-ep-m10.json"
    done = subprocess.run([sys.executable, "-c", probe, crystal, str(family), str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, seen = json.loads(done.stdout.splitlines()[-1])
    # crystal-example-2's anchor is a DP: no loop, and find-ep refuses where it lands
    assert codes == ([0] * 6 if kind == "ep_asymptotics" else [0, 2, 2, 0, 0, 0])
    imported, setup, searched, modelled = (set(s) for s in seen)
    assert imported == set()
    assert setup == {"crystal_optics", "errors", "family"}
    assert not searched & {"ep_asymptotics", "dp_asymptotics"}
    assert modelled & {"ep_asymptotics", "dp_asymptotics"} == {kind}

    import eigencoupling
    for module, names in EXPORTS.items():
        held = importlib.import_module(f"eigencoupling.{module}")
        assert getattr(eigencoupling, module) is held
        for name in (module, *names):
            assert name in dir(eigencoupling) and name in eigencoupling.__all__, name
        for name in names:
            assert getattr(eigencoupling, name) is getattr(held, name), name
    with pytest.raises(AttributeError, match="^module 'eigencoupling' has no attribute 'bogus'$"):
        eigencoupling.bogus


class TestLoop:
    def test_inside_loop_report(self, capsys, tmp_path):
        out = tmp_path / "loop.csv"
        code, _ = run(capsys, "loop", "--family", "crystal-example-1",
                      "--at", "0,0", "--loop", "0,0,0.01", "--out", str(out))
        assert code == 0
        report = json.loads((tmp_path / "loop.json").read_text())
        validate(report, "loop_report.schema.json")
        assert report["regime"] == "inside"
        assert report["winding_number"] == 1
        re_crossings = sorted(c["ordinate"] for c in report["axis_crossings"]
                              if c["axis"] == "re")
        assert re_crossings == pytest.approx([-0.2, 0.2], rel=1e-6)
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,re_plus,im_plus,re_minus,im_minus"
        assert len(lines) == 1 + 720

    def test_outside_loop(self, capsys, tmp_path):
        out = tmp_path / "loop.csv"
        code, _ = run(capsys, "loop", "--family", "crystal-example-1",
                      "--at", "0,0", "--loop", "0.02,0,0.01", "--out", str(out))
        assert code == 0
        report = json.loads((tmp_path / "loop.json").read_text())
        assert report["regime"] == "outside"
        assert report["n_curves"] == 2

    def test_boundary_loop(self, capsys, tmp_path):
        out = tmp_path / "loop.csv"
        code, _ = run(capsys, "loop", "--family", "crystal-example-1",
                      "--at", "0,0", "--loop", "0.01,0,0.01", "--out", str(out))
        assert code == 0
        report = json.loads((tmp_path / "loop.json").read_text())
        assert report["regime"] == "on"

    @pytest.mark.parametrize("loop", ["0,0,1e300", "1e300,0,1", "0,0,1.3e154"])
    def test_overflowing_loop_exit_one(self, capsys, tmp_path, loop):
        out = tmp_path / "loop.csv"
        code = cli.main(["loop", "--family", "crystal-example-1", "--at", "0,0",
                         f"--loop={loop}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and ("overflow" in err or "finite" in err)
        assert "Traceback" not in err
        assert not out.exists()


class TestFindEP:
    def test_crystal_report(self, capsys):
        code, out = run(capsys, "find-ep", "--family", "crystal-example-1",
                        "--at", "0.05,-0.03")
        assert code == 0
        report = json.loads(out)
        validate(report, "find_ep_report.schema.json")
        assert np.hypot(*report["p_star"]) <= 1e-10
        assert report["iterations"] <= 20

    def test_toy_family(self, capsys, tmp_path):
        fam = tmp_path / "toy.json"
        fam.write_text(TOY_FAMILY)
        code, out = run(capsys, "find-ep", "--family", str(fam), "--at", "0.2,0.1")
        assert code == 0
        report = json.loads(out)
        assert np.hypot(*report["p_star"]) <= 1e-10

    def test_failed_search_exit_four(self, capsys):
        code, _ = run(capsys, "find-ep", "--family", "crystal-example-1",
                      "--at", "0.2,0.1")
        assert code == 4


class TestScenario:
    def test_crystal_two_classification(self, capsys):
        code, out = run(capsys, "scenario", "--family", "crystal-example-2",
                        "--at", "0,0")
        assert code == 0
        report = json.loads(out)
        validate(report, "scenario_report.schema.json")
        assert report["type"] == "one-re-one-im-line"
        assert report["discriminant"] == pytest.approx(16128.0, abs=1e-4)

    def test_crystal_one_cusp_section(self, capsys):
        code, out = run(capsys, "scenario", "--family", "crystal-example-1",
                        "--at", "0,0")
        assert code == 0
        report = json.loads(out)
        validate(report, "scenario_report.schema.json")
        assert report["crossing"] == "cusp"
        assert report["gamma"] == 0.0

    def test_crystal_one_offset_section(self, capsys):
        code, out = run(capsys, "scenario", "--family", "crystal-example-1",
                        "--at", "0,0", "--offset", "0.01")
        assert code == 0
        report = json.loads(out)
        assert report["gamma"] == pytest.approx(-0.16, abs=1e-8)
        assert report["crossing"] in ("re", "im")

    @pytest.mark.parametrize("sign,label", [(1, "im"), (-1, "re")])
    def test_ep_label_independent_of_offset_scale(self, capsys, sign, label):
        """gamma is linear in the offset, so its sign decides the crossing at
        any scale; no absolute floor turns a small offset into a cusp."""
        for j in range(31):
            code, out = run(capsys, "scenario", "--family", "crystal-example-1",
                            "--at", "0,0", f"--offset={sign * 0.01 * 10.0 ** -j!r}")
            assert code == 0
            assert json.loads(out)["crossing"] == label, j

    def test_dp_one_parameter_report(self, capsys):
        code, out = run(capsys, "scenario", "--family", "crystal-example-2",
                        "--at", "0,0", "--offset", "0.01")
        assert code == 0
        report = json.loads(out)
        validate(report, "scenario_report.schema.json")
        assert report["scenario"] == "one-re-one-im"

    def test_section_csv(self, capsys, tmp_path):
        out = tmp_path / "section.csv"
        code, _ = run(capsys, "scenario", "--family", "crystal-example-1",
                      "--at", "0,0", "--offset", "0.01", "--format", "csv",
                      "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p1,re_plus,re_minus,im_plus,im_minus"
        assert len(lines) > 100

    def test_dp_section_csv(self, capsys, tmp_path):
        out = tmp_path / "dp_section.csv"
        code, _ = run(capsys, "scenario", "--family", "crystal-example-2",
                      "--at", "0,0", "--offset", "0.01", "--format", "csv",
                      "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p1,re_plus,re_minus,im_plus,im_minus"
        # sheet values satisfy the closed-form weak-coupling model
        row = lines[200].split(",")
        s1, re_p = float(row[0]), float(row[1])
        c = (45 + 8j) * s1 * s1 + 128j * s1 * 0.01 + (-83 + 8j) * 1e-4
        assert re_p == pytest.approx(1 - s1 + np.sqrt((abs(c) + c.real) / 2),
                                     abs=1e-10)

    def test_section_csv_at_ep_with_g1_zero(self, capsys, tmp_path):
        """The CSV holds the swept sheets, which are defined where the
        cross-section's crossing formulas (g1 != 0) are not."""
        fam_path = tmp_path / "toy.json"
        fam_path.write_text(TOY_FAMILY)
        base = ["scenario", "--family", str(fam_path), "--at", "0,0"]
        out = tmp_path / "section.csv"
        assert cli.main(base + ["--format", "csv", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        fam = family_mod.parse_family(TOY_FAMILY)
        kind = degeneracy.classify(family_mod.evaluate(fam, [0.0, 0.0]), 0.0)
        model = ep_asymptotics.sensitivities(fam, degeneracy.jordan_chain(kind), [0.0, 0.0])
        assert model.split_im[0] == 0.0
        dps = pairmodel.sweep([0.0])
        assert np.array_equal(rows[:, 0], dps[:, 0])
        assert np.array_equal(rows[:, 1:], pairmodel.sheets(model, dps).sheets)
        assert cli.main(base) == 1
        assert "g1 = 0" in capsys.readouterr().err

    def test_dp_label_independent_of_offset_scale(self, capsys):
        for k in range(2, 308):
            code, out = run(capsys, "scenario", "--family", "crystal-example-2",
                            "--at", "0,0", f"--offset=1e-{k}")
            assert (code, json.loads(out)["scenario"]) == (0, "one-re-one-im"), k

    @pytest.mark.parametrize("im01,label", [(1.0, "cone-no-intersection"),
                                            (-1.0, "im-double-intersection")])
    def test_dp_type_independent_of_coupling_scale(self, capsys, tmp_path, im01, label):
        """``scaled_dp_family`` has a DP at 0 whose c scales with s^2; its
        discriminant squares Im c, yet at s = 2^460 and 2^-460 the type, the
        lines and their signs are those of s = 1, nothing warns, and each
        report (its discriminant null past the doubles) fits the schema."""
        reports = []
        for k in (0, 460, -460):
            path = tmp_path / f"dp{k}.json"
            path.write_text(scaled_dp_family(2.0 ** k, im01))
            code = cli.main(["scenario", "--family", str(path), "--at", "0,0"])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            report = json.loads(captured.out)
            validate(report, "scenario_report.schema.json")
            reports.append([report[key] for key in ("type", "lines", "line_signs")])
        assert reports[0][0] == label
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_dp_1p_discriminant_past_the_doubles_is_null(self, capsys, tmp_path):
        """At s = 2^460 the DP-1p discriminant (degree 4 in s) overflows while
        c0, c1 and c2 (degree 2) fit: the report prints it as null, which the
        schema admits, with the scenario of s = 1, as the two-parameter
        report does."""
        reports = []
        for k in (0, 460):
            path = tmp_path / f"dp{k}.json"
            path.write_text(scaled_dp_family(2.0 ** k, 1.0))
            code = cli.main(["scenario", "--family", str(path), "--at", "0,0",
                             "--offset", "0.01"])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            reports.append(json.loads(captured.out))
        assert reports[0]["discriminant"] is not None
        assert reports[1]["discriminant"] is None
        validate(reports[1], "scenario_report.schema.json")
        assert reports[1]["c2"]["re"] == 0.75 * 2.0 ** 920
        assert reports[1]["scenario"] == reports[0]["scenario"] == "no-crossing"

    def test_dp_two_parameter_csv_needs_offset(self, capsys, tmp_path):
        out = tmp_path / "dp.csv"
        code = cli.main(["scenario", "--family", "crystal-example-2", "--at", "0,0",
                         "--format", "csv", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "--offset" in captured.err
        assert captured.out == "" and not out.exists()


class TestNegativeValues:
    """Values that start like negative numbers reach their flag in both the
    ``--flag value`` and the ``--flag=value`` spelling."""

    CASES = [
        ("surface", "--window", "-0.05,0.05", ["--res", "3", "--out", "{tmp}/s.csv"]),
        ("surface", "--window", "-0.05,0.05,-.02,0.03", ["--res", "3", "--out", "{tmp}/s.csv"]),
        ("loop", "--loop", "-0.003,-0.002,0.01", ["--out", "{tmp}/l.csv"]),
        ("scenario", "--offset", "-0.01", []),
        ("scenario", "--off", "-1e-2", []),
    ]

    @pytest.mark.parametrize("command,flag,value,rest", CASES)
    def test_both_spellings(self, capsys, tmp_path, command, flag, value, rest):
        rest = [a.replace("{tmp}", str(tmp_path)) for a in rest]
        base = [command, "--family", "crystal-example-1", "--at", "0,0"]
        outputs = []
        for spelled in ([flag, value], [f"{flag}={value}"]):
            code, out = run(capsys, *base, *spelled, *rest)
            assert code == 0
            files = sorted(p.read_bytes() for p in tmp_path.iterdir())
            outputs.append((out, files))
        assert outputs[0] == outputs[1]

    def test_negative_radius_reaches_the_loop_check(self, capsys, tmp_path):
        code = cli.main(["loop", "--family", "crystal-example-1", "--at", "0,0",
                         "--loop", "0,0,-0.01", "--out", str(tmp_path / "l.csv")])
        assert code == 1
        assert "radius" in capsys.readouterr().err

    def test_ambiguous_prefix_is_refused(self, capsys):
        code = cli.main(["classify", "--family", "crystal-example-1", "--at", "0,0",
                         "--tol", "-1e-8"])
        assert code == 1
        assert "ambiguous option: --tol could match" in capsys.readouterr().err

    def test_non_numbers_stay_options(self, capsys):
        assert run(capsys, "classify", "--family", "crystal-example-1",
                   "--at", "-inf,0")[0] == 1


def test_command_line_imports_no_argparse():
    """Importing the CLI and running a command import neither argparse nor
    the gettext it brings."""
    probe = ("import sys, eigencoupling.cli as c; "
             "code = c.main(['classify', '--family', 'crystal-example-1', '--at', '0,0']); "
             "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split()[-3:] == ["0", "False", "False"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["classify", "--he"], ["--at", "0", "-h"]])
def test_help_names_every_command_and_flag(argv, capsys):
    """-h, --help or a prefix of it prints the usage, the commands and one
    line per flag with its help to stdout and returns 0."""
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: eigencoupling ") and err == ""
    assert all(command in out.splitlines()[0] for command in cli._COMMANDS)
    for flag, keywords in cli._FLAGS.items():
        assert f"  {flag} " in out and keywords["help"] in out, flag


def oracle_outcome(parse, argv):
    """What ``parse`` makes of ``argv``: (command, flags), or its refusal's text."""
    try:
        return parse(list(argv))
    except cli._UsageError as exc:
        return str(exc)


#: a flag by its name, a unique or an ambiguous prefix, or an unknown option
ARGV_FLAGS = st.sampled_from([*cli._FLAGS, "--fam", "--a", "--w", "--tol-c", "--tol-r",
                              "--sa", "--off", "--form", "--con", "--tol", "--f", "--o",
                              "--t", "--bogus", "-x"])
#: flag values: negative numbers, lists and words starting with '-', others
ARGV_VALUES = st.sampled_from(["0,0", "crystal-example-1", "3", "1e-8", "1_0", " 5 ", "abc",
                               "1e-8x", "csv", "json", "xml", "", "-5", "-.5", "-1.5",
                               "-1e-2", "-0.05,0.05", "-.02,0.03", "-5 x", "-inf,0", "-x"])
#: one or two tokens: a command or a stray token, a flag with its value in
#: either spelling, or a flag alone, whose value is missing unless a token
#: that can be one follows
ARGV_ITEMS = st.one_of(
    st.sampled_from([*cli._COMMANDS, "bogus", "extra", "-", "-x", "-5", "-1e-2"]).map(
        lambda token: [token]),
    st.tuples(ARGV_FLAGS, ARGV_VALUES).map(list),
    st.tuples(ARGV_FLAGS, ARGV_VALUES).map(lambda pair: ["=".join(pair)]),
    ARGV_FLAGS.map(lambda flag: [flag]))


@settings(max_examples=500)
@given(st.lists(ARGV_ITEMS, max_size=7).map(lambda items: sum(items, [])))
def test_argv_parsed_as_argparse_parsed_it(argv):
    """The one-pass parser and the argparse oracle agree on every drawn
    command line: the same command and flag values, or the same refusal."""
    assert oracle_outcome(cli._parse_argv, argv) == oracle_outcome(argv_oracle.parse, argv)


@pytest.mark.parametrize("argv", [
    ["--at", "0,0", "--", "classify"], ["--", "classify", "--at", "0,0"],
    ["classify", "--", "--at", "0,0"], ["classify", "--at", "0,0", "--"],
    ["classify", "x", "--"], ["--at", "0,0", "--"], ["--", "--", "classify"],
    ["classify", "--", "--"], ["--at", "--", "0,0"], ["--bogus", "--", "classify"],
    ["classify", "--=x"], ["classify", "---x"]])
def test_separator_read_as_argparse_read_it(argv):
    """After '--' every token is positional; beside the command the '--' is
    dropped, elsewhere it is an unrecognized argument, as under argparse.
    (``--at=--`` is left out: argparse gave --at the value [], the one-pass
    parser gives it '--', and either is refused as an anchor.)"""
    assert oracle_outcome(cli._parse_argv, argv) == oracle_outcome(argv_oracle.parse, argv)


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": "crystal-example-1", "at": "0,0",
            "window": "-0.05,0.05", "res": 3,
        }))
        out1 = tmp_path / "one.csv"
        code, _ = run(capsys, "surface", "--config", str(cfg), "--out", str(out1))
        assert code == 0
        assert len(out1.read_text().splitlines()) == 1 + 9
        out2 = tmp_path / "two.csv"
        code, _ = run(capsys, "surface", "--config", str(cfg), "--res", "2",
                      "--out", str(out2))
        assert code == 0
        assert len(out2.read_text().splitlines()) == 1 + 4

    def test_usage_error_exit_one(self, capsys):
        assert run(capsys, "classify", "--family", "crystal-example-1")[0] == 1
        assert run(capsys, "classify", "--at", "0,0")[0] == 1
        assert run(capsys, "classify", "--family", "no-such-thing",
                   "--at", "0,0")[0] == 1

    def test_parse_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"m\": 2}")
        code, _ = run(capsys, "classify", "--family", str(bad), "--at", "0")
        assert code == 1

    def test_domain_error_exit_three(self, capsys):
        code, _ = run(capsys, "classify", "--family", "crystal-example-1",
                      "--at", "0.9,0.9")
        assert code == 3

    def test_cluster_tolerance_is_plumbed_through(self, capsys):
        # the computed pair gap at the exceptional direction (~4e-8) exceeds
        # an absurdly tight cluster tolerance, so no cluster is reported
        code, _ = run(capsys, "classify", "--family", "crystal-example-1",
                      "--at", "0,0", "--tol-cluster", "1e-12")
        assert code == 2

    def test_unread_flag_is_named(self, capsys):
        code = cli.main(["classify", "--family", "crystal-example-1", "--at", "0,0",
                         "--res", "5", "--samples", "3", "--loop", "1,2,3"])
        assert code == 1
        assert "classify does not read --res, --loop, --samples" in capsys.readouterr().err

    def test_config_keys_may_serve_other_commands(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "crystal-example-1", "at": "0,0", "res": 3,
                                   "loop": "0,0,0.01", "samples": 32}))
        assert run(capsys, "classify", "--config", str(cfg))[0] == 0

    @pytest.mark.parametrize("value", [0, -1e-6, 1e999, "1e-6", True])
    def test_bad_config_tolerance_exit_one(self, capsys, tmp_path, value):
        for key in ("tol_cluster", "tol-rank"):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"family": "crystal-example-1", "at": "0,0", key: value}))
            assert cli.main(["classify", "--config", str(cfg)]) == 1
            assert "must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("surface", "res", "abc"), ("surface", "res", 4.0), ("loop", "samples", True),
        ("classify", "at", [0, 0]), ("surface", "window", [-0.05, 0.05]),
        ("scenario", "format", "xml"), ("classify", "out", None)])
    def test_bad_config_value_exit_one(self, capsys, tmp_path, command, key, value):
        """A config value must have its flag's type; keys a command does not
        read are not checked."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "crystal-example-1", "at": "0,0",
                                   "loop": "0,0,0.01", "out": str(tmp_path / "o.csv"),
                                   key: value}))
        assert cli.main([command, "--config", str(cfg)]) == 1
        assert f"config key '{key}' must be" in capsys.readouterr().err
        if key not in cli._COMMANDS["find-ep"][1]:
            assert cli.main(["find-ep", "--config", str(cfg), "--at", "0.05,-0.03"]) == 0

    def test_family_schema_file_validates_builtin_docs(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((SCHEMA_DIR / "family.schema.json").read_text())
        jsonschema.validate(json.loads(TOY_FAMILY), schema)
        jsonschema.validate(json.loads(SEPARATED_FAMILY), schema)


class TestFamilyCache:
    """Commands in one process parse a family file's text once and share the
    family; the file is still read by every command."""

    def test_rewritten_file_loads_afresh(self, capsys, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(TOY_FAMILY)
        code, out = run(capsys, "classify", "--family", str(path), "--at", "0,0")
        assert code == 0 and json.loads(out)["lambda0"] == {"re": 0.0, "im": 0.0}
        doc = json.loads(TOY_FAMILY)
        doc["terms"][0]["re"] = [[1, 1], [0, 1]]    # A + I: the EP moves to lambda = 1
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "classify", "--family", str(path), "--at", "0,0")
        assert code == 0 and json.loads(out)["lambda0"] == {"re": 1.0, "im": 0.0}

    def test_refused_document_refused_again(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2}')
        errors = []
        for _ in range(2):
            assert cli.main(["classify", "--family", str(path), "--at", "0,0"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: $.")
        path.write_text(TOY_FAMILY)
        assert run(capsys, "classify", "--family", str(path), "--at", "0,0")[0] == 0

    @pytest.mark.parametrize(
        "family,name,argv,outputs", list(test_golden.all_cases()),
        ids=[f"{family}-{name}" for family, name, _, _ in test_golden.all_cases()])
    def test_golden_case_twice_from_an_empty_cache(self, family, name, argv, outputs, tmp_path):
        """The second run of a golden case, whose family file is then parsed
        already, gives the bytes of the first and the golden outputs."""
        cli._parsed.cache_clear()
        first = test_golden.run_case(family, argv, outputs, tmp_path / "first")
        second = test_golden.run_case(family, argv, outputs, tmp_path / "second")
        assert cli._parsed.cache_info().hits == int(family in test_golden.PLANTED)
        assert first == second
        for suffix, got in second.items():
            test_golden._check_golden(f"{family}.{suffix}", got)

    def test_builtin_crystal_loaded_once(self):
        assert cli._load_family("crystal-example-1") is cli._load_family("crystal-example-1")
        assert cli._load_family("crystal-example-1") is not cli._load_family("crystal-example-2")

    def test_builtin_specs_unchanged_by_commands(self, tmp_path):
        """The crystals' tensors, which every command at a crystal now shares
        through one family, are as they were after the commands that model."""
        from eigencoupling import crystal_optics
        specs = crystal_optics.builtin_specs()
        before = {name: (spec.anisotropy.copy(), spec.activity.copy())
                  for name, spec in specs.items()}
        for crystal in ("crystal-example-1", "crystal-example-2"):
            anchor = ["--family", crystal, "--at", "0,0"]
            assert cli.main(["surface", *anchor, "--res", "5",
                             "--out", str(tmp_path / "s.csv")]) == 0
            assert cli.main(["scenario", *anchor, "--offset", "0.01", "--format", "csv",
                             "--out", str(tmp_path / "section.csv")]) == 0
        assert cli.main(["loop", "--family", "crystal-example-1", "--at", "0,0",
                         "--loop=0.003,-0.002,0.01", "--out", str(tmp_path / "l.csv")]) == 0
        assert crystal_optics.builtin_specs() is specs and list(specs) == list(before)
        for name, (anisotropy, activity) in before.items():
            assert np.array_equal(specs[name].anisotropy, anisotropy)
            assert np.array_equal(specs[name].activity, activity)


class TestAnchorCache:
    """Commands in one process at the anchor of the command before them share
    its analysis: the cluster, the classification and the local model. The
    cache is keyed by the family object, the bits of the point and both
    tolerances, and keeps no refusal."""

    CRYSTAL = ["--family", "crystal-example-1"]

    def test_signed_zero_is_another_anchor(self, capsys):
        for at in ("0,0", "0,-0.0"):
            assert run(capsys, "scenario", *self.CRYSTAL, "--at", at)[0] == 0
        info = cli._anchor.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        last = cli._anchor(cli._load_family("crystal-example-1"), np.array([0.0, -0.0]).tobytes(),
                           degeneracy.DEFAULT_CLUSTER_TOL, degeneracy.DEFAULT_RANK_TOL)
        assert cli._anchor.cache_info().hits == 1
        assert np.signbit(last.model.p0).tolist() == [False, True]

    def test_rank_tolerance_is_part_of_the_key(self, capsys):
        """A rank tolerance of 0.1 puts two singular values of A - lam0 I
        within a factor 10 of its threshold, after the default one decided EP."""
        code, out = run(capsys, "classify", *self.CRYSTAL, "--at", "0,0")
        assert code == 0 and json.loads(out)["kind"] == "EP"
        assert cli.main(["classify", *self.CRYSTAL, "--at", "0,0", "--tol-rank", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "error: singular values [3.245e+00, 1.571e+00] within a factor 10 of the "
            "rank threshold 3.832e-01\n")
        assert cli._anchor.cache_info().hits == 0

    def test_rewritten_family_file_gives_its_report(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        for family in ("planted-ep-m10", "planted-dp-m6"):
            path.write_text((test_golden.FAMILIES / f"{family}.json").read_text())
            code, out = run(capsys, "classify", "--family", str(path), "--at", "0,0")
            assert code == 0
            assert out == (GOLDEN / f"{family}.classify.json").read_text()
        assert cli._anchor.cache_info().hits == 0

    def test_refused_anchor_refused_again(self, capsys, tmp_path):
        fam = tmp_path / "sep.json"
        fam.write_text(SEPARATED_FAMILY)
        errors = []
        for _ in range(2):
            assert cli.main(["classify", "--family", str(fam), "--at", "0.3"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: no eigenvalue cluster at (0.3)\n"] * 2
        assert cli._anchor.cache_info().currsize == 0

    def test_refused_chain_refused_again(self, capsys, monkeypatch):
        """The anchor is kept, but a chain that fails is built again by the
        next command that needs the model, which then succeeds."""
        calls = []

        def refuse(kind):
            calls.append(kind)
            raise ClassificationError("(u1, v0) vanishes; chain normalization impossible")

        argv = ["scenario", *self.CRYSTAL, "--at", "0,0"]
        errors = []
        with monkeypatch.context() as patch:
            patch.setattr(degeneracy, "jordan_chain", refuse)
            for _ in range(2):
                assert cli.main(argv) == 2
                errors.append(capsys.readouterr().err)
        assert errors == ["error: (u1, v0) vanishes; chain normalization impossible\n"] * 2
        assert len(calls) == 2 and calls[0] is calls[1]
        code, out = run(capsys, *argv)
        assert code == 0 and out == (GOLDEN / "crystal-example-1.scenario.json").read_text()
        assert cli._anchor.cache_info().hits == 2

    def test_golden_cases_forward_and_back_in_one_process(self, tmp_path):
        cases = list(test_golden.all_cases())
        for k, (family, name, argv, outputs) in enumerate(cases + cases[::-1]):
            got = test_golden.run_case(family, argv, outputs, tmp_path / str(k))
            for suffix, blob in got.items():
                test_golden._check_golden(f"{family}.{suffix}", blob)
        assert cli._anchor.cache_info().hits > 0

    @pytest.mark.parametrize("crystal", ["crystal-example-1", "crystal-example-2"])
    def test_shared_arrays_are_read_only(self, capsys, crystal):
        assert run(capsys, "scenario", "--family", crystal, "--at", "0,0")[0] == 0
        shared = cli._anchor(cli._load_family(crystal), np.zeros(2).tobytes(),
                             degeneracy.DEFAULT_CLUSTER_TOL, degeneracy.DEFAULT_RANK_TOL)
        svd = shared.kind.shifted
        arrays = [svd.matrix, svd.u, svd.s, svd.vh] + [
            value for value in vars(shared.model).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == (9 if crystal == "crystal-example-1" else 6)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def planted_dp_family(tmp_path):
    """Two-parameter 2x2 family with A(0) = S (lam0 I) S^-1 (a scalar matrix)."""
    rng = np.random.default_rng(11)
    s = np.eye(2) + 0.25 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    s_inv = np.linalg.inv(s)
    terms = []
    for exps, core in (([0, 0], (0.3 - 0.7j) * np.eye(2)),
                       ([1, 0], rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))),
                       ([0, 1], rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))):
        coeff = s @ core @ s_inv
        terms.append({"exp": exps, "re": coeff.real.tolist(), "im": coeff.imag.tolist()})
    path = tmp_path / "scalar_dp.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "terms": terms}))
    return str(path)


class TestScalarMatrixDP:
    def test_scenario_and_surface_at_scalar_matrix(self, capsys, tmp_path):
        fam = planted_dp_family(tmp_path)
        code, out = run(capsys, "scenario", "--family", fam, "--at", "0,0")
        assert code == 0
        validate(json.loads(out), "scenario_report.schema.json")
        surface = tmp_path / "surface.csv"
        code, _ = run(capsys, "surface", "--family", fam, "--at", "0,0",
                      "--res", "5", "--out", str(surface))
        assert code == 0
        assert len(surface.read_text().splitlines()) == 1 + 25

    def test_classify_report_without_outer_eigenvalue(self, capsys, tmp_path):
        code, out = run(capsys, "classify", "--family", planted_dp_family(tmp_path),
                        "--at", "0,0")
        assert code == 0
        assert "Infinity" not in out
        report = json.loads(out)
        assert report["external_gap"] is None
        validate(report, "classify_report.schema.json")


REPORT_SCHEMAS = [  # schema file, path to the object schema, report class, keys added
    ("find_ep_report.schema.json", (), degeneracy.EPSearchResult, set()),
    ("loop_report.schema.json", (), ep_asymptotics.LoopReport, set()),
    ("loop_report.schema.json", ("properties", "axis_crossings", "items"),
     ep_asymptotics.AxisCrossing, set()),
    ("scenario_report.schema.json", ("definitions", "ep_section"),
     ep_asymptotics.SectionReport, {"kind"}),
    ("scenario_report.schema.json", ("definitions", "dp_two_param"),
     dp_asymptotics.SurfaceTypeReport, {"kind"}),
    ("scenario_report.schema.json", ("definitions", "dp_one_param"),
     dp_asymptotics.AvoidedCrossingReport, {"kind"}),
]


@pytest.mark.parametrize("schema_name,path,report,extra", REPORT_SCHEMAS,
                         ids=[report.__name__ for _, _, report, _ in REPORT_SCHEMAS])
def test_schema_properties_are_the_report_fields(schema_name, path, report, extra):
    """A report's JSON keys are its fields (less those declared
    ``field(repr=False)``), so a field the schema does not list fails here."""
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    for key in path:
        schema = schema[key]
    fields = {f.name for f in dataclasses.fields(report) if f.repr}
    assert set(schema["properties"]) == fields | extra


def test_classify_schema_properties_are_the_emitted_keys(capsys):
    for source in ("crystal-example-1", "crystal-example-2"):
        code, out = run(capsys, "classify", "--family", source, "--at", "0,0")
        assert code == 0
        schema = json.loads((SCHEMA_DIR / "classify_report.schema.json").read_text())
        assert set(json.loads(out)) == set(schema["properties"])


EXIT_CASES = [  # exit code, argv, the error line's text after 'error: '
    (0, ["classify", "--family", "crystal-example-1", "--at", "0,0"], None),
    (1, ["find-ep", "--family", "{sep}", "--at", "0.3"],
     "find-ep needs a two-parameter family of dimension >= 2"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0",
         "--window=nan,0.1", "--out", "{tmp}/s.csv"],
     "--window 'nan,0.1' has non-finite values"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "inf,0"],
     "--at 'inf,0' has non-finite values"),
    (2, ["classify", "--family", "{sep}", "--at", "0.3"], "no eigenvalue cluster at (0.3)"),
    (3, ["classify", "--family", "crystal-example-1", "--at", "0.9,0.9"],
     "point [0.9, 0.9] outside the family domain"),
    (4, ["find-ep", "--family", "crystal-example-1", "--at", "0.2,0.1"],
     "no exceptional point after 1 accepted step: no full or halved Newton step inside the "
     "domain lowers |z| (last gap 1.074e+00)"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol-cluster", "-1e-6"],
     "--tol-cluster must be a positive finite number, got -1e-06"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol-rank", "-1e-8"],
     "--tol-rank must be a positive finite number, got -1e-08"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol-rank", "0"],
     "--tol-rank must be a positive finite number, got 0.0"),
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--tol-rank", "nan"],
     "--tol-rank must be a positive finite number, got nan"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--res", "5"],
     "classify does not read --res"),
    (1, ["find-ep", "--family", "crystal-example-1", "--at", "0.05,-0.03",
         "--tol-cluster", "1e-3"], "find-ep does not read --tol-cluster"),
    (1, ["surface", "--family", "{ovf}", "--at", "0,0", "--window=-10,10", "--res", "5",
         "--out", "{tmp}/s.csv"], "A(p) has non-finite entries at point [-10.0, -10.0]"),
    (0, ["scenario", "--family", "{flat}", "--at", "0,0", "--offset", "0.01"], None),
    (1, ["find-ep", "--family", "{one}", "--at", "0,0"],
     "find-ep needs a two-parameter family of dimension >= 2"),
    (1, ["scenario", "--family", "crystal-example-2", "--at", "0,0", "--offset=1e155"],
     "the DP-1p scenario overflows at this offset"),
    (1, ["scenario", "--family", "crystal-example-2", "--at", "0,0", "--offset=1e300",
         "--format", "csv", "--out", "{tmp}/section.csv"],
     "the pair model overflows at these offsets"),
    (1, ["scenario", "--family", "{dovf}", "--at", "0.9,0"],
     "dA/dp_0 has non-finite entries at point [0.9, 0.0]"),
    (4, ["find-ep", "--family", "{diag}", "--at", "0.1,0.2"],
     "approximate chain normalization broke down"),
    (1, ["loop", "--family", "{drift}", "--at", "0,0", "--loop=0,0,10", "--samples", "16",
         "--out", "{tmp}/loop.csv"],
     "the pair mean or the radicand F + iG overflows on this loop; shrink the loop"),
    (4, ["find-ep", "--family", "{triple}", "--at", "0.3,0.2"],
     "eigenvalue pair not separated from the rest of the spectrum "
     "(external gap 0.000e+00 vs internal 0.000e+00)"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0",
         "--out", "{tmp}/missing-dir/x.json"],
     "cannot write '{tmp}/missing-dir/x.json': No such file or directory"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--res", "5",
         "--out", "{tmp}"], "cannot write '{tmp}': Is a directory"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop", "0,0,0.01",
         "--out", "{tmp}/missing-dir/l.csv"],
     "cannot write '{tmp}/missing-dir/l.csv': No such file or directory"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop", "0,0,0.01",
         "--out", "{tmp}/dir.csv"], "cannot write '{dir}': Is a directory"),
    (1, ["classify", "--family", "{dir}", "--at", "0,0"], "cannot read '{dir}': Is a directory"),
    (1, ["classify", "--config", "{dir}"], "cannot read '{dir}': Is a directory"),
    (1, ["classify", "--family", "{latin1}", "--at", "0,0"],
     "cannot read '{latin1}': 'utf-8' codec can't decode byte 0xe9 in position 34: "
     "invalid continuation byte"),
    (3, ["classify", "--family", "crystal-example-1", "--at", "1e200,1e200"],
     "point [1e+200, 1e+200] outside the family domain"),
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--offset=1e-309"],
     "the cross-section's tangent slopes overflow at this offset"),
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--offset=1.7e308"],
     "gamma overflows at these offsets"),
    (2, ["classify", "--family", "{offdiag}", "--at", "0.5,0.5", "--tol-cluster", "1e308"],
     "geometric multiplicity 0 outside {1, 2} for lam0 = 0+0j"),
    (2, ["classify", "--family", "{offdiag}", "--at", "1e200,1e200", "--tol-cluster", "1e200"],
     "geometric multiplicity 0 outside {1, 2} for lam0 = 0+0j"),
    (2, ["classify", "--family", "{offdiag}", "--at", "1e308,2", "--tol-rank", "0.5",
         "--tol-cluster", "1e150"],
     "singular values [1.000e+308] within a factor 10 of the rank threshold 5.000e+307"),
    (2, ["classify", "--family", "crystal-example-2", "--at=3.5e-9,-2.1e-9"],
     "singular values [3.992e-08, 1.427e-08] within a factor 10 of the rank threshold "
     "7.416e-08"),
    (1, ["find-ep", "--family", "{offdiag}", "--at", "1e300,1e300"],
     "the squared half-gap of the pair overflows at point [1e+300, 1e+300]"),
    (2, ["classify", "--family", "{offdiag}", "--at", "1e308,1e308"],
     "no eigenvalue cluster at (1e+308, 1e+308)"),
    (1, ["surface", "--family", "{diag}", "--at", "1e308,1e308", "--window=0,1e308",
         "--res", "2", "--out", "{tmp}/s.csv"], "the grid points p0 + offset overflow"),
    (2, ["scenario", "--family", "{offdiag}", "--at", "5e-324,0", "--tol-cluster", "1e150",
         "--tol-rank", "5e-324"], "singular value 4.941e-324 has no finite reciprocal"),
    (1, ["find-ep", "--family", "{offdiag}", "--at", "1e308,1e308"],
     "the squared half-gap of the pair overflows at point [1e+308, 1e+308]"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0",
         "--window=-1.5e308,1.5e308", "--res", "3", "--out", "{tmp}/s.csv"],
     "--window '-1.5e308,1.5e308' is too wide: hi - lo overflows"),
    (1, ["scenario", "--family", "{offdiag}", "--at", "0,1e-300"],
     "g1 = 0: cross-section formulas need reindexing"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop=0.0099,0,0.01",
         "--samples", "16", "--out", "{tmp}/l.csv"],
     "branch jump 1.128e-01 at phi=3.142 too large; increase samples (currently 16)"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--res", "1",
         "--out", "{tmp}/s.csv"], "--res must be at least 2"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--window=0,1,2",
         "--out", "{tmp}/s.csv"], "--window needs 'lo,hi' or 'lo1,hi1,lo2,hi2'"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop=0,0,0.01"],
     "loop requires --out for the CSV file"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop=0,0",
         "--out", "{tmp}/l.csv"], "--loop needs exactly three values a,b,r"),
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--offset", "0.01,0.02"],
     "--offset needs 1 component"),
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--offset", "0.01",
         "--format", "csv"], "--format csv requires --out"),
    (1, ["scenario", "--family", "{dp3}", "--at", "0,0,0"],
     "two-parameter classification needs n = 2; pass --offset for the one-parameter scenario"),
    (1, ["surface", "--family", "{sep}", "--at", "0.3", "--out", "{tmp}/s.csv"],
     "surface grids need a two-parameter family"),
    (1, ["classify", "--config", "{list}"], "config file must hold a JSON object"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "a,b"],
     "cannot parse --at 'a,b': could not convert string to float: 'a'"),
    (2, ["classify", "--family", "{spread}", "--at", "0,0", "--tol-cluster", "1.95"],
     "cluster at 0+0j not isolated: external gap 5.500e+01 <= internal gap 6.000e+01"),
    (2, ["find-ep", "--family", "crystal-example-2", "--at", "0.05,-0.03"],
     "at p_star = [3.4991784627544553e-09, -2.087120335099058e-09]: singular values "
     "[3.983e-08, 1.422e-08] within a factor 10 of the rank threshold 7.416e-08"),
    (2, ["find-ep", "--family", "crystal-example-2", "--at", "0,0"],
     "the search converged on a DP, not an EP, at p_star = [0.0, 0.0]"),
    (1, ["scenario", "--family", "{dp3}", "--at", "0,0,0", "--offset", "0.01"],
     "--offset needs 2 components"),
    (1, ["classify", "--config", "{rank400}"],
     f"config key 'tol_rank' must be a positive finite number, got {10**400}"),
    (1, ["classify", "--config", "{cluster400}"],
     f"config key 'tol-cluster' must be a positive finite number, got {10**400}"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--res", str(2**60),
         "--out", "{tmp}/s.csv"],
     "--res must be at most 759250124 (numpy sizes no larger arrays), got 1152921504606846976"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--config", "{res60}",
         "--out", "{tmp}/s.csv"], "config key 'res' must be at most 759250124 (numpy sizes "
                                  "no larger arrays), got 1152921504606846976"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0",
         "--res", "9223372036854775807", "--out", "{tmp}/s.csv"],
     "--res must be at most 759250124 (numpy sizes no larger arrays), got 9223372036854775807"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--config", "{res63}",
         "--out", "{tmp}/s.csv"], "config key 'res' must be at most 759250124 (numpy sizes "
                                  "no larger arrays), got 9223372036854775808"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--res", str(10**400),
         "--out", "{tmp}/s.csv"],
     f"--res must be at most 759250124 (numpy sizes no larger arrays), got {10**400}"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop=0,0,0.01",
         "--samples", str(2**60), "--out", "{tmp}/l.csv"],
     "--samples must be at most 1152921504606846975 (numpy sizes no larger arrays), "
     "got 1152921504606846976"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop=0,0,0.01",
         "--samples", "9223372036854775807", "--out", "{tmp}/l.csv"],
     "--samples must be at most 1152921504606846975 (numpy sizes no larger arrays), "
     "got 9223372036854775807"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop=0,0,0.01",
         "--config", "{samples63}", "--out", "{tmp}/l.csv"],
     "config key 'samples' must be at most 1152921504606846975 (numpy sizes no larger "
     "arrays), got 9223372036854775808"),
    (1, ["loop", "--family", "crystal-example-1", "--at", "0,0", "--loop=0,0,0.01",
         "--config", "{samples400}", "--out", "{tmp}/l.csv"],
     "config key 'samples' must be at most 1152921504606846975 (numpy sizes no larger "
     f"arrays), got {10**400}"),
    # the command line's grammar and its refusals, each with the text it had under argparse
    (1, ["--family", "crystal-example-1", "--at", "0,0"],
     "the following arguments are required: command"),
    (1, ["bogus", "--family", "crystal-example-1", "--at", "0,0"],
     "argument command: invalid choice: 'bogus' "
     "(choose from 'classify', 'surface', 'loop', 'find-ep', 'scenario')"),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0", "--res", "abc",
         "--out", "{tmp}/s.csv"], "argument --res: invalid int value: 'abc'"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol-rank", "1e-8x"],
     "argument --tol-rank: invalid float value: '1e-8x'"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol", "1e-8"],
     "ambiguous option: --tol could match --tol-cluster, --tol-rank"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "extra"],
     "unrecognized arguments: extra"),
    (1, ["classify", "--family", "crystal-example-1", "--at"],
     "argument --at: expected one argument"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "-x"],
     "unrecognized arguments: -x"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "--", "0,0"],
     "argument --at: expected one argument"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "-inf,0"],
     "argument --at: expected one argument"),
    (0, ["--family", "crystal-example-1", "classify", "--at", "0,0"], None),
    (0, ["--at", "0,0", "--fam=crystal-example-1", "--", "classify"], None),
    (2, ["classify", "--family", "crystal-example-1", "--at=0,0", "--at", "0.1,0"],
     "no eigenvalue cluster at (0.1, 0.0)"),
    # an empty value is refused, by flag and by config key alike
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--offset="],
     "--offset must be a non-empty string, got ''"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--out="],
     "--out must be a non-empty string, got ''"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--config="],
     "--config must be a non-empty string, got ''"),
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--config", "{blank}"],
     "config key 'offset' must be a non-empty string, got ''"),
    (1, ["classify", "--family", "crystal-example-1", "--at="],
     "--at must be a non-empty string, got ''"),
    (0, ["--help"], None),
    (0, ["classify", "-h"], None),
    # a family of three parameters: find-ep refuses its shape, and a loop its EP's chart
    (1, ["find-ep", "--family", "{ep3}", "--at", "0,0,0"],
     "find-ep needs a two-parameter family of dimension >= 2"),
    (1, ["loop", "--family", "{ep3}", "--at", ",".join(map(str, PLANTED_EP3.p_star)),
         "--loop=0,0,0.01", "--out", "{tmp}/l.csv"],
     "loop trajectories need a two-parameter chart"),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0.1"],
     "expected 2 parameters, got shape (1,)"),
]


@pytest.mark.parametrize("code,argv,error", EXIT_CASES,
                         ids=[f"{code}-argv{k}" for k, (code, *_) in enumerate(EXIT_CASES)])
def test_exit_codes(code, argv, error, capsys, tmp_path, recwarn):
    """One case per documented exit code; exit 1 also for find-ep on a
    one-parameter family, a three-parameter one or a 1x1 one, for a loop at
    the EP of a three-parameter family, for an --at of another parameter
    count than the family's, for non-finite flag values, for
    tolerances that are not positive and finite, for a flag the command does
    not read, for a family that overflows on the surface grid or whose
    derivative overflows at the anchor, for a DP offset whose c overflows
    (JSON report and section CSV), and for a loop whose pair mean overflows;
    exit 4 also when find-ep's chain normalization breaks down or its pair is
    not separated from a third eigenvalue; exit 0 for a DP scenario whose
    Im c is constant along the sweep; exit 1 for an --out path that cannot be
    written, also when it is the side JSON of a loop, and for a family or
    config file that cannot be read; exit 3 also for a point whose square
    overflows the crystal's chart guard, and exit 1 for an EP offset so small
    that the section's slopes overflow or so large that its gamma does. A
    cluster tolerance whose bounds overflow decides as an infinite bound
    does, and only a third eigenvalue can refuse a cluster (exit 2 from
    classify); find-ep from an iterate whose squared half-gap overflows
    exits 1, and so does a surface grid whose points or window width do; a spectrum whose
    gaps overflow has no cluster there (exit 2 from classify); a Jordan chain whose solve meets a singular value with
    no finite reciprocal exits 2, and one whose u1 is too large to square
    reaches the section's g1 = 0 refusal (exit 1), and so does a loop whose samples are
    too coarse to track the pair past the EP. Exit 1 also for each refusal of
    a malformed flag value (--res, --window, --loop, --offset, --at), of a
    command that needs --out without it, of a DP scenario or a surface whose
    family has not two parameters, and of a config file that holds no JSON
    object; exit 2 from classify for a cluster that a third eigenvalue sits
    closer to than its own pair is apart, and from find-ep for a search that
    converges on a DP or where the rank of its landing point cannot be
    decided, naming the point. Exit 1 for a config tolerance that is an
    integer beyond the double range, and for a --res or --samples, by flag
    or by config, whose float64 arrays numpy could not size (from 2^60,
    about 2^63 and 10^400). Exit 1 for each refusal of the command line
    (no or an unknown command, a value of the wrong type or choice, an
    ambiguous prefix, a flag without its value, a stray token), with the
    text argparse gave it, and for an empty value by flag or config key;
    exit 0 for a command after a flag and for -h or --help, and the last
    of a repeated flag wins. A failure prints one error line, with the
    text that names its cause (singular values formatted alike on every
    numpy), writes no file, and no case warns."""
    families = {"sep": SEPARATED_FAMILY, "ovf": OVERFLOWING_FAMILY, "flat": FLAT_IM_FAMILY,
                "one": SCALAR_FAMILY, "dovf": OVERFLOWING_DERIVATIVE_FAMILY,
                "diag": DIAGONAL_FAMILY, "drift": HUGE_DRIFT_FAMILY,
                "triple": SCALAR_TRIPLE_FAMILY, "latin1": LATIN1_FAMILY,
                "offdiag": OFF_DIAGONAL_FAMILY, "dp3": THREE_PARAMETER_DP_FAMILY,
                "spread": SPREAD_FAMILY, "ep3": THREE_PARAMETER_EP_FAMILY,
                "list": "[1, 2]", "dir": None,  # None: a directory
                "blank": json.dumps({"offset": ""}),
                **{name: json.dumps(doc) for name, doc in HUGE_CONFIGS.items()}}
    for name, doc in families.items():
        path = tmp_path / f"{name}.json"
        if doc is None:
            path.mkdir()
        elif isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc)

    def fill(arg):
        for name in families:
            arg = arg.replace(f"{{{name}}}", str(tmp_path / f"{name}.json"))
        return arg.replace("{tmp}", str(tmp_path))

    argv = [fill(a) for a in argv]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == (
        [] if error is None else [f"error: {fill(error)}"])
    assert "Traceback" not in err
    assert code == 0 or sorted(path.name for path in tmp_path.rglob("*")) == sorted(
        f"{name}.json" for name in families)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


#: the exit code of each exception that main reports: one class per code but 1
EXIT_CODE_OF = {
    errors_mod.EigenCouplingError: 1, errors_mod.DimensionError: 1,
    errors_mod.FamilyParseError: 1, errors_mod.ClassificationError: 2,
    errors_mod.DomainError: 3, errors_mod.ConvergenceError: 4,
    MemoryError: 1, cli._UsageError: 1,
}


@pytest.mark.parametrize("exc_type", [
    *(cls for _, cls in inspect.getmembers(errors_mod, inspect.isclass)), MemoryError,
    cli._UsageError], ids=lambda cls: cls.__name__)
def test_exception_exit_codes(exc_type, capsys, monkeypatch):
    """Each class of ``errors``, and the two other exceptions main
    reports, raised by a command ends in its exit code with one error line,
    no traceback and nothing on stdout. A class added to ``errors`` fails
    here until it is given a code."""
    def refuse(opts):
        if exc_type is FamilyParseError:
            raise exc_type("$.m", "refused")
        raise exc_type("refused")

    monkeypatch.setitem(cli._COMMANDS, "classify", (refuse, cli._ANCHOR_FLAGS))
    code = cli.main(["classify", "--family", "crystal-example-1", "--at", "0,0"])
    assert code == EXIT_CODE_OF[exc_type]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: $.m: refused\n" if exc_type is FamilyParseError
                            else "error: refused\n")


@pytest.mark.parametrize("flag,doc", [
    ("--config", '{"family": "crystal-example-1", "at": "0,0", "tol_rank": 1%s}'),
    ("--family", '{"m": 1, "n": 1, "terms": [{"exp": [0], "re": [[1%s]], "im": [[0]]}]}'),
])
def test_integer_of_many_digits_exits_one(flag, doc, capsys, tmp_path):
    """A config or family file that holds an integer of 5001 digits, more
    than int() reads by default, ends in exit 1 with one error line: it is
    refused as JSON, or else as a value beyond the double range."""
    path = tmp_path / "doc.json"
    path.write_text(doc % ("0" * 5000))
    argv = ["classify", flag, str(path), *(["--at", "0"] if flag == "--family" else [])]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


#: a family document with a JSON syntax error on its fifth line
BROKEN_FAMILY = (b'{\n  "m": 2,\n  "n": 1,\n  "terms": [\n'
                 b'    {"exp": [0] "re": [[0, 1], [0, 0]]}\n  ]\n}\n')
BROKEN_JSON = "not valid JSON: Expecting ',' delimiter: line 5 column 17 (char 51)"


@pytest.mark.parametrize("flag,doc,error", [
    ("--family", BROKEN_FAMILY, "$: " + BROKEN_JSON),
    ("--family", BROKEN_FAMILY.replace(b"\n", b"\r\n"), "$: " + BROKEN_JSON),
    ("--family", BROKEN_FAMILY.replace(b"\n", b"\r"), "$: " + BROKEN_JSON),
    ("--config", BROKEN_FAMILY.replace(b"\n", b"\r\n"), "config file is " + BROKEN_JSON),
    ("--family", b'{"m": 2, "n": 1, "terms": [' + b" " * 9000 + '"caf\u00e9"]}'.encode("latin-1"),
     "cannot read '{path}': 'utf-8' codec can't decode byte 0xe9 in position 9031: "
     "invalid continuation byte"),
], ids=["lf", "crlf", "cr", "config-crlf", "latin1-9k"])
def test_files_read_as_text_mode_reads_them(flag, doc, error, capsys, tmp_path):
    """A family or config file is read in text mode, CR and CR LF as LF:
    the positions of a JSON error, and of a byte that is not UTF-8 past the
    first 8 KiB, are those of the whole decoded text."""
    path = tmp_path / "doc.json"
    path.write_bytes(doc)
    with open(path, encoding="utf-8") as handle:    # the text-mode reader, as the oracle
        try:
            oracle = family_mod.parse_family(handle.read())
        except UnicodeDecodeError as exc:
            oracle = f"cannot read '{path}': {exc}"
        except FamilyParseError as exc:
            oracle = BROKEN_JSON if flag == "--config" else str(exc)
    error = error.replace("{path}", str(path))
    assert error.endswith(oracle)
    argv = ["classify", flag, str(path)] + (["--family", "crystal-example-1"] if flag == "--config"
                                            else []) + ["--at", "0,0"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("command,allocator,flags", [
    ("surface", "meshgrid", ["--window=-0.1,0.1", "--res", "100000"]),
    ("loop", "linspace", ["--loop", "0,0,0.01", "--samples", "1000000000"]),
])
def test_allocation_failure_exit_one(command, allocator, flags, capsys, tmp_path,
                                     monkeypatch):
    """An array too large for memory ends in exit 1 and one error line; the
    allocation is refused by a stand-in, not attempted."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(np, allocator, refuse)
    code = cli.main([command, "--family", "crystal-example-1", "--at", "0,0", *flags,
                     "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB for an array\n"


def test_one_factorisation_per_shifted_matrix(capsys, monkeypatch, tmp_path):
    """classify takes two SVDs, of A - lam0 I and, values only, of A; the
    chain or frame reads both its sides from the first, and adds none. Each
    command runs alone, from an empty anchor cache."""
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    flags = {"surface": ["--res", "3", "--out", str(tmp_path / "s.csv")],
             "loop": ["--loop", "0,0,0.01", "--out", str(tmp_path / "l.csv")]}
    cases = [(command, crystal) for command in ("classify", "scenario", "surface")
             for crystal in ("crystal-example-1", "crystal-example-2")]
    cases.append(("loop", "crystal-example-1"))     # loops need an EP anchor
    counts = {}
    for command, crystal in cases:
        calls.clear()
        cli._anchor.cache_clear()
        argv = [command, "--family", crystal, "--at", "0,0", *flags.get(command, [])]
        assert run(capsys, *argv)[0] == 0
        counts[command, crystal] = calls.copy()
    assert all(kw == [{}, {"compute_uv": False}] for kw in counts.values()), counts


#: flag values of the argv fuzz: zero, ordinary, tiny, subnormal and huge
FUZZ_VALUE = st.sampled_from((
    "0", "0.1", "-0.1", "0.5", "-0.5", "0.999", "1", "2", "3", "1e-9", "1e-16", "5e-324",
    "1e-300", "1e150", "-1e150", "1e300", "1e308", "-1e300", "-1e308", "-5e-324"))


#: integers beyond 2^63 and beyond the double range, of either sign: as a
#: --res or --samples, numpy could size no array of that many float64 values
HUGE = st.integers(2**63 - 1, 2**64) | st.integers(2 * 10**308, 10**400)
HUGE_INTS = HUGE | HUGE.map(lambda n: -n)


def fuzz_list(*sizes):
    return st.sampled_from(sizes).flatmap(
        lambda size: st.lists(FUZZ_VALUE, min_size=size, max_size=size).map(",".join))


#: the flags each command reads besides --family and --at, and their values
FUZZ_FLAGS = {
    "classify": {"--tol-cluster": FUZZ_VALUE, "--tol-rank": FUZZ_VALUE},
    "scenario": {"--tol-cluster": FUZZ_VALUE, "--tol-rank": FUZZ_VALUE,
                 "--offset": FUZZ_VALUE, "--format": st.just("csv")},
    "surface": {"--tol-cluster": FUZZ_VALUE, "--tol-rank": FUZZ_VALUE,
                "--window": fuzz_list(2, 4), "--res": FUZZ_VALUE | HUGE_INTS.map(str)},
    "loop": {"--tol-cluster": FUZZ_VALUE, "--tol-rank": FUZZ_VALUE, "--loop": fuzz_list(3),
             "--samples": FUZZ_VALUE | HUGE_INTS.map(str)},
    "find-ep": {},
}

FUZZ_FAMILIES = {"offdiag": OFF_DIAGONAL_FAMILY, "toy": TOY_FAMILY, "flat": FLAT_IM_FAMILY,
                 "diag": DIAGONAL_FAMILY}


@st.composite
def fuzz_argv(draw):
    """A command line of one command: a family, --at, and a subset of the
    other flags the command reads, each with values from FUZZ_VALUE."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    family = draw(st.sampled_from(["crystal-example-1", "crystal-example-2",
                                   *(f"{{{name}}}" for name in FUZZ_FAMILIES)]))
    argv = [command, "--family", family, f"--at={draw(fuzz_list(2))}"]
    for flag, values in FUZZ_FLAGS[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if command in ("surface", "loop") or "--format=csv" in argv:
        argv.append("--out={tmp}/out.csv")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_FAMILIES.items():
        (path / f"{name}.json").write_text(doc)
    return path


def refuse_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@settings(max_examples=300)
@given(fuzz_argv())
def test_argv_fuzz(fuzz_dir, argv):
    """Any command line built from these flag values ends in a documented
    exit code, prints no traceback, and writes standard JSON (no NaN or
    Infinity) to stdout, if anything; a warning fails the run too."""
    argv = [arg.replace("{tmp}", str(fuzz_dir)) for arg in argv]
    for name in FUZZ_FAMILIES:
        argv = [arg.replace(f"{{{name}}}", str(fuzz_dir / f"{name}.json")) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=refuse_constant)


#: strings without '/': a path drawn as --out or --family stays in the fuzz directory
PLAIN_TEXT = st.text(st.characters(exclude_characters="/"), max_size=6)


#: every JSON type; res and samples at most 64, so no drawn grid or loop is large
def json_values(small_ints=False):
    ints = st.integers(max_value=64) if small_ints else st.integers()
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats() | PLAIN_TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.text(max_size=4), inner, max_size=3), max_leaves=5)


#: meaningful values of each config key, beside which any JSON value is drawn;
#: the commands run in the fuzz directory
CONFIG_VALUES = {
    "family": st.sampled_from(["crystal-example-1", "crystal-example-2", "toy.json",
                               "offdiag.json", "missing.json", ""]),
    "at": st.sampled_from(["0,0", "0.05,-0.03", "0", "0,0,0", "0,nan", "a,b"]),
    "window": fuzz_list(1, 2, 3, 4),
    "res": st.integers(-2, 64) | HUGE_INTS,
    "tol_cluster": FUZZ_VALUE.map(float) | HUGE_INTS,
    "tol_rank": FUZZ_VALUE.map(float) | HUGE_INTS,
    "loop": st.sampled_from(["0.003,-0.002,0.01", "0.02,0,0.01"]) | fuzz_list(2, 3),
    "samples": st.integers(-2, 64) | HUGE_INTS,
    "offset": FUZZ_VALUE | fuzz_list(2),
    "out": st.sampled_from(["out.csv", "out", "out.json", "", "."]),
    "format": st.sampled_from(["csv", "json", "xml"]),
}
#: what the config file may also hold: the other flags, spelt with '-' too
CONFIG_KEYS = sorted({*CONFIG_VALUES, "tol-cluster", "tol-rank", "config", "command"})


@st.composite
def config_docs(draw):
    """A config object: known keys, mostly with meaningful values, and
    unknown keys, each with any JSON value or a huge integer, over a base
    that is mostly a whole run of every command (keys that one command does
    not read serve the others)."""
    doc = {}
    if draw(st.integers(0, 4)):
        doc = {"family": draw(st.sampled_from(["crystal-example-1", "crystal-example-2"])),
               "at": "0,0", "out": "out.csv", "loop": "0.003,-0.002,0.01"}
    unknown = PLAIN_TEXT.filter(lambda k: k.replace("-", "_") not in CONFIG_KEYS)
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS) | unknown, max_size=6, unique=True)):
        small = key.replace("-", "_") in ("res", "samples")
        meaningful = CONFIG_VALUES.get(key.replace("-", "_"))
        values = json_values(small) if meaningful is None else meaningful | json_values(small)
        values |= HUGE_INTS
        doc[key] = draw(values)
    return doc


@settings(max_examples=100)
@given(st.sampled_from(sorted(cli._COMMANDS)), config_docs())
def test_config_fuzz(fuzz_dir, command, doc):
    """Any config object, given to any command by --config alone, ends in a
    documented exit code, without a traceback, with one 'error:' line when
    it fails and none when it succeeds, and with standard JSON on stdout."""
    (fuzz_dir / "config.json").write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", "config.json"])
    finally:
        os.chdir(cwd)
    assert code in range(5)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert sum(line.startswith("error: ") for line in lines) == (code != 0), lines
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=refuse_constant)


def test_module_entry_point():
    """``python -m eigencoupling`` exits with main's code: the report on
    stdout, or one error line on stderr."""
    src = str(Path(cli.__file__).parents[1])

    def entry(*argv):
        return subprocess.run([sys.executable, "-m", "eigencoupling", *argv], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)

    golden = GOLDEN / "crystal-example-1.classify.json"
    done = entry("classify", "--family", "crystal-example-1", "--at", "0,0")
    assert (done.returncode, done.stdout, done.stderr) == (0, golden.read_bytes(), b"")
    done = entry("classify", "--family", "crystal-example-1", "--at", "0.3,0.2")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: no eigenvalue cluster at (0.3, 0.2)\n"


def plain_oracle(obj):
    """The value json.dumps must write for a report: a dataclass is its
    fields by name, less those declared ``field(repr=False)``; complex is
    {re, im}; sequences and arrays are lists; a non-finite float is null."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {key: plain_oracle(value) for key, value in obj.items()}
    if isinstance(obj, complex):
        return {"re": plain_oracle(obj.real), "im": plain_oracle(obj.imag)}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain_oracle(x) for x in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


@dataclasses.dataclass(frozen=True)
class _Report:
    shown: object
    hidden: object = dataclasses.field(default=None, repr=False)


JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.floats() | st.complex_numbers()
             | st.text() | st.builds(np.float64, st.floats())
             | st.builds(np.complex128, st.complex_numbers()))
JSON_TREE = st.recursive(JSON_LEAF, lambda inner: (
    st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4) | st.builds(_Report, inner, inner)
    | st.builds(lambda xs: np.array(xs, dtype=float), st.lists(st.floats(), max_size=4))
    | st.builds(lambda xs: np.array(xs, dtype=complex),
                st.lists(st.complex_numbers(), max_size=4))), max_leaves=20)


@settings(max_examples=500)
@given(JSON_TREE)
def test_json_text_writes_what_json_dumps_writes(obj):
    """``_json_text`` writes reports directly; every value must come out as
    json.dumps writes the plain value, indent 2, keys sorted, ASCII only."""
    want = json.dumps(plain_oracle(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert cli._json_text(obj) == want


def test_json_text_refuses_what_json_refuses():
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        cli._json_text({"count": np.int64(3)})


@pytest.mark.parametrize("argv", [
    ["classify", "--family", "crystal-example-1", "--at", "0,0"],
    ["find-ep", "--family", "crystal-example-1", "--at", "0.05,-0.03"],
])
def test_eigensolver_failure_exits_one(monkeypatch, capsys, argv):
    """LAPACK's iteration cap on one matrix (numkit's EigenCouplingError) ends
    with exit 1 and one error line, on the per-anchor path and in the
    Newton search alike."""
    eigvals = np.linalg.eigvals

    def capped(a):
        if np.ndim(a) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", capped)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigensolver did not converge: Eigenvalues did not converge\n"
