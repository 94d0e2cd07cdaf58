import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigencoupling import cli, degeneracy, ep_asymptotics, pairmodel
from eigencoupling import family as family_mod

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"

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
    """``surface`` factorises groups of blocks on a pool of threads; its
    output must not depend on how many threads there are."""

    def run_with_pool(self, monkeypatch, capsys, workers, argv):
        """Exit code, stderr and written CSV of ``argv``; ``workers`` None
        keeps the process's own pool."""
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers or 1) as pool, monkeypatch.context() as mp:
            if workers:
                mp.setattr(cli, "_pool", lambda: pool)
            code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

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
        model = ep_asymptotics.sensitivities(fam, degeneracy.jordan_chain_of(kind), [0.0, 0.0])
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


def test_parser_built_once_on_first_use():
    """Importing the CLI builds no parser; the first call builds the only one."""
    probe = ("import eigencoupling.cli as c; n = c._build_parser.cache_info().currsize; "
             "c.main(['classify', '--family', 'crystal-example-1', '--at', '0,0']); "
             "c.main(['classify', '--family', 'crystal-example-1', '--at', '0,0']); "
             "i = c._build_parser.cache_info(); print(n, i.misses, i.hits)")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split()[-3:] == ["0", "1", "1"]


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


EXIT_CASES = [
    (0, ["classify", "--family", "crystal-example-1", "--at", "0,0"]),
    (1, ["find-ep", "--family", "{sep}", "--at", "0.3"]),
    (1, ["surface", "--family", "crystal-example-1", "--at", "0,0",
         "--window=nan,0.1", "--out", "{tmp}/s.csv"]),
    (1, ["classify", "--family", "crystal-example-1", "--at", "inf,0"]),
    (2, ["classify", "--family", "{sep}", "--at", "0.3"]),
    (3, ["classify", "--family", "crystal-example-1", "--at", "0.9,0.9"]),
    (4, ["find-ep", "--family", "crystal-example-1", "--at", "0.2,0.1"]),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol-cluster", "-1e-6"]),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol-rank", "-1e-8"]),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--tol-rank", "0"]),
    (1, ["scenario", "--family", "crystal-example-1", "--at", "0,0", "--tol-rank", "nan"]),
    (1, ["classify", "--family", "crystal-example-1", "--at", "0,0", "--res", "5"]),
    (1, ["find-ep", "--family", "crystal-example-1", "--at", "0.05,-0.03",
         "--tol-cluster", "1e-3"]),
    (1, ["surface", "--family", "{ovf}", "--at", "0,0", "--window=-10,10", "--res", "5",
         "--out", "{tmp}/s.csv"]),
    (0, ["scenario", "--family", "{flat}", "--at", "0,0", "--offset", "0.01"]),
    (1, ["find-ep", "--family", "{one}", "--at", "0,0"]),
    (1, ["scenario", "--family", "crystal-example-2", "--at", "0,0", "--offset=1e155"]),
    (1, ["scenario", "--family", "crystal-example-2", "--at", "0,0", "--offset=1e300",
         "--format", "csv", "--out", "{tmp}/section.csv"]),
    (1, ["scenario", "--family", "{dovf}", "--at", "0.9,0"]),
]


@pytest.mark.parametrize("code,argv", EXIT_CASES)
def test_exit_codes(code, argv, capsys, tmp_path, recwarn):
    """One case per documented exit code; exit 1 also for find-ep on a
    one-parameter family or a 1x1 one, for non-finite flag values, for
    tolerances that are not positive and finite, for a flag the command does
    not read, for a family that overflows on the surface grid or whose
    derivative overflows at the anchor, and for a DP offset whose c overflows
    (JSON report and section CSV); exit 0 for a DP scenario whose Im c is
    constant along the sweep. A failure prints one error line, and no case
    warns."""
    for name, doc in (("sep", SEPARATED_FAMILY), ("ovf", OVERFLOWING_FAMILY),
                      ("flat", FLAT_IM_FAMILY), ("one", SCALAR_FAMILY),
                      ("dovf", OVERFLOWING_DERIVATIVE_FAMILY)):
        (tmp_path / f"{name}.json").write_text(doc)
    argv = [a.replace("{sep}", str(tmp_path / "sep.json"))
            .replace("{ovf}", str(tmp_path / "ovf.json"))
            .replace("{flat}", str(tmp_path / "flat.json"))
            .replace("{one}", str(tmp_path / "one.json"))
            .replace("{dovf}", str(tmp_path / "dovf.json"))
            .replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error: ")]) == (code != 0)
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def test_one_factorisation_per_shifted_matrix(capsys, monkeypatch):
    """classify factorises A - lam0 I and takes sigma_max(A); the chain or
    frame adds one SVD of the adjoint and nothing else."""
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    limits = {"classify": 2, "scenario": 3}
    counts = {}
    for command in limits:
        for crystal in ("crystal-example-1", "crystal-example-2"):
            calls.clear()
            assert run(capsys, command, "--family", crystal, "--at", "0,0")[0] == 0
            counts[command, crystal] = len(calls)
    assert all(n <= limits[command] for (command, _), n in counts.items()), counts
