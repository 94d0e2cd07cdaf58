import json
from pathlib import Path

import numpy as np
import pytest

from eigencoupling import cli

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
]


@pytest.mark.parametrize("code,argv", EXIT_CASES)
def test_exit_codes(code, argv, capsys, tmp_path):
    """One case per documented exit code; exit 1 also for find-ep on a
    one-parameter family and for non-finite flag values."""
    sep = tmp_path / "sep.json"
    sep.write_text(SEPARATED_FAMILY)
    argv = [a.replace("{sep}", str(sep)).replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(capsys, *argv)[0] == code


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
