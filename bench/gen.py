"""Seeded inputs for the benchmark.

Every seed yields the same *structure* (which families, which dimensions,
how many loops, guesses and offsets) and different *values*, so the work per
operation hardly depends on the seed while the numbers the program sees do.

Families:

* the two builtin crystals, anchored at their degenerate direction (0, 0):
  ``crystal-example-1`` (EP) and ``crystal-example-2`` (DP);
* planted polynomial families A(p) = S (J + (p1 - p1*) B1 + (p2 - p2*) B2) S^-1
  for m = 2..10, one EP and one DP each. J holds a 2x2 Jordan block (EP) or
  lam0 * I2 (DP) at p* and a separated spectrum on a circle of radius 1.5-2.5
  around lam0. For an EP the split coefficients (B_s)[1, 0] are chosen so
  that the Newton Jacobian of the EP search is well conditioned.

The program sees only the family JSON files and the command lines built from
the fields below. The planted data (S, J, B1, B2, p*, lam0) stay with the
benchmark, which uses them to check outputs independently.

Run standalone to inspect the inputs of one seed::

    python3 bench/gen.py --seed 7 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CRYSTALS = {"crystal-example-1": "EP", "crystal-example-2": "DP"}
DIMENSIONS = tuple(range(2, 11))


@dataclass
class Anchor:
    """One family with a double eigenvalue at a known point, plus the
    seeded geometry the workloads run on it."""

    name: str                  # label, e.g. "planted-EP-m4"
    family: str                # value of --family (builtin name or JSON path)
    kind: str                  # "EP" | "DP"
    m: int
    at: tuple                  # anchor point = planted degenerate point
    window: tuple              # lo1, hi1, lo2, hi2 offsets of the surface grid
    loops: list                # (a, b, r, "inside" | "outside")
    guesses: list              # Newton starting points for find-ep (EP only)
    offsets: list              # p2 offsets of one-parameter scenarios
    planted: dict = field(default_factory=dict)   # S, J, B1, B2 (planted only)


def _num(x: float) -> float:
    return float(round(float(x), 4))


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _planted_matrices(rng, kind: str, m: int):
    lam0 = complex(_num(rng.uniform(-1, 1)), _num(rng.uniform(-1, 1)))
    j_mat = np.zeros((m, m), dtype=complex)
    j_mat[0, 0] = j_mat[1, 1] = lam0
    if kind == "EP":
        j_mat[0, 1] = 1.0
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    for k in range(m - 2):
        radius = rng.uniform(1.5, 2.5)
        j_mat[k + 2, k + 2] = lam0 + radius * np.exp(1j * (theta0 + 2.0 * math.pi * k / (m - 2)))
    while True:
        s_mat = np.eye(m) + 0.25 * _complex_gaussian(rng, (m, m)) / math.sqrt(m)
        if np.linalg.cond(s_mat) < 10.0:
            break
    b_mats = [0.5 * _complex_gaussian(rng, (m, m)) / math.sqrt(m) for _ in range(2)]
    if kind == "EP":
        # (B_s)[1, 0] = (B_s u0, v0) in the Jordan basis: keep the two split
        # coefficients of comparable size and at a clear angle to each other
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(math.pi / 3, 2 * math.pi / 3)
        b_mats[0][1, 0] = rng.uniform(0.5, 1.0) * np.exp(1j * alpha)
        b_mats[1][1, 0] = rng.uniform(0.5, 1.0) * np.exp(1j * (alpha + beta))
    return lam0, j_mat, s_mat, b_mats


def family_document(planted: dict) -> dict:
    """Family JSON (three terms: 1, p1, p2) of a planted family."""
    s_mat = planted["S"]
    s_inv = np.linalg.inv(s_mat)
    p_star = planted["p_star"]
    b1, b2 = planted["B1"], planted["B2"]
    c0 = s_mat @ (planted["J"] - p_star[0] * b1 - p_star[1] * b2) @ s_inv
    terms = []
    for exps, coeff in (([0, 0], c0), ([1, 0], s_mat @ b1 @ s_inv),
                        ([0, 1], s_mat @ b2 @ s_inv)):
        terms.append({"exp": exps, "re": coeff.real.tolist(), "im": coeff.imag.tolist()})
    return {"m": planted["J"].shape[0], "n": 2, "terms": terms}


def _geometry(rng, kind: str):
    window = (-_num(rng.uniform(0.03, 0.1)), _num(rng.uniform(0.03, 0.1)),
              -_num(rng.uniform(0.03, 0.1)), _num(rng.uniform(0.03, 0.1)))
    loops = []
    offsets = [_num(rng.choice((-1.0, 1.0)) * rng.uniform(0.005, 0.05)) for _ in range(2)]
    guesses = []
    if kind == "EP":
        for regime, (lo, hi) in (("inside", (0.0, 0.5)), ("outside", (1.5, 3.0))):
            r = rng.uniform(0.005, 0.03)
            d = r * rng.uniform(lo, hi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            loops.append((_num(d * math.cos(phi)), _num(d * math.sin(phi)), _num(r), regime))
        for _ in range(4):
            dist = rng.uniform(0.01, 0.05)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            guesses.append((dist * math.cos(phi), dist * math.sin(phi)))
    return window, loops, guesses, offsets


def generate(seed: int, out_dir: Path) -> list:
    """Write the family files of one seed into ``out_dir``; return the anchors."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    anchors = []
    for name, kind in CRYSTALS.items():
        window, loops, guesses, offsets = _geometry(rng, kind)
        anchors.append(Anchor(
            name=name, family=name, kind=kind, m=3, at=(0.0, 0.0), window=window,
            loops=loops, guesses=[(_num(g[0]), _num(g[1])) for g in guesses],
            offsets=offsets,
        ))
    for kind in ("EP", "DP"):
        for m in DIMENSIONS:
            lam0, j_mat, s_mat, b_mats = _planted_matrices(rng, kind, m)
            p_star = (_num(rng.uniform(-0.2, 0.2)), _num(rng.uniform(-0.2, 0.2)))
            planted = {"lam0": lam0, "J": j_mat, "S": s_mat, "B1": b_mats[0],
                       "B2": b_mats[1], "p_star": p_star}
            path = out_dir / f"planted-{kind}-m{m}.json"
            path.write_text(json.dumps(family_document(planted)), encoding="utf-8")
            window, loops, guesses, offsets = _geometry(rng, kind)
            anchors.append(Anchor(
                name=f"planted-{kind}-m{m}", family=str(path), kind=kind, m=m,
                at=p_star, window=window, loops=loops,
                guesses=[(_num(p_star[0] + g[0]), _num(p_star[1] + g[1])) for g in guesses],
                offsets=offsets, planted=planted,
            ))
    return anchors


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return {"re": value.real.tolist(), "im": value.imag.tolist()}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def manifest(anchors: list) -> dict:
    """Everything generated for one seed, planted data included."""
    return {"anchors": [
        {**{k: v for k, v in vars(a).items() if k != "planted"},
         "planted": {k: _jsonable(v) for k, v in a.planted.items()}}
        for a in anchors
    ]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the family files")
    args = parser.parse_args()
    out = Path(args.out)
    anchors = generate(args.seed, out)
    (out / "manifest.json").write_text(
        json.dumps(manifest(anchors), indent=1, sort_keys=True), encoding="utf-8")
    print(f"{len(anchors)} anchors written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
