"""``degeneracy.find_ep`` against ``find_ep_oracle``, the search as it stood
before each Newton step did its work once: the same p_star bytes, lambda0,
iteration count, residual history and gap, or the same error.

A search that does not converge is the one difference the two may show: the
oracle says "no exceptional point within 30 iterations" whatever stopped it,
while ``find_ep`` names the stop. There the error class, the residual
history and the closing "(last gap ...)" must still agree.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import find_ep_oracle
from eigencoupling import crystal_optics, degeneracy
from eigencoupling import family as family_mod
from eigencoupling.errors import ConvergenceError, DomainError, EigenCouplingError
from planted import planted
from test_golden import FAMILIES

CRYSTAL = crystal_optics.family_adapter(crystal_optics.builtin_specs()["crystal-example-1"])
QUADRATIC = family_mod.parse_family((FAMILIES / "quadratic-ep-m3.json").read_text())
#: the oracle's message for every search that stops unconverged
UNCONVERGED = re.compile(r"no exceptional point within 30 iterations (\(last gap [^)]*\))$")


def outcome(search, fam, guess):
    """What a search returns, in comparable form: the result's fields, with
    p_star as bytes and lambda0 as its two floats, or the error's class,
    message and residual history."""
    try:
        r = search(fam, guess)
    except EigenCouplingError as exc:
        return type(exc), str(exc), getattr(exc, "residual_history", None)
    return (r.p_star.dtype, r.p_star.tobytes(), r.lambda0.real, r.lambda0.imag, r.iterations,
            r.residual_history, r.gap)


def assert_same(fam, guess):
    new, old = outcome(degeneracy.find_ep, fam, guess), outcome(find_ep_oracle.find_ep, fam, guess)
    stop = UNCONVERGED.match(old[1]) if old[0] is ConvergenceError else None
    if stop:
        assert new[0] is ConvergenceError and new[2] == old[2]
        assert new[1].startswith("no exceptional point ") and new[1].endswith(stop.group(1))
    else:
        assert new == old
    return new


def steps(fam, guess):
    """(trials, refused, accepted) of the search from ``guess``: every full
    or halved step it tried; those ``family.evaluate`` refused with
    DomainError, outside the domain or not finite; and the steps it took."""
    trials, refused = [], []
    evaluate = family_mod.evaluate

    def recording(f, p):
        trials.append(p)
        try:
            return evaluate(f, p)
        except DomainError:
            refused.append(p)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(family_mod, "evaluate", recording)
        result = outcome(degeneracy.find_ep, fam, guess)
    history = result[2] if isinstance(result[0], type) else result[5]
    # the first probe, of the guess, is no trial
    return len(trials) - 1, len(refused), len(history) - 1


@settings(max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10),
       radius=st.floats(0.0, 0.05), angle=st.floats(0.0, 2.0 * np.pi))
def test_planted_ep_near_its_point(seed, m, radius, angle):
    fam = planted(seed, "EP", m)
    guess = (fam.p_star[0] + radius * np.cos(angle), fam.p_star[1] + radius * np.sin(angle))
    assert_same(fam.family, guess)


@settings(max_examples=120)
@given(radius=st.floats(0.0, 0.97), angle=st.floats(0.0, 2.0 * np.pi))
def test_crystal_anywhere_in_its_chart(radius, angle):
    """Guesses over the whole chart: most of those far from the EP at 0 do
    not converge, and many try steps outside the chart."""
    assert_same(CRYSTAL, (radius * np.cos(angle), radius * np.sin(angle)))


@pytest.mark.parametrize("fam,guess", [
    (QUADRATIC, (0.18, -0.139)),
    (planted(3, "EP", 3).family, (-0.305, -0.037)),
    (CRYSTAL, (0.949, 0.232)),
], ids=["quadratic-ep-m3", "planted-ep-m3", "crystal-near-the-rim"])
def test_halved_step_accepted_on_the_way_to_convergence(fam, guess):
    """Searches that converge although some full step did not lower |z|:
    they try more steps than they take."""
    assert isinstance(assert_same(fam, guess)[0], np.dtype)
    trials, _, accepted = steps(fam, guess)
    assert trials > accepted


@pytest.mark.parametrize("guess", [(0.949, 0.232), (0.176, -0.136), (0.2, 0.1)])
def test_steps_out_of_the_chart(guess):
    """Searches on the crystal that try steps outside the chart: the domain
    guard of ``family.evaluate`` refuses them before any eigenvalue is taken,
    and a halved step is tried instead. The first converges; from the other
    two no trial lowers |z| in the end."""
    assert_same(CRYSTAL, guess)
    trials, refused, accepted = steps(CRYSTAL, guess)
    assert refused > 0 and trials > accepted


@pytest.mark.parametrize("kind", ["EP", "DP"])
@pytest.mark.parametrize("m", range(2, 11))
def test_planted_family_holds_its_degeneracy(kind, m):
    """At p* the planted family's nearest pair is double at lam0, of the
    planted kind, and an EP search from p* stays there."""
    fam = planted(m, kind, m)
    a = family_mod.evaluate(fam.family, fam.p_star)
    cluster = degeneracy.find_double_eigenvalues(a)[0]
    assert abs(cluster.center - fam.lam0) <= 1e-12
    assert degeneracy.classify(a, cluster.center).kind == kind
    if kind == "EP":
        result = degeneracy.find_ep(fam.family, fam.p_star)
        assert np.abs(result.p_star - fam.p_star).max() <= 1e-12
