import numpy as np
import pytest
from hypothesis import settings

from eigencoupling import crystal_optics, degeneracy, dp_asymptotics, ep_asymptotics
from eigencoupling import family as family_mod

# the same examples on every run and interpreter, and no deadline: a
# one-CPU or loaded runner must not turn a slow example into a failure
settings.register_profile("eigencoupling", derandomize=True, deadline=None)
settings.load_profile("eigencoupling")


@pytest.fixture(autouse=True)
def fresh_anchor():
    """Each test starts as a fresh process does, with no anchor analysis
    kept: a test that counts or breaks the work at an anchor sees it done."""
    from eigencoupling import cli
    cli._anchor.cache_clear()


@pytest.fixture(scope="session")
def crystal1():
    return crystal_optics.family_adapter(
        crystal_optics.builtin_specs()["crystal-example-1"])


@pytest.fixture(scope="session")
def crystal2():
    return crystal_optics.family_adapter(
        crystal_optics.builtin_specs()["crystal-example-2"])


@pytest.fixture(scope="session")
def ep_chain(crystal1):
    a0 = family_mod.evaluate(crystal1, [0.0, 0.0])
    cluster = degeneracy.find_double_eigenvalues(a0)[0]
    return a0, cluster, degeneracy.jordan_chain(degeneracy.classify(a0, cluster.center))


@pytest.fixture(scope="session")
def ep_model(crystal1, ep_chain):
    _, _, chain = ep_chain
    return ep_asymptotics.sensitivities(crystal1, chain, [0.0, 0.0])


@pytest.fixture(scope="session")
def dp_frame_pinned(crystal2):
    a0 = family_mod.evaluate(crystal2, [0.0, 0.0])
    cluster = degeneracy.find_double_eigenvalues(a0)[0]
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    return a0, cluster, degeneracy.dp_frame(degeneracy.classify(a0, cluster.center),
                                            right_basis=[e1, e2])


@pytest.fixture(scope="session")
def dp_model_pinned(crystal2, dp_frame_pinned):
    _, _, frame = dp_frame_pinned
    return dp_asymptotics.dp_sensitivities(crystal2, frame, [0.0, 0.0])
