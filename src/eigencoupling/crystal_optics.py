"""Optical matrix family of a homogeneous non-magnetic crystal.

Plane-wave propagation along a unit direction s reduces to the eigenvalue
problem A(s) u = lambda u with A(s) = (I - s s^T) eta(s), where eta is the
inverse dielectric tensor and lambda = n^-2 fixes the refractive index n.
eta splits into a constant complex-symmetric part U (birefringence, with
dichroism in the imaginary part) and a skew part G built from the optical
activity vector g(s) = gamma . s (chirality), linear in s.

The direction is parametrized by the upper-hemisphere chart (s1, s2) with
s3 = +sqrt(1 - s1^2 - s2^2); ``family_adapter`` exposes A over this chart as
a MatrixFamily with analytic first derivatives.

Structural identities: s^T A(s) = 0 (s is a left eigenvector with eigenvalue
zero), so A always has a zero eigenvalue and the physics lives in the other
two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .degeneracy import DEFAULT_CLUSTER_TOL
from .errors import BranchError, DimensionError, DomainError
from .family import MatrixFamily
from . import numkit

#: Chart guard margin: points with s1^2 + s2^2 >= 1 - margin are rejected so
#: s3 stays off 0, where the derivative's chain-rule term -p_i / s3 blows up.
CHART_MARGIN = 1e-6


def _symmetric3(name, value) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.shape != (3, 3):
        raise DimensionError(f"{name} must be 3x3, got {arr.shape}")
    if not np.allclose(arr, arr.T, rtol=0, atol=1e-12):
        raise DimensionError(f"{name} must be symmetric (componentwise)")
    return arr


@dataclass(frozen=True)
class DielectricSpec:
    """Crystal data: anisotropy tensor U and optical activity tensor gamma.

    Both are complex symmetric 3x3 (plain transpose symmetry, not Hermitian).
    """

    anisotropy: np.ndarray
    activity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "anisotropy", _symmetric3("anisotropy", self.anisotropy))
        object.__setattr__(self, "activity", _symmetric3("activity", self.activity))


def direction(s1, s2) -> np.ndarray:
    """Unit direction on the upper hemisphere from chart coordinates.

    Broadcasts: array coordinates give directions along a trailing axis.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    rho2 = s1 * s1 + s2 * s2
    if np.any(rho2 >= 1.0):
        raise DomainError(f"chart point with s1^2 + s2^2 = {np.max(rho2)} "
                          "outside the unit disk")
    return np.stack((s1, s2, np.sqrt(1.0 - rho2)), axis=-1)


def gyration_matrix(g) -> np.ndarray:
    """Skew-symmetric chirality contribution for activity vector g.

    G = i * [[0, -g3, g2], [g3, 0, -g1], [-g2, g1, 0]]; satisfies G = -G^T.
    Broadcasts over leading axes of g.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[-1:] != (3,):
        raise DimensionError(f"activity vector must have 3 entries, got {g.shape}")
    skew = np.zeros(g.shape[:-1] + (3, 3), dtype=complex)
    skew[..., 0, 1], skew[..., 0, 2] = -g[..., 2], g[..., 1]
    skew[..., 1, 0], skew[..., 1, 2] = g[..., 2], -g[..., 0]
    skew[..., 2, 0], skew[..., 2, 1] = -g[..., 1], g[..., 0]
    return 1j * skew


def eta(spec: DielectricSpec, s) -> np.ndarray:
    """Inverse dielectric tensor eta(s) = U + G(gamma . s); s is (..., 3)."""
    s = np.asarray(s, dtype=float)
    return spec.anisotropy + gyration_matrix((spec.activity @ s[..., None])[..., 0])


def optical_matrix(spec: DielectricSpec, s) -> np.ndarray:
    """A(s) = (I - s s^T) eta(s); satisfies s^T A = 0 identically.

    Broadcasts: directions of shape (..., 3) give matrices (..., 3, 3).
    """
    s = np.asarray(s, dtype=float)
    projector = np.eye(3) - s[..., :, None] * s[..., None, :]
    return projector @ eta(spec, s)


def refractive_indices(spec: DielectricSpec, s):
    """The two refractive indices n = lambda^(-1/2) for direction s.

    The structural zero eigenvalue is excluded; the remaining pair must be
    separated from zero by 10x the cluster tolerance, otherwise the principal
    branch of the inverse square root is meaningless and BranchError is raised.
    """
    w = numkit.eigvals(optical_matrix(spec, s))
    zero_idx = int(np.argmin(np.abs(w)))
    pair = [w[k] for k in range(3) if k != zero_idx]
    scale = 1.0 + max(abs(z) for z in w)
    for lam in pair:
        if abs(lam) <= 10.0 * DEFAULT_CLUSTER_TOL * scale:
            raise BranchError(
                f"eigenvalue {lam:.3e} too close to zero for n = lambda^(-1/2)"
            )
    return tuple(1.0 / np.sqrt(complex(lam)) for lam in pair)


def family_adapter(spec: DielectricSpec) -> MatrixFamily:
    """A(s1, s2) as a 3x3 MatrixFamily over the hemisphere chart.

    Derivatives are analytic (product rule on the projector, linearity of the
    gyration part, s3 chain rule included). The domain guard keeps a margin
    of ``CHART_MARGIN`` from the chart boundary.
    """

    @np.errstate(over="ignore")     # an overflowing square is inf: outside
    def guard(p):
        return p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1] < 1.0 - CHART_MARGIN

    def evaluator(p):
        return optical_matrix(spec, direction(p[..., 0], p[..., 1]))

    def deriv(p):
        s = direction(float(p[0]), float(p[1]))
        eta_s = eta(spec, s)
        projector = np.eye(3) - np.outer(s, s)
        partials = []
        for i in range(2):
            # ds/dp_i on the chart: e_i with the s3 chain rule in the last entry
            ds = np.zeros(3)
            ds[i], ds[2] = 1.0, -p[i] / s[2]
            dproj = -(np.outer(ds, s) + np.outer(s, ds))
            partials.append(dproj @ eta_s + projector @ gyration_matrix(spec.activity @ ds))
        return partials

    return MatrixFamily(dim=3, n_params=2, evaluator=evaluator, deriv=deriv,
                        domain_guard=guard)


@functools.cache
def builtin_specs() -> dict:
    """The two built-in demonstration crystals, built on the first call; every
    later call returns the same dict, which callers must not modify.

    ``crystal-example-1``: dichroic, optically active biaxial crystal whose
    optical matrix has a defective double eigenvalue (an exceptional
    direction) at s = (0, 0, 1).
    ``crystal-example-2``: crystal with complex activity tensor whose optical
    matrix has a semisimple double eigenvalue (a diabolic direction) there.
    """
    u1 = np.diag([3.0, 1.0, 2.0]) + 1j * np.array([
        [0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
    ])
    gamma1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex)
    u2 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 4.0]]) + 1j * np.array([
        [5.0, 0.0, 4.0], [0.0, 5.0, 2.0], [4.0, 2.0, 0.0],
    ])
    gamma2 = 4.0 * np.array([
        [0.0, 0.0, 1.0], [0.0, 0.0, 1j], [1.0, 1j, 0.0],
    ])
    return {
        "crystal-example-1": DielectricSpec(anisotropy=u1, activity=gamma1),
        "crystal-example-2": DielectricSpec(anisotropy=u2, activity=gamma2),
    }
