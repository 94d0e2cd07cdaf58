"""Finite-difference oracle for analytic family derivatives.

Families carry their own analytic dA/dp_i; tests check it against this
stencil, which reads only A(p) and shares no code with the derivatives.
"""

import numpy as np

#: Relative step; balances truncation vs roundoff at 4th order.
FD_STEP = 1e-5


def fd_derivative(a, p, i):
    """dA/dp_i at p by the 4th-order central stencil
    (-A(p + 2h) + 8 A(p + h) - 8 A(p - h) + A(p - 2h)) / 12h over the
    callable A(p), with h = FD_STEP * max(1, |p_i|)."""
    p = np.asarray(p, dtype=float)
    h = FD_STEP * max(1.0, abs(p[i]))

    def sample(delta):
        q = p.copy()
        q[i] += delta
        return np.asarray(a(q))

    return (-sample(2 * h) + 8 * sample(h) - 8 * sample(-h) + sample(-2 * h)) / (12 * h)
