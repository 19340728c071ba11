"""Oracles shared by more than one test module."""

import numpy as np
import pytest

from kreinlab.oracles import Model1D


def _krein_shooting_determinant(lam: float, backend: Model1D) -> float:
    """Shooting determinant whose zeros are the nonzero Krein eigenvalues.

    An eigenfunction u of the Krein extension on the interval is a combination
    of cos(sqrt(lam) x) and sin(sqrt(lam) x) whose static-resolvent image of
    lam*u has vanishing endpoint derivatives; equivalently both moments of u
    against {1, x} vanish.  The 2x2 determinant of those moments is returned.
    """
    s = np.sqrt(lam)
    x, w = backend.quad_nodes, backend.quad_weights
    u1, u2 = np.cos(s * x), np.sin(s * x)
    row1 = np.array([np.sum(w * u1), np.sum(w * u2)])
    row2 = np.array([np.sum(w * x * u1), np.sum(w * x * u2)])
    return float(np.real(row1[0] * row2[1] - row1[1] * row2[0]))


@pytest.fixture(scope="session")
def krein_shooting_root():
    """``root(lo, hi)``: the shooting-determinant zero in [lo, hi] by bisection.

    Fails the test unless the determinant changes sign on the bracket.
    """
    backend = Model1D()

    def det(lam):
        return _krein_shooting_determinant(lam, backend)

    def root(lo: float, hi: float) -> float:
        flo = det(lo)
        assert flo * det(hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = det(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    return root
