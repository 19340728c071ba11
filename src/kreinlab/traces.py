"""Discrete trace calculus: Dirichlet/Neumann traces, their regularized
versions, and Green-formula defect meters.

The regularized traces combine the plain traces with the spectral
Dirichlet-to-Neumann map of the field's backend:

    tau_N(z, u) = gamma_N(u) + dtn(z) gamma_D(u)
    tau_D(z, u) = gamma_D(u) - ntd(z) gamma_N(u)

Both annihilate every solution of (-Laplace - z)u = 0, which is what makes
them usable as boundary conditions on the maximal domain.

Adjoints and Hermitian parts of boundary maps are taken in the weighted
boundary inner product of :func:`boundary_pairing` and formed by
:func:`weighted_adjoint` and :func:`hermitian_part`; :func:`herm` is the one place a
Hermitian part ``(A + A^*)/2`` is formed.  The sign witnesses of
:mod:`kreinlab.kreinformulas` take their traces once per ``verify`` request:
the sign ledger and the krein-suite sign items are read from the same pass.
"""

from __future__ import annotations

import numpy as np

from .specfun import as_complex


def gamma_D(u) -> np.ndarray:
    """Dirichlet trace: boundary samples (or coefficients) of u."""
    return u.gamma_dirichlet()


def gamma_N(u) -> np.ndarray:
    """Neumann trace: outward normal derivative on the boundary."""
    return u.gamma_neumann()


def tau_N(z0, u) -> np.ndarray:
    """Regularized Neumann trace gamma_N u + dtn(z0) gamma_D u."""
    z0 = as_complex(z0)
    return gamma_N(u) + u.backend.dtn(z0) @ gamma_D(u)


def tau_D(z0, u) -> np.ndarray:
    """Regularized Dirichlet trace gamma_D u - ntd(z0) gamma_N u."""
    z0 = as_complex(z0)
    return gamma_D(u) - u.backend.ntd(z0) @ gamma_N(u)


def boundary_pairing(backend, f, g) -> complex:
    """Weighted boundary pairing, antilinear in the first argument."""
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    return complex(np.sum(backend.boundary_weights * np.conj(f) * g))


def weighted_adjoint(mat: np.ndarray, range_weights: np.ndarray, domain_weights: np.ndarray) -> np.ndarray:
    """Adjoint of ``mat`` between weighted l2 spaces: the weights of the space it
    maps into, then of the space it maps from."""
    return (mat.conj().T * range_weights[None, :]) / domain_weights[:, None]


def herm(mat: np.ndarray) -> np.ndarray:
    """Hermitian part ``(A + A^*)/2`` in the plain product."""
    return 0.5 * (mat + mat.conj().T)


def half_weighted(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``W^{1/2} A W^{-1/2}``: the matrix in coordinates where the weighted product is plain."""
    s = np.sqrt(weights)
    return (s[:, None] * mat) / s[None, :]


def hermitian_part(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Hermitian part in the weighted product, as a plain Hermitian matrix
    acting on half-weighted coordinates."""
    return herm(half_weighted(mat, weights))


def _interior_inner(u, v, interior_quad):
    """``(u, v)`` by the backend's interior product, or by the rule ``(points, weights)``."""
    if interior_quad is None:
        return u.backend.inner(u, v)
    pts, wts = interior_quad
    return complex(np.sum(np.asarray(wts) * np.conj(u.value(pts)) * v.value(pts)))


def green_defect(z, u, v, *, interior_quad=None) -> float:
    """Absolute defect of the regularized Green formula.

    | ((-L - z)u, v) - (u, (-L - zbar)v)
      + <tau_N(z) u, gamma_D v> - conj(<tau_N(zbar) v, gamma_D u>) |

    Interior products are exact up to quadrature on the model backends; for
    layer-density fields an explicit ``interior_quad = (points, weights)``
    must be supplied.
    """
    z = as_complex(z)
    backend = u.backend
    lhs = _interior_inner(u.helmholtz_apply(z), v, interior_quad) - _interior_inner(
        u, v.helmholtz_apply(np.conj(z)), interior_quad
    )
    pair1 = boundary_pairing(backend, tau_N(z, u), gamma_D(v))
    pair2 = boundary_pairing(backend, tau_N(np.conj(z), v), gamma_D(u))
    return abs(lhs + pair1 - np.conj(pair2))


def classical_green_defect(u, v, *, interior_quad=None) -> float:
    """Defect of <gamma_N w, gamma_D u> = (Lap w, u) - (w, Lap u) for gamma_D w = 0.

    Here ``u`` plays the role of the field with vanishing Dirichlet trace.
    """
    backend = u.backend
    lhs = boundary_pairing(backend, gamma_N(u), gamma_D(v))
    zero = as_complex(0.0)
    rhs = -(
        _interior_inner(u.helmholtz_apply(zero), v, interior_quad)
        - _interior_inner(u, v.helmholtz_apply(zero), interior_quad)
    )
    return abs(lhs - rhs)
