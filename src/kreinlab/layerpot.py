"""Nystrom assembly of boundary layer operators for (-Laplace - z).

The single-layer trace V_z and the adjoint double layer K#_z are assembled
with the classical log-splitting quadrature: the kernel is written as

    M(t, s) = M1(t, s) * ln(4 sin^2((t - s)/2)) + M2(t, s)

with M1, M2 analytic on analytic curves, the log part integrated by the
trigonometric product rule and the smooth part by the trapezoid rule, which
together converge superalgebraically.

The interior Neumann trace of the single layer is ``JUMP_SIGN/2 I + K#_z``.
The sign is not assumed: it is forced by the uniform-density disk identity
(see :func:`kreinlab.kreinformulas.resolve_sign_conventions`, entry
``jump-relation``) and hard-coded here after validation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, TargetTooClose
from .geometry import BoundaryGrid
from .specfun import EULER_GAMMA, MAX_ARG, RangeExceeded, as_complex, sqrt_upper

#: validated sign of the interior-trace jump relation for this kernel
JUMP_SIGN = 1.0

#: evaluation points closer than this many grid spacings trigger a warning
SAFE_DISTANCE_FACTOR = 5.0


@dataclass(frozen=True)
class BoundaryOperator:
    """Dense boundary matrix acting on nodal samples of one grid.

    ``role`` is one of  V, Ksharp, DtN, NtD, L, MD, generic.
    """

    matrix: np.ndarray
    role: str
    z: complex
    grid_token: str

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def log_quadrature_weights(n_nodes: int) -> np.ndarray:
    """Weights R_ij for integrating f(s) ln(4 sin^2((t_i - s)/2)) ds.

    Exact for trigonometric polynomials of degree up to n_nodes/2 on the
    equispaced grid t_j = 2 pi j / n_nodes (n_nodes even).
    """
    if n_nodes % 2 != 0:
        raise DomainError("log quadrature needs an even node count")
    half = n_nodes // 2
    # the weight depends only on the node-index difference
    angles = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    m = np.arange(1, half)
    profile = -(2.0 * np.pi / half) * (np.cos(np.outer(angles, m)) / m).sum(axis=1) - (
        np.pi / half**2
    ) * np.cos(half * angles)
    idx = (np.arange(n_nodes)[:, None] - np.arange(n_nodes)[None, :]) % n_nodes
    return profile[idx]


def _pairwise(grid: BoundaryGrid):
    d = grid.points[:, None, :] - grid.points[None, :, :]
    r = np.sqrt(np.sum(d**2, axis=-1))
    dt = grid.t[:, None] - grid.t[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        log4sin = np.log(4.0 * np.sin(dt / 2.0) ** 2)
    return d, r, log4sin


def _symmetric_bessel(fn, order: int, k: complex, r: np.ndarray, diagonal: complex = 0.0):
    """``fn(order, k r)`` for the symmetric distance matrix ``r``.

    ``r`` from :func:`_pairwise` is symmetric bit for bit, because
    ``p_i - p_j = -(p_j - p_i)`` exactly, so ``fn`` is evaluated on the strict
    upper triangle only and mirrored.  The diagonal (``r = 0``) is set to
    ``diagonal``.
    """
    n = len(r)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    vals = fn(order, k * r[upper])
    out = np.empty((n, n), dtype=complex)
    out[upper] = vals
    out.T[upper] = vals  # visits (j, i) in the order r[upper] visits (i, j)
    np.fill_diagonal(out, diagonal)
    return out


def _check_wavenumber(grid: BoundaryGrid, k: complex):
    scale = float(np.max(np.abs(k)) * (np.max(np.abs(grid.points)) * 2.0 + 1.0))
    if scale > MAX_ARG:
        raise RangeExceeded(f"|sqrt(z)| * diameter = {scale:.3g} exceeds {MAX_ARG}")


def assemble_single_layer_trace(grid: BoundaryGrid, z) -> BoundaryOperator:
    """Matrix of g -> boundary trace of the single layer potential S_z g."""
    z = as_complex(z)
    n = grid.n
    trap = 2.0 * np.pi / n
    R = log_quadrature_weights(n)
    d, r, log4sin = _pairwise(grid)
    sp = grid.speed
    if z == 0:
        m1 = -(1.0 / (4.0 * np.pi)) * np.ones((n, n)) * sp[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            m2 = -(1.0 / (2.0 * np.pi)) * np.log(r) * sp[None, :] - m1 * log4sin
        np.fill_diagonal(m2, -(1.0 / (2.0 * np.pi)) * np.log(sp) * sp)
    else:
        k = sqrt_upper(z)
        _check_wavenumber(grid, k)
        # J_0(0) = 1; the Hankel diagonal is overwritten below
        m1 = -(1.0 / (4.0 * np.pi)) * _symmetric_bessel(_sp.jv, 0, k, r, 1.0) * sp[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            m2 = 0.25j * _symmetric_bessel(_sp.hankel1, 0, k, r) * sp[None, :] - m1 * log4sin
        diag = (0.25j - EULER_GAMMA / (2.0 * np.pi) - np.log(k * sp / 2.0) / (2.0 * np.pi)) * sp
        np.fill_diagonal(m2, diag)
    return BoundaryOperator(R * m1 + trap * m2, "V", z, grid.token)


def assemble_adjoint_double_layer(grid: BoundaryGrid, z) -> BoundaryOperator:
    """Matrix of the principal-value kernel d/d nu_x E_2(z; x - y).

    The kernel is continuous on smooth curves; its diagonal is the curvature
    limit -kappa |x'| / (4 pi), independent of z.
    """
    z = as_complex(z)
    n = grid.n
    trap = 2.0 * np.pi / n
    d, r, log4sin = _pairwise(grid)
    sp = grid.speed
    dn = np.sum(d * grid.normals[:, None, :], axis=-1)
    diag = -grid.curvature * sp / (4.0 * np.pi)
    if z == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = -(1.0 / (2.0 * np.pi)) * dn / r**2 * sp[None, :]
        np.fill_diagonal(ker, diag)
        return BoundaryOperator(trap * ker, "Ksharp", z, grid.token)
    k = sqrt_upper(z)
    _check_wavenumber(grid, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = (k / (4.0 * np.pi)) * _symmetric_bessel(_sp.jv, 1, k, r) * dn / r * sp[None, :]
        k2 = (-(0.25j * k) * _symmetric_bessel(_sp.hankel1, 1, k, r) * dn / r * sp[None, :]
              - k1 * log4sin)
    np.fill_diagonal(k1, 0.0)
    np.fill_diagonal(k2, diag)
    R = log_quadrature_weights(n)
    return BoundaryOperator(R * k1 + trap * k2, "Ksharp", z, grid.token)


def neumann_trace_of_single_layer(grid: BoundaryGrid, z) -> BoundaryOperator:
    """Matrix sending a density g to the interior Neumann trace of S_z g."""
    ksharp = assemble_adjoint_double_layer(grid, z)
    mat = 0.5 * JUMP_SIGN * np.eye(grid.n) + ksharp.matrix
    return BoundaryOperator(mat, "generic", as_complex(z), grid.token)


def _target_distances(grid: BoundaryGrid, targets: np.ndarray) -> np.ndarray:
    d = targets[:, None, :] - grid.points[None, :, :]
    return np.min(np.sqrt(np.sum(d**2, axis=-1)), axis=1)


def evaluate_potential(grid: BoundaryGrid, density, z, targets, *, warn_close: bool = True):
    """Single layer potential (S_z density)(x) at interior targets.

    Plain quadrature: spectrally accurate for targets at least
    ``SAFE_DISTANCE_FACTOR`` grid spacings inside the boundary.  Closer
    targets still return a value but raise the :class:`TargetTooClose`
    warning.
    """
    z = as_complex(z)
    g = np.asarray(density, dtype=complex)
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    if warn_close:
        dist = _target_distances(grid, pts)
        limit = SAFE_DISTANCE_FACTOR * grid.spacing
        if np.any(dist < limit):
            warnings.warn(
                TargetTooClose(
                    f"{int(np.sum(dist < limit))} target(s) closer than "
                    f"{SAFE_DISTANCE_FACTOR} grid spacings to the boundary"
                )
            )
    d = pts[:, None, :] - grid.points[None, :, :]
    r = np.sqrt(np.sum(d**2, axis=-1))
    if np.any(r == 0):
        raise DomainError("target coincides with a boundary node")
    if z == 0:
        kernel = -np.log(r) / (2.0 * np.pi)
    else:
        k = sqrt_upper(z)
        _check_wavenumber(grid, k)
        kernel = 0.25j * _sp.hankel1(0, k * r)
    vals = kernel @ (grid.weighted_measure * g)
    return vals if np.asarray(targets).ndim > 1 else complex(vals[0])


def evaluate_potential_gradient(grid: BoundaryGrid, density, z, targets, *, warn_close: bool = True):
    """Gradient of the single layer potential at interior targets, shape (M, 2)."""
    z = as_complex(z)
    g = np.asarray(density, dtype=complex)
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    if warn_close:
        dist = _target_distances(grid, pts)
        limit = SAFE_DISTANCE_FACTOR * grid.spacing
        if np.any(dist < limit):
            warnings.warn(TargetTooClose("gradient target(s) too close to the boundary"))
    d = pts[:, None, :] - grid.points[None, :, :]
    r = np.sqrt(np.sum(d**2, axis=-1))
    if np.any(r == 0):
        raise DomainError("target coincides with a boundary node")
    if z == 0:
        radial = -1.0 / (2.0 * np.pi * r)
    else:
        k = sqrt_upper(z)
        _check_wavenumber(grid, k)
        radial = -0.25j * k * _sp.hankel1(1, k * r)
    kernel = radial[..., None] * d / r[..., None]
    return np.einsum("mjc,j->mc", kernel, grid.weighted_measure * g)
