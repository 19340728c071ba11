"""Nystrom assembly of boundary layer operators for (-Laplace - z).

The single-layer trace V_z and the adjoint double layer K#_z are assembled
with the classical log-splitting quadrature: the kernel is written as

    M(t, s) = M1(t, s) * ln(4 sin^2((t - s)/2)) + M2(t, s)

with M1, M2 analytic on analytic curves, the log part integrated by the
trigonometric product rule and the smooth part by the trapezoid rule, which
together converge superalgebraically.

The grids of :func:`kreinlab.geometry.make_grid` place node n - j at the exact
mirror image of node j, and every factor of an entry (distance, normal
component, speed, curvature, the log factor and the log weights) is mirrored
bit for bit, so every matrix here commutes with the reflection J: j -> -j mod n,
``A[n - i, n - j] = A[i, j]``.  Only the rows 0..n/2 are assembled; the others
are their mirror images (:func:`mirror_rows`).  The four kernels depend on the
node distance r alone, and every distance occurs in those rows, so each kernel
is evaluated once per distinct distance and gathered into its rows.

The interior Neumann trace of the single layer is ``JUMP_SIGN/2 I + K#_z``.
The sign is not assumed: it is forced by the uniform-density disk identity
(see :func:`kreinlab.kreinformulas.resolve_sign_conventions`, ledger row
``jump-relation``) and hard-coded here after validation.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np
from scipy import special as _sp

from .errors import DomainError, TargetTooClose
from .geometry import BoundaryGrid
from .specfun import EULER_GAMMA, MAX_ARG, RangeExceeded, as_complex, sqrt_upper

#: validated sign of the interior-trace jump relation for this kernel
JUMP_SIGN = 1.0

#: largest Im sqrt(z) * diameter with eps e^(Im sqrt(z) * diameter) <= 1e-8
DECAY_LIMIT = float(np.log(1e-8 / np.finfo(float).eps))

#: evaluation points closer than this many grid spacings trigger a warning
SAFE_DISTANCE_FACTOR = 5.0

#: kernel arguments with fewer points are evaluated in the calling thread.  Two facts,
#: measured on a 2-vCPU VM, bound a split from below:
#: - a ufunc call on more than 8,192 points (numpy's buffer size) runs its loop without
#:   the GIL; two threads ran 8,193-point ``hankel1`` calls at 1.7-1.9x of serial, and
#:   8,192-point ones at 1.3-1.5x, so each slice must exceed 8,192 points;
#: - an OpenBLAS worker spins for about 125 ms of CPU after each threaded call (complex
#:   ``A @ v`` and ``A @ B`` from n = 64, ``inv`` from n = 128, ``eigh`` already at
#:   n = 32) and holds a core, so a split of a few milliseconds that follows one gains
#:   nothing.  At 32,768 (a 384-node kite splits, and a 512-node one, with 65,485
#:   distinct distances) neither benchmark workload gained over this value.
SPLIT_MIN = 65_536

_pool = None  # runs the kernel slices past the caller's own; made on the first split
_pool_lock = threading.Lock()


def _drop_pool():  # a forked child inherits the pool and the lock but none of the threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def log_quadrature_weights(n_nodes: int) -> np.ndarray:
    """Weights R_ij for integrating f(s) ln(4 sin^2((t_i - s)/2)) ds.

    Exact for trigonometric polynomials of degree up to n_nodes/2 on the
    equispaced grid t_j = 2 pi j / n_nodes (n_nodes even).
    """
    if n_nodes % 2 != 0:
        raise DomainError("log quadrature needs an even node count")
    half = n_nodes // 2
    # the weight depends only on the node-index difference k, and is even in it: it is
    # evaluated for k <= n/2 and mirrored, so that R commutes with the grid mirror
    angles = 2.0 * np.pi * np.arange(half + 1) / n_nodes
    m = np.arange(1, half)
    profile = -(2.0 * np.pi / half) * (np.cos(np.outer(angles, m)) / m).sum(axis=1) - (
        np.pi / half**2
    ) * np.cos(half * angles)
    return _circulant(profile)


def _circulant(profile: np.ndarray) -> np.ndarray:
    """Read-only n x n view ``C_ij = c[(i - j) % n]`` of the even profile ``c`` given for
    k = 0..n/2 (``c[n - k] = c[k]``): the window of the 2n - 1 values
    ``e = c[1], ..., c[n - 1], c[0], ..., c[n - 1]`` starting at n - 1 - j is column j."""
    c = np.concatenate([profile, profile[-2:0:-1]])
    e = np.concatenate([c[1:], c])
    return np.lib.stride_tricks.sliding_window_view(e, c.size)[:, ::-1]


def mirror_rows(rows: np.ndarray) -> np.ndarray:
    """The n x n matrix whose rows 0..n/2 are ``rows`` and which commutes with the grid
    mirror J: j -> -j mod n, that is ``A[n - i, n - j] = A[i, j]``."""
    n = rows.shape[1]
    full = np.empty((n, n), dtype=rows.dtype)
    full[:rows.shape[0]] = rows
    return complete_mirror(full)


def complete_mirror(full: np.ndarray) -> np.ndarray:
    """``full`` with its rows n/2 + 1..n - 1 written in place as the mirror images of its
    rows n/2 - 1..1, ``A[n - i, n - j] = A[i, j]``."""
    half = full.shape[0] // 2
    full[half + 1:, 0] = full[half - 1:0:-1, 0]
    full[half + 1:, 1:] = full[half - 1:0:-1, :0:-1]
    return full


def _cores() -> int:
    """CPUs this process may run on (every CPU where the OS has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _apply(f, x: np.ndarray) -> np.ndarray:
    """``f(x)`` for a kernel ufunc ``f`` of :func:`_kernels` (it maps the dtype of ``x``
    to itself).  From ``SPLIT_MIN`` points on, with more than one core, ``x`` is cut
    into one interleaved slice per core, ``x[i::cores]``: the distances come sorted,
    and the kernels cost more at large arguments, so contiguous slices would leave the
    last one the slowest.  The calling thread evaluates the first slice and a module
    pool the others, each writing with ``out=`` into its slice of one result and
    running in a copy of the caller's context, so ``np.errstate`` holds in every slice.
    The evaluation is elementwise, so the result has the bits of ``f(x)``."""
    cores = _cores()
    if cores < 2 or x.size < SPLIT_MIN:
        return f(x)
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(cores - 1, thread_name_prefix="kreinlab-kernel")
        pool = _pool
    out = np.empty(x.shape, dtype=x.dtype)
    xs, outs = np.ravel(x), out.reshape(-1)
    jobs = [pool.submit(contextvars.copy_context().run, f, xs[i::cores], out=outs[i::cores])
            for i in range(1, cores)]
    try:
        f(xs[::cores], out=outs[::cores])
    finally:
        wait(jobs)  # no slice outlives the call, whatever raised
    for job in jobs:
        job.result()  # a worker's error is raised here
    return out


def _pairwise(grid: BoundaryGrid, rows: int | None = None):
    """Offsets ``p_i - p_j``, distances and ``ln(4 sin^2((t_i - t_j)/2))`` for the first
    ``rows`` rows (all by default).  The log factor depends on the index difference
    alone, so it is a circulant of n/2 + 1 values."""
    half = grid.n // 2
    d = grid.points[:rows, None, :] - grid.points[None, :, :]
    r = np.sqrt(np.sum(d**2, axis=-1))
    with np.errstate(divide="ignore"):
        log4sin = np.log(4.0 * np.sin(np.pi * np.arange(half + 1) / grid.n) ** 2)
    return d, r, _circulant(log4sin)[:rows]


_Kernels = namedtuple("_Kernels", "scale parts power diagonal potential radial")


def _kernels(grid: BoundaryGrid, z: complex) -> _Kernels:
    """Kernel table row for z: Laplace at 0, cephes I_m and K_m for real z < 0 (k = i kappa,
    every value real), AMOS J_m and H^(1)_m otherwise.  ``parts`` are four ``(c, f)`` read
    as ``c f(scale r)`` (``f`` may be a number): the log coefficient that log-splitting
    takes out of Phi, Phi, and the same for the factor of K#_z = factor (x - y).nu_x /
    r**power (None: no log part).  ``diagonal(|x'|)`` is the smooth part of V_z at r = 0;
    ``potential`` and ``radial`` are Phi and Phi' at target distances r.  Every ufunc
    ``f`` is evaluated through :func:`_apply`."""
    c, log0 = 1.0 / (2.0 * np.pi), -1.0 / (4.0 * np.pi)
    if z == 0:
        return _Kernels(1.0, ((log0, 1.0), (-c, np.log), None, (-c, 1.0)), 2,
                        lambda sp: -c * np.log(sp) * sp,
                        lambda r: -_apply(np.log, r) / (2.0 * np.pi),
                        lambda r: -1.0 / (2.0 * np.pi * r))
    k = sqrt_upper(z)
    _check_wavenumber(grid, z, k)
    if z.imag == 0 and z.real < 0:
        # J_0(i kappa r) = I_0, (i/4) H_0(i kappa r) = K_0 / 2 pi, J_1(i kappa r) = i I_1 and
        # H_1(i kappa r) = -(2/pi) K_1; the imaginary parts 1/4 and -1/4 of the diagonal cancel
        scale = k.imag
        parts = ((log0, _sp.i0), (c, _sp.k0), (-scale / (4.0 * np.pi), _sp.i1),
                 (-scale / (2.0 * np.pi), _sp.k1))
        constant = -EULER_GAMMA / (2.0 * np.pi)
    else:
        scale = k
        parts = ((log0, partial(_sp.jv, 0)), (0.25j, partial(_sp.hankel1, 0)),
                 (k / (4.0 * np.pi), partial(_sp.jv, 1)),
                 (-(0.25j * k), partial(_sp.hankel1, 1)))
        constant = 0.25j - EULER_GAMMA / (2.0 * np.pi)
    (c0, f0), (c1, f1) = parts[1], parts[3]
    return _Kernels(scale, parts, 1,
                    lambda sp: (constant - np.log(scale * sp / 2.0) / (2.0 * np.pi)) * sp,
                    lambda r: c0 * _apply(f0, scale * r), lambda r: c1 * _apply(f1, scale * r))


def _check_wavenumber(grid: BoundaryGrid, z: complex, k: complex):
    """Raise :class:`RangeExceeded` where the Bessel routines leave the checked range, or
    where the log split, whose log part grows like e^(kappa r) and cancels down to
    e^(-kappa r) (kappa = Im k), would lose more than 1e-8 relative:
    eps e^(kappa diameter) > 1e-8."""
    diameter = float(np.max(np.abs(grid.points)) * 2.0)
    growth = float(k.imag) * diameter
    if growth > DECAY_LIMIT:
        raise RangeExceeded(f"at z = {z}, Im sqrt(z) * diameter = {growth:.3g} exceeds "
                            f"{DECAY_LIMIT:.3g}: the log split would lose more than 1e-8 "
                            "relative to cancellation")
    scale = float(np.max(np.abs(k)) * (diameter + 1.0))
    if scale > MAX_ARG:
        raise RangeExceeded(f"|sqrt(z)| * diameter = {scale:.3g} exceeds {MAX_ARG}")


def _assemble(grid: BoundaryGrid, z: complex):
    """Rows 0..n/2 of ``(V_z, K#_z)`` from one pairwise geometry.  Each kernel ufunc is
    evaluated once per distinct distance above the diagonal of those rows (every
    distance of the grid occurs there), and one (n/2 + 1, n) index gathers the values
    into every matrix.  Its diagonal reads the first value, which every matrix but one
    overwrites; the log coefficient of V_z writes its own (J_0(0) = I_0(0) = 1).  Left of
    the diagonal a row reads the index of the transposed pair, which lies above it: ``r``
    is symmetric bit for bit, because ``p_i - p_j = -(p_j - p_i)`` exactly.  At real
    z <= 0 every kernel is real, and so are both matrices."""
    lane = _kernels(grid, z)
    n, sp = grid.n, grid.speed
    rows = n // 2 + 1
    trap = 2.0 * np.pi / n
    R = log_quadrature_weights(n)[:rows]
    d, r, log4sin = _pairwise(grid, rows)
    dn = np.sum(d * grid.normals[:rows, None, :], axis=-1)
    del d
    upper = np.triu(np.ones((rows, n), dtype=bool), 1)
    distinct, inverse = np.unique(r[upper], return_inverse=True)
    x = lane.scale * distinct
    index = np.zeros((rows, n), dtype=np.intp)
    index[upper] = inverse
    square = index[:, :rows]
    lower = np.tril_indices(rows, -1)
    square[lower] = square.T[lower]
    del upper, inverse, distinct, square

    def part(i, diagonal=None):
        # ``c`` multiplies the fresh gathered matrix within one expression: numpy then
        # reuses that temporary for large n and puts it first, and the operand order
        # of a complex product decides its last bit.  A diagonal that is kept is written
        # as ``c * diagonal``, which for a diagonal of 1 is exact in either order
        c, f = lane.parts[i]
        values = _apply(f, x) if callable(f) else np.full(x.size, f)
        gathered = c * values.take(index)
        if diagonal is not None:
            np.fill_diagonal(gathered, c * diagonal)
        return gathered

    with np.errstate(divide="ignore", invalid="ignore"):
        # K#_z first, and its log part freed before V_z: a lower peak resident set
        K = part(3) * dn / r**lane.power * sp
        k1 = part(2) * dn / r * sp if lane.parts[2] else None
        del dn, r  # V_z needs neither
        if k1 is not None:  # its diagonal, like K's, is set below
            K -= k1 * log4sin
            np.fill_diagonal(k1, 0.0)
        np.fill_diagonal(K, -grid.curvature[:rows] * sp[:rows] / (4.0 * np.pi))
        K *= trap
        if k1 is not None:
            k1 *= R
            K += k1
            del k1
        m1 = part(0, 1.0) * sp  # J_0(0) = I_0(0) = 1; V's own diagonal is set below
        V = part(1) * sp
        del index, x  # every part is gathered
        V -= m1 * log4sin
        np.fill_diagonal(V, lane.diagonal(sp[:rows]))
        m1 *= R
        V *= trap
        V += m1
        del m1
    return V, K


def assemble_single_layer_trace(grid: BoundaryGrid, z, *, with_adjoint: bool = False,
                                full: bool = True):
    """Matrix of g -> boundary trace of the single layer potential S_z g.

    With ``with_adjoint`` the result is the pair ``(V_z, K#_z)``, both from one
    pairwise geometry.  Without ``full`` each matrix is returned as its rows 0..n/2,
    which :func:`mirror_rows` completes.
    """
    layers = _assemble(grid, as_complex(z))[:1 + with_adjoint]
    if full:
        layers = tuple(map(mirror_rows, layers))
    return layers if with_adjoint else layers[0]


def assemble_adjoint_double_layer(grid: BoundaryGrid, z) -> np.ndarray:
    """Matrix of the principal-value kernel d/d nu_x E_2(z; x - y).

    The kernel is continuous on smooth curves; its diagonal is the curvature
    limit -kappa |x'| / (4 pi), independent of z.
    """
    return mirror_rows(_assemble(grid, as_complex(z))[1])


def _targets(grid: BoundaryGrid, targets):
    """Offsets ``x - y_j`` and distances of the targets to the nodes, shape (M, n, 2) and
    (M, n).  A target on a node is a :class:`DomainError`; targets closer than
    ``SAFE_DISTANCE_FACTOR`` grid spacings warn :class:`TargetTooClose`."""
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    d = pts[:, None, :] - grid.points[None, :, :]
    r = np.sqrt(np.sum(d**2, axis=-1))
    close = np.count_nonzero(np.min(r, axis=1) < SAFE_DISTANCE_FACTOR * grid.spacing)
    if close:
        warnings.warn(TargetTooClose(f"{close} target(s) closer than {SAFE_DISTANCE_FACTOR} "
                                     "grid spacings to the boundary"))
    if np.any(r == 0):
        raise DomainError("target coincides with a boundary node")
    return d, r


def evaluate_potential(grid: BoundaryGrid, density, z, targets):
    """Single layer potential (S_z density)(x) at interior targets.

    Plain quadrature: spectrally accurate for targets at least
    ``SAFE_DISTANCE_FACTOR`` grid spacings inside the boundary.  Closer
    targets still return a value but raise the :class:`TargetTooClose`
    warning.
    """
    z = as_complex(z)
    g = np.asarray(density, dtype=complex)
    _, r = _targets(grid, targets)
    vals = _kernels(grid, z).potential(r) @ (grid.weighted_measure * g)
    return vals if np.asarray(targets).ndim > 1 else complex(vals[0])


def evaluate_potential_gradient(grid: BoundaryGrid, density, z, targets):
    """Gradient of the single layer potential at interior targets, shape (M, 2)."""
    z = as_complex(z)
    g = np.asarray(density, dtype=complex)
    d, r = _targets(grid, targets)
    radial = _kernels(grid, z).radial(r)
    kernel = radial[..., None] * d / r[..., None]
    return np.einsum("mjc,j->mc", kernel, grid.weighted_measure * g)
