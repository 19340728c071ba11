"""Closed-form backends: unit interval and Fourier-Bessel disk.

Both model backends expose the same surface the extension factory and the
resolvent-formula checks are written against:

* boundary vectors (pairs of endpoint values on the interval, Fourier
  coefficients ``k = -K..K`` on the disk),
* spectral Dirichlet-to-Neumann / Neumann-to-Dirichlet matrices,
* harmonic extensions, Dirichlet and Neumann reference resolvents,
* explicit bases of ``ker(-Laplace_max - w)``,
* interior L2 inner products at spectral quadrature accuracy.

Everything here is a closed form plus Gauss-Legendre quadrature, so the
backends serve as independent oracles for the boundary-element lane.  They
do share ``sqrt_upper``, ``as_complex`` and the range checks of ``specfun``
with that lane, so a wrong branch of sqrt(z) would reach both at once.  That
is accepted: the benchmark's checks (``perfbench/checks.py``) choose the
branch on their own without importing the package, and ``test_sqrt_branch``
pins the cut on the positive real axis from both sides.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special

from .errors import DomainError, NearEigenvalue
from .specfun import (
    MAX_ORDER,
    _check_arg,
    _check_order,
    as_complex,
    bessel_j,
    bessel_j_prime,
    bessel_y,
    bessel_y_prime,
    sqrt_upper,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss(a: float, b: float):
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    w = 0.5 * (b - a) * _GL_WEIGHTS
    return x, w


# ---------------------------------------------------------------------------
# closed-form boundary operators
# ---------------------------------------------------------------------------

def _ntd(dtn: np.ndarray, z) -> np.ndarray:
    """``-dtn^{-1}``, not gated by a condition number: spectral counts sample the
    ill-conditioned maps a relative ``STEP_OFF`` from Neumann eigenvalues."""
    try:
        return -np.linalg.inv(dtn)
    except np.linalg.LinAlgError:
        raise NearEigenvalue(f"z = {z} is a Neumann eigenvalue: the DtN map is singular") from None


def interval_dtn(z) -> np.ndarray:
    """Dirichlet-to-Neumann matrix of (-d^2/dx^2 - z) on (0, 1).

    Equals (sqrt(z)/sin sqrt(z)) [[-cos sqrt(z), 1], [1, -cos sqrt(z)]] with
    the limit [[-1, 1], [1, -1]] at z = 0; the sign maps Dirichlet data to
    minus the outward Neumann trace.
    """
    z = as_complex(z)
    if z == 0:
        return np.array([[-1.0, 1.0], [1.0, -1.0]], dtype=complex)
    k = sqrt_upper(z)
    s = np.sin(k)
    if abs(s) < 1e-13 * max(1.0, abs(k)):
        raise NearEigenvalue(f"z = {z} is numerically a Dirichlet eigenvalue of the interval")
    c = np.cos(k)
    return (k / s) * np.array([[-c, 1.0], [1.0, -c]], dtype=complex)


def disk_mode_dtn(k, z, radius: float = 1.0):
    """Mode-k Dirichlet-to-Neumann value on a disk: -sqrt(z) J'_k / J_k at sqrt(z) R.

    ``k`` is one mode (a complex is returned) or an array of modes (an array
    is returned); J_{|k|-1}, J_{|k|} and J_{|k|+1} take one ``jv`` call each.
    The final quotient is taken in Python complex arithmetic, whose rounding
    the one-mode form has always had (numpy's complex division can differ in
    the last bit).
    """
    ks = np.abs(np.atleast_1d(np.asarray(k, dtype=int)))
    z = as_complex(z)
    if not (np.isfinite(radius) and radius > 0):
        raise DomainError(f"disk radius must be positive and finite, got {radius}")
    if z == 0:
        values = -ks / radius + 0j
    else:
        _check_order(int(ks.max()))
        kap = sqrt_upper(z)
        x = _check_arg(kap * radius)
        jk = special.jv(ks, x)
        tiny = np.abs(jk) < 1e-290
        if np.any(tiny):
            mode = ks[tiny][0]
            raise NearEigenvalue(f"z = {z} is numerically a Dirichlet eigenvalue of mode {mode}")
        jp = 0.5 * (special.jv(ks - 1, x) - special.jv(ks + 1, x))
        values = np.array([-kap * p / j for p, j in zip(jp.tolist(), jk.tolist())])
    return complex(values[0]) if np.ndim(k) == 0 else values


# ---------------------------------------------------------------------------
# profiles and Green solutions shared by both model backends
# ---------------------------------------------------------------------------

class PointStore:
    """A function of points, given to ``fn`` as a float array, that keeps its
    values for the last ``SIZE`` arrays of points asked for, the least recently
    read going first.  Stored arrays (each array of a stored tuple) are
    read-only, so no caller can change what a later read returns.  Only costly
    leaves hold one: Green pairs, disk Bessel profiles and barycentric bases."""

    SIZE = 8
    __slots__ = ("fn", "_values")

    def __init__(self, fn):
        self.fn = fn
        self._values = {}  # (shape, bytes) of the points -> value, oldest first

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        out = self._values.pop(key, None)
        if out is None:
            out = self.fn(x)
            for part in out if isinstance(out, tuple) else (out,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            if len(self._values) >= self.SIZE:
                del self._values[next(iter(self._values))]
        self._values[key] = out
        return out


class Profile:
    """A value, its x (interval) or r (disk) derivative and its Laplacian part,
    each a function of points; a source made by ``helmholtz_apply`` has only a
    value.  Sums, multiples and the Helmholtz action are built termwise, so a
    read is arithmetic on its leaves, of which only costly ones store values."""

    __slots__ = ("val", "dval", "lap")

    def __init__(self, val, dval=None, lap=None):
        self.val, self.dval, self.lap = val, dval, lap

    def __add__(self, other):
        return Profile(
            lambda x: self.val(x) + other.val(x),
            lambda x: self.dval(x) + other.dval(x),
            lambda x: self.lap(x) + other.lap(x),
        )

    def __mul__(self, c):
        return Profile(
            lambda x: c * self.val(x), lambda x: c * self.dval(x), lambda x: c * self.lap(x)
        )

    def helmholtz_apply(self, z):
        return Profile(lambda x: -self.lap(x) - z * self.val(x))


def _green_solve(x, green):
    """``(u(x), u'(x))`` of :func:`_green_profile` at points x from one Green-quadrature
    pass: each one-sided integral is weighted by ``(uR, uL)`` and by ``(uR', uL')``."""
    (uL, duL), (uR, duR), scale, source, end, radial = green
    t = x.reshape(-1, 1)
    xs2, ws2 = _gauss(t, end)
    upper = ws2 * uR(xs2)
    if radial:
        upper = upper * xs2
    hi = np.sum(upper * source(xs2), axis=-1)
    # the integral over (0, 0) is empty, and the disk's uR is singular at r = 0
    inside = t[:, 0] != 0
    ti = t[inside]
    if len(ti):
        xs1, ws1 = _gauss(0.0, ti)
        lower = ws1 * uL(xs1)
        if radial:
            lower = lower * xs1
        lo = np.sum(lower * source(xs1), axis=-1)

    def combine(at_left, at_right):
        below = np.zeros(hi.shape, dtype=complex)
        if len(ti):
            below[..., inside] = at_right(ti[:, 0]) * lo
        out = ((below + at_left(t[:, 0]) * hi) / scale).reshape(hi.shape[:-1] + x.shape)
        return out if out.ndim else complex(out)

    return combine(uL, uR), combine(duL, duR)


def _green_profile(left, right, scale, w, source, end: float, radial: bool) -> Profile:
    """Green solution of one Sturm-Liouville problem on (0, end).

    ``left = (uL, uL')`` solves the homogeneous problem regularly at 0 and
    ``right = (uR, uR')`` meets the boundary condition at ``end``; ``scale``
    is the constant -weight (uL uR' - uL' uR), with weight r when ``radial``
    and 1 otherwise.  Each target x gets its own split Gauss rule on (0, x)
    and (x, end):

        u(x) = (uR(x) int_0^x uL f weight + uL(x) int_x^end uR f weight) / scale,

    and the profile returned is (u, u', -w u - f).  One pass, whose result is
    the profile's one :class:`PointStore`, gives u and u' at all of its
    targets: the rules of m targets are (m, 64) arrays, and ``uL``, ``uR`` and
    the source are called once per half.  A sampled source (the interval's) is
    read through its backend's barycentric basis (:class:`BarycentricBasis`),
    which is built once per array of points.

    The source may be a stack of p sources: it then returns shape
    ``(p,) + x.shape`` for points x, and so does every part of the profile.
    The Gauss sums run over the contiguous last axis, so each source of a
    stack is summed in the order a single source is.
    """
    green = (left, right, scale, source, end, radial)
    pair = PointStore(lambda x: _green_solve(x, green))
    return Profile(lambda x: pair(x)[0], lambda x: pair(x)[1],
                   lambda x: -w * pair(x)[0] - source(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# interval backend
# ---------------------------------------------------------------------------

class IntervalField:
    """Closed-form field on (0, 1), held as one profile in x."""

    __slots__ = ("backend", "profile")
    # both ends are read at once, so a Green profile solves once for its traces
    ENDS, OUTWARD = np.array([0.0, 1.0]), np.array([-1.0, 1.0])  # and the outward normals

    def __init__(self, backend, profile: Profile):
        self.backend = backend
        self.profile = profile

    def value(self, x):
        return self.profile.val(np.asarray(x, dtype=float))

    def derivative(self, x):
        return self.profile.dval(np.asarray(x, dtype=float))

    def laplacian(self, x):
        return self.profile.lap(np.asarray(x, dtype=float))

    def gamma_dirichlet(self) -> np.ndarray:
        return np.asarray(self.profile.val(self.ENDS), dtype=complex).T  # a stack's (p, 2).T

    def gamma_neumann(self) -> np.ndarray:
        return np.asarray(self.OUTWARD * self.profile.dval(self.ENDS), dtype=complex).T

    def helmholtz_apply(self, z):
        return IntervalField(self.backend, self.profile.helmholtz_apply(as_complex(z)))

    def __add__(self, other):
        if other.backend is not self.backend:
            raise DomainError("cannot combine fields from different backends")
        return IntervalField(self.backend, self.profile + other.profile)

    def __rmul__(self, c):
        return IntervalField(self.backend, self.profile * as_complex(c))


def _barycentric_matrix(nodes, weights, x) -> np.ndarray:
    """``B(x)`` of :class:`BarycentricBasis`, shape ``x.shape + (n,)``."""
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    order = np.argsort(nodes)
    ordered = nodes[order]
    B = np.subtract.outer(x, nodes)
    rows = B.reshape(-1, n)
    flat = x.reshape(-1)
    pos = np.minimum(np.searchsorted(ordered, flat), n - 1)
    hit = ordered[pos] == flat
    rows[hit] = 1.0
    np.divide(weights, rows, out=rows)
    rows /= rows.sum(axis=-1, keepdims=True)
    rows[hit] = 0.0
    rows[hit, order[pos[hit]]] = 1.0
    return B


class BarycentricBasis:
    """Barycentric Lagrange basis on one node set (Berrut & Trefethen,
    "Barycentric Lagrange Interpolation", SIAM Rev. 46, 2004).

    The weights are computed once.  :attr:`matrix` returns ``B(x)``, of shape
    ``x.shape + (n,)``, whose row for a point x is ``(w_k / (x - x_k)) /
    sum_k w_k / (x - x_k)``, or the unit row of node k where x equals x_k
    exactly; it is a :class:`PointStore`, so the interpolants of many samples
    on the same nodes share one read-only basis per array of points.  Capacity
    scaling keeps the weight products in floating range for the Gauss grids
    used here.
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        cap = 0.25 * (np.max(self.nodes) - np.min(self.nodes))
        self.weights = np.ones(len(self.nodes))
        for j in range(len(self.nodes)):
            self.weights[j] = 1.0 / np.prod((self.nodes[j] - np.delete(self.nodes, j)) / cap)
        # not a bound method: a store referring back to the basis would be a cycle,
        # and keep its matrices after the backend is gone until a collection ran
        self.matrix = PointStore(functools.partial(_barycentric_matrix, self.nodes, self.weights))

    def interpolant(self, values):
        """Polynomial through ``(nodes, values)``: ``x -> B(x) @ values``.

        ``values`` holds the n node values of one source, or is a (p, n)
        stack of p sources; the interpolant then returns shape
        ``(p,) + x.shape``, contiguous, one source per leading index.
        """
        values = np.asarray(values, dtype=complex)
        n = len(self.nodes)
        if values.ndim not in (1, 2) or values.shape[-1] != n:
            raise DomainError("sampled data must match the backend quadrature nodes")
        # real products with the (n, 2) real/imaginary views, so B is never cast to
        # complex; a stack is one matmul over p such views, each source's product
        # the one it has alone
        pairs = np.ascontiguousarray(values).view(float).reshape(values.shape + (2,))

        def interp(x):
            B = self.matrix(x)
            out = (B.reshape(-1, n) @ pairs).view(complex)
            out = out.reshape(values.shape[:-1] + B.shape[:-1])
            return out if out.ndim else complex(out)

        return interp


class Model1D:
    """Unit-interval backend; all boundary operators are 2x2 matrices."""

    name = "interval"
    nboundary = 2

    def __init__(self):
        self.boundary_weights = np.ones(2)
        self.quad_nodes, self.quad_weights = _gauss(0.0, 1.0)
        self.basis = BarycentricBasis(self.quad_nodes)
        # build-time self test of the closed-form boundary operator
        ref = np.array([[-1.0, 1.0], [1.0, -1.0]])
        if np.max(np.abs(interval_dtn(0.0) - ref)) > 1e-14:
            raise AssertionError("interval DtN self-test failed")

    # -- boundary operators -------------------------------------------------
    def dtn(self, z) -> np.ndarray:
        return interval_dtn(z)

    def ntd(self, z) -> np.ndarray:
        return _ntd(interval_dtn(z), z)

    def reference_eigenvalues(self, reference: str, top: float) -> np.ndarray:
        """Eigenvalues below ``top`` of the Dirichlet or Neumann reference
        operator: (k pi)^2 with k >= 1 or k >= 0, each simple."""
        first = 1 if reference == "dirichlet" else 0
        eigs = (np.arange(first, int(np.sqrt(max(top, 0.0)) / np.pi) + 2) * np.pi) ** 2
        return eigs[eigs < top]

    # -- fields --------------------------------------------------------------
    def field(self, fn, dfn=None, lapfn=None) -> IntervalField:
        return IntervalField(self, Profile(fn, dfn, lapfn))

    def constant(self, c=1.0) -> IntervalField:
        c = as_complex(c)
        return self.field(
            lambda x: c * np.ones_like(x),
            lambda x: np.zeros_like(x, dtype=complex),
            lambda x: np.zeros_like(x, dtype=complex),
        )

    def polynomial(self, coeffs) -> IntervalField:
        p = np.polynomial.Polynomial(coeffs)
        dp = p.deriv()
        d2p = dp.deriv()
        return self.field(lambda x: p(x) + 0j, lambda x: dp(x) + 0j, lambda x: d2p(x) + 0j)

    def harmonic_extension(self, w, g) -> IntervalField:
        """Solution of (-u'' - w u) = 0 with Dirichlet data g = (u(0), u(1)).

        ``g`` has shape (2,), or (2, p) for p data pairs; the field's values
        then have shape ``(p,) + x.shape`` and its traces shape (2, p).
        """
        w = as_complex(w)
        g = np.asarray(g, dtype=complex)
        if g.ndim not in (1, 2) or len(g) != 2:
            raise DomainError("interval boundary data must have shape (2,) or (2, p)")
        if not np.all(np.isfinite(g)):
            raise DomainError("non-finite boundary data")
        # u(0) or u(1) of each pair, shaped to broadcast against the points
        end = lambda i, x: g[i].reshape(g.shape[1:] + (1,) * np.ndim(x))
        if w == 0:
            return self.field(
                lambda x: end(0, x) * (1 - x) + end(1, x) * x,
                lambda x: (end(1, x) - end(0, x)) * np.ones_like(x),
                lambda x: np.zeros(g.shape[1:] + np.shape(x), dtype=complex),
            )
        k = sqrt_upper(w)
        s = np.sin(k)
        if abs(s) < 1e-13 * max(1.0, abs(k)):
            raise NearEigenvalue(f"w = {w} is a Dirichlet eigenvalue; extension undefined")
        fn = lambda x: (end(0, x) * np.sin(k * (1 - x)) + end(1, x) * np.sin(k * x)) / s
        dfn = lambda x: (-end(0, x) * k * np.cos(k * (1 - x)) + end(1, x) * k * np.cos(k * x)) / s
        return self.field(fn, dfn, lambda x: -w * fn(x))

    def homogeneous_basis(self, w):
        """Two explicit solutions of (-u'' - w u) = 0 spanning the kernel."""
        w = as_complex(w)
        if w == 0:
            return [self.polynomial([1.0]), self.polynomial([0.0, 1.0])]
        k = sqrt_upper(w)
        c = self.field(
            lambda x: np.cos(k * x),
            lambda x: -k * np.sin(k * x),
            lambda x: -w * np.cos(k * x),
        )
        s = self.field(
            lambda x: np.sin(k * x),
            lambda x: k * np.cos(k * x),
            lambda x: -w * np.sin(k * x),
        )
        return [c, s]

    def _resolvent(self, w, f, reference: str) -> IntervalField:
        w = as_complex(w)
        k = sqrt_upper(w)
        if reference == "dirichlet":
            if w == 0:
                left = (lambda x: x), (lambda x: np.ones_like(x))
                right = (lambda x: 1 - x), (lambda x: -np.ones_like(x))
                wronsk = -1.0
            else:
                left = (lambda x: np.sin(k * x)), (lambda x: k * np.cos(k * x))
                right = (lambda x: np.sin(k * (1 - x))), (lambda x: -k * np.cos(k * (1 - x)))
                wronsk = -k * np.sin(k)
        elif reference == "neumann":
            if w == 0:
                raise NearEigenvalue("0 is a Neumann eigenvalue of the interval")
            left = (lambda x: np.cos(k * x)), (lambda x: -k * np.sin(k * x))
            right = (lambda x: np.cos(k * (1 - x))), (lambda x: k * np.sin(k * (1 - x)))
            wronsk = k * np.sin(k)
        else:
            raise DomainError(f"unknown reference {reference!r}")
        if abs(wronsk) < 1e-13 * max(1.0, abs(w)):
            raise NearEigenvalue(f"w = {w} is a {reference} eigenvalue of the interval")
        if isinstance(f, IntervalField):
            f = f.profile.val
        source = f if callable(f) else self.basis.interpolant(f)
        profile = _green_profile(left, right, -wronsk, w, source, 1.0, radial=False)
        return IntervalField(self, profile)

    def resolvent_dirichlet(self, w, f) -> IntervalField:
        return self._resolvent(w, f, "dirichlet")

    def resolvent_neumann(self, w, f) -> IntervalField:
        return self._resolvent(w, f, "neumann")

    def h2n_field(self, b) -> IntervalField:
        """Cubic with zero Dirichlet trace and Neumann trace b = (b0, b1)."""
        b0, b1 = (as_complex(v) for v in np.asarray(b).ravel())
        # p = x(1-x)((b0-b1)x - b0) gives -p'(0) = b0, p'(1) = b1
        a3 = -(b0 - b1)
        a2 = (b0 - b1) + b0
        a1 = -b0
        return self.polynomial([0.0, a1, a2, a3])

    def h20_family(self, count: int, rng) -> list:
        """H2_0 surrogates: x^2 (1-x)^2 times random low-order polynomials."""
        base = np.polynomial.Polynomial([0.0, 0.0, 1.0]) * np.polynomial.Polynomial(
            [1.0, -2.0, 1.0]
        )
        out = []
        for _ in range(count):
            coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            out.append(self.polynomial((base * np.polynomial.Polynomial(coeffs)).coef))
        return out

    # -- inner products ------------------------------------------------------
    def _nodal(self, u) -> np.ndarray:
        values = u.value(self.quad_nodes)
        if np.ndim(values) > 1:  # a stack would broadcast into one summed product
            raise DomainError("interior products take single fields, not a stack")
        return values

    def inner(self, u, v) -> complex:
        return complex(np.sum(self.quad_weights * np.conj(self._nodal(u)) * self._nodal(v)))

    def gram(self, left, right) -> np.ndarray:
        """``G[i, j] = inner(left[i], right[j])``, bit for bit, as one reduction."""
        S = np.array([self._nodal(u) for u in left])
        T = np.array([self._nodal(v) for v in right])
        return np.sum(self.quad_weights * np.conj(S)[:, None] * T[None], axis=-1)


# ---------------------------------------------------------------------------
# disk backend
# ---------------------------------------------------------------------------

class DiskField:
    """Fourier-mode field on a disk: u = sum_k profile_k(r) e^(i k theta)."""

    __slots__ = ("backend", "profiles")

    def __init__(self, backend, profiles: dict):
        self.backend = backend
        self.profiles = dict(profiles)

    def _mode_sum(self, part: str, r, theta):
        """sum_k part_k(r) e^(i k theta) for the profile part ``"val"`` or ``"lap"``."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        for k, p in self.profiles.items():
            out = out + getattr(p, part)(r) * np.exp(1j * k * theta)
        return out

    def value(self, r, theta):
        return self._mode_sum("val", r, theta)

    def laplacian(self, r, theta):
        return self._mode_sum("lap", r, theta)

    def gradient(self, r, theta):
        """Cartesian gradient, shape (..., 2)."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        gr = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        gt = np.zeros_like(gr)
        at_center = r == 0
        safe = np.where(at_center, self.backend.radius, r)  # any r > 0; replaced below
        for k, p in self.profiles.items():
            phase = np.exp(1j * k * theta)
            gr = gr + p.dval(r) * phase
            angular = 1j * k * p.val(safe) / safe
            if np.any(at_center):
                # the limit of i k p(r) / r at r = 0 is i k p'(0) for |k| = 1 and 0
                # otherwise (a regular mode-k profile vanishes like r^|k|)
                limit = 1j * k * p.dval(0.0) if abs(k) == 1 else 0.0
                angular = np.where(at_center, limit, angular)
            gt = gt + angular * phase
        gx = gr * np.cos(theta) - gt * np.sin(theta)
        gy = gr * np.sin(theta) + gt * np.cos(theta)
        return np.stack([gx, gy], axis=-1)

    def _mode_trace(self, part: str) -> np.ndarray:
        """Mode coefficients of the profile part ``"val"`` or ``"dval"`` at r = R."""
        b = self.backend
        out = np.zeros(b.nboundary, dtype=complex)
        for k, p in self.profiles.items():
            out[b.mode_index(k)] = getattr(p, part)(b.radius)
        return out

    def gamma_dirichlet(self) -> np.ndarray:
        return self._mode_trace("val")

    def gamma_neumann(self) -> np.ndarray:
        return self._mode_trace("dval")

    def helmholtz_apply(self, z):
        z = as_complex(z)
        return DiskField(self.backend, {k: p.helmholtz_apply(z) for k, p in self.profiles.items()})

    def __add__(self, other):
        if other.backend is not self.backend:
            raise DomainError("cannot combine fields from different backends")
        merged = dict(self.profiles)
        for k, p in other.profiles.items():
            merged[k] = merged[k] + p if k in merged else p
        return DiskField(self.backend, merged)

    def __rmul__(self, c):
        c = as_complex(c)
        return DiskField(self.backend, {k: p * c for k, p in self.profiles.items()})


class DiskModel:
    """Fourier-Bessel disk backend truncated at modes |k| <= mode_cutoff."""

    name = "disk"

    def __init__(self, radius: float = 1.0, mode_cutoff: int = 8):
        if not (np.isfinite(radius) and radius > 0):
            raise DomainError(f"disk radius must be positive and finite, got {radius}")
        if not 0 <= mode_cutoff <= MAX_ORDER:  # disk_mode_dtn raises past that order
            raise DomainError("disk mode cutoff must lie in [0, specfun.MAX_ORDER = "
                              f"{MAX_ORDER}], got {mode_cutoff}")
        self.radius = float(radius)
        self.mode_cutoff = int(mode_cutoff)
        self.modes = list(range(-self.mode_cutoff, self.mode_cutoff + 1))
        self.nboundary = len(self.modes)
        # L2(boundary) inner product of trigonometric coefficients
        self.boundary_weights = np.full(self.nboundary, 2.0 * np.pi * self.radius)
        # 64-point Gauss rule on the radius
        self.quad_nodes = 0.5 * self.radius * (_GL_NODES + 1.0)
        self.quad_weights = 0.5 * self.radius * _GL_WEIGHTS
        self._reference = {}  # reference -> (top, eigenvalues below top)
        if abs(disk_mode_dtn(3, 0.0, self.radius) + 3.0 / self.radius) > 1e-14:
            raise AssertionError("disk DtN self-test failed")

    def mode_index(self, k: int) -> int:
        return k + self.mode_cutoff

    # -- boundary operators ---------------------------------------------------
    def dtn(self, z) -> np.ndarray:
        return np.diag(disk_mode_dtn(self.modes, z, self.radius))

    def ntd(self, z) -> np.ndarray:
        return _ntd(self.dtn(z), z)

    def reference_eigenvalues(self, reference: str, top: float) -> np.ndarray:
        """Eigenvalues below ``top`` of the Dirichlet or Neumann reference
        operator of the truncated model, sorted and repeated by multiplicity:
        (j_{k,m} / R)^2 or (j'_{k,m} / R)^2 for |k| <= mode_cutoff, plus 0 for
        the Neumann constant.  Modes +k and -k make each value with k > 0
        double.  The last table is kept, so samples below its top reuse it.
        """
        table_top, eigs = self._reference.get(reference, (-np.inf, None))
        if top > table_top:
            x = np.sqrt(max(top, 0.0)) * self.radius
            zeros = special.jn_zeros if reference == "dirichlet" else special.jnp_zeros
            values = [0.0] if reference == "neumann" else []
            for k in range(self.mode_cutoff + 1):
                # j_{k,m} > (m - 1/4) pi and j'_{k,m} > j_{k,m-1}: fewer than
                # x / pi + 2 of either lie below x
                roots = zeros(k, int(x / np.pi) + 3)
                values += list(np.repeat((roots[roots < x] / self.radius) ** 2, 1 if k == 0 else 2))
            table_top, eigs = top, np.sort(values)
            self._reference[reference] = (table_top, eigs)
        return eigs[eigs < top]

    # -- fields -----------------------------------------------------------------
    def harmonic_profile(self, k: int, w) -> Profile:
        """Regular radial solution of mode k at parameter w, normalized at r = R."""
        w = as_complex(w)
        k = int(k)
        ak = abs(k)
        R = self.radius
        if w == 0:
            if ak == 0:
                return Profile(
                    lambda r: np.ones_like(np.asarray(r, dtype=float), dtype=complex),
                    lambda r: np.zeros_like(np.asarray(r, dtype=float), dtype=complex),
                    lambda r: np.zeros_like(np.asarray(r, dtype=float), dtype=complex),
                )
            scale = R ** (-ak)
            return Profile(
                lambda r: scale * np.asarray(r, dtype=float) ** ak + 0j,
                lambda r: scale * ak * np.asarray(r, dtype=float) ** (ak - 1) + 0j,
                lambda r: np.zeros_like(np.asarray(r, dtype=float), dtype=complex),
            )
        kap = sqrt_upper(w)
        jR = bessel_j(ak, kap * R)
        if abs(jR) < 1e-290:
            raise NearEigenvalue(f"w = {w} is a Dirichlet eigenvalue of mode {k}")
        val = PointStore(lambda r: bessel_j(ak, kap * r) / jR)  # r reaches it as an array
        dval = lambda r: kap * bessel_j_prime(ak, kap * np.asarray(r, dtype=float)) / jR
        return Profile(val, dval, lambda r: -w * val(r))

    def harmonic_extension(self, w, g) -> DiskField:
        g = np.asarray(g, dtype=complex)
        if g.shape != (self.nboundary,):
            raise DomainError("boundary vector has the wrong length")
        profiles = {}
        for k in self.modes:
            c = g[self.mode_index(k)]
            if c != 0:
                profiles[k] = self.harmonic_profile(k, w) * c
        return DiskField(self, profiles)

    def homogeneous_basis(self, w):
        return [DiskField(self, {k: self.harmonic_profile(k, w)}) for k in self.modes]

    def mode_poly_field(self, k: int, povers: dict) -> DiskField:
        """Field c r^p e^(i k theta); radial Laplacian computed termwise."""
        k = int(k)
        items = [(int(p), as_complex(c)) for p, c in povers.items()]

        def val(r):
            r = np.asarray(r, dtype=float)
            return sum(c * r**p for p, c in items)

        def dval(r):
            r = np.asarray(r, dtype=float)
            return sum((c * p * r ** (p - 1) for p, c in items if p != 0), 0.0 * r + 0j)

        def lap(r):
            r = np.asarray(r, dtype=float)
            # radial part of Laplacian on r^p e^(ik theta): (p^2 - k^2) r^(p-2)
            return sum(c * (p**2 - k**2) * r ** (p - 2) for p, c in items)

        return DiskField(self, {k: Profile(val, dval, lap)})

    def _radial_resolvent_profile(self, k: int, w, fk, reference: str) -> Profile:
        """Green solution of the mode-k radial problem with data fk(r)."""
        w = as_complex(w)
        ak = abs(int(k))
        R = self.radius
        kap = sqrt_upper(w)
        if w == 0:
            raise NearEigenvalue("static disk resolvent not supported; shift the parameter")
        jR = bessel_j(ak, kap * R)
        jpR = bessel_j_prime(ak, kap * R)
        # the Green solve reads these at float arrays only
        uL = lambda r: bessel_j(ak, kap * r)
        duL = lambda r: kap * bessel_j_prime(ak, kap * r)
        if reference == "dirichlet":
            if abs(jR) < 1e-250:
                raise NearEigenvalue(f"w = {w} is a Dirichlet eigenvalue of mode {k}")
            a, b = bessel_y(ak, kap * R), jR
            scale = (2.0 / np.pi) * jR
        else:
            if abs(jpR) < 1e-250:
                raise NearEigenvalue(f"w = {w} is a Neumann eigenvalue of mode {k}")
            a, b = bessel_y_prime(ak, kap * R), jpR
            scale = (2.0 / np.pi) * jpR
        uR = lambda r: uL(r) * a - bessel_y(ak, kap * r) * b
        duR = lambda r: kap * (bessel_j_prime(ak, kap * r) * a - bessel_y_prime(ak, kap * r) * b)
        return _green_profile((uL, duL), (uR, duR), scale, w, fk, R, radial=True)

    def _resolvent(self, w, f, reference: str) -> DiskField:
        if isinstance(f, DiskField):
            data = {k: p.val for k, p in f.profiles.items()}
        elif isinstance(f, dict) and all(map(callable, f.values())):
            data = f
        else:
            raise DomainError("disk interior data must be a DiskField or {mode: callable}")
        profiles = {
            int(k): self._radial_resolvent_profile(int(k), w, fk, reference)
            for k, fk in data.items()
        }
        return DiskField(self, profiles)

    def resolvent_dirichlet(self, w, f) -> DiskField:
        return self._resolvent(w, f, "dirichlet")

    def resolvent_neumann(self, w, f) -> DiskField:
        return self._resolvent(w, f, "neumann")

    def h2n_field(self, b) -> DiskField:
        """Field with zero Dirichlet trace and Neumann trace coefficients b."""
        b = np.asarray(b, dtype=complex)
        field = DiskField(self, {})
        R = self.radius
        for k in self.modes:
            c = b[self.mode_index(k)]
            if c == 0:
                continue
            ak = abs(k)
            # r^ak (r^2 - R^2) e^(ik theta): smooth, vanishing Dirichlet trace
            scale = c / (2.0 * R ** (ak + 1))
            field = field + self.mode_poly_field(k, {ak + 2: scale, ak: -scale * R**2})
        return field

    def h20_family(self, count: int, rng) -> list:
        out = []
        R = self.radius
        for _ in range(count):
            k = int(rng.integers(-min(3, self.mode_cutoff), min(3, self.mode_cutoff) + 1))
            c = complex(rng.standard_normal(), rng.standard_normal())
            ak = abs(k)
            # (r^2 - R^2)^2 r^ak e^(ik theta): vanishing Dirichlet and Neumann traces
            out.append(
                self.mode_poly_field(
                    k,
                    {ak + 4: c, ak + 2: -2.0 * c * R**2, ak: c * R**4},
                )
            )
        return out

    # -- inner products ---------------------------------------------------------
    def inner(self, u, v) -> complex:
        """Sum over the modes of u, in u's order, of the radial products."""
        if not (isinstance(u, DiskField) and isinstance(v, DiskField)):
            raise DomainError("disk inner product needs DiskField arguments")
        w, r = self.quad_weights, self.quad_nodes
        return complex(sum(2.0 * np.pi * np.sum(w * np.conj(p.val(r)) * v.profiles[k].val(r) * r)
                           for k, p in u.profiles.items() if k in v.profiles))

    def gram(self, left, right) -> np.ndarray:
        """``G[i, j] = inner(left[i], right[j])``: each pair sums its modes in
        the order of its left field, so the pairs are not one reduction."""
        return np.array([[self.inner(u, v) for v in right] for u in left], dtype=complex)
