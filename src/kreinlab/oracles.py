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

import numpy as np
from scipy import special

from .errors import DomainError, NearEigenvalue
from .specfun import (
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
    if radius <= 0:
        raise DomainError("disk radius must be positive")
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

class Profile:
    """Callables for a value, its x (interval) or r (disk) derivative and its
    Laplacian part; a source made by ``helmholtz_apply`` has only a value.
    Sums, scalar multiples and the Helmholtz action are built termwise."""

    __slots__ = ("val", "dval", "lap")

    def __init__(self, val, dval=None, lap=None):
        self.val = val
        self.dval = dval
        self.lap = lap

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


def _green_profile(left, right, scale, w, source, end: float, radial: bool) -> Profile:
    """Green solution of one Sturm-Liouville problem on (0, end).

    ``left = (uL, uL')`` solves the homogeneous problem regularly at 0 and
    ``right = (uR, uR')`` meets the boundary condition at ``end``; ``scale``
    is the constant -weight (uL uR' - uL' uR), with weight r when ``radial``
    and 1 otherwise.  Each target x gets its own split Gauss rule on (0, x)
    and (x, end):

        u(x) = (uR(x) int_0^x uL f weight + uL(x) int_x^end uR f weight) / scale,

    and the profile returned is (u, u', -w u - f).  One call evaluates all of
    its targets in one array pass: the rules of m targets are (m, 64) arrays,
    and ``uL``, ``uR`` and the source are called once per half.  A sampled
    source is read through its backend's barycentric basis
    (:class:`BarycentricBasis`), which is built once per array of points.
    """
    (uL, duL), (uR, duR) = left, right

    def solve(x, at_left, at_right):
        x = np.asarray(x, dtype=float)
        t = x.reshape(-1, 1)
        xs2, ws2 = _gauss(t, end)
        upper = ws2 * uR(xs2)
        if radial:
            upper = upper * xs2
        above = at_left(t[:, 0]) * np.sum(upper * source(xs2), axis=-1)
        below = np.zeros(above.shape, dtype=complex)
        # the integral over (0, 0) is empty, and the disk's uR is singular at r = 0
        inside = t[:, 0] != 0
        if np.any(inside):
            ti = t[inside]
            xs1, ws1 = _gauss(0.0, ti)
            lower = ws1 * uL(xs1)
            if radial:
                lower = lower * xs1
            below[inside] = at_right(ti[:, 0]) * np.sum(lower * source(xs1), axis=-1)
        out = ((below + above) / scale).reshape(x.shape)
        return out if out.ndim else complex(out)

    val = lambda x: solve(x, uL, uR)
    dval = lambda x: solve(x, duL, duR)
    return Profile(val, dval, lambda x: -w * val(x) - source(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# interval backend
# ---------------------------------------------------------------------------

class IntervalField:
    """Closed-form field on (0, 1), held as one profile in x."""

    __slots__ = ("backend", "profile")

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
        return np.array([self.profile.val(0.0), self.profile.val(1.0)], dtype=complex)

    def gamma_neumann(self) -> np.ndarray:
        # outward normals at the endpoints are -1 and +1
        return np.array([-self.profile.dval(0.0), self.profile.dval(1.0)], dtype=complex)

    def helmholtz_apply(self, z):
        return IntervalField(self.backend, self.profile.helmholtz_apply(as_complex(z)))

    def __add__(self, other):
        if other.backend is not self.backend:
            raise DomainError("cannot combine fields from different backends")
        return IntervalField(self.backend, self.profile + other.profile)

    def __rmul__(self, c):
        return IntervalField(self.backend, self.profile * as_complex(c))


class BarycentricBasis:
    """Barycentric Lagrange basis on one node set (Berrut & Trefethen,
    "Barycentric Lagrange Interpolation", SIAM Rev. 46, 2004).

    The weights are computed once.  :meth:`matrix` returns ``B(x)``, whose row
    for a point x is ``(w_k / (x - x_k)) / sum_k w_k / (x - x_k)``, or the unit
    row of node k where x equals x_k exactly; it is kept for the last
    ``STORE_SIZE`` arrays of points asked for, so the interpolants of many
    samples on the same nodes share one basis.  Capacity scaling keeps the
    weight products in floating range for the Gauss grids used here.
    """

    STORE_SIZE = 8

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        cap = 0.25 * (np.max(self.nodes) - np.min(self.nodes))
        self.weights = np.ones(len(self.nodes))
        for j in range(len(self.nodes)):
            self.weights[j] = 1.0 / np.prod((self.nodes[j] - np.delete(self.nodes, j)) / cap)
        self._order = np.argsort(self.nodes)
        self._sorted = self.nodes[self._order]
        self._store = {}  # (shape, bytes) of the points -> B, oldest first

    def matrix(self, x) -> np.ndarray:
        """``B(x)`` of shape ``x.shape + (n,)``, read-only."""
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        B = self._store.pop(key, None)
        if B is None:
            n = len(self.nodes)
            B = np.subtract.outer(x, self.nodes)
            rows = B.reshape(-1, n)
            flat = x.reshape(-1)
            pos = np.minimum(np.searchsorted(self._sorted, flat), n - 1)
            hit = self._sorted[pos] == flat
            rows[hit] = 1.0
            np.divide(self.weights, rows, out=rows)
            rows /= rows.sum(axis=-1, keepdims=True)
            rows[hit] = 0.0
            rows[hit, self._order[pos[hit]]] = 1.0
            B.flags.writeable = False
            if len(self._store) >= self.STORE_SIZE:
                del self._store[next(iter(self._store))]
        self._store[key] = B
        return B

    def interpolant(self, values):
        """Polynomial through ``(nodes, values)``: ``x -> B(x) @ values``."""
        values = np.asarray(values, dtype=complex)
        if values.shape != self.nodes.shape:
            raise DomainError("sampled data must match the backend quadrature nodes")
        # one real product with the (n, 2) real/imaginary view, so B is never cast to complex
        pairs = np.ascontiguousarray(values).view(float).reshape(-1, 2)
        n = len(self.nodes)

        def interp(x):
            B = self.matrix(x)
            out = (B.reshape(-1, n) @ pairs).view(complex).reshape(B.shape[:-1])
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
        return -np.linalg.inv(interval_dtn(z))

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
        """Solution of (-u'' - w u) = 0 with Dirichlet data g = (u(0), u(1))."""
        w = as_complex(w)
        g0, g1 = (as_complex(v) for v in np.asarray(g).ravel())
        if w == 0:
            return self.field(
                lambda x: g0 * (1 - x) + g1 * x,
                lambda x: (g1 - g0) * np.ones_like(x),
                lambda x: np.zeros_like(x, dtype=complex),
            )
        k = sqrt_upper(w)
        s = np.sin(k)
        if abs(s) < 1e-13 * max(1.0, abs(k)):
            raise NearEigenvalue(f"w = {w} is a Dirichlet eigenvalue; extension undefined")
        fn = lambda x: (g0 * np.sin(k * (1 - x)) + g1 * np.sin(k * x)) / s
        dfn = lambda x: (-g0 * k * np.cos(k * (1 - x)) + g1 * k * np.cos(k * x)) / s
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
    def inner(self, u, v) -> complex:
        uu = u.value(self.quad_nodes) if hasattr(u, "value") else u(self.quad_nodes)
        vv = v.value(self.quad_nodes) if hasattr(v, "value") else v(self.quad_nodes)
        return complex(np.sum(self.quad_weights * np.conj(uu) * vv))

    def boundary_inner(self, f, g) -> complex:
        return complex(np.sum(self.boundary_weights * np.conj(f) * g))

    def norm(self, u) -> float:
        return float(np.sqrt(abs(self.inner(u, u))))


# ---------------------------------------------------------------------------
# disk backend
# ---------------------------------------------------------------------------

class DiskField:
    """Fourier-mode field on a disk: u = sum_k profile_k(r) e^(i k theta)."""

    __slots__ = ("backend", "profiles")

    def __init__(self, backend, profiles: dict):
        self.backend = backend
        self.profiles = dict(profiles)

    def value(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        for k, p in self.profiles.items():
            out = out + p.val(r) * np.exp(1j * k * theta)
        return out

    def laplacian(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        for k, p in self.profiles.items():
            out = out + p.lap(r) * np.exp(1j * k * theta)
        return out

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

    def gamma_dirichlet(self) -> np.ndarray:
        b = self.backend
        out = np.zeros(b.nboundary, dtype=complex)
        for k, p in self.profiles.items():
            out[b.mode_index(k)] = p.val(b.radius)
        return out

    def gamma_neumann(self) -> np.ndarray:
        b = self.backend
        out = np.zeros(b.nboundary, dtype=complex)
        for k, p in self.profiles.items():
            out[b.mode_index(k)] = p.dval(b.radius)
        return out

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

    def __init__(self, radius: float = 1.0, mode_cutoff: int = 8, radial_nodes: int = 64):
        if not radius > 0:
            raise DomainError("disk radius must be positive")
        if mode_cutoff < 0:
            raise DomainError("disk mode cutoff must be nonnegative")
        self.radius = float(radius)
        self.mode_cutoff = int(mode_cutoff)
        self.modes = list(range(-self.mode_cutoff, self.mode_cutoff + 1))
        self.nboundary = len(self.modes)
        # L2(boundary) inner product of trigonometric coefficients
        self.boundary_weights = np.full(self.nboundary, 2.0 * np.pi * self.radius)
        nodes, weights = np.polynomial.legendre.leggauss(radial_nodes)
        self.quad_nodes = 0.5 * self.radius * (nodes + 1.0)
        self.quad_weights = 0.5 * self.radius * weights
        self.basis = BarycentricBasis(self.quad_nodes)
        self._reference = {}  # reference -> (top, eigenvalues below top)
        if abs(disk_mode_dtn(3, 0.0, self.radius) + 3.0 / self.radius) > 1e-14:
            raise AssertionError("disk DtN self-test failed")

    def mode_index(self, k: int) -> int:
        return k + self.mode_cutoff

    # -- boundary operators ---------------------------------------------------
    def dtn(self, z) -> np.ndarray:
        return np.diag(disk_mode_dtn(self.modes, z, self.radius))

    def ntd(self, z) -> np.ndarray:
        return -np.linalg.inv(self.dtn(z))

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
        val = lambda r: bessel_j(ak, kap * np.asarray(r, dtype=float)) / jR
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
        out = []
        for k in self.modes:
            out.append(DiskField(self, {k: self.harmonic_profile(k, w)}))
        return out

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
        uL = lambda r: bessel_j(ak, kap * np.asarray(r, dtype=float))
        duL = lambda r: kap * bessel_j_prime(ak, kap * np.asarray(r, dtype=float))
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
        uR = lambda r: uL(r) * a - bessel_y(ak, kap * np.asarray(r, dtype=float)) * b
        duR = lambda r: kap * (
            bessel_j_prime(ak, kap * np.asarray(r, dtype=float)) * a
            - bessel_y_prime(ak, kap * np.asarray(r, dtype=float)) * b
        )
        source = fk if callable(fk) else self.basis.interpolant(fk)
        return _green_profile((uL, duL), (uR, duR), scale, w, source, R, radial=True)

    def _resolvent(self, w, f, reference: str) -> DiskField:
        if isinstance(f, DiskField):
            data = {k: p.val for k, p in f.profiles.items()}
        elif isinstance(f, dict):
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
        field = None
        R = self.radius
        for k in self.modes:
            c = b[self.mode_index(k)]
            if c == 0:
                continue
            ak = abs(k)
            # r^ak (r^2 - R^2) e^(ik theta): smooth, vanishing Dirichlet trace
            scale = c / (2.0 * R ** (ak + 1))
            mode_field = self.mode_poly_field(k, {ak + 2: scale, ak: -scale * R**2})
            field = mode_field if field is None else field + mode_field
        if field is None:
            field = DiskField(self, {})
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
        if not isinstance(u, DiskField) or not isinstance(v, DiskField):
            raise DomainError("disk inner product needs DiskField arguments")
        total = 0.0 + 0j
        for k, pu in u.profiles.items():
            pv = v.profiles.get(k)
            if pv is None:
                continue
            total += 2.0 * np.pi * np.sum(
                self.quad_weights
                * np.conj(pu.val(self.quad_nodes))
                * pv.val(self.quad_nodes)
                * self.quad_nodes
            )
        return complex(total)

    def boundary_inner(self, f, g) -> complex:
        return complex(np.sum(self.boundary_weights * np.conj(f) * g))

    def norm(self, u) -> float:
        return float(np.sqrt(abs(self.inner(u, u))))
