"""Parametrized closed boundary curves and their quadrature grids.

The curve catalog is restricted to analytic curves so that the spectral
(trapezoid + log-splitting) quadrature of :mod:`kreinlab.layerpot` converges
superalgebraically.  Each is one table ``(a, b)`` of Fourier coefficients,
``x(t) = sum a_m cos(m t)``, ``y(t) = sum b_m sin(m t)``: symmetric about the x-axis,
with the point and its derivatives evaluated by one rule, :meth:`CurveSpec.derivative`.
Every curve runs counterclockwise over ``[0, 2 pi)``; the outward unit normal is
``(y', -x') / |x'|``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BadNodeCount, DomainError

MIN_NODES = 16

#: largest node count: a curve request peaks at about 2.7 n^2 complex numbers, 0.7 GiB here
MAX_NODES = 4096

#: largest y-component of a point (relative to the curve's size) or unit normal at
#: nodes 0 and n/2 that counts as zero; sin at 2 pi m / n rounds in proportion to m
AXIS_TOLERANCE = 1e-12

#: shape parameters of the bean-shaped test curve
KITE_BEND = 0.65
KITE_HEIGHT = 1.5

#: the parameter names each curve kind takes
CURVE_PARAMS = {"circle": ("radius",), "ellipse": ("a", "b"), "kite": (),
                "star": ("amplitude", "wavenumber")}


@dataclass(frozen=True)
class CurveSpec:
    """Analytic closed curve selected by ``kind`` and positive parameters.

    Kinds: ``circle(radius)``, ``ellipse(a, b)``, ``kite`` (fixed shape),
    ``star(amplitude, wavenumber)`` with radius ``1 + amplitude cos(w t)``.  Each is
    a Fourier :attr:`table`.  The domains they enclose are smooth, hence quasi-convex.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kind, p = self.kind, self.params
        real = (int, float, np.integer, np.floating)
        try:  # float() of an int beyond the float range overflows
            finite = isinstance(p, dict) and all(isinstance(v, real) and not isinstance(v, bool)
                                                 and np.isfinite(float(v)) for v in p.values())
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"curve parameters must map names to finite real numbers, got {p!r}")
        if not (isinstance(kind, str) and kind in CURVE_PARAMS):
            raise DomainError(f"unknown curve kind {kind!r}")
        unknown = [name for name in p if name not in CURVE_PARAMS[kind]]
        if unknown:
            raise DomainError(f"a {kind} takes the parameters {list(CURVE_PARAMS[kind])}, "
                              f"not {unknown}")
        if not all(p.get(name, 0) > 0 for name in CURVE_PARAMS[kind]):
            raise DomainError(f"a {kind} needs positive {' and '.join(CURVE_PARAMS[kind])}")
        if kind == "star" and (p["amplitude"] >= 1 or p["wavenumber"] != int(p["wavenumber"])):
            raise DomainError("a star needs an amplitude below 1 and an integer wavenumber")

    @staticmethod
    def circle(radius: float) -> "CurveSpec":
        return CurveSpec("circle", {"radius": float(radius)})

    @staticmethod
    def ellipse(a: float, b: float) -> "CurveSpec":
        return CurveSpec("ellipse", {"a": float(a), "b": float(b)})

    @staticmethod
    def kite() -> "CurveSpec":
        return CurveSpec("kite", {})

    @staticmethod
    def star(amplitude: float, wavenumber: int) -> "CurveSpec":
        return CurveSpec("star", {"amplitude": float(amplitude), "wavenumber": int(wavenumber)})

    @staticmethod
    def from_json(text: str) -> "CurveSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DomainError("a curve spec is a JSON object")
        return CurveSpec(data["kind"], data.get("params", {}))

    # -- parametrization ---------------------------------------------------
    @property
    def table(self) -> tuple[dict, dict]:
        """The Fourier coefficients ``(a, b)`` of the curve, mode to coefficient."""
        return _TABLES[self.kind](**{k: float(v) for k, v in self.params.items()})

    def derivative(self, t, order: int = 0):
        """d^order/dt^order of the point at parameters ``t``, shape ``t.shape + (2,)``:
        each term of the table differentiated by :data:`_CYCLE`."""
        t = np.asarray(t, dtype=float)
        return np.stack([_series(coeffs, t, order, phase)
                         for coeffs, phase in zip(self.table, (0, 3))], axis=-1)


def _star_table(amplitude, wavenumber):
    # (1 + A cos(w t)) (cos t, sin t), with cos(w t) cos t = (cos (w-1)t + cos (w+1)t) / 2
    # and cos(w t) sin t = (sin (w+1)t - sin (w-1)t) / 2; sin(0 t) = 0 drops out
    w, half = int(wavenumber), amplitude / 2
    a, b = {1: 1.0}, {1: 1.0}
    for m, sign in ((w - 1, -1.0), (w + 1, 1.0)):
        a[m], b[m] = a.get(m, 0.0) + half, b.get(m, 0.0) + sign * half
    b.pop(0, None)
    return a, b


_TABLES = {
    "circle": lambda radius: ({1: radius}, {1: radius}),
    "ellipse": lambda a, b: ({1: a}, {1: b}),
    "kite": lambda: ({0: -KITE_BEND, 1: 1.0, 2: KITE_BEND}, {1: KITE_HEIGHT}),
    "star": _star_table,
}

#: (sign, function) of the k-th derivative of cos(m t), over m^k, at k = 0, 1, 2, 3
_CYCLE = ((1.0, np.cos), (-1.0, np.sin), (-1.0, np.cos), (1.0, np.sin))


def _series(coeffs: dict, t: np.ndarray, order: int, phase: int) -> np.ndarray:
    """The ``order``-th derivative of ``sum_m coeffs[m] f(m t)``, f = cos at ``phase`` 0
    and sin at 3: the m >= 1 terms in ascending m, the constant added last."""
    sign, f = _CYCLE[(order + phase) % 4]
    # the factor is a float64: m^2 of a huge wavenumber overflows to inf, not an error
    terms = [sign * np.float64(m) ** order * coeffs[m] * f(m * t) for m in sorted(coeffs) if m]
    total = functools.reduce(np.add, terms)
    return total + coeffs[0] if order == 0 and 0 in coeffs else total


@dataclass(frozen=True)
class BoundaryGrid:
    """Equispaced-in-parameter quadrature grid on a closed curve.

    Every node has the plain trapezoid weight ``2 pi / N`` in parameter; the
    surface measure carried by quadrature sums is ``(2 pi / N) * speed``.
    """

    spec: CurveSpec
    t: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    speed: np.ndarray
    curvature: np.ndarray

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def weighted_measure(self) -> np.ndarray:
        """Quadrature weights against the arc-length measure."""
        return 2.0 * np.pi / self.n * self.speed

    @property
    def spacing(self) -> float:
        """Largest arc-length distance between adjacent nodes."""
        return float(np.max(self.speed) * 2.0 * np.pi / self.n)


def check_node_count(n) -> int:
    """``n`` as an int; raises :class:`BadNodeCount` unless it is even and in
    [``MIN_NODES``, ``MAX_NODES``]."""
    if n != int(n) or not MIN_NODES <= n <= MAX_NODES or n % 2 != 0:
        raise BadNodeCount(f"node count must be an even integer in [{MIN_NODES}, "
                           f"MAX_NODES = {MAX_NODES}], got {n}")
    return int(n)


def make_grid(spec: CurveSpec, n: int) -> BoundaryGrid:
    """Build an ``n``-node grid; ``n`` must be even and at least 16.

    Node j has the parameter ``t_j = 2 pi j / n``, and the curve is evaluated at
    the signed parameter ``s_j = 2 pi m_j / n``, with ``m_j = j`` for ``j <= n/2``
    and ``j - n`` above: the same point of the 2 pi-periodic curve up to rounding.
    ``s_(n-j) = -s_j`` exactly, and cos is even and sin odd bit for bit, so on a
    Fourier table node n - j is the exact mirror image of node j in the x-axis.
    Nodes 0 and n/2 are their own images: the y-components of their points and
    normals, zero up to rounding (sin(m pi) rounds), are set to zero.  Every matrix
    of :mod:`kreinlab.layerpot` rests on that mirror, so a grid that is not an exact
    mirror image of itself raises :class:`DomainError`, and so does a table with a mode
    of n/2 or above, which n nodes alias.  Doubling ``n`` refines the grid without
    moving existing nodes.
    """
    n = check_node_count(n)
    j = np.arange(n)
    t = 2.0 * np.pi * j / n
    s = 2.0 * np.pi * np.where(j <= n // 2, j, j - n) / n
    pts, vel, acc = (spec.derivative(s, order) for order in range(3))
    speed = np.sqrt(np.sum(vel**2, axis=1))
    normals = np.stack([vel[:, 1], -vel[:, 0]], axis=1) / speed[:, None]
    curvature = (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed**3
    _put_on_axis(spec, pts, normals, n)
    mirror = -j % n
    flip = np.array([1.0, -1.0])
    if not (np.array_equal(pts[mirror], pts * flip) and np.array_equal(normals[mirror], normals * flip)
            and np.array_equal(speed[mirror], speed)
            and np.array_equal(curvature[mirror], curvature)):
        raise DomainError(f"the {n}-node grid on the {spec.kind} is not its own mirror image "
                          "in the x-axis (node n - j must mirror node j bit for bit)")
    top = max(max(coeffs) for coeffs in spec.table)
    if top >= n // 2:
        raise DomainError(f"the {spec.kind} has Fourier mode {top}, which {n} nodes alias: a "
                          f"grid resolves modes below n/2 = {n // 2}")
    return BoundaryGrid(spec=spec, t=t, points=pts, normals=normals, speed=speed,
                        curvature=curvature)


def _put_on_axis(spec: CurveSpec, pts: np.ndarray, normals: np.ndarray, n: int):
    """Set the y-components of the points and normals of nodes 0 and n/2 to zero, their
    value on a curve symmetric about the x-axis; raise :class:`DomainError` where a
    computed one is not zero up to rounding."""
    ends = [0, n // 2]
    scale = max(1.0, float(np.max(np.abs(pts))))
    if (np.any(np.abs(pts[ends, 1]) > AXIS_TOLERANCE * scale)
            or np.any(np.abs(normals[ends, 1]) > AXIS_TOLERANCE)):
        raise DomainError(f"nodes 0 and {n // 2} of the {spec.kind} grid are not on the x-axis: "
                          f"points {pts[ends].tolist()}, normals {normals[ends].tolist()}")
    pts[ends, 1] = 0.0
    normals[ends, 1] = 0.0
