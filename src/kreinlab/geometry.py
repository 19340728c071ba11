"""Parametrized closed boundary curves and their quadrature grids.

The curve catalog is restricted to analytic curves so that the spectral
(trapezoid + log-splitting) quadrature of :mod:`kreinlab.layerpot` converges
superalgebraically.  Every curve is parametrized counterclockwise over
``[0, 2 pi)``; the outward unit normal is ``(y', -x') / |x'|``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BadNodeCount, DomainError

MIN_NODES = 16

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
    ``star(amplitude, wavenumber)`` with radius ``1 + amplitude cos(w t)``.
    The domains enclosed by catalog curves are smooth, hence quasi-convex.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kind, p = self.kind, self.params
        real = (int, float, np.integer, np.floating)
        if not (isinstance(p, dict) and all(isinstance(v, real) and not isinstance(v, bool)
                                            and np.isfinite(v) for v in p.values())):
            raise DomainError(f"curve parameters must map names to finite real numbers, got {p!r}")
        if not (isinstance(kind, str) and kind in CURVE_PARAMS):
            raise DomainError(f"unknown curve kind {kind!r}")
        unknown = [name for name in p if name not in CURVE_PARAMS[kind]]
        if unknown:
            raise DomainError(f"a {kind} takes the parameters {list(CURVE_PARAMS[kind])}, "
                              f"not {unknown}")
        if kind == "circle":
            if p.get("radius", 0.0) <= 0:
                raise DomainError("circle radius must be positive")
        elif kind == "ellipse":
            if p.get("a", 0.0) <= 0 or p.get("b", 0.0) <= 0:
                raise DomainError("ellipse semi-axes must be positive")
        elif kind == "star":
            amp = p.get("amplitude", 0.0)
            if not 0 < amp < 1:
                raise DomainError("star amplitude must lie in (0, 1)")
            if p.get("wavenumber", 0) < 1 or p["wavenumber"] != int(p["wavenumber"]):
                raise DomainError("star wavenumber must be a positive integer")

    # -- constructors ------------------------------------------------------
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

    # -- serialization -----------------------------------------------------
    @staticmethod
    def from_json(text: str) -> "CurveSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DomainError("a curve spec is a JSON object")
        return CurveSpec(data["kind"], data.get("params", {}))

    # -- parametrization ---------------------------------------------------
    def point(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            r = self.params["radius"]
            return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params["a"], self.params["b"]
            return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
        if self.kind == "kite":
            return np.stack(
                [np.cos(t) + KITE_BEND * np.cos(2 * t) - KITE_BEND, KITE_HEIGHT * np.sin(t)],
                axis=-1,
            )
        amp, w = self.params["amplitude"], self.params["wavenumber"]
        rho = 1.0 + amp * np.cos(w * t)
        return np.stack([rho * np.cos(t), rho * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            r = self.params["radius"]
            return np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params["a"], self.params["b"]
            return np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)
        if self.kind == "kite":
            return np.stack(
                [-np.sin(t) - 2 * KITE_BEND * np.sin(2 * t), KITE_HEIGHT * np.cos(t)], axis=-1
            )
        amp, w = self.params["amplitude"], self.params["wavenumber"]
        rho = 1.0 + amp * np.cos(w * t)
        drho = -amp * w * np.sin(w * t)
        return np.stack(
            [drho * np.cos(t) - rho * np.sin(t), drho * np.sin(t) + rho * np.cos(t)], axis=-1
        )

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            r = self.params["radius"]
            return np.stack([-r * np.cos(t), -r * np.sin(t)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params["a"], self.params["b"]
            return np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1)
        if self.kind == "kite":
            return np.stack(
                [-np.cos(t) - 4 * KITE_BEND * np.cos(2 * t), -KITE_HEIGHT * np.sin(t)], axis=-1
            )
        amp, w = self.params["amplitude"], self.params["wavenumber"]
        rho = 1.0 + amp * np.cos(w * t)
        drho = -amp * w * np.sin(w * t)
        d2rho = -amp * w * w * np.cos(w * t)
        cx = (d2rho - rho) * np.cos(t) - 2 * drho * np.sin(t)
        cy = (d2rho - rho) * np.sin(t) + 2 * drho * np.cos(t)
        return np.stack([cx, cy], axis=-1)


@dataclass(frozen=True)
class BoundaryGrid:
    """Equispaced-in-parameter quadrature grid on a closed curve.

    ``weights`` are the plain trapezoid weights ``2 pi / N`` in parameter;
    the surface measure carried by quadrature sums is ``weights * speed``.
    """

    spec: CurveSpec
    t: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    speed: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def weighted_measure(self) -> np.ndarray:
        """Quadrature weights against the arc-length measure."""
        return self.weights * self.speed

    @property
    def spacing(self) -> float:
        """Largest arc-length distance between adjacent nodes."""
        return float(np.max(self.speed) * 2.0 * np.pi / self.n)


def check_node_count(n) -> int:
    """``n`` as an int; raises :class:`BadNodeCount` unless it is even and at least 16."""
    if n != int(n) or n < MIN_NODES or n % 2 != 0:
        raise BadNodeCount(f"node count must be an even integer >= {MIN_NODES}, got {n}")
    return int(n)


def make_grid(spec: CurveSpec, n: int) -> BoundaryGrid:
    """Build an ``n``-node grid; ``n`` must be even and at least 16.

    Node j has the parameter ``t_j = 2 pi j / n``, and the curve is evaluated at
    the signed parameter ``s_j = 2 pi m_j / n``, with ``m_j = j`` for ``j <= n/2``
    and ``j - n`` above: the same point of the 2 pi-periodic curve up to rounding.
    ``s_(n-j) = -s_j`` exactly, and cos is even and sin odd bit for bit, so on a
    curve symmetric about the x-axis node n - j is the exact mirror image of node
    j.  Nodes 0 and n/2 are their own images: the y-components of their points and
    normals, zero up to rounding, are set to zero.  Every matrix of
    :mod:`kreinlab.layerpot` rests on that mirror, so a grid that is not an exact
    mirror image of itself raises :class:`DomainError`.  Normals, speeds and
    curvatures are analytic, so doubling ``n`` refines the grid without moving
    existing nodes.
    """
    n = check_node_count(n)
    j = np.arange(n)
    t = 2.0 * np.pi * j / n
    s = 2.0 * np.pi * np.where(j <= n // 2, j, j - n) / n
    pts = spec.point(s)
    vel = spec.velocity(s)
    acc = spec.acceleration(s)
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
    weights = np.full(n, 2.0 * np.pi / n)
    return BoundaryGrid(
        spec=spec,
        t=t,
        points=pts,
        normals=normals,
        speed=speed,
        curvature=curvature,
        weights=weights,
    )


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
