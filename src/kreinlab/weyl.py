"""Boundary value solvers and spectral Dirichlet-to-Neumann maps (Nystrom lane).

The Dirichlet-to-Neumann map follows the convention  f -> -gamma_N(u)  for
the solution u of (-Laplace - z)u = 0 with gamma_D u = f; assembled purely
from single-layer calculus as

    dtn(z) = -(1/2 I + K#_z) V_z^{-1},
    ntd(z) = -dtn(z)^{-1}.

Near the Dirichlet spectrum (or on curves of logarithmic capacity one at
z = 0) the single-layer trace degenerates; operations then fail loudly with
a conditioning diagnostic instead of continuing silently.  The diagnostic is
the exact 1-norm condition number ``||A||_1 ||A^{-1}||_1``, taken from the
inverse that ``dtn`` and ``ntd`` form anyway; an exactly singular matrix has
condition ``inf``.  Only the condition of ``V_z`` is cached per ``z``, never
its inverse, and a backend keeps the matrices of its ``CACHED_PARAMETERS``
most recently stored ``z`` only.
"""

from __future__ import annotations

import numpy as np

from .errors import BackendUnsupported, NearSingular, QuadratureUnavailable
from .geometry import BoundaryGrid
from .layerpot import (
    BoundaryOperator,
    assemble_single_layer_trace,
    evaluate_potential,
    evaluate_potential_gradient,
    neumann_trace_of_single_layer,
)
from .specfun import as_complex

COND_LIMIT = 1e12

#: distinct spectral parameters whose matrices a :class:`BemBackend` keeps
CACHED_PARAMETERS = 8


def inverse_and_condition(A: np.ndarray):
    """``(A^{-1}, ||A||_1 ||A^{-1}||_1)``; ``(None, inf)`` for an exactly singular A."""
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None, np.inf
    return inv, float(np.linalg.norm(A, 1) * np.linalg.norm(inv, 1))


def check_condition(cond: float, what: str, hint: str):
    """Raise :class:`NearSingular` unless ``cond`` is at most ``COND_LIMIT``."""
    if not cond <= COND_LIMIT:
        raise NearSingular(f"{what} has condition {cond:.3e}; {hint}")


class LayerField:
    """Interior solution represented by a single-layer density."""

    __slots__ = ("backend", "z", "density")

    def __init__(self, backend: "BemBackend", z: complex, density: np.ndarray):
        self.backend = backend
        self.z = as_complex(z)
        self.density = np.asarray(density, dtype=complex)

    def value(self, points):
        return evaluate_potential(self.backend.grid, self.density, self.z, points)

    def gradient(self, points):
        return evaluate_potential_gradient(self.backend.grid, self.density, self.z, points)

    def laplacian(self, points):
        return -self.z * self.value(points)

    def gamma_dirichlet(self) -> np.ndarray:
        return self.backend.single_layer(self.z) @ self.density

    def gamma_neumann(self) -> np.ndarray:
        return self.backend.neumann_trace(self.z) @ self.density

    def helmholtz_apply(self, z):
        z = as_complex(z)
        if z == self.z:
            return _ZeroLayerField(self.backend)
        return _ScaledLayerField(self, self.z - z)

    def __add__(self, other):
        if isinstance(other, LayerField) and other.z == self.z:
            return LayerField(self.backend, self.z, self.density + other.density)
        raise BackendUnsupported("layer fields combine only at equal spectral parameters")

    def __rmul__(self, c):
        return LayerField(self.backend, self.z, as_complex(c) * self.density)


class _ZeroLayerField:
    __slots__ = ("backend",)

    def __init__(self, backend):
        self.backend = backend

    def value(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts), dtype=complex)
        return out if np.asarray(points).ndim > 1 else complex(out[0])

    def gamma_dirichlet(self):
        return np.zeros(self.backend.grid.n, dtype=complex)

    gamma_neumann = gamma_dirichlet


class _ScaledLayerField:
    __slots__ = ("base", "factor")

    def __init__(self, base: LayerField, factor: complex):
        self.base = base
        self.factor = factor

    @property
    def backend(self):
        return self.base.backend

    def value(self, points):
        return self.factor * self.base.value(points)

    def gamma_dirichlet(self):
        return self.factor * self.base.gamma_dirichlet()

    def gamma_neumann(self):
        return self.factor * self.base.gamma_neumann()


class BemBackend:
    """Boundary-operator backend over a Nystrom grid (no interior resolvents)."""

    def __init__(self, grid: BoundaryGrid):
        self.grid = grid
        self.name = f"bem-{grid.spec.kind}"
        self._cache: dict = {}  # (kind, z) -> matrix or condition
        self._parameters: dict = {}  # z -> None, least recently stored first

    def _store(self, key, value):
        """Cache ``value`` under ``key = (kind, z)``; storing a new ``z`` beyond
        ``CACHED_PARAMETERS`` evicts every entry of the least recently stored one."""
        z = key[1]
        if z in self._parameters:
            del self._parameters[z]
        elif len(self._parameters) >= CACHED_PARAMETERS:
            oldest = next(iter(self._parameters))
            del self._parameters[oldest]
            for stale in [k for k in self._cache if k[1] == oldest]:
                del self._cache[stale]
        self._parameters[z] = None
        self._cache[key] = value

    @property
    def nboundary(self) -> int:
        return self.grid.n

    @property
    def boundary_weights(self) -> np.ndarray:
        return self.grid.weighted_measure

    @property
    def token(self) -> str:
        return self.grid.token

    def single_layer(self, z) -> np.ndarray:
        z = as_complex(z)
        key = ("V", z)
        if key not in self._cache:
            self._store(key, assemble_single_layer_trace(self.grid, z).matrix)
        return self._cache[key]

    def neumann_trace(self, z) -> np.ndarray:
        z = as_complex(z)
        key = ("T", z)
        if key not in self._cache:
            self._store(key, neumann_trace_of_single_layer(self.grid, z).matrix)
        return self._cache[key]

    def _single_layer_inverse(self, z: complex):
        inv, cond = inverse_and_condition(self.single_layer(z))
        self._store(("cond V", z), cond)
        return inv

    def single_layer_condition(self, z) -> float:
        """Exact 1-norm condition number of ``V_z``, cached per ``z``."""
        z = as_complex(z)
        key = ("cond V", z)
        if key not in self._cache:
            self._single_layer_inverse(z)
        return self._cache[key]

    def _check_single_layer(self, z: complex):
        check_condition(self.single_layer_condition(z), f"single-layer trace at z = {z}",
                        "near the Dirichlet spectrum or a capacity degeneracy")

    def single_layer_solve(self, z, rhs) -> np.ndarray:
        z = as_complex(z)
        self._check_single_layer(z)
        return np.linalg.solve(self.single_layer(z), rhs)

    def dtn(self, z) -> np.ndarray:
        z = as_complex(z)
        key = ("dtn", z)
        if key not in self._cache:
            T = self.neumann_trace(z)
            inv = self._single_layer_inverse(z)
            self._check_single_layer(z)
            self._store(key, -T @ inv)
        return self._cache[key]

    def ntd(self, z) -> np.ndarray:
        z = as_complex(z)
        inv, cond = inverse_and_condition(self.dtn(z))
        check_condition(cond, f"Dirichlet-to-Neumann map at z = {z}",
                        "z is near the Neumann spectrum")
        return -inv

    def harmonic_extension(self, w, g) -> LayerField:
        return LayerField(self, w, self.single_layer_solve(w, np.asarray(g, dtype=complex)))

    def boundary_inner(self, f, g) -> complex:
        return complex(np.sum(self.boundary_weights * np.conj(f) * g))

    def inner(self, u, v):
        raise QuadratureUnavailable("layer-density backend has no interior quadrature")


def solve_dirichlet(grid, z, f) -> LayerField:
    """Field u with (-Laplace - z)u = 0 and gamma_D u = f; u = S_z V_z^{-1} f."""
    backend = grid if isinstance(grid, BemBackend) else BemBackend(grid)
    z = as_complex(z)
    return backend.harmonic_extension(z, np.asarray(f, dtype=complex))


def solve_neumann(grid, z, g) -> LayerField:
    """Field u with (-Laplace - z)u = 0 and gamma_N u = g."""
    backend = grid if isinstance(grid, BemBackend) else BemBackend(grid)
    z = as_complex(z)
    T = backend.neumann_trace(z)
    check_condition(inverse_and_condition(T)[1], f"interior Neumann trace at z = {z}",
                    "z is (numerically) a Neumann eigenvalue")
    return LayerField(backend, z, np.linalg.solve(T, np.asarray(g, dtype=complex)))


def dtn(grid, z) -> BoundaryOperator:
    """Dirichlet-to-Neumann matrix on the grid (convention f -> -gamma_N u)."""
    backend = grid if isinstance(grid, BemBackend) else BemBackend(grid)
    z = as_complex(z)
    return BoundaryOperator(backend.dtn(z), "DtN", z, backend.token)


def ntd(grid, z) -> BoundaryOperator:
    """Neumann-to-Dirichlet matrix, the negative inverse of dtn."""
    backend = grid if isinstance(grid, BemBackend) else BemBackend(grid)
    z = as_complex(z)
    return BoundaryOperator(backend.ntd(z), "NtD", z, backend.token)
