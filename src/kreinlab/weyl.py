"""Boundary value solvers and spectral Dirichlet-to-Neumann maps (Nystrom lane).

The Dirichlet-to-Neumann map follows the convention  f -> -gamma_N(u)  for
the solution u of (-Laplace - z)u = 0 with gamma_D u = f; assembled purely
from single-layer calculus as

    dtn(z) = -(1/2 I + K#_z) V_z^{-1},
    ntd(z) = -dtn(z)^{-1}.

Near the Dirichlet spectrum (or on curves of logarithmic capacity one at
z = 0) the single-layer trace degenerates; operations then fail loudly with
a conditioning diagnostic instead of continuing silently.  The diagnostic is
the exact 1-norm condition number ``||A||_1 ||A^{-1}||_1``; an exactly
singular matrix has condition ``inf``.  Every gated system is factored once,
by :func:`gated_inverse`, and the answer is formed with the inverse that
passed the gate.  The first time ``V_z`` or the Neumann trace ``1/2 I + K#_z``
is needed, both are assembled from one pairwise geometry, so a request
evaluates all its kernels before its first factorization.  Only the
condition of ``V_z`` is cached per ``z``, never its inverse, and a backend
keeps the matrices of its ``CACHED_PARAMETERS`` most recently stored ``z``
only.
"""

from __future__ import annotations

import numpy as np

from .errors import NearSingular, QuadratureUnavailable
from .geometry import BoundaryGrid
from .layerpot import (
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


def gated_inverse(A: np.ndarray, error: type, what: str) -> np.ndarray:
    """``A^{-1}`` if the 1-norm condition of ``A`` is at most ``COND_LIMIT``; else raise
    ``error``, a :class:`KreinlabError` subclass, naming ``what`` and the condition."""
    inv, cond = inverse_and_condition(A)
    if not cond <= COND_LIMIT:
        raise error(f"{what} has condition {cond:.3e}")
    return inv


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

    def gamma_dirichlet(self) -> np.ndarray:
        return self.backend.single_layer(self.z) @ self.density

    def gamma_neumann(self) -> np.ndarray:
        return self.backend.neumann_trace(self.z) @ self.density

    def helmholtz_apply(self, z) -> "LayerField":
        """(-Laplace - z) u = (self.z - z) u: the same layer with its density scaled."""
        return LayerField(self.backend, self.z, (self.z - as_complex(z)) * self.density)


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

    def _layers(self, z: complex):
        """``(V_z, T_z)``.  The first time either is needed both are assembled from one
        pairwise geometry, so a request does all its kernel work before its first
        factorization; K#_z is not kept once T_z is formed."""
        if ("V", z) not in self._cache:
            V, K = assemble_single_layer_trace(self.grid, z, with_adjoint=True)
            self._store(("V", z), V)
            self._store(("T", z), neumann_trace_of_single_layer(self.grid, z, K))
        return self._cache[("V", z)], self._cache[("T", z)]

    def single_layer(self, z) -> np.ndarray:
        return self._layers(as_complex(z))[0]

    def neumann_trace(self, z) -> np.ndarray:
        return self._layers(as_complex(z))[1]

    def _single_layer_inverse(self, z: complex) -> np.ndarray:
        V = self.single_layer(z)
        inv = gated_inverse(V, NearSingular, f"single-layer trace at z = {z} (near the "
                            "Dirichlet spectrum or a capacity degeneracy)")
        self._store(("cond V", z), float(np.linalg.norm(V, 1) * np.linalg.norm(inv, 1)))
        return inv

    def single_layer_condition(self, z) -> float:
        """Exact 1-norm condition number of ``V_z``, cached per ``z``."""
        z = as_complex(z)
        key = ("cond V", z)
        if key not in self._cache:
            self._store(key, inverse_and_condition(self.single_layer(z))[1])
        return self._cache[key]

    def single_layer_solve(self, z, rhs) -> np.ndarray:
        return self._single_layer_inverse(as_complex(z)) @ rhs

    def dtn(self, z) -> np.ndarray:
        z = as_complex(z)
        key = ("dtn", z)
        if key not in self._cache:
            T = self.neumann_trace(z)
            inv = self._single_layer_inverse(z)
            # every product T_ik (-inv_kj) equals (-T_ik) inv_kj, signed zeros too, so this
            # is -T @ inv bit for bit, with no copy of T
            self._store(key, T @ np.negative(inv, out=inv))
        return self._cache[key]

    def ntd(self, z) -> np.ndarray:
        z = as_complex(z)
        return -gated_inverse(self.dtn(z), NearSingular, f"Dirichlet-to-Neumann map at z = {z} "
                              "(z is near the Neumann spectrum)")

    def harmonic_extension(self, w, g) -> LayerField:
        return LayerField(self, w, self.single_layer_solve(w, np.asarray(g, dtype=complex)))

    def inner(self, u, v):
        raise QuadratureUnavailable("layer-density backend has no interior quadrature; "
                                    "pass interior_quad")


def solve_dirichlet(backend: BemBackend, z, f) -> LayerField:
    """Field u with (-Laplace - z)u = 0 and gamma_D u = f; u = S_z V_z^{-1} f."""
    return backend.harmonic_extension(as_complex(z), np.asarray(f, dtype=complex))


def solve_neumann(backend: BemBackend, z, g) -> LayerField:
    """Field u with (-Laplace - z)u = 0 and gamma_N u = g."""
    z = as_complex(z)
    inv = gated_inverse(backend.neumann_trace(z), NearSingular, f"interior Neumann trace at "
                        f"z = {z} (z is numerically a Neumann eigenvalue)")
    return LayerField(backend, z, inv @ np.asarray(g, dtype=complex))


def dtn(backend: BemBackend, z) -> np.ndarray:
    """Dirichlet-to-Neumann matrix on the grid (convention f -> -gamma_N u)."""
    return backend.dtn(z)


def ntd(backend: BemBackend, z) -> np.ndarray:
    """Neumann-to-Dirichlet matrix, the negative inverse of dtn."""
    return backend.ntd(z)
