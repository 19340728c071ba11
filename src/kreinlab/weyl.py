"""Boundary value solvers and spectral Dirichlet-to-Neumann maps (Nystrom lane).

The Dirichlet-to-Neumann map follows the convention  f -> -gamma_N(u)  for
the solution u of (-Laplace - z)u = 0 with gamma_D u = f; assembled purely
from single-layer calculus as

    dtn(z) = -(1/2 I + K#_z) V_z^{-1},
    ntd(z) = -dtn(z)^{-1}.

Every catalog curve is symmetric about the x-axis, and node n - j of its grid
is the mirror image of node j, so ``V_z``, the Neumann trace ``T_z = 1/2 I +
K#_z`` and both maps commute with the reflection J: j -> -j mod n.  A backend
holds each of them as a :class:`Mirrored` matrix: an even block of size
n/2 + 1 and an odd block of size n/2 - 1, folded from the rows 0..n/2 that
:mod:`kreinlab.layerpot` assembles; the map too is cached as its blocks only.
Every product and inverse is taken block by block, and a full n x n matrix is
unfolded on each call that asks for one, written chunk by chunk into the array
returned.  1-norms are summed over bounded chunks of rows as well, so after the
assembly no n x n temporary is made.  At real z <= 0 the kernels are real, and every
matrix, block and map of the lane is float64, inverted by real LAPACK.

Near the Dirichlet spectrum (or on curves of logarithmic capacity one at
z = 0) the single-layer trace degenerates; operations then fail loudly with
a conditioning diagnostic instead of continuing silently.  The diagnostic is
the exact 1-norm condition number ``||A||_1 ||A^{-1}||_1`` of the full
matrix, formed from the blocks; an exactly singular matrix (or block), and
``dtn(0)``, which sends the constants to 0, have condition ``inf``.  Every
gated system is factored once per block, by :func:`gated_inverse`, and the
answer is formed with the inverse that passed the gate; ``ntd`` negates the
blocks of that inverse in place before it unfolds them.  The first time
``V_z`` or ``T_z`` is needed, both are assembled from one pairwise geometry,
so a request evaluates all its kernels before its first factorization.  Only
the conditions of ``V_z`` and of the map are cached per ``z``, never an
inverse, and a backend keeps the matrices of its ``CACHED_PARAMETERS`` most
recently stored ``z`` only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NearSingular, QuadratureUnavailable
from .geometry import BoundaryGrid
from .layerpot import (
    JUMP_SIGN,
    assemble_single_layer_trace,
    evaluate_potential,
    evaluate_potential_gradient,
    complete_mirror,
)
from .specfun import as_complex

COND_LIMIT = 1e12

#: distinct spectral parameters whose matrices a :class:`BemBackend` keeps
CACHED_PARAMETERS = 8

#: entries per chunk of rows in which :class:`Mirrored` unfolds a matrix or sums |A|
CHUNK_ENTRIES = 16_384


class Mirrored(NamedTuple):
    """An n x n matrix A that commutes with the grid mirror J: j -> -j mod n, held as
    its blocks on the even vectors (``x_j = x_(n-j)``, coordinates x_0..x_(n/2)) and on
    the odd ones (``x_j = -x_(n-j)``, coordinates x_1..x_(n/2-1)):
    ``even[:, a] = A[:n/2+1, a] + A[:n/2+1, n-a]`` and ``odd = A[1:n/2, a] - A[1:n/2, n-a]``
    (a column of its own mirror, 0 or n/2, is taken once).  Products and inverses act
    block by block."""

    even: np.ndarray
    odd: np.ndarray

    @classmethod
    def fold(cls, rows: np.ndarray) -> "Mirrored":
        """The blocks of the matrix whose rows 0..n/2 are ``rows``."""
        half = rows.shape[0] - 1
        even = rows[:, :half + 1].copy()
        even[:, 1:half] += rows[:, :half:-1]
        return cls(even, rows[1:half, 1:half] - rows[1:half, :half:-1])

    def rows(self, start: int = 0, stop: int | None = None, out=None) -> np.ndarray:
        """Rows ``start..stop - 1`` of the full matrix (by default all of its rows 0..n/2),
        written into ``out`` if it is given."""
        half = self.even.shape[0] - 1
        stop = half + 1 if stop is None else stop
        if out is None:
            out = np.empty((stop - start, 2 * half), dtype=np.result_type(self.even, self.odd))
        even = self.even[start:stop]
        out[:, [0, half]] = even[:, [0, half]]
        np.multiply(even[:, 1:half], 0.5, out=out[:, 1:half])
        out[:, :half:-1] = out[:, 1:half]
        first, last = max(start, 1), min(stop, half)  # the rows of the odd block
        if first < last:
            odd = 0.5 * self.odd[first - 1:last - 1]
            out[first - start:last - start, 1:half] += odd
            out[first - start:last - start, :half:-1] -= odd
        return out

    def _chunks(self):
        """Bounds ``(start, stop)`` of rows 0..n/2 in chunks of about ``CHUNK_ENTRIES``."""
        half = self.even.shape[0] - 1
        step = max(1, CHUNK_ENTRIES // (2 * half))
        return [(start, min(start + step, half + 1)) for start in range(0, half + 1, step)]

    def full(self) -> np.ndarray:
        """The n x n matrix, its rows 0..n/2 written chunk by chunk in place."""
        n = 2 * (self.even.shape[0] - 1)
        full = np.empty((n, n), dtype=np.result_type(self.even, self.odd))
        for start, stop in self._chunks():
            self.rows(start, stop, out=full[start:stop])
        return complete_mirror(full)

    def norm1(self) -> float:
        """``||A||_1``, the largest column sum of |A|: rows 0..n/2, plus rows 1..n/2 - 1
        read at the mirrored column for the rows above n/2.  |A| is formed one chunk of
        rows at a time, and each sum carries in front of the next chunk, so the rows are
        added in order, one after the other, as one sum over all of them would add them."""
        half = self.even.shape[0] - 1
        sums, mirrored = np.zeros(2 * half), np.zeros(2 * half)
        for start, stop in self._chunks():
            a = np.abs(self.rows(start, stop))
            sums = np.vstack([sums, a]).sum(axis=0)
            mirrored = np.vstack([mirrored, a[max(start, 1) - start:half - start]]).sum(axis=0)
        sums[0] += mirrored[0]
        sums[1:] += mirrored[:0:-1]
        return float(sums.max())

    def inverse(self) -> "Mirrored":
        return Mirrored(np.linalg.inv(self.even), np.linalg.inv(self.odd))

    def __matmul__(self, other):
        """The product with a :class:`Mirrored` matrix, or the action on an array of n
        rows: its even and odd parts are mapped by their blocks and unfolded."""
        if isinstance(other, Mirrored):
            return Mirrored(self.even @ other.even, self.odd @ other.odd)
        half = self.even.shape[0] - 1
        x = np.asarray(other)
        mirror = x[-np.arange(half + 1) % x.shape[0]]  # x_(n-a) for a = 0..n/2
        even = self.even @ (0.5 * (x[:half + 1] + mirror))
        odd = self.odd @ (0.5 * (x[1:half] - mirror[1:half]))
        out = np.concatenate([even, even[half - 1:0:-1]])
        out[1:half] += odd
        out[half + 1:] -= odd[::-1]
        return out


def _norm1(A) -> float:
    return A.norm1() if isinstance(A, Mirrored) else float(np.linalg.norm(A, 1))


def inverse_and_condition(A):
    """``(A^{-1}, ||A||_1 ||A^{-1}||_1)`` for an array or a :class:`Mirrored` matrix A;
    ``(None, inf)`` for an exactly singular A (or block)."""
    try:
        inv = A.inverse() if isinstance(A, Mirrored) else np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None, np.inf
    return inv, _norm1(A) * _norm1(inv)


def _gate(inv, cond, error: type, what: str):
    """``(inv, cond)`` if ``cond`` is at most ``COND_LIMIT``; else raise ``error``, a
    :class:`KreinlabError` subclass, naming ``what`` and the condition (every gated error)."""
    if not cond <= COND_LIMIT:
        raise error(f"{what} has condition {cond:.3e}")
    return inv, cond


def gated_inverse(A, error: type, what: str):
    """``A^{-1}``, gated on the 1-norm condition of ``A`` by :func:`_gate`."""
    return _gate(*inverse_and_condition(A), error, what)[0]


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
        return self.backend._layers(self.z)[0] @ self.density

    def gamma_neumann(self) -> np.ndarray:
        return self.backend._layers(self.z)[1] @ self.density

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
        """``(V_z, T_z)`` as :class:`Mirrored` matrices.  The first time either is needed
        both are assembled from one pairwise geometry, so a request does all its kernel
        work before its first factorization; K#_z is not kept once T_z is formed."""
        if ("V", z) not in self._cache:
            V, K = assemble_single_layer_trace(self.grid, z, with_adjoint=True, full=False)
            self._store(("V", z), Mirrored.fold(V))
            del V
            diagonal = np.arange(K.shape[0])
            K[diagonal, diagonal] += 0.5 * JUMP_SIGN  # T_z = JUMP_SIGN/2 I + K#_z
            self._store(("T", z), Mirrored.fold(K))
        return self._cache[("V", z)], self._cache[("T", z)]

    def single_layer(self, z) -> np.ndarray:
        return self._layers(as_complex(z))[0].full()

    def neumann_trace(self, z) -> np.ndarray:
        return self._layers(as_complex(z))[1].full()

    def _single_layer_inverse(self, z: complex) -> Mirrored:
        inv, cond = _gate(*inverse_and_condition(self._layers(z)[0]), NearSingular,
                          f"single-layer trace at z = {z} (near the Dirichlet spectrum or "
                          "a capacity degeneracy)")
        self._store(("cond V", z), cond)
        return inv

    def single_layer_condition(self, z) -> float:
        """Exact 1-norm condition number of ``V_z``, cached per ``z``."""
        z = as_complex(z)
        key = ("cond V", z)
        if key not in self._cache:
            self._store(key, inverse_and_condition(self._layers(z)[0])[1])
        return self._cache[key]

    def single_layer_solve(self, z, rhs) -> np.ndarray:
        return self._single_layer_inverse(as_complex(z)) @ rhs

    def _dtn(self, z: complex) -> Mirrored:
        """The blocks of ``dtn(z)``, cached per ``z``."""
        key = ("dtn", z)
        if key not in self._cache:
            T = self._layers(z)[1]
            inv = self._single_layer_inverse(z)
            # every product T_ik (-inv_kj) equals (-T_ik) inv_kj, signed zeros too, so
            # each block is -T @ inv bit for bit, with no copy of T
            for block in inv:
                np.negative(block, out=block)
            self._store(key, T @ inv)
        return self._cache[key]

    def dtn(self, z) -> np.ndarray:
        """``dtn(z)``, unfolded from its cached blocks on each call."""
        return self._dtn(as_complex(z)).full()

    def _dtn_inverse(self, z: complex):
        """``(inverse, condition)`` of the blocks of ``dtn(z)``; ``(None, inf)`` at z = 0, where
        the map sends the constants to 0 and an inverse of its rounded blocks would be noise."""
        blocks = self._dtn(z)
        return (None, np.inf) if z == 0 else inverse_and_condition(blocks)

    def dtn_condition(self, z) -> float:
        """Exact 1-norm condition number of the map ``dtn(z)``, cached per ``z``."""
        z = as_complex(z)
        key = ("cond dtn", z)
        if key not in self._cache:
            self._store(key, self._dtn_inverse(z)[1])
        return self._cache[key]

    def ntd(self, z) -> np.ndarray:
        """``-dtn(z)^{-1}``, the inverse blocks negated in place and unfolded."""
        z = as_complex(z)
        inv = _gate(*self._dtn_inverse(z), NearSingular, f"Dirichlet-to-Neumann map at "
                    f"z = {z} (z is near the Neumann spectrum)")[0]
        for block in inv:
            np.negative(block, out=block)
        return inv.full()

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
    inv = gated_inverse(backend._layers(z)[1], NearSingular, f"interior Neumann trace at "
                        f"z = {z} (z is numerically a Neumann eigenvalue)")
    return LayerField(backend, z, inv @ np.asarray(g, dtype=complex))


def dtn(backend: BemBackend, z) -> np.ndarray:
    """Dirichlet-to-Neumann matrix on the grid (convention f -> -gamma_N u)."""
    return backend.dtn(z)


def ntd(backend: BemBackend, z) -> np.ndarray:
    """Neumann-to-Dirichlet matrix, the negative inverse of dtn."""
    return backend.ntd(z)
