"""Self-adjoint extension factory and resolvents on model backends.

An extension is selected by a reference operator (Dirichlet or Neumann), a
real shift ``z0`` off the reference spectrum, a Hermitian boundary operator
``L`` and a subspace selector ``X``.  With the Dirichlet reference, the
domain condition is

    gamma_D u in ran(X)   and   X (tau_N(z0) u + L gamma_D u) = 0,

and the distinguished cases translate as

    Dirichlet:  X = {0},  L = 0
    Neumann:    X = full, L = -dtn(z0)
    Krein:      X = full, L = 0
    Robin(T):   X = full, L = -dtn(z0) + T

(The Neumann-reference factory mirrors this with tau_D and gamma_N, where
Dirichlet corresponds to L = +ntd(z0).)

Resolvents are computed by the shifted-reference formula

    u = R_ref(z + z0) f + (harmonic correction at z + z0)

with the correction coefficient solved from the boundary condition through
the bracket ``L - dtn(z + z0) + dtn(z0)`` (:meth:`Extension.bracket`); the
formula is cross-validated against independent direct solves in
:mod:`kreinlab.kreinformulas`.  Brackets are gated by their exact 1-norm
condition number (:func:`kreinlab.weyl.inverse_and_condition`) against
``kreinlab.weyl.COND_LIMIT``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BackendUnsupported, NearEigenvalue, SpecInvalid
from .specfun import as_complex
from .traces import gamma_D, gamma_N, hermitian_part, tau_D, tau_N
from .weyl import COND_LIMIT, inverse_and_condition

HERMITIAN_TOL = 1e-12

SPECIAL_TAGS = ("dirichlet", "neumann", "krein")


@dataclass(frozen=True)
class ExtensionSpec:
    """Extension selector; ``boundary_operator`` is a Hermitian matrix, one of
    the special tags, or ``("robin", theta)`` with ``theta`` a scalar or matrix.
    ``subspace`` is ``"full"``, ``"zero"``, or an orthogonal-projector matrix.
    """

    reference: str = "dirichlet"
    z0: float = 0.0
    boundary_operator: object = "krein"
    subspace: object = "full"

    def __post_init__(self):
        if self.reference not in ("dirichlet", "neumann"):
            raise SpecInvalid(f"unknown reference {self.reference!r}")
        bo = self.boundary_operator
        if isinstance(bo, str) and bo not in SPECIAL_TAGS:
            raise SpecInvalid(f"unknown special boundary operator {bo!r}")
        if isinstance(bo, tuple) and (len(bo) != 2 or bo[0] != "robin"):
            raise SpecInvalid("tuple boundary operator must be ('robin', theta)")

    # -- JSON wire format ---------------------------------------------------
    def to_json(self) -> str:
        bo = self.boundary_operator
        if isinstance(bo, str):
            L = {"special": bo}
        elif isinstance(bo, tuple):
            L = {"special": "robin", "theta": np.real_if_close(bo[1]).tolist()}
        else:
            L = {"matrix": np.asarray(bo, dtype=complex).view(float).reshape(-1).tolist(),
                 "shape": list(np.asarray(bo).shape)}
        X = self.subspace if isinstance(self.subspace, str) else {
            "projector": np.asarray(self.subspace, dtype=complex).view(float).reshape(-1).tolist(),
            "shape": list(np.asarray(self.subspace).shape),
        }
        return json.dumps({"reference": self.reference, "z0": self.z0, "L": L, "X": X},
                          sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExtensionSpec":
        data = json.loads(text)
        L = data.get("L", {"special": "krein"})
        if "special" in L:
            tag = L["special"]
            bo = ("robin", np.asarray(L.get("theta", 0.0))) if tag == "robin" else tag
            if tag == "robin" and np.ndim(L.get("theta", 0.0)) == 0:
                bo = ("robin", float(L.get("theta", 0.0)))
        elif "matrix_csv" in L:
            bo = _load_complex_csv(L["matrix_csv"])
        else:
            shape = tuple(L["shape"])
            bo = np.asarray(L["matrix"], dtype=float).view(complex).reshape(shape)
        X = data.get("X", "full")
        if isinstance(X, dict):
            if "projector_csv" in X:
                X = _load_complex_csv(X["projector_csv"])
            else:
                X = np.asarray(X["projector"], dtype=float).view(complex).reshape(tuple(X["shape"]))
        return ExtensionSpec(data.get("reference", "dirichlet"), float(data.get("z0", 0.0)), bo, X)


def _load_complex_csv(path: str) -> np.ndarray:
    from .cli import read_complex_csv

    return read_complex_csv(path)


def _weighted_herm_defect(mat: np.ndarray, weights: np.ndarray) -> float:
    wm = weights[:, None] * mat
    return float(np.max(np.abs(wm - wm.conj().T)))


class Extension:
    """A realized self-adjoint extension bound to one backend."""

    def __init__(self, spec: ExtensionSpec, backend, L: np.ndarray, projector):
        self.spec = spec
        self.backend = backend
        self.L = L
        self.projector = projector  # None means full, 0-dim means zero subspace
        self.z0 = float(spec.z0)

    @property
    def reference(self) -> str:
        return self.spec.reference

    def bracket(self, w):
        """Bracket ``L - dtn(w) + dtn(z0)`` (Neumann reference: ``L + ntd(w) - ntd(z0)``)
        at the absolute spectral parameter ``w = z + z0``, compressed to the
        subspace as ``P B P + (I - P)``."""
        backend = self.backend
        if self.reference == "dirichlet":
            bracket = self.L - backend.dtn(w) + backend.dtn(self.z0)
        else:
            bracket = self.L + backend.ntd(w) - backend.ntd(self.z0)
        if self.projector is not None:
            P = self.projector
            bracket = P @ bracket @ P + (np.eye(len(P)) - P)
        return bracket

    def boundary_trace_parts(self, u):
        if self.reference == "dirichlet":
            return tau_N(self.z0, u), gamma_D(u)
        return tau_D(self.z0, u), gamma_N(u)


def _as_matrix(value, m, weights) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        return complex(arr) * np.eye(m, dtype=complex)
    if arr.shape != (m, m):
        raise SpecInvalid(f"boundary operator must be {m}x{m}, got {arr.shape}")
    return arr


def make_extension(spec: ExtensionSpec, backend) -> Extension:
    """Realize an extension spec on a backend, translating special cases."""
    m = backend.nboundary
    w = backend.boundary_weights
    bo = spec.boundary_operator
    subspace = spec.subspace

    if spec.reference == "dirichlet":
        ref_matrix = backend.dtn(spec.z0)
        if isinstance(bo, str):
            if bo == "dirichlet":
                L, subspace = np.zeros((m, m), dtype=complex), "zero"
            elif bo == "neumann":
                L, subspace = -ref_matrix, "full"
            else:  # krein
                L, subspace = np.zeros((m, m), dtype=complex), "full"
        elif isinstance(bo, tuple):
            L, subspace = -ref_matrix + _as_matrix(bo[1], m, w), "full"
        else:
            L = _as_matrix(bo, m, w)
    else:
        ref_matrix = backend.ntd(spec.z0)
        if isinstance(bo, str):
            if bo == "neumann":
                L, subspace = np.zeros((m, m), dtype=complex), "zero"
            elif bo == "dirichlet":
                L, subspace = ref_matrix.copy(), "full"
            else:  # krein
                L, subspace = np.zeros((m, m), dtype=complex), "full"
        elif isinstance(bo, tuple):
            raise SpecInvalid("Robin is expressed through the Dirichlet-reference factory")
        else:
            L = _as_matrix(bo, m, w)

    if _weighted_herm_defect(L, w) > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(L)))):
        raise SpecInvalid("boundary operator is not Hermitian in the weighted inner product")

    if isinstance(subspace, str):
        if subspace == "full":
            projector = None
        elif subspace == "zero":
            projector = np.zeros((m, m), dtype=complex)
        else:
            raise SpecInvalid(f"unknown subspace selector {subspace!r}")
    else:
        P = np.asarray(subspace, dtype=complex)
        if P.shape != (m, m):
            raise SpecInvalid(f"projector must be {m}x{m}")
        if np.max(np.abs(P @ P - P)) > HERMITIAN_TOL or _weighted_herm_defect(P, w) > HERMITIAN_TOL:
            raise SpecInvalid("subspace selector is not an orthogonal projector")
        projector = P
        L = P @ L @ P

    return Extension(spec, backend, L, projector)


def boundary_residual(ext: Extension, u) -> float:
    """Weighted norm of the boundary-condition defect of a field.

    For the zero subspace the condition degenerates to a vanishing trace, so
    the residual is the norm of the trace itself.
    """
    tau, gam = ext.boundary_trace_parts(u)
    w = ext.backend.boundary_weights
    if ext.projector is not None and not np.any(ext.projector):
        vec = gam
    else:
        vec = tau + ext.L @ gam
        if ext.projector is not None:
            vec = ext.projector @ vec
    return float(np.sqrt(np.sum(w * np.abs(vec) ** 2).real))


def apply_resolvent(ext: Extension, z, f):
    """Field u with (-Laplace - z0 - z) u = f in the extension's domain."""
    backend = ext.backend
    if not hasattr(backend, "resolvent_dirichlet"):
        raise BackendUnsupported("interior resolvents need a model backend")
    z = as_complex(z)
    w = z + ext.z0
    if ext.reference == "dirichlet":
        part = backend.resolvent_dirichlet(w, f)
    else:
        part = backend.resolvent_neumann(w, f)

    if ext.projector is not None and not np.any(ext.projector):
        return part

    tau, gam = ext.boundary_trace_parts(part)
    rhs = tau + ext.L @ gam
    bracket = ext.bracket(w)
    if not inverse_and_condition(bracket)[1] <= COND_LIMIT:
        raise NearEigenvalue(f"z = {z} is numerically an eigenvalue of the extension")
    coef = -np.linalg.solve(bracket, rhs)
    if ext.projector is not None:
        coef = ext.projector @ coef
    if ext.reference == "dirichlet":
        corr = backend.harmonic_extension(w, coef)
    else:
        # harmonic field with prescribed Neumann data: Dirichlet data ntd(w) b
        corr = backend.harmonic_extension(w, backend.ntd(w) @ coef)
    return part + corr


def direct_solve(ext: Extension, z, f):
    """Independent resolvent: explicit homogeneous basis + reference particular
    solution, bypassing the bracket-inverse formula.  Full or zero subspace only.
    """
    backend = ext.backend
    z = as_complex(z)
    w = z + ext.z0
    if ext.reference == "dirichlet":
        part = backend.resolvent_dirichlet(w, f)
    else:
        part = backend.resolvent_neumann(w, f)
    if ext.projector is not None and not np.any(ext.projector):
        return part
    if ext.projector is not None:
        raise BackendUnsupported("direct solve implemented for full/zero subspace only")
    basis = backend.homogeneous_basis(w)
    m = backend.nboundary
    A = np.zeros((m, m), dtype=complex)
    for j, phi in enumerate(basis):
        tau_j, gam_j = ext.boundary_trace_parts(phi)
        A[:, j] = tau_j + ext.L @ gam_j
    tau0, gam0 = ext.boundary_trace_parts(part)
    rhs = -(tau0 + ext.L @ gam0)
    if not inverse_and_condition(A)[1] <= COND_LIMIT:
        raise NearEigenvalue(f"z = {z} is numerically an eigenvalue of the extension")
    coef = np.linalg.solve(A, rhs)
    out = part
    for c, phi in zip(coef, basis):
        out = out + c * phi
    return out


def is_nonnegative(ext: Extension, rng=None, trials: int = 50):
    """Sign test of the extension via its boundary operator, plus a Ritz certificate.

    Returns ``(flag, certificate)`` where ``flag`` is the smallest eigenvalue
    test of the Hermitian part of L (>= -1e-10) and the certificate holds the
    smallest Ritz value of the extension's quadratic form over a random trial
    family drawn from its operator domain.
    """
    backend = ext.backend
    w = backend.boundary_weights
    if ext.projector is not None and not np.any(ext.projector):
        lmin = 0.0
    else:
        herm = hermitian_part(ext.L, w)
        if ext.projector is not None:
            s = np.sqrt(w)
            P = (s[:, None] * ext.projector) / s[None, :]
            herm = P @ herm @ P.conj().T
        lmin = float(np.min(np.linalg.eigvalsh(herm)))
    flag = lmin >= -1e-10

    rng = np.random.default_rng(0) if rng is None else rng
    ritz = _ritz_floor(ext, rng, trials)
    certificate = {
        "boundary_operator_min_eigenvalue": lmin,
        "ritz_min": ritz,
        "ritz_trials": trials,
    }
    return flag, certificate


def _ritz_floor(ext: Extension, rng, trials: int) -> float:
    """Smallest Ritz value of (u, (-Laplace - z0) u) over domain members."""
    backend = ext.backend
    if ext.reference != "dirichlet":
        raise BackendUnsupported("Ritz certificate implemented for the Dirichlet reference")
    m = backend.nboundary
    members = []
    h20 = backend.h20_family(trials, rng)
    for i in range(trials):
        u = h20[i]
        if ext.projector is None or np.any(ext.projector):
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if ext.projector is not None:
                a = ext.projector @ a
            h = backend.harmonic_extension(ext.z0, a)
            q = backend.h2n_field(-(ext.L @ a))
            u = u + h + q
        members.append(u)
    n = len(members)
    form = np.zeros((n, n), dtype=complex)
    mass = np.zeros((n, n), dtype=complex)
    applied = [u.helmholtz_apply(ext.z0) for u in members]
    for i in range(n):
        for j in range(n):
            form[i, j] = backend.inner(members[i], applied[j])
            mass[i, j] = backend.inner(members[i], members[j])
    form = 0.5 * (form + form.conj().T)
    mass = 0.5 * (mass + mass.conj().T)
    # drop near-null mass directions before the generalized eigenproblem
    evals, evecs = np.linalg.eigh(mass)
    keep = evals > 1e-10 * float(np.max(evals))
    basis = evecs[:, keep] / np.sqrt(evals[keep])
    reduced = basis.conj().T @ form @ basis
    return float(np.min(np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))))
