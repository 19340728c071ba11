"""Self-adjoint extension factory and resolvents on model backends.

An extension is selected by a reference operator (Dirichlet or Neumann), a
real shift ``z0`` off the reference spectrum, a Hermitian boundary operator
``L`` and a subspace selector ``X``.  Each reference has one boundary map
``m`` (:func:`reference_map`), ``dtn`` or ``-ntd``, which sends the reference
trace ``gamma`` (``gamma_D`` or ``gamma_N``) of a harmonic field to minus its
other trace.  ``m0 = m(z0)`` is evaluated once, by :func:`make_extension`, and
both references share one domain condition,

    gamma u in ran(X)   and   X (other u + m0 gamma u + L gamma u) = 0,

where ``other u + m0 gamma u`` is tau_N(z0) u or tau_D(z0) u.  The reference's
own tag is X = {0}, L = 0; the other reference's tag X = full, L = -m0 (Neumann
is -dtn(z0), Dirichlet +ntd(z0)); Krein X = full, L = 0; and Robin(T), with the
Dirichlet reference, X = full, L = -dtn(z0) + T.  A special or Robin ``L``
fixes its subspace, so its ``X`` is "full" or that subspace; any other is
rejected.

Resolvents are computed by the shifted-reference formula

    u = R_ref(z + z0) f + (harmonic correction at z + z0)

with the correction coefficient solved from the boundary condition through
the bracket ``L - m(z + z0) + m(z0)`` (:meth:`Extension.bracket`); the
formula is cross-validated against independent direct solves in
:mod:`kreinlab.kreinformulas`.  Each boundary system is inverted once, by
:func:`kreinlab.weyl.gated_inverse`, which raises ``NearEigenvalue`` when its
exact 1-norm condition exceeds ``COND_LIMIT``; the answer uses that inverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .csvtext import read_complex_csv
from .errors import BackendUnsupported, NearEigenvalue, SpecInvalid
from .specfun import as_complex
from .traces import gamma_D, gamma_N, half_weighted, herm, hermitian_part
from .weyl import gated_inverse

HERMITIAN_TOL = 1e-12

SPECIAL_TAGS = ("dirichlet", "neumann", "krein")

#: domain members in the Ritz certificate of :func:`is_nonnegative`
RITZ_TRIALS = 50


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
        if not np.isfinite(self.z0):
            raise SpecInvalid(f"z0 must be finite, got {self.z0!r}")
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
        if not isinstance(data, dict):
            raise SpecInvalid("an extension spec is a JSON object")
        L = data.get("L", {"special": "krein"})
        if "special" in L:
            tag = L["special"]
            bo = ("robin", np.asarray(L.get("theta", 0.0))) if tag == "robin" else tag
            if tag == "robin" and np.ndim(L.get("theta", 0.0)) == 0:
                bo = ("robin", float(L.get("theta", 0.0)))
        elif "matrix_csv" in L:
            bo = read_complex_csv(L["matrix_csv"])
        else:
            shape = tuple(L["shape"])
            bo = np.asarray(L["matrix"], dtype=float).view(complex).reshape(shape)
        X = data.get("X", "full")
        if isinstance(X, dict):
            if "projector_csv" in X:
                X = read_complex_csv(X["projector_csv"])
            else:
                X = np.asarray(X["projector"], dtype=float).view(complex).reshape(tuple(X["shape"]))
        return ExtensionSpec(data.get("reference", "dirichlet"), float(data.get("z0", 0.0)), bo, X)


def _weighted_herm_defect(mat: np.ndarray, weights: np.ndarray) -> float:
    wm = weights[:, None] * mat
    return float(np.max(np.abs(wm - wm.conj().T)))


def reference_map(backend, reference: str, w) -> np.ndarray:
    """``m(w)``: ``dtn(w)`` (Dirichlet reference) or ``-ntd(w)`` (Neumann), which sends the
    reference trace of a (-Laplace - w)-harmonic field to minus its other trace."""
    return backend.dtn(w) if reference == "dirichlet" else -backend.ntd(w)


class Extension:
    """A realized self-adjoint extension bound to one backend, with ``m0 = m(z0)``."""

    def __init__(self, spec: ExtensionSpec, backend, L: np.ndarray, projector, m0):
        self.spec = spec
        self.backend = backend
        self.L = L
        self.projector = projector  # None means full
        self.zero_subspace = projector is not None and not np.any(projector)
        self.reference = spec.reference
        self.z0 = float(spec.z0)
        self.m0 = m0

    def bracket(self, w):
        """Bracket ``L - m(w) + m(z0)`` at the absolute spectral parameter ``w = z + z0``,
        compressed to the subspace as ``P B P + (I - P)``."""
        return self._bracket(reference_map(self.backend, self.reference, w))

    def _bracket(self, mw):
        """:meth:`bracket` at the ``w`` whose map ``m(w)`` is ``mw``."""
        bracket = self.L - mw + self.m0
        if self.projector is not None:
            P = self.projector
            bracket = P @ bracket @ P + (np.eye(len(P)) - P)
        return bracket

    def boundary_trace_parts(self, u):
        """``(regularized trace, reference trace)``: ``(tau_N(z0) u, gamma_D u)`` for the
        Dirichlet reference and ``(tau_D(z0) u, gamma_N u)`` for the Neumann one."""
        gamma, other = (gamma_D, gamma_N) if self.reference == "dirichlet" else (gamma_N, gamma_D)
        gam = gamma(u)
        return other(u) + self.m0 @ gam, gam


def _as_matrix(value, m) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        if not np.isfinite(arr):  # inf * 0 off the diagonal would warn before the check
            raise SpecInvalid("boundary operator has a non-finite entry")
        return complex(arr) * np.eye(m, dtype=complex)
    if arr.shape != (m, m):
        raise SpecInvalid(f"boundary operator must be {m}x{m}, got {arr.shape}")
    return arr


def _translate(spec: ExtensionSpec, m0: np.ndarray, m: int):
    """``(L, subspace)`` of a special tag or a Robin tuple.  The reference's own tag is
    ``(0, "zero")``, the other reference's tag ``(-m0, "full")``, "krein" ``(0, "full")``
    and Robin ``(-m0 + theta, "full")``."""
    bo = spec.boundary_operator
    if isinstance(bo, tuple):
        if spec.reference != "dirichlet":
            raise SpecInvalid("Robin is expressed through the Dirichlet-reference factory")
        return -m0 + _as_matrix(bo[1], m), "full"
    if bo in (spec.reference, "krein"):
        return np.zeros((m, m), dtype=complex), "zero" if bo == spec.reference else "full"
    return -m0, "full"


def make_extension(spec: ExtensionSpec, backend) -> Extension:
    """Realize an extension spec on a backend, translating special cases.  A special or
    Robin ``L`` fixes its subspace: ``X`` is then "full" or that subspace."""
    m = backend.nboundary
    w = backend.boundary_weights
    bo = spec.boundary_operator
    subspace = spec.subspace
    m0 = reference_map(backend, spec.reference, spec.z0)
    if isinstance(bo, (str, tuple)):
        L, fixed = _translate(spec, m0, m)
        if not (isinstance(subspace, str) and subspace in ("full", fixed)):
            tag = bo if isinstance(bo, str) else "robin"
            raise SpecInvalid(f"{tag!r} fixes the subspace {fixed!r}; X must be 'full' or {fixed!r}")
        subspace = fixed
    else:
        L = _as_matrix(bo, m)

    # a NaN fails no tolerance test, so non-finite entries are rejected first
    if not np.all(np.isfinite(L)):
        raise SpecInvalid("boundary operator has a non-finite entry")
    if _weighted_herm_defect(L, w) > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(L)))):
        raise SpecInvalid("boundary operator is not Hermitian in the weighted inner product")

    if isinstance(subspace, str):
        if subspace not in ("full", "zero"):
            raise SpecInvalid(f"unknown subspace selector {subspace!r}")
        projector = None if subspace == "full" else np.zeros((m, m), dtype=complex)
    else:
        P = np.asarray(subspace, dtype=complex)
        if P.shape != (m, m):
            raise SpecInvalid(f"projector must be {m}x{m}")
        if not (np.all(np.isfinite(P)) and np.max(np.abs(P @ P - P)) <= HERMITIAN_TOL
                and _weighted_herm_defect(P, w) <= HERMITIAN_TOL):
            raise SpecInvalid("subspace selector is not an orthogonal projector")
        projector = P
        L = P @ L @ P

    return Extension(spec, backend, L, projector, m0)


def boundary_residual(ext: Extension, u) -> float:
    """Weighted norm of the boundary-condition defect of a field.

    For the zero subspace the condition degenerates to a vanishing trace, so
    the residual is the norm of the trace itself.
    """
    tau, gam = ext.boundary_trace_parts(u)
    w = ext.backend.boundary_weights
    vec = gam if ext.zero_subspace else tau + ext.L @ gam
    if ext.projector is not None and not ext.zero_subspace:
        vec = ext.projector @ vec
    return float(np.sqrt(np.sum(w * np.abs(vec) ** 2).real))


def _model_backend(ext: Extension):
    """The extension's backend, which must be a model backend: only those have interior
    resolvents, homogeneous bases and interior fields."""
    if not hasattr(ext.backend, "resolvent_dirichlet"):
        raise BackendUnsupported("interior resolvents need a model backend")
    return ext.backend


def _resolvent(ext: Extension, z, f, complete):
    """``R_ref(z + z0) f``, the answer on the zero subspace, else ``complete(ext, z, it)``."""
    backend = _model_backend(ext)
    z = as_complex(z)
    part = getattr(backend, f"resolvent_{ext.reference}")(z + ext.z0, f)
    return part if ext.zero_subspace else complete(ext, z, part)


def apply_resolvent(ext: Extension, z, f):
    """Field u with (-Laplace - z0 - z) u = f in the extension's domain."""
    return _resolvent(ext, z, f, _bracket_correction)


def _bracket_correction(ext: Extension, z, part):
    """``part = R_ref(w) f`` plus the harmonic field at ``w = z + z0`` that puts it in the
    extension's domain, its data solved through the bracket at ``w``."""
    backend = ext.backend
    w = z + ext.z0
    tau, gam = ext.boundary_trace_parts(part)
    mw = reference_map(backend, ext.reference, w)
    bracket_inv = gated_inverse(ext._bracket(mw), NearEigenvalue, f"bracket at z = {z} (z is "
                                "numerically an eigenvalue of the extension)")
    coef = -bracket_inv @ (tau + ext.L @ gam)
    if ext.projector is not None:
        coef = ext.projector @ coef
    # with the Neumann reference coef is Neumann data: the Dirichlet data are
    # ntd(w) coef = -m(w) coef, the same bits, since negation is exact
    data = coef if ext.reference == "dirichlet" else -mw @ coef
    return part + backend.harmonic_extension(w, data)


def direct_solve(ext: Extension, z, f):
    """Independent resolvent: explicit homogeneous basis + reference particular
    solution, bypassing the bracket-inverse formula.  Full or zero subspace only."""
    return _resolvent(ext, z, f, _basis_correction)


def _basis_correction(ext: Extension, z, part):
    if ext.projector is not None:
        raise BackendUnsupported("direct solve implemented for full/zero subspace only")
    basis, A_inv, _ = homogeneous_system(ext, z)
    tau0, gam0 = ext.boundary_trace_parts(part)
    coef = A_inv @ -(tau0 + ext.L @ gam0)
    out = part
    for c, phi in zip(coef, basis):
        out = out + c * phi
    return out


def homogeneous_system(ext: Extension, z):
    """``(basis, A^{-1}, G)`` for the homogeneous basis ``u_j`` at ``z + z0``, with
    ``A[:, j] = tau_j + L gamma_j`` inverted behind the gate and ``G[:, j] = gamma_j``."""
    basis = _model_backend(ext).homogeneous_basis(z + ext.z0)
    traces = [ext.boundary_trace_parts(phi) for phi in basis]
    A = np.array([tau + ext.L @ gam for tau, gam in traces], dtype=complex).T
    G = np.array([gam for _, gam in traces], dtype=complex).T
    A_inv = gated_inverse(A, NearEigenvalue, f"homogeneous-basis system at z = {z} (z is "
                          "numerically an eigenvalue of the extension)")
    return basis, A_inv, G


def is_nonnegative(ext: Extension, rng=None):
    """Sign test of the extension via its boundary operator, plus a Ritz certificate.

    Returns ``(flag, certificate)`` where ``flag`` is the smallest eigenvalue
    test of the Hermitian part of L (>= -1e-10) and the certificate holds the
    smallest Ritz value of the extension's quadratic form over a random trial
    family of ``RITZ_TRIALS`` members drawn from its operator domain.
    """
    w = _model_backend(ext).boundary_weights
    if ext.zero_subspace:
        lmin = 0.0
    else:
        part = hermitian_part(ext.L, w)
        if ext.projector is not None:
            P = half_weighted(ext.projector, w)
            part = P @ part @ P.conj().T
        lmin = float(np.min(np.linalg.eigvalsh(part)))
    flag = lmin >= -1e-10

    rng = np.random.default_rng(0) if rng is None else rng
    certificate = {
        "boundary_operator_min_eigenvalue": lmin,
        "ritz_min": _ritz_floor(ext, rng),
        "ritz_trials": RITZ_TRIALS,
    }
    return flag, certificate


def _ritz_floor(ext: Extension, rng) -> float:
    """Smallest Ritz value of (u, (-Laplace - z0) u) over domain members."""
    backend = ext.backend
    if ext.reference != "dirichlet":
        raise BackendUnsupported("Ritz certificate implemented for the Dirichlet reference")
    m = backend.nboundary
    members = []
    h20 = backend.h20_family(RITZ_TRIALS, rng)
    for i in range(RITZ_TRIALS):
        u = h20[i]
        if not ext.zero_subspace:
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if ext.projector is not None:
                a = ext.projector @ a
            h = backend.harmonic_extension(ext.z0, a)
            q = backend.h2n_field(-(ext.L @ a))
            u = u + h + q
        members.append(u)
    form = herm(backend.gram(members, [u.helmholtz_apply(ext.z0) for u in members]))
    mass = herm(backend.gram(members, members))
    # drop near-null mass directions before the generalized eigenproblem
    evals, evecs = np.linalg.eigh(mass)
    keep = evals > 1e-10 * float(np.max(evals))
    basis = evecs[:, keep] / np.sqrt(evals[keep])
    reduced = basis.conj().T @ form @ basis
    return float(np.min(np.linalg.eigvalsh(herm(reduced))))
