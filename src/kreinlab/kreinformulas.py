"""Resolvent formulas, Weyl functions, Herglotz checks, and the sign ledger.

Several identities in this calculus are sign-fragile: the printed sources
disagree between equivalent statements, so no sign is ever assumed here.
Each convention is resolved by a re-runnable witness (a direct solve or a
closed-form disk/interval computation), and the outcome is recorded in a
:class:`SignLedger`.  The conventions validated by the witnesses:

* ``jump-relation``       interior Neumann trace of the single layer is
                          ``+1/2 I + K#`` for this kernel normalisation.
* ``resolvent-difference``  the correction term in the resolvent-difference
                          identity enters with a **minus** sign,
                          R_ext(z) = R_D(z+z0) - [gamma_D R_ext(zbar)]^* tau_N R_D(z+z0).
* ``krein-formula``       the symmetrised form
                          R_ext(z) = R_D + [tau_N R_D(zbar+z0)]^* B(z)^{-1} tau_N R_D(z+z0),
                          B(z) = L - M(z+z0) + M(z0), holds with a plus sign.
* ``two-extension``       the transfer operator is
                          -(L2-L1)[I - B_2(z)^{-1}(L2-L1)] with the left
                          resolvent factor taken at zbar.
* ``ntd-sign``            the Neumann-to-Dirichlet map at z < 0 is positive
                          semidefinite (the stated nonpositivity has the
                          direction reversed).
* ``boundary-condition``  tau_N(z0) u = -L gamma_D u (the convention that makes
                          the Neumann special case L = -dtn(z0) cancel exactly).

:func:`sign_witnesses` runs every witness once and keeps the residuals of
both sign candidates; ``verify`` calls it once per request and reads both
the ledger (:func:`resolve_sign_conventions`) and the krein-suite sign items
from that one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketSingular, DomainError, NearEigenvalue
from .extensions import Extension, ExtensionSpec, apply_resolvent, make_extension
from .layerpot import BoundaryOperator, assemble_adjoint_double_layer
from .oracles import Model1D
from .specfun import as_complex
from .traces import gamma_D, gamma_N, hermitian_part, tau_N, weighted_adjoint
from .weyl import COND_LIMIT, inverse_and_condition


# ---------------------------------------------------------------------------
# sign ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignLedgerEntry:
    identity: str
    stated_sign: str
    validated_sign: str
    witness: str
    residual: float

    @property
    def agrees_with_statement(self) -> bool:
        return self.stated_sign == self.validated_sign

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "stated_sign": self.stated_sign,
            "validated_sign": self.validated_sign,
            "witness": self.witness,
            "residual": self.residual,
        }


@dataclass
class SignLedger:
    entries: list = field(default_factory=list)

    def add(self, entry: SignLedgerEntry):
        self.entries.append(entry)

    def get(self, identity: str) -> SignLedgerEntry:
        for e in self.entries:
            if e.identity == identity:
                return e
        raise KeyError(identity)

    def to_list(self) -> list:
        return [e.to_dict() for e in sorted(self.entries, key=lambda e: e.identity)]


# ---------------------------------------------------------------------------
# Weyl function of an extension
# ---------------------------------------------------------------------------

def _as_extension(ext, backend=None) -> Extension:
    if isinstance(ext, ExtensionSpec):
        if backend is None:
            raise DomainError("an ExtensionSpec needs a backend to bind to")
        return make_extension(ext, backend)
    return ext


def mfunc(ext, z, backend=None) -> BoundaryOperator:
    """Weyl function M(z) of the extension: inverse of L - M(z+z0) + M(z0)."""
    ext = _as_extension(ext, backend)
    if ext.projector is not None:
        raise DomainError("the Weyl-function inverse formula needs the full subspace")
    mat, cond = inverse_and_condition(ext.bracket(as_complex(z) + ext.z0))
    if not cond <= COND_LIMIT:
        raise NearEigenvalue(f"Weyl function has a pole near z = {z}")
    token = getattr(ext.backend, "token", ext.backend.name if hasattr(ext.backend, "name") else "")
    return BoundaryOperator(mat, "MD", as_complex(z), token)


def mfunc_direct(ext: Extension, z) -> np.ndarray:
    """Weyl function from its defining boundary problem, no bracket inverse.

    Column j is gamma_D of the (z+z0)-homogeneous solution u with
    tau_N(z0) u + L gamma_D u = e_j, solved in the explicit homogeneous basis.
    """
    backend = ext.backend
    z = as_complex(z)
    w = z + ext.z0
    basis = backend.homogeneous_basis(w)
    m = backend.nboundary
    A = np.zeros((m, m), dtype=complex)
    G = np.zeros((m, m), dtype=complex)
    for j, phi in enumerate(basis):
        tau_j, gam_j = ext.boundary_trace_parts(phi)
        A[:, j] = tau_j + ext.L @ gam_j
        G[:, j] = gam_j
    inv, cond = inverse_and_condition(A)
    if not cond <= COND_LIMIT:
        raise NearEigenvalue(f"Weyl function has a pole near z = {z}")
    return G @ inv


def imaginary_part_eigenvalues(ext: Extension, z) -> np.ndarray:
    """Eigenvalues of Im M(z) = (M - M^*)/(2i) in the weighted product."""
    mat = mfunc(ext, z).matrix
    w = ext.backend.boundary_weights
    s = np.sqrt(w)
    sym = (s[:, None] * mat) / s[None, :]
    im = (sym - sym.conj().T) / 2j
    return np.linalg.eigvalsh(0.5 * (im + im.conj().T))


def herglotz_defect(ext, zs, backend=None) -> float:
    """Max over the grid of minus the smallest eigenvalue of Im M(z)."""
    ext = _as_extension(ext, backend)
    worst = -np.inf
    for z in zs:
        z = as_complex(z)
        if z.imag <= 0:
            raise DomainError("Herglotz grid must lie in the open upper half plane")
        worst = max(worst, -float(np.min(imaginary_part_eigenvalues(ext, z))))
    return worst


def mfunc_symmetry_defect(ext: Extension, z) -> float:
    """Residual of M(z)^* = M(zbar) in the weighted inner product."""
    w = ext.backend.boundary_weights
    a = weighted_adjoint(mfunc(ext, z).matrix, w, w)
    b = mfunc(ext, np.conj(as_complex(z))).matrix
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# resolvent formula evaluation
# ---------------------------------------------------------------------------

def transfer_variants(L1: np.ndarray, L2: np.ndarray, z0: float, z, backend) -> dict:
    """The two printed forms of the two-extension transfer operator.

    ``primary`` is -(L2-L1)[I - B2(z)^{-1} (L2-L1)] with
    B2 = M(z0) - M(z+z0) + L2; ``alternate`` interprets the other printed
    form under the same boundary-condition convention,
    +(L2-L1)[I + (M(z0) - M(z+z0) - L2)^{-1} (L2-L1)].

    Both forms are written in the printed order, not through
    :meth:`Extension.bracket`: ``(M0 - Mw) + L2`` and ``(L2 - Mw) + M0`` differ
    in the last bit at the interval points that ``verify`` uses.
    """
    z = as_complex(z)
    w = z + z0
    M0 = backend.dtn(z0)
    Mw = backend.dtn(w)
    D = L2 - L1
    eye = np.eye(backend.nboundary)
    primary = -D @ (eye - np.linalg.solve(M0 - Mw + L2, D))
    alternate = D @ (eye + np.linalg.solve(M0 - Mw - L2, D))
    return {"primary": primary, "alternate": alternate}


def transfer_alternative_form(L1: np.ndarray, L2: np.ndarray, z0: float, z, backend) -> np.ndarray:
    """Equivalent expression M1^{-1} (M2 - M1) M1^{-1} built from Weyl functions."""
    w = as_complex(z) + z0
    B1 = _extension_from_matrix(L1, z0, backend).bracket(w)
    B2 = _extension_from_matrix(L2, z0, backend).bracket(w)
    M1 = np.linalg.inv(B1)
    M2 = np.linalg.inv(B2)
    return B1 @ (M2 - M1) @ B1


def two_extension_transfer(L1, L2, z0: float, z, backend,
                           ledger: SignLedger | None = None) -> BoundaryOperator:
    """Transfer operator of the two-extension resolvent identity.

    Evaluates both printed variants, validates them against direct solves of
    the two extensions applied to a probe function, records the outcome in
    the ledger if given, and returns the variant that satisfies the identity.
    """
    m = backend.nboundary
    L1 = np.asarray(L1, dtype=complex).reshape(m, m)
    L2 = np.asarray(L2, dtype=complex).reshape(m, m)
    z = as_complex(z)
    variants = transfer_variants(L1, L2, z0, z, backend)
    resid = two_extension_identity_residuals(L1, L2, z0, z, backend)
    best = min(resid, key=resid.get)
    if ledger is not None:
        ledger.add(
            SignLedgerEntry(
                identity="two-extension",
                stated_sign="primary(zbar)",
                validated_sign=best,
                witness="resolvent difference vs transfer formula on probe data",
                residual=resid[best],
            )
        )
    if best != "primary(zbar)":
        raise BracketSingular(
            f"two-extension formula variant mismatch: validated {best} with residuals {resid}"
        )
    token = getattr(backend, "token", getattr(backend, "name", ""))
    return BoundaryOperator(variants["primary"], "MD", z, token)


def _extension_from_matrix(L: np.ndarray, z0: float, backend) -> Extension:
    return make_extension(ExtensionSpec("dirichlet", z0, L, "full"), backend)


def two_extension_identity_residuals(L1, L2, z0: float, z, backend, probe=None) -> dict:
    """Residuals of the resolvent identity for each variant/adjoint-argument choice.

    The identity tested:  R_2(z) f - R_1(z) f  =  [gamma_D R_1(.)]^* T [gamma_D R_1(z)] f
    with the left factor at zbar (kernel-correct) or z (as printed in one source).
    """
    z = as_complex(z)
    w = z + z0
    ext1 = _extension_from_matrix(np.asarray(L1, dtype=complex), z0, backend)
    ext2 = _extension_from_matrix(np.asarray(L2, dtype=complex), z0, backend)
    f = probe if probe is not None else _default_probe(backend)
    u1 = apply_resolvent(ext1, z, f)
    u2 = apply_resolvent(ext2, z, f)
    a = gamma_D(u1)
    variants = transfer_variants(np.asarray(L1, complex), np.asarray(L2, complex), z0, z, backend)
    # [gamma_D R_1(zbar)]^* = + HarmExt_w M_1(z);  [gamma_D R_1(z)]^* = + HarmExt_wbar M_1(zbar)
    M1z = mfunc(ext1, z).matrix
    M1zb = mfunc(ext1, np.conj(z)).matrix
    diff = u2 + (-1.0) * u1
    out = {}
    for name, T in variants.items():
        corr_zbar = backend.harmonic_extension(w, M1z @ (T @ a))
        corr_z = backend.harmonic_extension(np.conj(w) if w.imag else w, M1zb @ (T @ a))
        out[f"{name}(zbar)"] = _field_distance(backend, diff, corr_zbar)
        out[f"{name}(z)"] = _field_distance(backend, diff, corr_z)
    return out


def _default_probe(backend):
    if isinstance(backend, Model1D):
        return lambda x: np.sin(np.pi * x) + 0.3 * np.cos(2 * np.pi * x)
    ks = [0, 1] if backend.mode_cutoff >= 1 else [0]
    return {k: (lambda r: np.exp(-r) * (1.0 + r)) for k in ks}


def _field_distance(backend, u, v) -> float:
    diff = u + (-1.0) * v
    return float(np.sqrt(abs(backend.inner(diff, diff))))


def two_extension_symmetry_defect(L1, L2, z0: float, z, backend) -> float:
    """Residual of T(z)^* = T(zbar) for the validated transfer operator."""
    z = as_complex(z)
    w = backend.boundary_weights
    Tz = transfer_variants(np.asarray(L1, complex), np.asarray(L2, complex), z0, z, backend)["primary"]
    Tzb = transfer_variants(np.asarray(L1, complex), np.asarray(L2, complex), z0, np.conj(z), backend)["primary"]
    return float(np.max(np.abs(weighted_adjoint(Tz, w, w) - Tzb)))


def smoothing_factorization_check(ext, z, backend=None) -> float:
    """Residual of  tau_N(z0) [gamma_D R_ext(zbar)]^*  =  [M(z0) - M(z+z0)] M(z).

    The adjoint is realized through the validated identity
    [gamma_D R_ext(zbar)]^* = HarmExt_{z+z0} M(z); the left side then reduces
    to applying the regularized trace to explicit harmonic extensions, which
    is computed independently of the right-hand product.
    """
    ext = _as_extension(ext, backend)
    backend = ext.backend
    z = as_complex(z)
    w = z + ext.z0
    MD = mfunc(ext, z).matrix
    m = backend.nboundary
    lhs = np.zeros((m, m), dtype=complex)
    for j in range(m):
        e = np.zeros(m, dtype=complex)
        e[j] = 1.0
        h = backend.harmonic_extension(w, MD @ e)
        lhs[:, j] = tau_N(ext.z0, h)
    rhs = (backend.dtn(ext.z0) - backend.dtn(w)) @ MD
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# discretized operator witnesses (interval backend)
# ---------------------------------------------------------------------------

def _discretize_interval(ext: Extension, z):
    """Matrices of R_ext(z), R_D(w), tau_N R_D(w), gamma_D R_ext(zbar) and tau_N R_D(wbar)."""
    backend = ext.backend
    z = as_complex(z)
    w = z + ext.z0
    nodes = backend.quad_nodes
    n = len(nodes)
    Rext = np.zeros((n, n), dtype=complex)
    RD = np.zeros((n, n), dtype=complex)
    TN = np.zeros((2, n), dtype=complex)
    GD_zbar = np.zeros((2, n), dtype=complex)
    TNb = np.zeros((2, n), dtype=complex)
    # the cardinal functions, as samples at the nodes: the backend's one
    # barycentric basis evaluates all of them
    for j, fj in enumerate(np.eye(n, dtype=complex)):
        u = apply_resolvent(ext, z, fj)
        Rext[:, j] = u.value(nodes)
        ud = backend.resolvent_dirichlet(w, fj)
        RD[:, j] = ud.value(nodes)
        TN[:, j] = tau_N(ext.z0, ud)
        ub = apply_resolvent(ext, np.conj(z), fj)
        GD_zbar[:, j] = gamma_D(ub)
        TNb[:, j] = tau_N(ext.z0, backend.resolvent_dirichlet(np.conj(w), fj))
    return nodes, Rext, RD, TN, GD_zbar, TNb


def interval_sign_witnesses(ext: Extension, z) -> dict:
    """Matrix-level residuals of three identities from one interval discretization.

    ``resolvent-difference`` holds both sign candidates s = +1/-1 of
    R_ext(z) = R_D(z+z0) + s [gamma_D R_ext(zbar)]^* [tau_N R_D(z+z0)];
    ``krein-formula`` is the symmetrised Krein formula and
    ``harmonic-adjoint`` the identity [tau_N R_D(wbar)]^* = -HarmExt_w.
    """
    backend = ext.backend
    if not isinstance(backend, Model1D):
        raise DomainError("matrix witness implemented on the interval backend")
    z = as_complex(z)
    w = z + ext.z0
    nodes, Rext, RD, TN, GD_zbar, TNb = _discretize_interval(ext, z)
    adj = weighted_adjoint(GD_zbar, backend.boundary_weights, backend.quad_weights)
    adjT = weighted_adjoint(TNb, backend.boundary_weights, backend.quad_weights)
    HE = np.array([backend.harmonic_extension(w, e).value(nodes)
                   for e in np.eye(2, dtype=complex)]).T
    scale = float(np.max(np.abs(Rext)))
    return {
        "resolvent-difference": {
            "+": float(np.max(np.abs(Rext - RD - adj @ TN))) / scale,
            "-": float(np.max(np.abs(Rext - RD + adj @ TN))) / scale,
        },
        "krein-formula": float(np.max(np.abs(Rext - RD - adjT @ mfunc(ext, z).matrix @ TN))) / scale,
        "harmonic-adjoint": float(np.max(np.abs(adjT + HE))),
    }


def sign_witnesses(grid=None, backend=None, z0: float = 0.0, z=-1.0 + 0.7j) -> dict:
    """Residuals of every sign witness, both candidates kept where there are two."""
    from .geometry import CurveSpec, make_grid

    backend = backend or Model1D()
    grid = grid or make_grid(CurveSpec.circle(1.0), 64)

    # jump relation: uniform density on the unit circle has zero interior
    # Neumann trace, which forces the +1/2 jump for this kernel.
    ks = assemble_adjoint_double_layer(grid, 0.0).matrix
    ones = np.ones(grid.n)
    out = {"jump-relation": {
        "+1/2": float(np.max(np.abs((0.5 * np.eye(grid.n) + ks) @ ones))),
        "-1/2": float(np.max(np.abs((-0.5 * np.eye(grid.n) + ks) @ ones))),
    }}
    L = np.array([[1.0, 0.2], [0.2, 0.5]], dtype=complex)
    out.update(interval_sign_witnesses(_extension_from_matrix(L, z0, backend), z))
    out["two-extension"] = two_extension_identity_residuals(
        np.zeros((2, 2)), -backend.dtn(-1.0), -1.0, z, backend)
    out["ntd-sign"] = float(np.min(np.linalg.eigvalsh(
        hermitian_part(backend.ntd(-1.0), backend.boundary_weights))))
    # boundary-condition convention: with L = -dtn(z0) the condition must
    # reduce to a vanishing Neumann trace.
    neu = make_extension(ExtensionSpec("dirichlet", -1.0, "neumann", "full"), backend)
    u = apply_resolvent(neu, -0.5, _default_probe(backend))
    out["boundary-condition"] = float(np.max(np.abs(gamma_N(u))))
    return out


def resolve_sign_conventions(grid=None, backend=None, z0: float = 0.0, z=-1.0 + 0.7j,
                             witnesses: dict | None = None) -> SignLedger:
    """Sign ledger from the residuals of :func:`sign_witnesses`, run here unless
    ``witnesses`` already holds them."""
    r = sign_witnesses(grid, backend, z0, z) if witnesses is None else witnesses
    jump, diff, two = r["jump-relation"], r["resolvent-difference"], r["two-extension"]
    ntd_min, res_bc = r["ntd-sign"], r["boundary-condition"]
    ledger = SignLedger()
    for entry in (
        ("jump-relation", "-1/2", "+1/2" if jump["+1/2"] < jump["-1/2"] else "-1/2",
         "uniform density on the unit circle, static kernel", min(jump.values())),
        ("resolvent-difference", "+", min(diff, key=diff.get),
         "discretized resolvent identity, interval backend", min(diff.values())),
        ("krein-formula", "+", "+",
         "discretized symmetrised formula, interval backend", r["krein-formula"]),
        ("two-extension", "primary(zbar)", min(two, key=two.get),
         "Krein/Neumann pair resolvent difference, interval backend", min(two.values())),
        ("ntd-sign", "negative", "positive" if ntd_min > -1e-12 else "negative",
         "eigenvalues of the Hermitian part of ntd(-1)", max(0.0, -ntd_min)),
        ("boundary-condition", "tau = -L gamma",
         "tau = -L gamma" if res_bc < 1e-8 else "tau = +L gamma",
         "Neumann special case reduces to gamma_N = 0", res_bc),
    ):
        ledger.add(SignLedgerEntry(*entry))
    return ledger


# ---------------------------------------------------------------------------
# abstract machinery on the interval
# ---------------------------------------------------------------------------

class Abstract1D:
    """Deficiency-space calculus for the minimal -d^2/dx^2 on (0, 1).

    The deficiency spaces ker(S^* -/+ i) are spanned by explicit
    exponentials; the class carries their Gram matrices, an orthonormal
    basis of N_+, and projections onto it.
    """

    def __init__(self, backend: Model1D | None = None):
        self.backend = backend or Model1D()
        lam_plus = np.exp(-1j * np.pi / 4)  # lam^2 = -i, so -u'' = +i u
        lam_minus = np.exp(1j * np.pi / 4)
        self.basis_plus = [self._exp_field(lam_plus), self._exp_field(-lam_plus)]
        self.basis_minus = [self._exp_field(lam_minus), self._exp_field(-lam_minus)]
        self.gram_plus = self._gram(self.basis_plus)
        self.gram_minus = self._gram(self.basis_minus)
        evals, evecs = np.linalg.eigh(self.gram_plus)
        coef = evecs @ np.diag(evals**-0.5)
        self.onb_plus = [
            coef[0, i] * self.basis_plus[0] + coef[1, i] * self.basis_plus[1] for i in range(2)
        ]

    def _exp_field(self, lam):
        b = self.backend
        return b.field(
            lambda x: np.exp(lam * x),
            lambda x: lam * np.exp(lam * x),
            lambda x: lam * lam * np.exp(lam * x),
        )

    def _gram(self, basis):
        b = self.backend
        return np.array([[b.inner(u, v) for v in basis] for u in basis])

    def deficiency_indices(self):
        return (len(self.basis_plus), len(self.basis_minus))

    def project_plus(self, u) -> np.ndarray:
        """Coefficients of the orthogonal projection onto N_+ in the ONB."""
        return np.array([self.backend.inner(n, u) for n in self.onb_plus])

    def onb_combination(self, coeffs):
        return coeffs[0] * self.onb_plus[0] + coeffs[1] * self.onb_plus[1]


def abstract_deficiency(model: Abstract1D):
    """Deficiency indices of the minimal interval operator: (2, 2)."""
    return model.deficiency_indices()


def _extension_resolvent(model: Abstract1D, tag: str, z):
    backend = model.backend
    if tag == "friedrichs":
        return lambda f: backend.resolvent_dirichlet(z, f)
    if tag == "krein":
        ext = make_extension(ExtensionSpec("dirichlet", 0.0, "krein", "full"), backend)
        return lambda f: apply_resolvent(ext, z, f)
    raise DomainError(f"unknown extension tag {tag!r}")


def donoghue_m(model: Abstract1D, tag: str, z) -> np.ndarray:
    """Donoghue Weyl matrix  z I + (1 + z^2) P (S - z)^{-1} P  on N_+ (2x2)."""
    z = as_complex(z)
    backend = model.backend
    resolvent = _extension_resolvent(model, tag, z)
    M = z * np.eye(2, dtype=complex)
    if z == 1j:  # the (1 + z^2) factor vanishes identically
        return M
    for bcol, nb in enumerate(model.onb_plus):
        u = resolvent(nb)
        for arow, na in enumerate(model.onb_plus):
            M[arow, bcol] += (1.0 + z * z) * backend.inner(na, u)
    return M


def abstract_krein_check(model: Abstract1D, z, probes=None) -> float:
    """Residual of the deficiency-space Krein formula linking the Krein and
    Friedrichs resolvents through the Donoghue matrix at 0 and z."""
    z = as_complex(z)
    backend = model.backend
    if z.imag == 0 and z.real >= 0:
        raise DomainError("spectral point must avoid the nonnegative half-line")
    MF0 = donoghue_m(model, "friedrichs", 0.0)
    MFz = donoghue_m(model, "friedrichs", z)
    bracket = MF0 - MFz
    if not inverse_and_condition(bracket)[1] <= COND_LIMIT:
        raise BracketSingular(f"Donoghue bracket singular at z = {z}")
    if probes is None:
        probes = [
            lambda x: np.sin(np.pi * x),
            lambda x: x * (1 - x) + 0j,
            lambda x: np.exp(-x),
            lambda x: np.cos(3 * x),
            lambda x: x**3 + 0j,
        ]
    RF = lambda f: backend.resolvent_dirichlet(z, f)
    RK = _extension_resolvent(model, "krein", z)
    nodes = backend.quad_nodes
    worst = 0.0
    for f in probes:
        uk = RK(f)
        uf = RF(f)
        lhs = uk.value(nodes) - uf.value(nodes)
        # g1 = (S_F + i)(S_F - z)^{-1} f = f + (z + i) R_F(z) f
        g1_vals = f(nodes) + (z + 1j) * uf.value(nodes)
        g1 = backend.field(backend.basis.interpolant(g1_vals), None, None)
        c = np.linalg.solve(bracket, model.project_plus(g1))
        h = model.onb_combination(c)
        uh = RF(h)
        rhs = h.value(nodes) + (z - 1j) * uh.value(nodes)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def friedrichs_krein_domains(model: Abstract1D | None = None, b_value: float = 1.0) -> dict:
    """Verify the extremal-extension domain decompositions on the interval.

    Returns a report with residuals: the Friedrichs resolvent matches the
    Dirichlet solve and is form-minimal; members of dom(S^*) split into
    a minimal part, an image of the kernel, and a kernel part; the kernel of
    the Krein extension is {1, x}; and the B = b I parametrized extension
    has its Galerkin resolvent between the extremal ones.
    """
    model = model or Abstract1D()
    backend = model.backend
    rng = np.random.default_rng(7)
    report = {}

    # (i) Friedrichs = Dirichlet: resolvent output lies in the form domain
    # (vanishing Dirichlet trace) and satisfies the weak form against H^2_0.
    f = lambda x: np.cos(2.0 * x) + 0.5 * x
    u = backend.resolvent_dirichlet(-1.0, f)
    report["friedrichs_dirichlet_trace"] = float(np.max(np.abs(gamma_D(u))))
    worst = 0.0
    for phi in backend.h20_family(5, rng):
        # ( u', phi' ) + (u, phi) - (f, phi) = 0 for the form extension at -1
        du_dphi = _form_pairing(backend, u, phi)
        fv = backend.field(f, None, None)
        resid = abs(du_dphi + backend.inner(u, phi) - backend.inner(fv, phi))
        worst = max(worst, float(resid))
    report["friedrichs_weak_form"] = worst

    # kernel members of S^* are {1, x}; the static image S_F^{-1} of them
    # has vanishing boundary values.
    for name, g in (("one", lambda x: np.ones_like(x) + 0j), ("x", lambda x: x + 0j)):
        v = backend.resolvent_dirichlet(0.0, g)
        report[f"friedrichs_inverse_kernel_{name}_trace"] = float(np.max(np.abs(gamma_D(v))))

    # (ii) three-way splitting of dom(S^*) members
    probe = backend.field(
        lambda x: np.exp(x) + x**2,
        lambda x: np.exp(x) + 2 * x,
        lambda x: np.exp(x) + 2.0,
    )
    report["domain_split"] = _domain_split_residual(backend, probe)

    # (iii) B = b I on ker(S^*) gives an extension between the extremal ones.
    L = _kernel_gram_boundary_operator(backend, b_value)
    exts = {
        "friedrichs": make_extension(ExtensionSpec("dirichlet", 0.0, "dirichlet", "zero"), backend),
        "middle": make_extension(ExtensionSpec("dirichlet", 0.0, L, "full"), backend),
        "krein": make_extension(ExtensionSpec("dirichlet", 0.0, "krein", "full"), backend),
    }
    trial = _trial_family(backend, 20)
    gram = {k: _galerkin_resolvent(e, 1.0, trial) for k, e in exts.items()}
    low = np.min(np.linalg.eigvalsh(gram["middle"] - gram["friedrichs"]))
    high = np.min(np.linalg.eigvalsh(gram["krein"] - gram["middle"]))
    report["ordering_floor"] = float(min(low, high))

    # Krein kernel: {1, x} annihilated by the extension's action and condition
    kext = exts["krein"]
    for name, fld in (("one", backend.constant(1.0)), ("x", backend.polynomial([0.0, 1.0]))):
        act = fld.helmholtz_apply(0.0)
        resid = float(np.sqrt(abs(backend.inner(act, act))))
        from .extensions import boundary_residual as _bres

        report[f"krein_kernel_{name}"] = max(resid, _bres(kext, fld))
    return report


def _form_pairing(backend: Model1D, u, v) -> complex:
    x, w = backend.quad_nodes, backend.quad_weights
    return complex(np.sum(w * np.conj(u.derivative(x)) * v.derivative(x)))


def _domain_split_residual(backend: Model1D, u) -> float:
    """Residual of u = u_min + S_F^{-1} h + g with h, g in span{1, x}."""
    src = backend.field(lambda x: -u.laplacian(x), None, None)
    uB = backend.resolvent_dirichlet(0.0, src)
    nodes = backend.quad_nodes
    g_vals = u.value(nodes) - uB.value(nodes)  # harmonic part: must be affine
    coef = np.polynomial.polynomial.polyfit(nodes, g_vals, 1)
    g_resid = float(np.max(np.abs(g_vals - (coef[0] + coef[1] * nodes))))
    # split the source of u_B into a kernel part h and its complement
    one = backend.constant(1.0)
    xf = backend.polynomial([0.0, 1.0])
    G = np.array([[backend.inner(a, b) for b in (one, xf)] for a in (one, xf)])
    rhs = np.array([backend.inner(one, src), backend.inner(xf, src)])
    hc = np.linalg.solve(G, rhs)
    h = hc[0] * one + hc[1] * xf
    u0 = backend.resolvent_dirichlet(0.0, lambda x: src.value(x) - h.value(x))
    # u0 must be in H^2_0: both traces vanish
    t_res = float(np.max(np.abs(np.concatenate([gamma_D(u0), gamma_N(u0)]))))
    uh = backend.resolvent_dirichlet(0.0, h)
    recon = u0 + uh
    rec_res = float(np.max(np.abs(recon.value(nodes) + g_vals - u.value(nodes))))
    return max(g_resid, t_res, rec_res)


def _kernel_gram_boundary_operator(backend: Model1D, b_value: float) -> np.ndarray:
    """Boundary operator matching B = b I on ker(S^*) under the trace pairing.

    The correspondence sends harmonic g with trace a to <a, L a> = b (g, g),
    so L = b G with G the Gram matrix of the static harmonic extensions.
    """
    e0 = backend.harmonic_extension(0.0, np.array([1.0, 0.0]))
    e1 = backend.harmonic_extension(0.0, np.array([0.0, 1.0]))
    G = np.array(
        [[backend.inner(e0, e0), backend.inner(e0, e1)], [backend.inner(e1, e0), backend.inner(e1, e1)]]
    )
    return b_value * G


def _trial_family(backend: Model1D, count: int):
    """Fixed, well-conditioned L2 trial functions: sine and cosine modes."""
    out = []
    for k in range(1, count // 2 + 1):
        out.append(backend.field(
            lambda x, k=k: np.sin(k * np.pi * x) + 0j,
            lambda x, k=k: k * np.pi * np.cos(k * np.pi * x) + 0j,
            lambda x, k=k: -((k * np.pi) ** 2) * np.sin(k * np.pi * x) + 0j,
        ))
    k = 0
    while len(out) < count:
        out.append(backend.field(
            lambda x, k=k: np.cos(k * np.pi * x) + 0j,
            lambda x, k=k: -k * np.pi * np.sin(k * np.pi * x) + 0j,
            lambda x, k=k: -((k * np.pi) ** 2) * np.cos(k * np.pi * x) + 0j,
        ))
        k += 1
    return out[:count]


def _galerkin_resolvent(ext: Extension, a: float, trial) -> np.ndarray:
    """Hermitian part of ``G[i, j] = (phi_i, R_ext(-a) phi_j)`` on the interval;
    each trial field and each image is sampled once at the quadrature nodes."""
    n = len(trial)
    backend = ext.backend
    x, w = backend.quad_nodes, backend.quad_weights
    conj_trial = [np.conj(f.value(x)) for f in trial]
    images = [apply_resolvent(ext, -a - ext.z0, f).value(x) for f in trial]
    G = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = complex(np.sum(w * conj_trial[i] * images[j]))
    return 0.5 * (G + G.conj().T)
