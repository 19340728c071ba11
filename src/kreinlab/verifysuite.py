"""Identity suites behind the ``verify`` command.

Each suite item measures one residual at a pinned tolerance and reports
``{identity, paper_ref, residual, tolerance, pass, sign_used}`` where the
``paper_ref`` field carries the formula being checked, written out
symbolically.  Items are deterministic given (backend, nodes, seed).

Each identity is written once, in a task that runs on every backend and reads
what varies from the backend's :class:`_Plan`: ``z0`` (0 on the interval, -1
elsewhere), the backend of the weyl items (on the disk, a Nystrom circle of
radius ``DISK_WEYL_RADIUS``), the data, fields and sources, the points and
tolerances that differ, the identities only some backends run, and the
compression to the resolved subspace, on which matrix defects are measured and
the Krein extension's Weyl function is taken.  That compression is the identity
on the models and on the disk's weyl circle, and on the kite the Galerkin
compression onto the modes ``|k| <= KITE_MODES`` (:class:`_Modes`), which a
finite grid resolves.  The task groups run in the order weyl, traces, krein (the
sign items, then the extension items), abstract; each task draws from its own
``default_rng([seed, idx])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import KreinlabError
from .extensions import (ExtensionSpec, apply_resolvent, boundary_residual, direct_solve,
                         is_nonnegative, make_extension)
from .geometry import CurveSpec, make_grid
from .kreinformulas import (Abstract1D, _extension_from_matrix, abstract_deficiency,
                            abstract_krein_check, donoghue_m, friedrichs_krein_domains,
                            herglotz_defect, mfunc, mfunc_direct, mfunc_symmetry_defect,
                            smoothing_factorization_check, transfer_alternative_form,
                            transfer_variants, two_extension_identity_residuals,
                            two_extension_symmetry_defect)
from .oracles import DiskModel, Model1D, disk_mode_dtn, interval_dtn
from .spectral import ordering_check
from .traces import (classical_green_defect, gamma_D, gamma_N, green_defect, herm, hermitian_part,
                     tau_D, tau_N, weighted_adjoint)
from .weyl import BemBackend, solve_dirichlet, solve_neumann

#: radius of the Nystrom circle on which the disk's weyl items run
DISK_WEYL_RADIUS = 1.3
#: highest trigonometric mode of the kite's resolved subspace
KITE_MODES = 16


def worker_count() -> int:
    """Suite tasks run in the calling thread; kept for the benchmark harness."""
    return 1


def _item(identity, formula, residual, tolerance, sign_used="n/a"):
    residual = float(residual)
    return {"identity": identity, "paper_ref": formula, "residual": residual,
            "tolerance": float(tolerance), "pass": bool(residual <= tolerance),
            "sign_used": sign_used}


def _rayleigh(grid, matrix, k):
    v, w = np.exp(1j * k * grid.t), grid.weighted_measure
    return complex(np.sum(w * np.conj(v) * (matrix @ v)) / np.sum(w * np.abs(v) ** 2))


#: the identity compression, for maps resolved on the whole boundary
_WHOLE = SimpleNamespace(qualifier="", defect=lambda matrix: float(np.max(np.abs(matrix))),
                         extension=lambda ext: ext)


class _Modes:
    """Compression to the modes ``e^{ikt}``, ``|k| <= kmax``, of a Nystrom grid,
    in orthonormal mode coordinates (so unit weights)."""

    qualifier = " (resolved modes)"

    def __init__(self, backend: BemBackend, kmax: int):
        self.family = np.array([np.exp(1j * k * backend.grid.t) for k in range(-kmax, kmax + 1)]).T
        self.grid_weights = backend.boundary_weights
        self.boundary_weights = np.ones(2 * kmax + 1)

    def compress(self, matrix) -> np.ndarray:
        """Galerkin compression of the matrix onto the modes."""
        F, w = self.family, self.grid_weights[:, None]
        G = F.conj().T @ (w * F)
        coef = np.linalg.solve(G, F.conj().T @ (w * (matrix @ F)))
        evals, evecs = np.linalg.eigh(herm(G))
        half = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
        halfinv = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
        return half @ coef @ halfinv

    def defect(self, matrix) -> float:
        """Largest weighted-norm amplification of the matrix over the modes."""
        w = self.grid_weights[:, None]
        num = np.sum(w * np.abs(matrix @ self.family) ** 2, axis=0)
        den = np.sum(w * np.abs(self.family) ** 2, axis=0)
        return float(np.sqrt(np.max(num / den)))

    def extension(self, ext):
        """The extension with its bracket compressed, as ``mfunc`` reads an extension."""
        return SimpleNamespace(backend=self, z0=ext.z0, projector=None,
                               bracket=lambda w: self.compress(ext.bracket(w)))


@dataclass(frozen=True)
class _Plan:
    """What the suites of one backend vary; see the module docstring."""

    backend: object                    # traces and krein tasks run on it
    maps: Callable                     # () -> the backend the weyl task reads
    z0: float
    resolved: object                   # compression to the resolved subspace
    data: Callable                     # rng -> boundary data of the traces' harmonic probe
    points: dict                       # identity -> spectral points, where they vary
    tols: dict                         # identity -> tolerance, where it varies
    fields: Callable = None            # () -> test fields (u, v, w) of the Green identities
    sources: tuple = ()                # probe sources of the interior resolvents
    weyl_first: tuple = ()             # (plan, maps) -> items, before the shared ones
    weyl_last: tuple = ()              # (plan, maps, ntd) -> items, after them
    traces: tuple = ()                 # (plan, g, h, rng) -> items
    krein: tuple = ()                  # (plan, krein, rng) -> items
    groups: tuple = ("weyl", "traces", "krein")


# ---------------------------------------------------------------------------
# weyl suite
# ---------------------------------------------------------------------------

def _weyl(p: _Plan, rng):
    """Boundary-map identities; each ntd(z) is formed just before dtn(z), the order the
    kite's map cache was sized for."""
    b = p.maps()
    w = b.boundary_weights
    items = [it for first in p.weyl_first for it in first(p, b)]
    ntd, worst = {}, 0.0
    for z in p.points["ntd-dtn-inverse"]:
        ntd[z] = b.ntd(z)
        worst = max(worst, float(np.max(np.abs(ntd[z] @ b.dtn(z) + np.eye(b.nboundary)))))
    items.append(_item("ntd-dtn-inverse", "ntd(z) dtn(z) = -I", worst, p.tols["ntd-dtn-inverse"]))
    worst = 0.0
    for z in (2 + 1j, -3 + 0.5j):
        adj = weighted_adjoint(b.dtn(z), w, w)
        worst = max(worst, p.resolved.defect(adj - b.dtn(np.conj(z))))
    items.append(_item("dtn-symmetry", "dtn(z)^* = dtn(conj z)" + p.resolved.qualifier, worst,
                       1e-8))
    worst = max(float(np.max(np.linalg.eigvalsh(hermitian_part(b.dtn(z), w))))
                for z in (0.0, -1.0))
    items.append(_item("dtn-sign-nonpositive", "herm dtn(z) <= 0 for z <= 0", max(worst, 0.0),
                       1e-10))
    return items + [it for last in p.weyl_last for it in last(p, b, ntd)]


def _closed_forms(p, b):
    ref0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    ch, sh = np.cosh(1.0), np.sinh(1.0)
    ref1 = np.array([[-ch, 1.0], [1.0, -ch]]) / sh
    return [
        _item("dtn-static-closed-form", "dtn(0) = [[-1,1],[1,-1]]",
              np.max(np.abs(interval_dtn(0.0) - ref0)), 1e-12),
        _item("dtn-shifted-closed-form", "dtn(-1) = [[-cosh 1,1],[1,-cosh 1]]/sinh 1",
              np.max(np.abs(interval_dtn(-1.0) - ref1)), 1e-12),
    ]


def _circle_modes(p, bem):
    """The Nystrom maps of a circle against its Fourier-Bessel modes."""
    grid, R = bem.grid, bem.grid.spec.params["radius"]
    M0 = bem.dtn(0.0)
    worst = max(abs(_rayleigh(grid, M0, k) - (-abs(k) / R)) for k in range(-10, 11))
    items = [_item("bem-dtn-static-modes", "dtn(0) mode k eigenvalue = -|k|/R", worst, 1e-8)]
    worst = 0.0
    for z in (-1.0, 2 + 1j):
        M = bem.dtn(z)
        worst = max(worst, max(abs(_rayleigh(grid, M, k) - disk_mode_dtn(k, z, R))
                               for k in range(-10, 11)))
    items.append(_item("bem-dtn-helmholtz-modes", "dtn(z) mode k = -sqrt(z) J'_k/J_k", worst, 1e-8))
    ks = np.arange(4, 33)
    diffs = np.array([abs(disk_mode_dtn(k, -1.0, R) - disk_mode_dtn(k, -2.0, R)) for k in ks])
    c_fit = float(np.max(diffs * ks))
    worst = float(np.max(diffs - 1.05 * c_fit / ks))
    items.append(_item("dtn-smoothing-decay", "|m_k(z1) - m_k(z2)| <= C/k", max(worst, 0.0), 1e-12))
    return items


def _ntd_sign(p, b, ntd):
    low = float(np.min(np.linalg.eigvalsh(hermitian_part(ntd[-1.0], b.boundary_weights))))
    return [_item("ntd-sign-definite", "herm ntd(-1) >= 0 (validated direction)",
                  max(-low, 0.0), 1e-10, sign_used="+")]


def _neumann_solve(p, bem, ntd):
    g = np.exp(1j * bem.grid.t) + 0.5
    u = solve_neumann(bem, -1.0, g)
    return [_item("solve-neumann-consistency", "gamma_D solve_neumann(g) = ntd(z) g",
                  np.max(np.abs(gamma_D(u) - ntd[-1.0] @ g)), 1e-8)]


def _grid_checks(p, bem, ntd):
    """The map under grid doubling, and the Dirichlet solve's boundary trace."""
    grid = bem.grid
    fine = BemBackend(make_grid(grid.spec, 2 * grid.n))
    dens = lambda t: np.exp(np.cos(t)) + 1j * np.sin(2 * t)
    coarse_vals = bem.dtn(2 + 1j) @ dens(grid.t)
    fine_vals = fine.dtn(2 + 1j) @ dens(fine.grid.t)
    f = np.cos(grid.t) + 0.3j * np.sin(3 * grid.t)
    u = solve_dirichlet(bem, -1.0, f)
    return [
        _item("dtn-self-convergence", "dtn action stable under grid doubling",
              np.max(np.abs(coarse_vals - fine_vals[::2])), 1e-9),
        _item("dirichlet-roundtrip", "gamma_D solve_dirichlet(f) = f",
              np.max(np.abs(gamma_D(u) - f)), 1e-8),
    ]


# ---------------------------------------------------------------------------
# traces suite
# ---------------------------------------------------------------------------

def _traces(p: _Plan, rng):
    g = p.data(rng)
    h = p.backend.harmonic_extension(p.z0, g)
    items = [_item("tauN-kernel", "tau_N(z0) u = 0 for (-L - z0)-harmonic u",
                   np.max(np.abs(tau_N(p.z0, h))), p.tols["tauN-kernel"])]
    return items + [it for check in p.traces for it in check(p, g, h, rng)]


def _gamma_roundtrip(p, g, h, rng):
    return [_item("gamma-roundtrip", "gamma_D solve_dirichlet(f) = f",
                  np.max(np.abs(gamma_D(h) - g)), 1e-8)]


def _tau_factorizations(p, g, h, rng):
    b, zf = p.backend, -1.0
    u = b.polynomial([0.0, 0.0, 1.0])  # x^2
    w = b.resolvent_dirichlet(zf, u.helmholtz_apply(zf))
    un = b.resolvent_neumann(zf, u.helmholtz_apply(zf))
    rel = tau_D(zf, u) + b.ntd(zf) @ tau_N(zf, u)
    return [
        _item("tauN-factorization", "tau_N(z) u = gamma_N R_D(z)(-L - z) u",
              np.max(np.abs(tau_N(zf, u) - gamma_N(w))), 1e-10),
        _item("tauD-factorization", "tau_D(z) u = gamma_D R_N(z)(-L - z) u",
              np.max(np.abs(tau_D(zf, u) - gamma_D(un))), 1e-10),
        _item("tauD-relation", "tau_D(z) = -ntd(z) tau_N(z)", np.max(np.abs(rel)), 1e-10),
    ]


def _interior_traces(p, g, h, rng):
    """Identities that need interior fields and the interior inner product."""
    b, z0, zn = p.backend, p.z0, -1.0
    hn = h if z0 == zn else b.harmonic_extension(zn, g)
    items = [_item("tauD-kernel", "tau_D(z) u = 0 for (-L - z)-harmonic u",
                   np.max(np.abs(tau_D(zn, hn))), 1e-8)]
    h2 = b.harmonic_extension(zn, p.data(rng))
    items.append(_item("green-defect-harmonic", "regularized Green formula, harmonic pair",
                       green_defect(zn, hn, h2), 1e-10))
    u, v, w0 = p.fields()
    items.append(_item("green-defect-generic", "regularized Green formula, generic pair",
                       green_defect(zn, u, v), p.tols["green-defect-generic"]))
    items.append(_item("classical-green", "<gamma_N w, gamma_D u> = (Lap w, u) - (w, Lap u)",
                       classical_green_defect(w0, v), 1e-8))
    # range property: tau_N over an H^2 cap H^1_0 family has full boundary rank
    fam = [b.h2n_field(col) for col in np.eye(b.nboundary, dtype=complex)]
    s = np.linalg.svd(np.array([tau_N(z0, q) for q in fam]).T, compute_uv=False)
    items.append(_item("tauN-range", "tau_N(z0) on zero-Dirichlet-trace fields spans the boundary",
                       1.0 / max(s[-1], 1e-300) if s[-1] < 1e-8 else 0.0, 1e-8))
    # kernel decomposition: H^2_0 member + harmonic stays in the kernel
    mix = b.h20_family(1, rng)[0] + h
    items.append(_item("tauN-kernel-decomposition", "tau_N(z0)(H^2_0 + harmonic) = 0",
                       np.max(np.abs(tau_N(z0, mix))), 1e-9))
    return items


# ---------------------------------------------------------------------------
# krein suite
# ---------------------------------------------------------------------------

def _sign_items(witnesses):
    """Convention items shared by every krein suite, evaluated with the validated
    signs on the residuals of :func:`kreinlab.kreinformulas.sign_witnesses`."""
    r = witnesses
    return [
        _item("jump-relation", "interior Neumann trace of S_0[1] = 0 on the unit circle",
              r["jump-relation"]["+1/2"], 1e-10, sign_used="+1/2"),
        _item("resolvent-difference",
              "R_ext(z) = R_D(z+z0) - [gamma_D R_ext(zbar)]^* tau_N R_D(z+z0)",
              r["resolvent-difference"]["-"], 1e-9, sign_used="-"),
        _item("krein-formula-matrix",
              "R_ext(z) = R_D + [tau_N R_D(zbar+z0)]^* B(z)^{-1} tau_N R_D(z+z0)",
              r["krein-formula"], 1e-9, sign_used="+"),
        _item("harmonic-adjoint", "[tau_N R_D(wbar)]^* = -HarmExt_w",
              r["harmonic-adjoint"], 1e-10, sign_used="-"),
    ]


def _krein(p: _Plan, rng):
    """Weyl-function identities of the Krein extension at ``z0``, on the resolved subspace."""
    krein = make_extension(ExtensionSpec("dirichlet", p.z0, "krein", "full"), p.backend)
    weyl, q = p.resolved.extension(krein), p.resolved.qualifier
    symmetry = mfunc_symmetry_defect(weyl, p.points["mfunc-symmetry"])
    herglotz = max(herglotz_defect(weyl, p.points["herglotz-krein"]), 0.0)
    items = [_item("mfunc-symmetry", "M(z)^* = M(conj z)" + q, symmetry, p.tols["mfunc-symmetry"]),
             _item("herglotz-krein", "Im M(z) >= 0 on the upper half plane" + q, herglotz,
                   p.tols["herglotz-krein"])]
    return items + [it for check in p.krein for it in check(p, krein, rng)]


def _interior_krein(p, krein, rng):
    """Identities that need interior resolvents and the interior inner product."""
    b, z0 = p.backend, p.z0
    probe, source = p.sources
    worst = 0.0
    for z in p.points["krein-resolvent-vs-direct"]:
        diff = apply_resolvent(krein, z, probe) + (-1.0) * direct_solve(krein, z, probe)
        worst = max(worst, float(np.sqrt(abs(b.inner(diff, diff)))))
    items = [_item("krein-resolvent-vs-direct",
                   "formula resolvent = direct boundary-condition solve (Krein)",
                   worst, p.tols["krein-resolvent-vs-direct"], sign_used="+")]
    zm = -1.5 + 0.5j
    items.append(_item("mfunc-vs-direct", "bracket inverse = defining boundary problem",
                       np.max(np.abs(mfunc_direct(krein, zm) - mfunc(krein, zm))), 1e-8))
    neu = make_extension(ExtensionSpec("dirichlet", -1.0, "neumann", "full"), b)
    zq = -1.0 + 0.5j
    items.append(_item("mfunc-neumann-ntd", "Neumann case: M(z) = ntd(z + z0)",
                       np.max(np.abs(mfunc(neu, zq) - b.ntd(zq - 1.0))), 1e-9))
    # a random L, Hermitian in the weighted product
    m, w = b.nboundary, b.boundary_weights[:, None]
    L = herm(w * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))) / w
    extr = _extension_from_matrix(L, z0, b)
    items.append(_item("herglotz-random-L", "Im M(z) >= 0, random Hermitian L",
                       max(herglotz_defect(extr, p.points["herglotz-krein"]), 0.0), 1e-9))
    worst = max(smoothing_factorization_check(ext, -0.8 + 0.4j) for ext in (krein, neu, extr))
    items.append(_item("smoothing-factorization",
                       "tau_N(z0)[gamma_D R_ext(zbar)]^* = [M(z0) - M(z+z0)] M(z)", worst, 1e-8))
    # special-case translations
    u = apply_resolvent(neu, -0.7, source)
    items.append(_item("special-neumann", "Neumann case: boundary condition is gamma_N u = 0",
                       np.max(np.abs(gamma_N(u))), 1e-8))
    uk = apply_resolvent(krein, -1.3, source)
    items.append(_item("special-krein", "Krein case: tau_N(z0) u = 0",
                       boundary_residual(krein, uk), 1e-8))
    return items


def _interval_krein(p, krein, rng):
    """Two-extension, Robin and ordering identities of the interval."""
    b = p.backend
    L1, L2 = np.zeros((2, 2), dtype=complex), -b.dtn(-1.0)
    resid = two_extension_identity_residuals(L1, L2, -1.0, -1.0, b)
    var = transfer_variants(L1, L2, -1.0, -1.0, b)["primary"]
    alt = transfer_alternative_form(L1, L2, -1.0, -1.0, b)
    items = [
        _item("two-extension-identity", "R_2 - R_1 = [gamma_D R_1(zbar)]^* T(z) [gamma_D R_1(z)]",
              resid["primary(zbar)"], 1e-9, sign_used="primary(zbar)"),
        _item("two-extension-alternative", "T(z) = M_1^{-1}(M_2 - M_1)M_1^{-1}",
              np.max(np.abs(var - alt)), 1e-9),
        _item("two-extension-symmetry", "T(z)^* = T(conj z)",
              two_extension_symmetry_defect(L1, L2, -1.0, 2 + 1j, b), 1e-9),
    ]
    rob = make_extension(ExtensionSpec("dirichlet", 0.0, ("robin", 1.0), "full"), b)
    ur = apply_resolvent(rob, -2.0, p.sources[1])
    items.append(_item("special-robin", "Robin case: gamma_N u + theta gamma_D u = 0",
                       np.max(np.abs(gamma_N(ur) + gamma_D(ur))), 1e-8))
    floors = [f for it in ordering_check([rob], 1.0, b)["items"]
              for f in (it["lower_floor"], it["upper_floor"])]
    items.append(_item("resolvent-ordering", "G_Dirichlet <= G_ext <= G_Krein at a = 1",
                       max(-min(floors, default=0.0), 0.0), 1e-9))
    flag, cert = is_nonnegative(krein, rng)
    items.append(_item("nonnegativity-krein", "Krein extension is nonnegative",
                       max(-cert["ritz_min"], 0.0) + (0.0 if flag else 1.0), 1e-8))
    return items


def _cross_factory(p, krein, rng):
    b = p.backend
    nref = make_extension(ExtensionSpec("neumann", -1.0, "krein", "full"), b)
    dref = make_extension(ExtensionSpec("dirichlet", -1.0, "krein", "full"), b)
    probe = p.sources[0]
    diff = apply_resolvent(nref, -2.0, probe) + (-1.0) * apply_resolvent(dref, -2.0, probe)
    return [_item("cross-factory-krein", "Krein resolvent agrees between reference factories",
                  np.sqrt(abs(b.inner(diff, diff))), 1e-8)]


# ---------------------------------------------------------------------------
# abstract suite (interval only)
# ---------------------------------------------------------------------------

def _abstract(p, rng):
    model = Abstract1D()
    npm = abstract_deficiency(model)
    gmin = float(np.min(np.linalg.eigvalsh(model.gram_plus)))
    MF, MFb = donoghue_m(model, "friedrichs", 2 + 3j), donoghue_m(model, "friedrichs", 2 - 3j)
    Mi = donoghue_m(model, "friedrichs", 0.5 + 1j)
    imin = float(np.min(np.linalg.eigvalsh((Mi - Mi.conj().T) / 2j)))
    at_i = donoghue_m(model, "friedrichs", 1j)
    worst = max(abstract_krein_check(model, z) for z in (-1.0, 2 + 3j))
    rep = friedrichs_krein_domains(model)
    return [
        _item("deficiency-indices", "dim ker(S^* -/+ i) = (2, 2)",
              abs(npm[0] - 2) + abs(npm[1] - 2), 0.5),
        _item("deficiency-gram", "Gram matrix of the N_+ basis is positive definite",
              max(-gmin, 0.0) + (0.0 if gmin > 1e-6 else 1.0), 1e-10),
        _item("donoghue-symmetry", "M(z)^* = M(conj z)", np.max(np.abs(MF.conj().T - MFb)), 1e-8),
        _item("donoghue-herglotz", "Im M(z) >= 0 for Im z > 0", max(-imin, 0.0), 1e-10),
        _item("donoghue-at-i", "M(i) = i I exactly", np.max(np.abs(at_i - 1j * np.eye(2))), 1e-12),
        _item("krein-formula-deficiency",
              "R_K(z) - R_F(z) via the Donoghue bracket [M(0) - M(z)]^{-1}", worst, 1e-6),
        _item("friedrichs-is-dirichlet", "Friedrichs extension solves the Dirichlet weak form",
              max(rep["friedrichs_dirichlet_trace"], rep["friedrichs_weak_form"]), 1e-8),
        _item("domain-splitting", "dom(S^*) = dom(S) + S_F^{-1} ker(S^*) + ker(S^*)",
              rep["domain_split"], 1e-9),
        _item("kernel-of-krein", "Krein extension annihilates {1, x}",
              max(rep["krein_kernel_one"], rep["krein_kernel_x"]), 1e-10),
        _item("parametrized-ordering", "B = I extension sits between the extremal resolvents",
              max(-rep["ordering_floor"], 0.0), 1e-9),
    ]


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

SUITES = ("weyl", "traces", "krein", "abstract", "all")
BACKENDS = ("interval", "disk", "kite")

#: upper-half-plane points of the models' Herglotz items
_ZGRID = [0.3j + 0.2 * k + 0.15j * (k % 3) for k in range(10)] + [1j, 1 + 1j, -2 + 0.5j]


def _plan(backend_name: str, nodes: int) -> _Plan:
    """The plan of a backend; ``nodes`` (0 for the default 192) sizes a Nystrom grid."""
    nodes = nodes or 192
    if backend_name == "kite":
        bem = BemBackend(make_grid(CurveSpec.kite(), nodes))
        return _Plan(
            bem, lambda: bem, -1.0, _Modes(bem, KITE_MODES),
            data=lambda rng: np.cos(bem.grid.t) - 0.4j * np.sin(2 * bem.grid.t),
            points={"ntd-dtn-inverse": (-1.0, 2 + 1j), "mfunc-symmetry": 0.5 + 1j,
                    "herglotz-krein": (1j, 0.5 + 0.8j)},
            tols={"ntd-dtn-inverse": 1e-8, "tauN-kernel": 1e-7, "mfunc-symmetry": 1e-8,
                  "herglotz-krein": 1e-9},
            weyl_last=(_grid_checks,), traces=(_gamma_roundtrip,))
    # the models: closed-form maps, interior resolvents and inner products
    b = Model1D() if backend_name == "interval" else DiskModel()
    m = b.nboundary
    data = lambda rng: rng.standard_normal(m) + 1j * rng.standard_normal(m)
    points = {"mfunc-symmetry": 2 + 3j, "herglotz-krein": _ZGRID}
    tols = {"tauN-kernel": 1e-8, "mfunc-symmetry": 1e-9, "herglotz-krein": 1e-10}
    if backend_name == "interval":
        return _Plan(
            b, lambda: b, 0.0, _WHOLE, data,
            points={**points, "ntd-dtn-inverse": (-1.0,),
                    "krein-resolvent-vs-direct": (-1.0, -5.0)},
            tols={**tols, "ntd-dtn-inverse": 1e-12, "green-defect-generic": 1e-10,
                  "krein-resolvent-vs-direct": 1e-9},
            # x^2, x^3, and x(1-x), whose Dirichlet trace vanishes
            fields=lambda: (b.polynomial([0.0, 0.0, 1.0]), b.polynomial([0.0, 0.0, 0.0, 1.0]),
                            b.polynomial([0.0, 1.0, -1.0])),
            sources=(lambda x: np.sin(np.pi * x), lambda x: np.cos(2.0 * x) + 0.2 * x),
            weyl_first=(_closed_forms,), weyl_last=(_ntd_sign,),
            traces=(_tau_factorizations, _interior_traces),
            krein=(_interior_krein, _interval_krein),
            groups=("weyl", "traces", "krein", "abstract"))
    return _Plan(
        b, lambda: BemBackend(make_grid(CurveSpec.circle(DISK_WEYL_RADIUS), nodes)), -1.0,
        _WHOLE, data,
        points={**points, "ntd-dtn-inverse": (-1.0, 2 + 1j),
                "krein-resolvent-vs-direct": (-2.0,)},
        tols={**tols, "ntd-dtn-inverse": 1e-8, "green-defect-generic": 1e-8,
              "krein-resolvent-vs-direct": 1e-7},
        fields=lambda: (b.mode_poly_field(1, {2: 1.0}), b.mode_poly_field(1, {1: 1.0}),
                        b.h2n_field(np.eye(m, dtype=complex)[b.mode_index(0)])),
        sources=({0: (lambda r: np.exp(-r)), 1: (lambda r: r * np.exp(-r))},
                 {0: (lambda r: 1.0 + 0.0 * r), 1: (lambda r: r**2)}),
        weyl_first=(_circle_modes,), weyl_last=(_ntd_sign, _neumann_solve),
        traces=(_interior_traces,), krein=(_interior_krein, _cross_factory))


def build_suite(suite: str, backend_name: str, witnesses: dict, nodes: int = 0,
                seed: int = 0) -> list:
    """Assemble and evaluate the requested suite; returns sorted item dicts.

    ``witnesses`` holds the residuals of :func:`kreinlab.kreinformulas.sign_witnesses`,
    which the krein suite's sign items read.
    """
    if suite not in SUITES:
        raise KreinlabError(f"unknown suite {suite!r}")
    if backend_name not in BACKENDS:
        raise KreinlabError(f"unknown backend {backend_name!r}")
    plan = _plan(backend_name, nodes)
    # every task is called as task(plan, rng)
    signs = lambda _, rng: _sign_items(witnesses)
    group_tasks = {"weyl": [_weyl], "traces": [_traces], "krein": [signs, _krein],
                   "abstract": [_abstract]}
    tasks = [task for name in plan.groups if suite in (name, "all") for task in group_tasks[name]]
    # one child generator per task, so a task's draws do not depend on the others
    items: list = []
    for idx, task in enumerate(tasks):
        items.extend(task(plan, np.random.default_rng([seed, idx])))
    items.sort(key=lambda it: it["identity"])
    return items
