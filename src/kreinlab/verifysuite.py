"""Identity suites behind the ``verify`` command.

Each suite item measures one residual at a pinned tolerance and reports
``{identity, paper_ref, residual, tolerance, pass, sign_used}`` where the
``paper_ref`` field carries the formula being checked, written out
symbolically.  Items are deterministic given (backend, nodes, seed).
"""

from __future__ import annotations

import numpy as np

from .errors import KreinlabError
from .extensions import ExtensionSpec, apply_resolvent, boundary_residual, direct_solve, is_nonnegative, make_extension
from .geometry import CurveSpec, make_grid
from .kreinformulas import (
    Abstract1D,
    abstract_deficiency,
    abstract_krein_check,
    donoghue_m,
    friedrichs_krein_domains,
    herglotz_defect,
    mfunc,
    mfunc_direct,
    mfunc_symmetry_defect,
    sign_witnesses,
    smoothing_factorization_check,
    transfer_alternative_form,
    transfer_variants,
    two_extension_identity_residuals,
    two_extension_symmetry_defect,
    _extension_from_matrix,
)
from .oracles import DiskModel, Model1D, disk_mode_dtn, interval_dtn
from .spectral import ordering_check
from .traces import (
    classical_green_defect,
    gamma_D,
    gamma_N,
    green_defect,
    hermitian_part,
    tau_D,
    tau_N,
    weighted_adjoint,
)
from .weyl import BemBackend, solve_dirichlet, solve_neumann


def worker_count() -> int:
    """Suite tasks run in the calling thread; kept for the benchmark harness."""
    return 1


def _item(identity, formula, residual, tolerance, sign_used="n/a"):
    residual = float(residual)
    return {
        "identity": identity,
        "paper_ref": formula,
        "residual": residual,
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
        "sign_used": sign_used,
    }


def _mode_vector(grid, k):
    return np.exp(1j * k * grid.t)


def _rayleigh(grid, matrix, k):
    v = _mode_vector(grid, k)
    w = grid.weighted_measure
    return complex(np.sum(w * np.conj(v) * (matrix @ v)) / np.sum(w * np.abs(v) ** 2))


def _herm_eigs(matrix, weights):
    return np.linalg.eigvalsh(hermitian_part(matrix, weights))


def _random_hermitian(m, weights, rng):
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    wA = weights[:, None] * A
    H = 0.5 * (wA + wA.conj().T)
    return H / weights[:, None]


# ---------------------------------------------------------------------------
# weyl suite
# ---------------------------------------------------------------------------

def _weyl_interval(backend, rng, tol):
    items = []
    ref0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    items.append(_item("dtn-static-closed-form", "dtn(0) = [[-1,1],[1,-1]]",
                       np.max(np.abs(interval_dtn(0.0) - ref0)), 1e-12 * tol))
    ch, sh = np.cosh(1.0), np.sinh(1.0)
    ref1 = np.array([[-ch, 1.0], [1.0, -ch]]) / sh
    items.append(_item("dtn-shifted-closed-form", "dtn(-1) = [[-cosh 1,1],[1,-cosh 1]]/sinh 1",
                       np.max(np.abs(interval_dtn(-1.0) - ref1)), 1e-12 * tol))
    M = interval_dtn(-1.0)
    items.append(_item("ntd-dtn-inverse", "ntd(z) dtn(z) = -I at z=-1",
                       np.max(np.abs(backend.ntd(-1.0) @ M + np.eye(2))), 1e-12 * tol))
    worst = 0.0
    for z in (2 + 1j, -3 + 0.5j):
        adj = backend.dtn(z).conj().T
        worst = max(worst, float(np.max(np.abs(adj - backend.dtn(np.conj(z))))))
    items.append(_item("dtn-symmetry", "dtn(z)^* = dtn(conj z)", worst, 1e-8 * tol))
    worst = max(float(np.max(_herm_eigs(backend.dtn(z), backend.boundary_weights)))
                for z in (0.0, -1.0))
    items.append(_item("dtn-sign-nonpositive", "herm dtn(z) <= 0 for z <= 0", max(worst, 0.0),
                       1e-10 * tol))
    low = float(np.min(_herm_eigs(backend.ntd(-1.0), backend.boundary_weights)))
    items.append(_item("ntd-sign-definite", "herm ntd(-1) >= 0 (validated direction)",
                       max(-low, 0.0), 1e-10 * tol, sign_used="+"))
    return items


def _weyl_disk(nodes, rng, tol):
    grid = make_grid(CurveSpec.circle(1.3), nodes)
    bem = BemBackend(grid)
    oracle = DiskModel(radius=1.3, mode_cutoff=12)
    items = []
    M0 = bem.dtn(0.0)
    worst = max(abs(_rayleigh(grid, M0, k) - (-abs(k) / 1.3)) for k in range(-10, 11))
    items.append(_item("bem-dtn-static-modes", "dtn(0) mode k eigenvalue = -|k|/R", worst, 1e-8 * tol))
    worst = 0.0
    for z in (-1.0, 2 + 1j):
        M = bem.dtn(z)
        worst = max(worst, max(abs(_rayleigh(grid, M, k) - disk_mode_dtn(k, z, 1.3))
                               for k in range(-10, 11)))
    items.append(_item("bem-dtn-helmholtz-modes", "dtn(z) mode k = -sqrt(z) J'_k/J_k", worst,
                       1e-8 * tol))
    ntd = {z: bem.ntd(z) for z in (-1.0, 2 + 1j)}
    worst = max(float(np.max(np.abs(ntd[z] @ bem.dtn(z) + np.eye(grid.n)))) for z in ntd)
    items.append(_item("ntd-dtn-inverse", "ntd(z) dtn(z) = -I", worst, 1e-8 * tol))
    w = bem.boundary_weights
    worst = 0.0
    for z in (2 + 1j, -3 + 0.5j):
        adj = weighted_adjoint(bem.dtn(z), w, w)
        worst = max(worst, float(np.max(np.abs(adj - bem.dtn(np.conj(z))))))
    items.append(_item("dtn-symmetry", "dtn(z)^* = dtn(conj z)", worst, 1e-8 * tol))
    worst = max(float(np.max(_herm_eigs(bem.dtn(z), w))) for z in (0.0, -1.0))
    items.append(_item("dtn-sign-nonpositive", "herm dtn(z) <= 0 for z <= 0", max(worst, 0.0),
                       1e-10 * tol))
    low = float(np.min(_herm_eigs(ntd[-1.0], w)))
    items.append(_item("ntd-sign-definite", "herm ntd(-1) >= 0 (validated direction)",
                       max(-low, 0.0), 1e-10 * tol, sign_used="+"))
    ks = np.arange(4, 33)
    diffs = np.array([abs(disk_mode_dtn(k, -1.0, 1.3) - disk_mode_dtn(k, -2.0, 1.3)) for k in ks])
    c_fit = float(np.max(diffs * ks))
    worst = float(np.max(diffs - 1.05 * c_fit / ks))
    items.append(_item("dtn-smoothing-decay", "|m_k(z1) - m_k(z2)| <= C/k", max(worst, 0.0),
                       1e-12 * tol))
    g = np.exp(1j * grid.t) + 0.5
    u = solve_neumann(bem, -1.0, g)
    items.append(_item("solve-neumann-consistency", "gamma_D solve_neumann(g) = ntd(z) g",
                       np.max(np.abs(gamma_D(u) - ntd[-1.0] @ g)), 1e-8 * tol))
    return items


def _mode_family(grid, kmax: int) -> np.ndarray:
    return np.array([np.exp(1j * k * grid.t) for k in range(-kmax, kmax + 1)]).T


def _action_defect(matrix, family, weights) -> float:
    """Largest weighted-norm amplification of the matrix over the family columns."""
    act = matrix @ family
    num = np.sum(weights[:, None] * np.abs(act) ** 2, axis=0)
    den = np.sum(weights[:, None] * np.abs(family) ** 2, axis=0)
    return float(np.sqrt(np.max(num / den)))


def _projected(matrix, family, weights) -> np.ndarray:
    """Galerkin compression of the matrix onto the family, in orthonormal coordinates."""
    G = family.conj().T @ (weights[:, None] * family)
    coef = np.linalg.solve(G, family.conj().T @ (weights[:, None] * (matrix @ family)))
    evals, evecs = np.linalg.eigh(0.5 * (G + G.conj().T))
    half = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
    halfinv = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    return half @ coef @ halfinv


def _weyl_kite(nodes, rng, tol):
    grid = make_grid(CurveSpec.kite(), nodes)
    bem = BemBackend(grid)
    items = []
    worst = max(float(np.max(np.abs(bem.ntd(z) @ bem.dtn(z) + np.eye(grid.n))))
                for z in (-1.0, 2 + 1j))
    items.append(_item("ntd-dtn-inverse", "ntd(z) dtn(z) = -I", worst, 1e-8 * tol))
    w = bem.boundary_weights
    fam = _mode_family(grid, 16)
    worst = 0.0
    for z in (2 + 1j, -3 + 0.5j):
        adj = weighted_adjoint(bem.dtn(z), w, w)
        worst = max(worst, _action_defect(adj - bem.dtn(np.conj(z)), fam, w))
    items.append(_item("dtn-symmetry", "dtn(z)^* = dtn(conj z) on resolved modes", worst,
                       1e-8 * tol))
    worst = max(float(np.max(_herm_eigs(bem.dtn(z), w))) for z in (0.0, -1.0))
    items.append(_item("dtn-sign-nonpositive", "herm dtn(z) <= 0 for z <= 0", max(worst, 0.0),
                       1e-10 * tol))
    fine = BemBackend(make_grid(CurveSpec.kite(), 2 * nodes))
    dens = lambda t: np.exp(np.cos(t)) + 1j * np.sin(2 * t)
    coarse_vals = bem.dtn(2 + 1j) @ dens(grid.t)
    fine_vals = fine.dtn(2 + 1j) @ dens(fine.grid.t)
    items.append(_item("dtn-self-convergence", "dtn action stable under grid doubling",
                       np.max(np.abs(coarse_vals - fine_vals[::2])), 1e-9 * tol))
    f = np.cos(grid.t) + 0.3j * np.sin(3 * grid.t)
    u = solve_dirichlet(bem, -1.0, f)
    items.append(_item("dirichlet-roundtrip", "gamma_D solve_dirichlet(f) = f",
                       np.max(np.abs(gamma_D(u) - f)), 1e-8 * tol))
    return items


# ---------------------------------------------------------------------------
# traces suite
# ---------------------------------------------------------------------------

def _traces_model(backend, rng, tol):
    items = []
    z0 = 0.0 if isinstance(backend, Model1D) else -1.0
    m = backend.nboundary
    g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h = backend.harmonic_extension(z0, g)
    items.append(_item("tauN-kernel", "tau_N(z0) u = 0 for (-L - z0)-harmonic u",
                       np.max(np.abs(tau_N(z0, h))), 1e-8 * tol))
    if isinstance(backend, Model1D):
        u = backend.polynomial([0.0, 0.0, 1.0])  # x^2
        zf = -1.0
        lhs = tau_N(zf, u)
        w = backend.resolvent_dirichlet(zf, u.helmholtz_apply(zf))
        items.append(_item("tauN-factorization",
                           "tau_N(z) u = gamma_N R_D(z)(-L - z) u",
                           np.max(np.abs(lhs - gamma_N(w))), 1e-10 * tol))
        un = backend.resolvent_neumann(zf, u.helmholtz_apply(zf))
        items.append(_item("tauD-factorization",
                           "tau_D(z) u = gamma_D R_N(z)(-L - z) u",
                           np.max(np.abs(tau_D(zf, u) - gamma_D(un))), 1e-10 * tol))
        rel = tau_D(zf, u) + backend.ntd(zf) @ tau_N(zf, u)
        items.append(_item("tauD-relation", "tau_D(z) = -ntd(z) tau_N(z)",
                           np.max(np.abs(rel)), 1e-10 * tol))
    zn = -1.0
    hn = backend.harmonic_extension(zn, g)
    items.append(_item("tauD-kernel", "tau_D(z) u = 0 for (-L - z)-harmonic u",
                       np.max(np.abs(tau_D(zn, hn))), 1e-8 * tol))
    # Green formula: harmonic pair, then a generic pair
    h2 = backend.harmonic_extension(zn, rng.standard_normal(m) + 1j * rng.standard_normal(m))
    items.append(_item("green-defect-harmonic", "regularized Green formula, harmonic pair",
                       green_defect(zn, hn, h2), 1e-10 * tol))
    if isinstance(backend, Model1D):
        u = backend.polynomial([0.0, 0.0, 1.0])
        v = backend.polynomial([0.0, 0.0, 0.0, 1.0])
        items.append(_item("green-defect-generic", "regularized Green formula, generic pair",
                           green_defect(-1.0, u, v), 1e-10 * tol))
        w0 = backend.polynomial([0.0, 1.0, -1.0])  # x(1-x), vanishing Dirichlet trace
        items.append(_item("classical-green", "<gamma_N w, gamma_D u> = (Lap w, u) - (w, Lap u)",
                           classical_green_defect(w0, v), 1e-8 * tol))
    else:
        u = backend.mode_poly_field(1, {2: 1.0})
        v = backend.mode_poly_field(1, {1: 1.0})
        items.append(_item("green-defect-generic", "regularized Green formula, mode pair",
                           green_defect(-1.0, u, v), 1e-8 * tol))
        w0 = backend.h2n_field(np.eye(backend.nboundary, dtype=complex)[backend.mode_index(0)])
        items.append(_item("classical-green", "<gamma_N w, gamma_D u> = (Lap w, u) - (w, Lap u)",
                           classical_green_defect(w0, v), 1e-8 * tol))
    # range property: tau_N over an H^2 cap H^1_0 family has full boundary rank
    fam = [backend.h2n_field(col) for col in np.eye(m, dtype=complex)]
    mat = np.array([tau_N(z0, q) for q in fam]).T
    s = np.linalg.svd(mat, compute_uv=False)
    items.append(_item("tauN-range", "tau_N(z0) on zero-Dirichlet-trace fields spans the boundary",
                       1.0 / max(s[-1], 1e-300) if s[-1] < 1e-8 else 0.0, 1e-8 * tol))
    # kernel decomposition: H^2_0 member + harmonic stays in the kernel
    phi = backend.h20_family(1, rng)[0]
    mix = phi + h
    items.append(_item("tauN-kernel-decomposition",
                       "tau_N(z0)(H^2_0 + harmonic) = 0",
                       np.max(np.abs(tau_N(z0, mix))), 1e-9 * tol))
    return items


def _traces_kite(nodes, rng, tol):
    grid = make_grid(CurveSpec.kite(), nodes)
    bem = BemBackend(grid)
    f = np.cos(grid.t) - 0.4j * np.sin(2 * grid.t)
    h = solve_dirichlet(bem, -1.0, f)
    return [
        _item("tauN-kernel", "tau_N(z0) u = 0 for (-L - z0)-harmonic u",
              np.max(np.abs(tau_N(-1.0, h))), 1e-7 * tol),
        _item("gamma-roundtrip", "gamma_D solve_dirichlet(f) = f",
              np.max(np.abs(gamma_D(h) - f)), 1e-8 * tol),
    ]


# ---------------------------------------------------------------------------
# krein suite
# ---------------------------------------------------------------------------

def _sign_items(tol, flip=None, witnesses=None):
    """Convention items shared by every krein suite, read from the residuals of
    :func:`kreinlab.kreinformulas.sign_witnesses` (run here unless given)."""
    r = sign_witnesses() if witnesses is None else witnesses
    jump = "-1/2" if flip == "jump-relation" else "+1/2"
    diff = "+" if flip == "resolvent-difference" else "-"
    return [
        _item("jump-relation", "interior Neumann trace of S_0[1] = 0 on the unit circle",
              r["jump-relation"][jump], 1e-10 * tol, sign_used=jump),
        _item("resolvent-difference",
              "R_ext(z) = R_D(z+z0) - [gamma_D R_ext(zbar)]^* tau_N R_D(z+z0)",
              r["resolvent-difference"][diff], 1e-9 * tol, sign_used=diff),
        _item("krein-formula-matrix",
              "R_ext(z) = R_D + [tau_N R_D(zbar+z0)]^* B(z)^{-1} tau_N R_D(z+z0)",
              r["krein-formula"], 1e-9 * tol, sign_used="+"),
        _item("harmonic-adjoint", "[tau_N R_D(wbar)]^* = -HarmExt_w",
              r["harmonic-adjoint"], 1e-10 * tol, sign_used="-"),
    ]


def _krein_model(backend, rng, tol, flip=None):
    items = []
    interval = isinstance(backend, Model1D)
    z0 = 0.0 if interval else -1.0
    m = backend.nboundary
    spec_krein = ExtensionSpec("dirichlet", z0, "krein", "full")
    krein = make_extension(spec_krein, backend)

    if interval:
        probe = lambda x: np.sin(np.pi * x)
        zs = (-1.0, -5.0)
        tol_direct = 1e-9 * tol
    else:
        probe = {0: (lambda r: np.exp(-r)), 1: (lambda r: r * np.exp(-r))}
        zs = (-2.0,)
        tol_direct = 1e-7 * tol
    worst = 0.0
    for z in zs:
        ue = apply_resolvent(krein, z, probe)
        ud = direct_solve(krein, z, probe)
        diff = ue + (-1.0) * ud
        worst = max(worst, float(np.sqrt(abs(backend.inner(diff, diff)))))
    items.append(_item("krein-resolvent-vs-direct",
                       "formula resolvent = direct boundary-condition solve (Krein)",
                       worst, tol_direct, sign_used="+"))

    items.append(_item("mfunc-symmetry", "M(z)^* = M(conj z)",
                       mfunc_symmetry_defect(krein, 2 + 3j), 1e-9 * tol))
    direct = mfunc_direct(krein, -1.5 + 0.5j)
    viainv = mfunc(krein, -1.5 + 0.5j).matrix
    items.append(_item("mfunc-vs-direct", "bracket inverse = defining boundary problem",
                       np.max(np.abs(direct - viainv)), 1e-8 * tol))
    neu = make_extension(ExtensionSpec("dirichlet", -1.0, "neumann", "full"), backend)
    zq = -1.0 + 0.5j
    items.append(_item("mfunc-neumann-ntd", "Neumann case: M(z) = ntd(z + z0)",
                       np.max(np.abs(mfunc(neu, zq).matrix - backend.ntd(zq - 1.0))), 1e-9 * tol))

    zgrid = [0.3j + 0.2 * k + 0.15j * (k % 3) for k in range(10)] + [1j, 1 + 1j, -2 + 0.5j]
    items.append(_item("herglotz-krein", "Im M(z) >= 0 on the upper half plane",
                       max(herglotz_defect(krein, zgrid), 0.0), 1e-10 * tol))
    Lr = _random_hermitian(m, backend.boundary_weights, rng)
    extr = _extension_from_matrix(Lr, z0, backend)
    items.append(_item("herglotz-random-L", "Im M(z) >= 0, random Hermitian L",
                       max(herglotz_defect(extr, zgrid), 0.0), 1e-9 * tol))

    if interval:
        L1 = np.zeros((2, 2), dtype=complex)
        L2 = -backend.dtn(-1.0)
        resid = two_extension_identity_residuals(L1, L2, -1.0, -1.0, backend)
        key = "primary(z)" if flip == "two-extension" else "primary(zbar)"
        items.append(_item("two-extension-identity",
                           "R_2 - R_1 = [gamma_D R_1(zbar)]^* T(z) [gamma_D R_1(z)]",
                           resid[key], 1e-9 * tol,
                           sign_used=key))
        var = transfer_variants(L1, L2, -1.0, -1.0, backend)["primary"]
        alt = transfer_alternative_form(L1, L2, -1.0, -1.0, backend)
        items.append(_item("two-extension-alternative", "T(z) = M_1^{-1}(M_2 - M_1)M_1^{-1}",
                           np.max(np.abs(var - alt)), 1e-9 * tol))
        items.append(_item("two-extension-symmetry", "T(z)^* = T(conj z)",
                           two_extension_symmetry_defect(L1, L2, -1.0, 2 + 1j, backend),
                           1e-9 * tol))

    worst = 0.0
    for ext in (krein, neu, extr):
        worst = max(worst, smoothing_factorization_check(ext, -0.8 + 0.4j))
    items.append(_item("smoothing-factorization",
                       "tau_N(z0)[gamma_D R_ext(zbar)]^* = [M(z0) - M(z+z0)] M(z)",
                       worst, 1e-8 * tol))

    # special-case translations
    u = apply_resolvent(neu, -0.7, _probe_for(backend))
    items.append(_item("special-neumann", "Neumann case: boundary condition is gamma_N u = 0",
                       np.max(np.abs(gamma_N(u))), 1e-8 * tol))
    if interval:
        rob = make_extension(ExtensionSpec("dirichlet", 0.0, ("robin", 1.0), "full"), backend)
        ur = apply_resolvent(rob, -2.0, _probe_for(backend))
        items.append(_item("special-robin", "Robin case: gamma_N u + theta gamma_D u = 0",
                           np.max(np.abs(gamma_N(ur) + gamma_D(ur))), 1e-8 * tol))
    uk = apply_resolvent(krein, -1.3, _probe_for(backend))
    items.append(_item("special-krein", "Krein case: tau_N(z0) u = 0",
                       boundary_residual(krein, uk), 1e-8 * tol))

    if interval:
        rob = make_extension(ExtensionSpec("dirichlet", 0.0, ("robin", 1.0), "full"), backend)
        rep = ordering_check([rob], 1.0, backend)
        floor = min(it["lower_floor"] for it in rep["items"]) if rep["items"] else 0.0
        ceil = min(it["upper_floor"] for it in rep["items"]) if rep["items"] else 0.0
        items.append(_item("resolvent-ordering", "G_Dirichlet <= G_ext <= G_Krein at a = 1",
                           max(-min(floor, ceil), 0.0), 1e-9 * tol))
        flag, cert = is_nonnegative(krein, rng)
        items.append(_item("nonnegativity-krein", "Krein extension is nonnegative",
                           max(-cert["ritz_min"], 0.0) + (0.0 if flag else 1.0), 1e-8 * tol))
    else:
        nref = make_extension(ExtensionSpec("neumann", -1.0, "krein", "full"), backend)
        dref = make_extension(ExtensionSpec("dirichlet", -1.0, "krein", "full"), backend)
        un = apply_resolvent(nref, -2.0, probe)
        ud = apply_resolvent(dref, -2.0, probe)
        diff = un + (-1.0) * ud
        items.append(_item("cross-factory-krein",
                           "Krein resolvent agrees between reference factories",
                           np.sqrt(abs(backend.inner(diff, diff))), 1e-8 * tol))
    return items


def _probe_for(backend):
    if isinstance(backend, Model1D):
        return lambda x: np.cos(2.0 * x) + 0.2 * x
    return {0: (lambda r: 1.0 + 0.0 * r), 1: (lambda r: r**2)}


def _krein_kite(nodes, rng, tol):
    grid = make_grid(CurveSpec.kite(), nodes)
    bem = BemBackend(grid)
    items = []
    z0 = -1.0
    krein = make_extension(ExtensionSpec("dirichlet", z0, "krein", "full"), bem)
    w = bem.boundary_weights
    fam = _mode_family(grid, 16)

    def md(z):
        # compress the smoothing bracket to the resolved subspace, then invert
        return np.linalg.inv(_projected(krein.bracket(z + z0), fam, w))

    z = 0.5 + 1j
    items.append(_item("mfunc-symmetry",
                       "M(z)^* = M(conj z) (Krein bracket, Nystrom maps, resolved modes)",
                       np.max(np.abs(md(z).conj().T - md(np.conj(z)))), 1e-8 * tol))
    worst = 0.0
    for zz in (1j, 0.5 + 0.8j):
        proj = md(zz)
        im = (proj - proj.conj().T) / 2j
        worst = max(worst, -float(np.min(np.linalg.eigvalsh(0.5 * (im + im.conj().T)))))
    items.append(_item("herglotz-krein", "Im M(z) >= 0 on the upper half plane (resolved modes)",
                       max(worst, 0.0), 1e-9 * tol))
    return items


# ---------------------------------------------------------------------------
# abstract suite (interval only)
# ---------------------------------------------------------------------------

def _abstract_items(rng, tol):
    model = Abstract1D()
    items = []
    npm = abstract_deficiency(model)
    items.append(_item("deficiency-indices", "dim ker(S^* -/+ i) = (2, 2)",
                       abs(npm[0] - 2) + abs(npm[1] - 2), 0.5))
    gmin = float(np.min(np.linalg.eigvalsh(model.gram_plus)))
    items.append(_item("deficiency-gram", "Gram matrix of the N_+ basis is positive definite",
                       max(-gmin, 0.0) + (0.0 if gmin > 1e-6 else 1.0), 1e-10 * tol))
    MF = donoghue_m(model, "friedrichs", 2 + 3j)
    MFb = donoghue_m(model, "friedrichs", 2 - 3j)
    items.append(_item("donoghue-symmetry", "M(z)^* = M(conj z)",
                       np.max(np.abs(MF.conj().T - MFb)), 1e-8 * tol))
    Mi = donoghue_m(model, "friedrichs", 0.5 + 1j)
    imin = float(np.min(np.linalg.eigvalsh((Mi - Mi.conj().T) / 2j)))
    items.append(_item("donoghue-herglotz", "Im M(z) >= 0 for Im z > 0",
                       max(-imin, 0.0), 1e-10 * tol))
    items.append(_item("donoghue-at-i", "M(i) = i I exactly",
                       np.max(np.abs(donoghue_m(model, "friedrichs", 1j) - 1j * np.eye(2))),
                       1e-12 * tol))
    worst = max(abstract_krein_check(model, z) for z in (-1.0, 2 + 3j))
    items.append(_item("krein-formula-deficiency",
                       "R_K(z) - R_F(z) via the Donoghue bracket [M(0) - M(z)]^{-1}",
                       worst, 1e-6 * tol))
    rep = friedrichs_krein_domains(model)
    items.append(_item("friedrichs-is-dirichlet",
                       "Friedrichs extension solves the Dirichlet weak form",
                       max(rep["friedrichs_dirichlet_trace"], rep["friedrichs_weak_form"]),
                       1e-8 * tol))
    items.append(_item("domain-splitting",
                       "dom(S^*) = dom(S) + S_F^{-1} ker(S^*) + ker(S^*)",
                       rep["domain_split"], 1e-9 * tol))
    items.append(_item("kernel-of-krein", "Krein extension annihilates {1, x}",
                       max(rep["krein_kernel_one"], rep["krein_kernel_x"]), 1e-10 * tol))
    items.append(_item("parametrized-ordering",
                       "B = I extension sits between the extremal resolvents",
                       max(-rep["ordering_floor"], 0.0), 1e-9 * tol))
    return items


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

SUITES = ("weyl", "traces", "krein", "abstract", "all")
BACKENDS = ("interval", "disk", "kite")


def default_nodes(backend_name: str) -> int:
    return {"interval": 0, "disk": 192, "kite": 192}[backend_name]


def build_suite(suite: str, backend_name: str, nodes: int = 0, seed: int = 0, tol: float = 1.0,
                flip: str | None = None, witnesses: dict | None = None) -> list:
    """Assemble and evaluate the requested suite; returns sorted item dicts.

    ``witnesses`` holds the residuals of :func:`kreinlab.kreinformulas.sign_witnesses`
    when the caller already ran them; otherwise a krein suite runs them itself.
    """
    if suite not in SUITES:
        raise KreinlabError(f"unknown suite {suite!r}")
    if backend_name not in BACKENDS:
        raise KreinlabError(f"unknown backend {backend_name!r}")
    nodes = nodes or default_nodes(backend_name)
    wanted = ["weyl", "traces", "krein", "abstract"] if suite == "all" else [suite]

    raw = []
    if backend_name == "interval":
        backend = Model1D()
        if "weyl" in wanted:
            raw.append(lambda rng: _weyl_interval(backend, rng, tol))
        if "traces" in wanted:
            raw.append(lambda rng: _traces_model(backend, rng, tol))
        if "krein" in wanted:
            raw.append(lambda rng: _sign_items(tol, flip, witnesses))
            raw.append(lambda rng: _krein_model(backend, rng, tol, flip))
        if "abstract" in wanted:
            raw.append(lambda rng: _abstract_items(rng, tol))
    elif backend_name == "disk":
        model = DiskModel(radius=1.0, mode_cutoff=8)
        if "weyl" in wanted:
            raw.append(lambda rng: _weyl_disk(nodes, rng, tol))
        if "traces" in wanted:
            raw.append(lambda rng: _traces_model(model, rng, tol))
        if "krein" in wanted:
            raw.append(lambda rng: _sign_items(tol, flip, witnesses))
            raw.append(lambda rng: _krein_model(model, rng, tol, flip))
    else:
        if "weyl" in wanted:
            raw.append(lambda rng: _weyl_kite(nodes, rng, tol))
        if "traces" in wanted:
            raw.append(lambda rng: _traces_kite(nodes, rng, tol))
        if "krein" in wanted:
            raw.append(lambda rng: _sign_items(tol, flip, witnesses))
            raw.append(lambda rng: _krein_kite(nodes, rng, tol))

    # one child generator per task, so a task's draws do not depend on the others
    items: list = []
    for idx, fn in enumerate(raw):
        items.extend(fn(np.random.default_rng([seed, idx])))
    items.sort(key=lambda it: it["identity"])
    return items
