"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success; tolerances are pinned here and
nowhere else.  Runtime budgets are asserted where stated.
"""

import time

import numpy as np
import pytest

from kreinlab.extensions import (
    ExtensionSpec,
    apply_resolvent,
    boundary_residual,
    direct_solve,
    make_extension,
)
from kreinlab.geometry import CurveSpec, make_grid
from kreinlab.kreinformulas import (
    Abstract1D,
    abstract_deficiency,
    abstract_krein_check,
    donoghue_m,
    friedrichs_krein_domains,
    herglotz_defect,
    hermitian_part,
    mfunc_symmetry_defect,
    resolve_sign_conventions,
    sign_witnesses,
    transfer_alternative_form,
    transfer_variants,
    two_extension_identity_residuals,
    two_extension_symmetry_defect,
)
from kreinlab.layerpot import JUMP_SIGN, assemble_adjoint_double_layer
from kreinlab.oracles import DiskModel, Model1D, disk_mode_dtn, interval_dtn
from kreinlab.spectral import SpectrumRequest, eigenvalues, ordering_check
from kreinlab.verifysuite import build_suite
from kreinlab.weyl import BemBackend


def _report(num, detail):
    print(f"criterion {num}: PASS ({detail})")


@pytest.fixture(scope="module")
def interval():
    return Model1D()


@pytest.fixture(scope="module")
def disk8():
    return DiskModel(radius=1.0, mode_cutoff=8)


@pytest.fixture(scope="module")
def ledger():
    """Sign-ledger rows by identity, from one witness pass."""
    return {row["identity"]: row for row in resolve_sign_conventions(sign_witnesses())}


def test_criterion_01_interval_dtn_exactness(interval):
    t0 = time.monotonic()
    d0 = np.max(np.abs(interval_dtn(0.0) - np.array([[-1.0, 1.0], [1.0, -1.0]])))
    ch, sh = np.cosh(1.0), np.sinh(1.0)
    ref = np.array([[-ch, 1.0], [1.0, -ch]]) / sh
    d1 = np.max(np.abs(interval_dtn(-1.0) - ref))
    elapsed = time.monotonic() - t0
    assert d0 <= 1e-12
    assert d1 <= 1e-12
    assert elapsed < 1.0
    _report(1, f"static {d0:.1e}, shifted {d1:.1e}, {elapsed:.3f}s")


def test_criterion_02_bem_vs_disk_oracle():
    t0 = time.monotonic()
    grid = make_grid(CurveSpec.circle(1.3), 256)
    bem = BemBackend(grid)
    w = grid.weighted_measure
    worst = 0.0
    M0 = bem.dtn(0.0)
    for k in range(-10, 11):
        v = np.exp(1j * k * grid.t)
        ray = np.sum(w * np.conj(v) * (M0 @ v)) / np.sum(w * np.abs(v) ** 2)
        worst = max(worst, abs(ray - (-abs(k) / 1.3)))
    assert worst <= 1e-8
    worst_h = 0.0
    for z in (-1.0, 2 + 1j):
        M = bem.dtn(z)
        for k in range(-10, 11):
            v = np.exp(1j * k * grid.t)
            ray = np.sum(w * np.conj(v) * (M @ v)) / np.sum(w * np.abs(v) ** 2)
            worst_h = max(worst_h, abs(ray - disk_mode_dtn(k, z, 1.3)))
    elapsed = time.monotonic() - t0
    assert worst_h <= 1e-8
    assert elapsed < 20.0
    _report(2, f"static modes {worst:.1e}, Helmholtz modes {worst_h:.1e}, {elapsed:.1f}s")


def test_criterion_03_ntd_dtn_identity():
    worst = 0.0
    for spec, n in ((CurveSpec.circle(1.3), 192), (CurveSpec.kite(), 192)):
        bem = BemBackend(make_grid(spec, n))
        for z in (-1.0, 2 + 1j):
            prod = bem.ntd(z) @ bem.dtn(z) + np.eye(bem.grid.n)
            worst = max(worst, float(np.linalg.norm(prod, 2)))
    assert worst <= 1e-8
    _report(3, f"operator-norm defect {worst:.1e} on disk and kite")


def test_criterion_04_jump_relation_resolved_sign(ledger):
    grid = make_grid(CurveSpec.circle(1.0), 128)
    ks = assemble_adjoint_double_layer(grid, 0.0)
    trace = (0.5 * JUMP_SIGN * np.eye(grid.n) + ks) @ np.ones(grid.n)
    resid = float(np.max(np.abs(trace)))
    assert resid <= 1e-10
    entry = ledger["jump-relation"]
    assert entry["validated_sign"] == "+1/2"
    assert entry["stated_sign"] == "-1/2"  # validated against the printed sign
    _report(4, f"uniform-density trace {resid:.1e}, ledger sign {entry['validated_sign']}")


def test_criterion_05_symmetry_residuals(interval, disk8):
    worst = 0.0
    zs = (2 + 1j, -3 + 0.5j)
    # spectral boundary maps on interval and disk-BEM backends
    for backend in (interval, BemBackend(make_grid(CurveSpec.circle(1.3), 160))):
        w = backend.boundary_weights
        for z in zs:
            M = backend.dtn(z)
            adj = (M.conj().T * w[None, :]) / w[:, None]
            worst = max(worst, float(np.max(np.abs(adj - backend.dtn(np.conj(z))))))
    # Weyl functions of extensions on both model backends
    for backend, z0 in ((interval, 0.0), (disk8, -1.0)):
        krein = make_extension(ExtensionSpec("dirichlet", z0, "krein"), backend)
        for z in zs:
            worst = max(worst, mfunc_symmetry_defect(krein, z))
    # two-extension transfer operator
    L1 = np.zeros((2, 2), dtype=complex)
    L2 = -interval.dtn(-1.0)
    for z in zs:
        worst = max(worst, two_extension_symmetry_defect(L1, L2, -1.0, z, interval))
    assert worst <= 1e-8
    _report(5, f"worst starred-operator symmetry residual {worst:.1e}")


def test_criterion_06_sign_properties(interval, ledger):
    bem = BemBackend(make_grid(CurveSpec.circle(1.3), 160))
    worst_dtn = 0.0
    for backend in (interval, bem):
        for z in (0.0, -1.0):
            eigs = np.linalg.eigvalsh(hermitian_part(backend.dtn(z), backend.boundary_weights))
            worst_dtn = max(worst_dtn, float(np.max(eigs)))
    assert worst_dtn <= 1e-10
    # the Neumann-to-Dirichlet map at z = -1 is sign-definite; the validated
    # direction is positive (see the sign ledger entry "ntd-sign", which
    # records the reversal of the stated direction)
    worst_ntd = 0.0
    for backend in (interval, bem):
        eigs = np.linalg.eigvalsh(hermitian_part(backend.ntd(-1.0), backend.boundary_weights))
        worst_ntd = max(worst_ntd, float(-np.min(eigs)))
        assert float(np.min(eigs)) > -1e-10
    assert ledger["ntd-sign"]["validated_sign"] == "positive"
    assert worst_ntd <= 1e-10
    _report(6, f"dtn He part <= {worst_dtn:.1e}, ntd definite (validated +) {worst_ntd:.1e}")


def test_criterion_07_herglotz_suites(interval, disk8):
    rng = np.random.default_rng(42)
    grid20 = [0.2 + 0.15 * k + 1j * (0.1 + 0.12 * (k % 5)) for k in range(20)]
    worst = 0.0
    for backend, z0 in ((interval, 0.0), (disk8, -1.0)):
        krein = make_extension(ExtensionSpec("dirichlet", z0, "krein"), backend)
        worst = max(worst, herglotz_defect(krein, grid20))
        m = backend.nboundary
        A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        ext = make_extension(ExtensionSpec("dirichlet", z0, 0.5 * (A + A.conj().T)), backend)
        worst = max(worst, herglotz_defect(ext, grid20))
    assert worst <= 1e-10
    _report(7, f"min eigenvalue of Im M >= {-worst:.1e} over 20-point grids")


def test_criterion_08_krein_resolvent_formula(interval, disk8):
    t0 = time.monotonic()
    worst_i = 0.0
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    f = lambda x: np.sin(np.pi * x)
    for z in (-1.0, -5.0):
        ue = apply_resolvent(krein, z, f)
        ud = direct_solve(krein, z, f)
        diff = ue + (-1.0) * ud
        worst_i = max(worst_i, float(np.sqrt(abs(interval.inner(diff, diff)))))
    assert worst_i <= 1e-9
    kd = make_extension(ExtensionSpec("dirichlet", -1.0, "krein"), disk8)
    probe = {0: (lambda r: np.exp(-r)), 1: (lambda r: r * np.exp(-r))}
    ue = apply_resolvent(kd, -2.0, probe)
    ud = direct_solve(kd, -2.0, probe)
    diff = ue + (-1.0) * ud
    worst_d = float(np.sqrt(abs(disk8.inner(diff, diff))))
    elapsed = time.monotonic() - t0
    assert worst_d <= 1e-7
    assert elapsed < 10.0
    _report(8, f"interval {worst_i:.1e}, disk {worst_d:.1e}, {elapsed:.1f}s")


def test_criterion_09_two_extension_formula(interval, ledger):
    z0 = -1.0
    L1 = np.zeros((2, 2), dtype=complex)  # Krein
    L2 = -interval.dtn(z0)  # Neumann
    resid = two_extension_identity_residuals(L1, L2, z0, -1.0, interval)
    assert resid["primary(zbar)"] <= 1e-9
    T = transfer_variants(L1, L2, z0, -1.0, interval)["primary"]
    alt = transfer_alternative_form(L1, L2, z0, -1.0, interval)
    cross = float(np.max(np.abs(T - alt)))
    assert cross <= 1e-9
    variant = ledger["two-extension"]["validated_sign"]
    assert variant == "primary(zbar)"
    _report(9, f"identity {resid['primary(zbar)']:.1e}, alternative-form {cross:.1e}, "
               f"variant {variant}")


def _bisect(fun, lo, hi, iters=200):
    flo = fun(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_criterion_10_interval_krein_spectrum(interval):
    # derived roots: cos(sqrt(lam)) = 1 gives (2 pi m)^2; tan(s) = s with
    # s = sqrt(lam)/2 gives the middle eigenvalue (bisection oracle)
    s_star = _bisect(lambda s: np.sin(s) - s * np.cos(s), 4.4, 4.6)
    targets = [4 * np.pi**2, 4 * s_star**2, 16 * np.pi**2]
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    roots = eigenvalues(SpectrumRequest(spec, (1.0, 200.0)), interval)
    assert len(roots) == 3
    worst = max(abs(r - t) / t for r, t in zip(roots, targets))
    assert worst <= 1e-6
    # kernel vectors {1, x}: operator action and boundary condition vanish
    krein = make_extension(spec, interval)
    worst_k = 0.0
    for fld in (interval.constant(1.0), interval.polynomial([0.0, 1.0])):
        act = fld.helmholtz_apply(0.0)
        worst_k = max(worst_k, float(np.sqrt(abs(interval.inner(act, act)))))
        worst_k = max(worst_k, boundary_residual(krein, fld))
    assert worst_k <= 1e-10
    _report(10, f"eigenvalues rel err {worst:.1e}, kernel residual {worst_k:.1e}")


def test_criterion_11_resolvent_ordering(interval):
    robin = make_extension(ExtensionSpec("dirichlet", 0.0, ("robin", 1.0)), interval)
    report = ordering_check([robin], 1.0, interval, trial_count=40)
    floor = min(report["items"][0]["lower_floor"], report["items"][0]["upper_floor"])
    assert report["pass"]
    assert floor >= -1e-9
    _report(11, f"Galerkin ordering floor {floor:.1e} over 40 trials")


def test_criterion_12_abstract_formulas(interval):
    model = Abstract1D(interval)
    assert abstract_deficiency(model) == (2, 2)
    M = donoghue_m(model, "friedrichs", 2 + 3j)
    Mb = donoghue_m(model, "friedrichs", 2 - 3j)
    sym = float(np.max(np.abs(M.conj().T - Mb)))
    assert sym <= 1e-8
    worst = max(abstract_krein_check(model, z) for z in (-1.0, 2 + 3j))
    assert worst <= 1e-6
    rep = friedrichs_krein_domains(model)
    fr = max(rep["friedrichs_dirichlet_trace"], rep["friedrichs_weak_form"])
    assert fr <= 1e-8
    _report(12, f"deficiency (2,2), symmetry {sym:.1e}, formula {worst:.1e}, "
                f"Friedrichs-Dirichlet {fr:.1e}")


def test_criterion_13_full_verify_all_backends():
    t0 = time.monotonic()
    failures = []
    witnesses = sign_witnesses()
    for backend in ("interval", "disk", "kite"):
        items = build_suite("all", backend, witnesses, seed=0)
        failures.extend((backend, it["identity"]) for it in items if not it["pass"])
    rows = resolve_sign_conventions(witnesses)
    elapsed = time.monotonic() - t0
    assert failures == []
    assert elapsed < 180.0
    # one consistent convention set: every witness residual is tiny and the
    # validated signs form the single set used across the package
    for row in rows:
        assert row["residual"] < 1e-8
    validated = {row["identity"]: row["validated_sign"] for row in rows}
    assert validated == {
        "jump-relation": "+1/2",
        "resolvent-difference": "-",
        "krein-formula": "+",
        "two-extension": "primary(zbar)",
        "ntd-sign": "positive",
        "boundary-condition": "tau = -L gamma",
    }
    _report(13, f"all suites on all backends in {elapsed:.0f}s, ledger consistent")
