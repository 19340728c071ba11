"""Resolvent formulas, Weyl functions, sign ledger, abstract machinery."""

import numpy as np
import pytest

from kreinlab.extensions import ExtensionSpec, apply_resolvent, direct_solve, make_extension
from kreinlab.kreinformulas import (
    Abstract1D,
    abstract_deficiency,
    abstract_krein_check,
    donoghue_m,
    friedrichs_krein_domains,
    herglotz_defect,
    interval_sign_witnesses,
    mfunc,
    mfunc_direct,
    mfunc_symmetry_defect,
    resolve_sign_conventions,
    smoothing_factorization_check,
    transfer_alternative_form,
    transfer_variants,
    two_extension_identity_residuals,
    two_extension_symmetry_defect,
    two_extension_transfer,
    SignLedger,
)
from kreinlab.oracles import DiskModel, Model1D


@pytest.fixture(scope="module")
def interval():
    return Model1D()


@pytest.fixture(scope="module")
def disk():
    return DiskModel(radius=1.0, mode_cutoff=8)


@pytest.fixture(scope="module")
def model(interval):
    return Abstract1D(interval)


def _norm(backend, u):
    return float(np.sqrt(abs(backend.inner(u, u))))


# -- Weyl function -----------------------------------------------------------

def test_mfunc_krein_is_bracket_inverse(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    z = -1.0
    got = mfunc(krein, z).matrix
    want = np.linalg.inv(interval.dtn(0.0) - interval.dtn(z))
    assert np.max(np.abs(got - want)) < 1e-13


def test_mfunc_neumann_is_ntd(interval):
    z0 = -1.0
    neum = make_extension(ExtensionSpec("dirichlet", z0, "neumann"), interval)
    z = 0.0  # z + z0 = -1
    got = mfunc(neum, z).matrix
    assert np.max(np.abs(got - interval.ntd(-1.0))) < 1e-13


def test_mfunc_symmetry(interval, disk):
    for backend, z0 in ((interval, 0.0), (disk, -1.0)):
        krein = make_extension(ExtensionSpec("dirichlet", z0, "krein"), backend)
        assert mfunc_symmetry_defect(krein, 2 + 3j) < 1e-9


def test_mfunc_against_direct_boundary_problem(interval, disk):
    rng = np.random.default_rng(23)
    for backend, z0 in ((interval, 0.0), (disk, -1.0)):
        m = backend.nboundary
        A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        L = 0.5 * (A + A.conj().T)
        ext = make_extension(ExtensionSpec("dirichlet", z0, L), backend)
        z = -0.7 + 0.4j
        assert np.max(np.abs(mfunc(ext, z).matrix - mfunc_direct(ext, z))) < 1e-8


def test_herglotz_krein_grid(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    assert herglotz_defect(krein, [1j, 1 + 1j, -2 + 0.5j]) < 1e-10


def test_herglotz_random_L_disk(disk):
    rng = np.random.default_rng(29)
    m = disk.nboundary
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    L = 0.5 * (A + A.conj().T)
    ext = make_extension(ExtensionSpec("dirichlet", -1.0, L), disk)
    zs = [0.5j, 1 + 0.3j, -1 + 1j, 2 + 2j]
    assert herglotz_defect(ext, zs) < 1e-9


def test_lower_half_plane_mirror(interval):
    # Im M(zbar) = -Im M(z)^*: a literal consequence of the symmetry relation
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    z = 0.7 + 1.1j
    M = mfunc(krein, z).matrix
    Mb = mfunc(krein, np.conj(z)).matrix
    im = (M - M.conj().T) / 2j
    imb = (Mb - Mb.conj().T) / 2j
    assert np.max(np.abs(imb + im.conj().T)) < 1e-12


def test_herglotz_rejects_lower_half_plane(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    from kreinlab.errors import DomainError

    with pytest.raises(DomainError):
        herglotz_defect(krein, [1j, -1j])


# -- resolvent formulas -------------------------------------------------------

def test_krein_resolvent_rhs_dirichlet_trivial(interval):
    dirich = make_extension(ExtensionSpec("dirichlet", 0.0, "dirichlet"), interval)
    f = lambda x: np.sin(2 * x)
    u = apply_resolvent(dirich, -1.0, f)
    v = interval.resolvent_dirichlet(-1.0, f)
    assert _norm(interval, u + (-1.0) * v) < 1e-14


def test_krein_resolvent_vs_direct_interval(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    f = lambda x: np.sin(np.pi * x)
    for z in (-1.0, -5.0):
        ue = apply_resolvent(krein, z, f)
        ud = direct_solve(krein, z, f)
        assert _norm(interval, ue + (-1.0) * ud) < 1e-9
        xs = np.linspace(0.05, 0.95, 9)
        assert np.max(np.abs(-ue.laplacian(xs) - z * ue.value(xs) - f(xs))) < 1e-9


def test_krein_resolvent_vs_direct_disk(disk):
    krein = make_extension(ExtensionSpec("dirichlet", -1.0, "krein"), disk)
    probe = {0: (lambda r: np.exp(-r)), 1: (lambda r: r * np.exp(-r))}
    ue = apply_resolvent(krein, -2.0, probe)
    ud = direct_solve(krein, -2.0, probe)
    assert _norm(disk, ue + (-1.0) * ud) < 1e-7


def test_resolvent_difference_sign_two_candidates(interval):
    # of the two printed sign candidates exactly one survives the matrix test
    L = np.array([[1.0, 0.2], [0.2, 0.5]], dtype=complex)
    ext = make_extension(ExtensionSpec("dirichlet", 0.0, L), interval)
    res = interval_sign_witnesses(ext, -1.0 + 0.7j)["resolvent-difference"]
    assert res["-"] < 1e-12
    assert res["+"] > 1e-3


def test_krein_formula_matrix_level(interval):
    L = np.array([[0.4, -0.1], [-0.1, 1.2]], dtype=complex)
    ext = make_extension(ExtensionSpec("dirichlet", 0.0, L), interval)
    assert interval_sign_witnesses(ext, -1.0 + 0.7j)["krein-formula"] < 1e-12


def test_harmonic_adjoint_identity(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    assert interval_sign_witnesses(krein, -1.0 + 0.7j)["harmonic-adjoint"] < 1e-12


def test_two_extension_krein_neumann(interval):
    z0 = -1.0
    L1 = np.zeros((2, 2), dtype=complex)
    L2 = -interval.dtn(z0)
    resid = two_extension_identity_residuals(L1, L2, z0, -1.0, interval)
    assert resid["primary(zbar)"] < 1e-9
    # the variant with the alternative interpretation of the printed signs fails
    assert resid["alternate(zbar)"] > 1e-3


def test_two_extension_left_factor_argument(interval):
    # at complex z only the conjugate-argument left factor lands in the right kernel
    z0 = -1.0
    L1 = np.zeros((2, 2), dtype=complex)
    L2 = -interval.dtn(z0)
    resid = two_extension_identity_residuals(L1, L2, z0, -1.0 + 0.8j, interval)
    assert resid["primary(zbar)"] < 1e-10
    assert resid["primary(z)"] > 1e-4


def test_two_extension_equal_operators(interval):
    L = np.array([[0.3, 0.0], [0.0, -0.2]], dtype=complex)
    variants = transfer_variants(L, L, 0.0, -1.0 + 1j, interval)
    assert np.max(np.abs(variants["primary"])) == 0.0
    assert np.max(np.abs(variants["alternate"])) == 0.0


def test_two_extension_alternative_form(interval):
    L1 = np.array([[0.5, 0.1], [0.1, 0.2]], dtype=complex)
    L2 = -interval.dtn(-1.0)
    T = transfer_variants(L1, L2, -1.0, -1.0 + 1j, interval)["primary"]
    alt = transfer_alternative_form(L1, L2, -1.0, -1.0 + 1j, interval)
    assert np.max(np.abs(T - alt)) < 1e-12


def test_two_extension_symmetry(interval):
    L1 = np.zeros((2, 2), dtype=complex)
    L2 = -interval.dtn(-1.0)
    assert two_extension_symmetry_defect(L1, L2, -1.0, 2 + 1j, interval) < 1e-12


def test_two_extension_transfer_ledger(interval):
    ledger = SignLedger()
    L1 = np.zeros((2, 2), dtype=complex)
    L2 = -interval.dtn(-1.0)
    op = two_extension_transfer(L1, L2, -1.0, -1.0 + 0.5j, interval, ledger)
    assert op.role == "MD"
    entry = ledger.get("two-extension")
    assert entry.validated_sign == "primary(zbar)"
    assert entry.residual < 1e-10
    want = transfer_variants(L1, L2, -1.0, -1.0 + 0.5j, interval)["primary"]
    assert np.max(np.abs(op.matrix - want)) == 0.0


def test_mfunc_accepts_spec_with_backend(interval):
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    a = mfunc(spec, -1.0, backend=interval).matrix
    b = mfunc(make_extension(spec, interval), -1.0).matrix
    assert np.max(np.abs(a - b)) == 0.0
    assert herglotz_defect(spec, [1j], backend=interval) < 1e-10


def test_smoothing_factorization(interval, disk):
    rng = np.random.default_rng(31)
    cases = []
    cases.append(make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval))
    cases.append(make_extension(ExtensionSpec("dirichlet", -1.0, "neumann"), interval))
    A = rng.standard_normal((2, 2))
    cases.append(make_extension(ExtensionSpec("dirichlet", 0.0, 0.5 * (A + A.T) + 0j), interval))
    cases.append(make_extension(ExtensionSpec("dirichlet", -1.0, "krein"), disk))
    for ext in cases:
        assert smoothing_factorization_check(ext, -0.8 + 0.4j) < 1e-8


# -- sign ledger ---------------------------------------------------------------

def test_sign_ledger_complete_and_consistent():
    ledger = resolve_sign_conventions()
    names = {e.identity for e in ledger.entries}
    assert {"jump-relation", "resolvent-difference", "krein-formula",
            "two-extension", "ntd-sign", "boundary-condition"} <= names
    for entry in ledger.entries:
        assert entry.residual < 1e-8
    # the empirically forced deviations from the printed statements
    assert ledger.get("jump-relation").validated_sign == "+1/2"
    assert not ledger.get("jump-relation").agrees_with_statement
    assert ledger.get("resolvent-difference").validated_sign == "-"
    assert ledger.get("ntd-sign").validated_sign == "positive"
    # and the conventions that hold as printed
    assert ledger.get("krein-formula").agrees_with_statement
    assert ledger.get("two-extension").agrees_with_statement
    assert ledger.get("boundary-condition").agrees_with_statement


# -- abstract machinery ----------------------------------------------------------

def test_abstract_deficiency_indices(model):
    assert abstract_deficiency(model) == (2, 2)


def test_deficiency_basis_properties(model, interval):
    evals = np.linalg.eigvalsh(model.gram_plus)
    assert np.min(evals) > 1e-3  # Hermitian positive definite
    # defining property: (-u'' - i u) = 0 for N_+ members
    xs = np.linspace(0.0, 1.0, 17)
    for n in model.basis_plus:
        resid = -n.laplacian(xs) - 1j * n.value(xs)
        assert np.max(np.abs(resid)) < 1e-13
    for n in model.basis_minus:
        resid = -n.laplacian(xs) + 1j * n.value(xs)
        assert np.max(np.abs(resid)) < 1e-13
    # <n, (S* - i) n> = 0 follows
    for n in model.onb_plus:
        assert abs(interval.inner(n, n.helmholtz_apply(1j))) < 1e-12


def test_donoghue_symmetry(model):
    M = donoghue_m(model, "friedrichs", 2 + 3j)
    Mb = donoghue_m(model, "friedrichs", 2 - 3j)
    assert np.max(np.abs(M.conj().T - Mb)) < 1e-8


def test_donoghue_herglotz(model):
    for tag in ("friedrichs", "krein"):
        M = donoghue_m(model, tag, 1j)
        im = (M - M.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh(im)) > -1e-10
        M = donoghue_m(model, tag, -1 + 0.5j)
        im = (M - M.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh(im)) > -1e-10


def test_donoghue_at_i_is_exact(model):
    assert np.max(np.abs(donoghue_m(model, "friedrichs", 1j) - 1j * np.eye(2))) == 0.0


def test_abstract_krein_formula(model):
    assert abstract_krein_check(model, -1.0) < 1e-6
    assert abstract_krein_check(model, 2 + 3j) < 1e-6
    assert abstract_krein_check(model, 1j) < 1e-6  # degenerate prefactor handled


def test_friedrichs_krein_domain_report(model):
    rep = friedrichs_krein_domains(model)
    assert rep["friedrichs_dirichlet_trace"] < 1e-12
    assert rep["friedrichs_weak_form"] < 1e-8
    assert rep["friedrichs_inverse_kernel_one_trace"] < 1e-12
    assert rep["friedrichs_inverse_kernel_x_trace"] < 1e-12
    assert rep["domain_split"] < 1e-9
    assert rep["ordering_floor"] > -1e-9
    assert rep["krein_kernel_one"] < 1e-10
    assert rep["krein_kernel_x"] < 1e-10


def test_shooting_determinant_roots(krein_shooting_root):
    # the shooting roots are cos(sqrt(lam)) = 1 and tan(s/2) = s/2 solutions
    targets = (4 * np.pi**2, 80.76291422570652, 16 * np.pi**2)
    for lam in targets:
        assert abs(krein_shooting_root(lam - 0.5, lam + 0.5) - lam) < 1e-8
