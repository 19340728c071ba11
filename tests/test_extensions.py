"""Extension factory, resolvents, nonnegativity, and domain invariants."""

import numpy as np
import pytest

from kreinlab.errors import BackendUnsupported, NearEigenvalue, SpecInvalid
from kreinlab.extensions import (
    ExtensionSpec,
    apply_resolvent,
    boundary_residual,
    direct_solve,
    is_nonnegative,
    make_extension,
)
from kreinlab.geometry import CurveSpec, make_grid
from kreinlab.kreinformulas import mfunc, mfunc_direct
from kreinlab.oracles import DiskModel, Model1D
from kreinlab.traces import gamma_D, gamma_N, tau_D, tau_N
from kreinlab.weyl import BemBackend, inverse_and_condition


@pytest.fixture(scope="module")
def interval():
    return Model1D()


@pytest.fixture(scope="module")
def disk():
    return DiskModel(radius=1.0, mode_cutoff=4)


@pytest.fixture(scope="module")
def kite():
    return BemBackend(make_grid(CurveSpec.kite(), 64))


def _norm(backend, u):
    return float(np.sqrt(abs(backend.inner(u, u))))


def test_special_case_translations(interval):
    z0 = -1.0
    dirich = make_extension(ExtensionSpec("dirichlet", z0, "dirichlet"), interval)
    assert dirich.projector is not None and not np.any(dirich.projector)
    neum = make_extension(ExtensionSpec("dirichlet", z0, "neumann"), interval)
    assert np.max(np.abs(neum.L + interval.dtn(z0))) < 1e-14
    krein = make_extension(ExtensionSpec("dirichlet", z0, "krein"), interval)
    assert np.max(np.abs(krein.L)) == 0.0 and krein.projector is None
    robin = make_extension(ExtensionSpec("dirichlet", z0, ("robin", 2.0)), interval)
    assert np.max(np.abs(robin.L + interval.dtn(z0) - 2.0 * np.eye(2))) < 1e-14


def test_krein_condition_is_tau_zero(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    u = apply_resolvent(krein, -1.5, lambda x: np.exp(x))
    assert np.max(np.abs(tau_N(0.0, u))) < 1e-9
    assert boundary_residual(krein, u) < 1e-9


def test_neumann_condition_reduces_to_gamma_n(interval):
    neum = make_extension(ExtensionSpec("dirichlet", -1.0, "neumann"), interval)
    u = apply_resolvent(neum, -0.5, lambda x: np.cos(x))
    assert np.max(np.abs(gamma_N(u))) < 1e-10


def test_robin_condition(interval):
    robin = make_extension(ExtensionSpec("dirichlet", 0.0, ("robin", 1.0)), interval)
    u = apply_resolvent(robin, -2.0, lambda x: x * (1 - x))
    assert np.max(np.abs(gamma_N(u) + gamma_D(u))) < 1e-10


def test_special_operator_fixes_its_subspace(interval):
    z0 = -1.0
    P = np.diag([1.0, 0.0]).astype(complex)  # a valid orthogonal projector
    for reference, tags in (("dirichlet", ("dirichlet", "neumann", "krein", ("robin", 1.0))),
                            ("neumann", ("dirichlet", "neumann", "krein"))):
        for bo in tags:
            fixed = "zero" if bo == reference else "full"
            full = make_extension(ExtensionSpec(reference, z0, bo, "full"), interval)
            same = make_extension(ExtensionSpec(reference, z0, bo, fixed), interval)
            assert np.array_equal(full.L, same.L)
            assert (full.projector is None) == (same.projector is None) == (fixed == "full")
            for X in [P, "nonsense"] + (["zero"] if fixed == "full" else []):
                with pytest.raises(SpecInvalid):
                    make_extension(ExtensionSpec(reference, z0, bo, X), interval)


def test_non_hermitian_rejected(interval):
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(SpecInvalid):
        make_extension(ExtensionSpec("dirichlet", 0.0, bad), interval)


@pytest.mark.parametrize("bo, X", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "full"),
    (("robin", np.nan), "full"),
    (("robin", np.inf), "full"),
    (np.zeros((2, 2)), np.array([[np.nan, 0.0], [0.0, 0.0]])),
])
@pytest.mark.filterwarnings("error")  # rejected before any arithmetic on the bad entry
def test_non_finite_boundary_operator_or_projector_rejected(interval, bo, X):
    # a NaN passes every tolerance comparison, so it must be caught as such
    with pytest.raises(SpecInvalid):
        make_extension(ExtensionSpec("dirichlet", 0.0, bo, X), interval)


@pytest.mark.parametrize("text", ['{"z0": NaN}', '{"z0": -Infinity}', "[]", '"krein"'])
def test_extension_spec_json_must_be_an_object_with_finite_z0(text):
    with pytest.raises(SpecInvalid):
        ExtensionSpec.from_json(text)


def test_bad_projector_rejected(interval):
    with pytest.raises(SpecInvalid):
        make_extension(
            ExtensionSpec("dirichlet", 0.0, np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]])),
            interval,
        )


def test_boundary_residual_examples(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    # static harmonics lie in the Krein domain (z0 = 0)
    h = interval.harmonic_extension(0.0, np.array([1.0, -0.3]))
    assert boundary_residual(krein, h) < 1e-12

    dirich = make_extension(ExtensionSpec("dirichlet", 0.0, "dirichlet"), interval)
    u = interval.harmonic_extension(0.0, np.array([1.0, 1.0]))
    assert boundary_residual(dirich, u) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    neum = make_extension(ExtensionSpec("dirichlet", -1.0, "neumann"), interval)
    cosfield = interval.field(
        lambda x: np.cos(np.pi * x),
        lambda x: -np.pi * np.sin(np.pi * x),
        lambda x: -np.pi**2 * np.cos(np.pi * x),
    )
    assert boundary_residual(neum, cosfield) < 1e-12


def test_resolvent_dirichlet_reduces_to_reference(interval):
    dirich = make_extension(ExtensionSpec("dirichlet", 0.0, "dirichlet"), interval)
    f = lambda x: np.sin(2 * x)
    u = apply_resolvent(dirich, -1.0, f)
    v = interval.resolvent_dirichlet(-1.0, f)
    xs = np.linspace(0.1, 0.9, 7)
    assert np.max(np.abs(u.value(xs) - v.value(xs))) < 1e-14


def test_resolvent_krein_interval(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    u = apply_resolvent(krein, -1.0, lambda x: np.ones_like(x))
    xs = np.linspace(0.05, 0.95, 11)
    # (-Lap + 1) u = 1 and tau_N(0) u = 0
    assert np.max(np.abs(-u.laplacian(xs) + u.value(xs) - 1.0)) < 1e-9
    assert np.max(np.abs(tau_N(0.0, u))) < 1e-9


def test_resolvent_selfadjointness(interval):
    rng = np.random.default_rng(5)
    L = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    L = 0.5 * (L + L.conj().T)
    ext = make_extension(ExtensionSpec("dirichlet", 0.0, L), interval)
    z = -1.4 + 0.8j
    f = interval.field(lambda x: np.sin(3 * x), None, None)
    g = interval.field(lambda x: np.exp(-x) * (1 + 1j * x), None, None)
    uf = apply_resolvent(ext, z, f)
    ug = apply_resolvent(ext, np.conj(z), g)
    lhs = interval.inner(f, ug)
    rhs = np.conj(interval.inner(g, uf))
    assert abs(lhs - rhs) < 1e-10


def test_resolvent_vs_direct_random_L(interval):
    rng = np.random.default_rng(11)
    L = rng.standard_normal((2, 2))
    L = 0.5 * (L + L.T) + 0j
    ext = make_extension(ExtensionSpec("dirichlet", 0.0, L), interval)
    for z in (-1.0, -4.0 + 1j):
        ue = apply_resolvent(ext, z, lambda x: np.cos(2 * x))
        ud = direct_solve(ext, z, lambda x: np.cos(2 * x))
        assert _norm(interval, ue + (-1.0) * ud) < 1e-11


def test_resolvent_projector_subspace(interval):
    # ran(P) = span{(1,1)}: condition enforced only on the symmetric part
    P = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    ext = make_extension(ExtensionSpec("dirichlet", 0.0, np.zeros((2, 2)), P), interval)
    u = apply_resolvent(ext, -2.0, lambda x: np.sin(np.pi * x))
    # the Dirichlet trace of the solution must lie in ran(P)
    gd = gamma_D(u)
    assert np.max(np.abs(gd - P @ gd)) < 1e-10
    assert boundary_residual(ext, u) < 1e-9
    # the equation itself holds
    xs = np.linspace(0.1, 0.9, 5)
    assert np.max(np.abs(-u.laplacian(xs) + 2.0 * u.value(xs) - np.sin(np.pi * xs))) < 1e-9


def test_resolvent_near_eigenvalue_raises(interval):
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    with pytest.raises(NearEigenvalue):
        apply_resolvent(krein, 4 * np.pi**2 - 39.47841760435743 + 0.0, lambda x: x)  # z = lam exactly


def test_resolvent_bem_unsupported():
    # every call that needs interior resolvents or fields fails typed on a curve
    bem = BemBackend(make_grid(CurveSpec.circle(1.3), 64))
    ext = make_extension(ExtensionSpec("dirichlet", -1.0, "krein"), bem)
    for call in (lambda: apply_resolvent(ext, -2.0, np.ones(64)),
                 lambda: direct_solve(ext, -2.0, np.ones(64)),
                 lambda: mfunc_direct(ext, -1.5 + 0.5j),
                 lambda: is_nonnegative(ext)):
        with pytest.raises(BackendUnsupported):
            call()


def test_is_nonnegative_examples(interval):
    rng = np.random.default_rng(7)
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    flag, cert = is_nonnegative(krein, rng)
    assert flag and cert["ritz_min"] > -1e-8

    neg = make_extension(ExtensionSpec("dirichlet", -1.0, -np.eye(2, dtype=complex)), interval)
    flag, cert = is_nonnegative(neg, rng)
    assert not flag
    assert cert["boundary_operator_min_eigenvalue"] < -0.5
    assert cert["ritz_min"] < -1e-6  # the trial family finds a negative direction

    rebuilt = make_extension(
        ExtensionSpec("dirichlet", -1.0, interval.dtn(-1.0) - interval.dtn(-1.0)), interval
    )
    flag, _ = is_nonnegative(rebuilt, rng)
    assert flag


def test_neumann_reference_specials(interval):
    z0 = -1.0
    neum = make_extension(ExtensionSpec("neumann", z0, "neumann"), interval)
    assert neum.projector is not None and not np.any(neum.projector)
    dirich = make_extension(ExtensionSpec("neumann", z0, "dirichlet"), interval)
    assert np.max(np.abs(dirich.L - interval.ntd(z0))) < 1e-14
    u = apply_resolvent(dirich, -0.5, lambda x: np.cos(x))
    assert np.max(np.abs(gamma_D(u))) < 1e-10
    # Robin data belongs to the Dirichlet reference
    with pytest.raises(SpecInvalid):
        make_extension(ExtensionSpec("neumann", z0, ("robin", 1.0)), interval)


def test_cross_factory_krein_agreement(interval):
    z0, z = -1.0, -2.0
    f = lambda x: np.sin(np.pi * x) + 0.2
    kd = make_extension(ExtensionSpec("dirichlet", z0, "krein"), interval)
    kn = make_extension(ExtensionSpec("neumann", z0, "krein"), interval)
    ud = apply_resolvent(kd, z, f)
    un = apply_resolvent(kn, z, f)
    assert _norm(interval, ud + (-1.0) * un) < 1e-8


def test_cross_factory_krein_disk(disk):
    z0, z = -1.0, -2.0
    probe = {0: (lambda r: np.exp(-r)), 2: (lambda r: r * r)}
    kd = make_extension(ExtensionSpec("dirichlet", z0, "krein"), disk)
    kn = make_extension(ExtensionSpec("neumann", z0, "krein"), disk)
    ud = apply_resolvent(kd, z, probe)
    un = apply_resolvent(kn, z, probe)
    assert _norm(disk, ud + (-1.0) * un) < 1e-8


def test_minimal_domain_sandwich(interval):
    # R_ext applied to (-Lap - z0 - z) phi returns phi for compactly-supported-like phi
    rng = np.random.default_rng(9)
    phi = interval.h20_family(1, rng)[0]
    z = -1.7
    for tag in ("dirichlet", "krein", "neumann"):
        z0 = 0.0 if tag != "neumann" else -1.0
        ext = make_extension(ExtensionSpec("dirichlet", z0, tag), interval)
        u = apply_resolvent(ext, z, lambda x: -phi.laplacian(x) - (z + z0) * phi.value(x))
        assert _norm(interval, u + (-1.0) * phi) < 1e-9


def test_orthogonal_decomposition(interval):
    # z-harmonic fields are orthogonal to (-Lap - z) of H^2_0 surrogates
    rng = np.random.default_rng(13)
    z = -2.0
    h = interval.harmonic_extension(z, np.array([1.0, 0.7]))
    for phi in interval.h20_family(3, rng):
        val = interval.inner(h, phi.helmholtz_apply(z))
        assert abs(val) < 1e-10


def test_domain_decomposition_split(interval):
    # any maximal-domain member splits into an H^2 cap H^1_0 part plus a harmonic part
    u = interval.field(
        lambda x: np.exp(2 * x) + 1j * x**3,
        lambda x: 2 * np.exp(2 * x) + 3j * x**2,
        lambda x: 4 * np.exp(2 * x) + 6j * x,
    )
    w = interval.resolvent_dirichlet(0.0, lambda x: -u.laplacian(x))
    xs = np.linspace(0.0, 1.0, 33)
    harm = u.value(xs) - w.value(xs)
    coef = np.polynomial.polynomial.polyfit(xs, harm, 1)
    assert np.max(np.abs(harm - (coef[0] + coef[1] * xs))) < 1e-9
    assert np.max(np.abs(gamma_D(w))) < 1e-12


def test_krein_kernel_dimension_disk(disk):
    # one static harmonic per retained Fourier mode: dimension 2K + 1
    # (z0 = 0: the unshifted realization, whose kernel is the harmonics)
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), disk)
    count = 0
    for k in disk.modes:
        e = np.zeros(disk.nboundary, dtype=complex)
        e[disk.mode_index(k)] = 1.0
        h = disk.harmonic_extension(0.0, e)
        act = h.helmholtz_apply(0.0)
        if np.sqrt(abs(disk.inner(act, act))) < 1e-12 and boundary_residual(krein, h) < 1e-10:
            count += 1
    assert count == 2 * disk.mode_cutoff + 1


def test_resolvent_ordering_three_random_L(interval):
    from kreinlab.spectral import ordering_check

    rng = np.random.default_rng(17)
    exts = []
    for _ in range(3):
        A = rng.standard_normal((2, 2))
        H = A @ A.T + 1e-3 * np.eye(2)  # positive semidefinite
        exts.append(make_extension(ExtensionSpec("dirichlet", 0.0, H + 0j), interval))
    report = ordering_check(exts, 1.0, interval)
    assert report["pass"]


def test_extension_spec_json_roundtrip():
    again = ExtensionSpec.from_json(
        '{"L": {"special": "krein"}, "X": "full", "reference": "dirichlet", "z0": -1.0}')
    assert again.reference == "dirichlet" and again.z0 == -1.0
    assert again.boundary_operator == "krein" and again.subspace == "full"

    L = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    # the matrix's real and imaginary parts, interleaved row by row
    again = ExtensionSpec.from_json(
        '{"L": {"matrix": [1.0, 0.0, 0.0, 0.5, -0.0, -0.5, 2.0, 0.0], "shape": [2, 2]}, '
        '"X": "zero", "reference": "dirichlet", "z0": 0.0}')
    assert np.max(np.abs(np.asarray(again.boundary_operator) - L)) < 1e-15
    assert again.subspace == "zero"

    text = '{"reference": "dirichlet", "z0": -1.0, "L": {"special": "robin", "theta": 1.0}, "X": "full"}'
    spec = ExtensionSpec.from_json(text)
    assert spec.boundary_operator == ("robin", 1.0)


@pytest.mark.parametrize("name", ["interval", "disk", "kite"])
@pytest.mark.parametrize("reference", ["dirichlet", "neumann"])
@pytest.mark.parametrize("with_projector", [False, True])
def test_bracket_matches_written_out_forms(interval, disk, kite, name, reference,
                                           with_projector):
    backend = {"interval": interval, "disk": disk, "kite": kite}[name]
    m, wts = backend.nboundary, backend.boundary_weights
    rng = np.random.default_rng(3)
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    L = 0.5 * (wts[:, None] * A + (wts[:, None] * A).conj().T) / wts[:, None]
    P = np.diag((np.arange(m) % 2 == 0).astype(complex)) if with_projector else "full"
    z0, z = -1.0, -0.7 + 0.4j
    ext = make_extension(ExtensionSpec(reference, z0, L, P), backend)
    w = z + z0
    if reference == "dirichlet":
        want = ext.L - backend.dtn(w) + backend.dtn(z0)
    else:
        want = ext.L + backend.ntd(w) - backend.ntd(z0)
    if with_projector:
        want = P @ want @ P + (np.eye(m) - P)
    assert np.array_equal(ext.bracket(w), want)


@pytest.mark.parametrize("name", ["interval", "disk"])
def test_boundary_trace_parts_are_the_regularized_traces(interval, disk, name):
    backend = {"interval": interval, "disk": disk}[name]
    z0, w = -1.0, -0.7 + 0.4j
    g = np.random.default_rng(4).standard_normal(backend.nboundary) + 0.5j
    f = ((lambda x: np.cos(3 * x) + 0j) if name == "interval"
         else {k: (lambda r: np.exp(-r) + 0j) for k in backend.modes})
    fields = [backend.harmonic_extension(w, g), backend.resolvent_dirichlet(w, f),
              backend.resolvent_neumann(w, f)]
    dirichlet, neumann = (make_extension(ExtensionSpec(reference, z0, "krein"), backend)
                          for reference in ("dirichlet", "neumann"))
    for u in fields:
        for got, want in ((dirichlet.boundary_trace_parts(u), (tau_N(z0, u), gamma_D(u))),
                          (neumann.boundary_trace_parts(u), (tau_D(z0, u), gamma_N(u)))):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _outer_map_calls_at(monkeypatch, backend, z0) -> dict:
    """Calls of ``backend.dtn`` and ``backend.ntd`` at ``z0`` that follow, by name; a call
    made inside another (the disk's ``ntd`` forms its ``dtn``) is not counted."""
    counts, depth = {"dtn": 0, "ntd": 0}, [0]
    for name in counts:
        def counted(z, _name=name, _original=getattr(backend, name)):
            if depth[0] == 0 and complex(z) == z0:
                counts[_name] += 1
            depth[0] += 1
            try:
                return _original(z)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(backend, name, counted)
    return counts


@pytest.mark.parametrize("name", ["interval", "disk"])
@pytest.mark.parametrize("reference", ["dirichlet", "neumann"])
def test_each_extension_evaluates_its_map_at_z0_once(monkeypatch, name, reference):
    from kreinlab.kreinformulas import imaginary_part_eigenvalues
    from kreinlab.spectral import SpectrumRequest, eigenvalues

    backend = Model1D() if name == "interval" else DiskModel(radius=1.0, mode_cutoff=4)
    z0 = -1.0
    spec = ExtensionSpec(reference, z0, "krein")
    once = {"dtn": 0, "ntd": 0, ("dtn" if reference == "dirichlet" else "ntd"): 1}
    counts = _outer_map_calls_at(monkeypatch, backend, z0)
    assert eigenvalues(SpectrumRequest(spec, (0.5, 40.0)), backend)  # a scan of many samples
    assert counts == once
    counts.update(dtn=0, ntd=0)
    ext = make_extension(spec, backend)
    for z in (-0.5 + 0.5j, 0.5 + 0.6j, 1.5 + 0.7j, 2.5 + 0.8j):
        imaginary_part_eigenvalues(ext, z)
    assert counts == once


@pytest.mark.parametrize("name", ["interval", "disk"])
def test_neumann_reference_resolvent_evaluates_ntd_once(monkeypatch, name):
    backend = Model1D() if name == "interval" else DiskModel(radius=1.0, mode_cutoff=4)
    ext = make_extension(ExtensionSpec("neumann", -1.0, "krein"), backend)
    f = ((lambda x: np.cos(3 * x) + 0j) if name == "interval"
         else {k: (lambda r: np.exp(-r) + 0j) for k in backend.modes})
    calls, original = [], backend.ntd
    monkeypatch.setattr(backend, "ntd", lambda z: calls.append(complex(z)) or original(z))
    apply_resolvent(ext, 0.3 + 0.5j, f)
    assert calls == [-0.7 + 0.5j]  # m(w) serves the bracket and the Dirichlet data


def test_bracket_krein_on_nystrom_grid():
    bem = BemBackend(make_grid(CurveSpec.kite(), 64))
    krein = make_extension(ExtensionSpec("dirichlet", -1.0, "krein"), bem)
    for z in (0.5 + 1j, 0.5 - 1j):
        assert np.array_equal(krein.bracket(z - 1.0), bem.dtn(-1.0) - bem.dtn(z - 1.0))


def test_exactly_singular_bracket_raises_near_eigenvalue(interval):
    # at z = 0 the Krein bracket dtn(z0) - dtn(z0) is the zero matrix
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein"), interval)
    bracket = krein.bracket(0.0)
    assert not np.any(bracket)
    assert inverse_and_condition(bracket) == (None, np.inf)
    with pytest.raises(NearEigenvalue):
        apply_resolvent(krein, 0.0, lambda x: x)
    with pytest.raises(NearEigenvalue):
        mfunc(krein, 0.0)
