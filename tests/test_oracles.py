"""Closed-form backend checks: interval model and disk model."""

import warnings

import numpy as np
import pytest

from kreinlab.errors import DomainError, NearEigenvalue
from kreinlab.oracles import DiskModel, Model1D, disk_mode_dtn, interval_dtn

# frozen oracle constants (40-digit series/quadrature computation)
J0_1 = 0.7651976865579666
J1_1 = 0.4400505857449335
I1_1 = 0.5651591039924850


def test_interval_dtn_values():
    assert np.max(np.abs(interval_dtn(0.0) - np.array([[-1, 1], [1, -1]]))) < 1e-15
    ch, sh = np.cosh(1.0), np.sinh(1.0)
    want = np.array([[-ch, 1.0], [1.0, -ch]]) / sh
    assert np.max(np.abs(interval_dtn(-1.0) - want)) < 1e-15
    got = interval_dtn(np.pi**2 / 4)  # cos(pi/2) = 0
    assert np.max(np.abs(got - (np.pi / 2) * np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-14


def test_interval_dtn_near_eigenvalue():
    with pytest.raises(NearEigenvalue):
        interval_dtn(np.pi**2)


def test_interval_dtn_matches_harmonic_extension():
    b = Model1D()
    for z in (-1.0, 2 + 3j, 0.0):
        M = b.dtn(z)
        for g in (np.array([1.0, 0.0]), np.array([0.3, -1.0 + 0.5j])):
            u = b.harmonic_extension(z, g)
            assert np.max(np.abs(M @ g + u.gamma_neumann())) < 1e-13


def test_interval_resolvents_roundtrip():
    b = Model1D()
    # manufactured solution u = sin(pi x): (-u'' - w u) = (pi^2 - w) u
    for w, ref in ((-1.0, "dirichlet"), (-2.0, "neumann"), (2.5 + 1j, "dirichlet")):
        if ref == "dirichlet":
            u = b.resolvent_dirichlet(w, lambda x: (np.pi**2 - w) * np.sin(np.pi * x))
            target = lambda x: np.sin(np.pi * x)
        else:
            u = b.resolvent_neumann(w, lambda x: (np.pi**2 - w) * np.cos(np.pi * x))
            target = lambda x: np.cos(np.pi * x)
        xs = np.linspace(0.05, 0.95, 9)
        assert np.max(np.abs(u.value(xs) - target(xs))) < 1e-13
    with pytest.raises(NearEigenvalue):
        b.resolvent_neumann(0.0, lambda x: x)


def test_interval_h2n_field_traces():
    b = Model1D()
    q = b.h2n_field(np.array([1.0, -2.0]))
    assert np.max(np.abs(q.gamma_dirichlet())) < 1e-15
    assert np.max(np.abs(q.gamma_neumann() - np.array([1.0, -2.0]))) < 1e-14


def test_disk_mode_dtn_values():
    assert disk_mode_dtn(3, 0.0, 1.0) == -3.0
    assert abs(disk_mode_dtn(0, 1.0, 1.0) - J1_1 / J0_1) < 1e-14
    assert abs(disk_mode_dtn(0, 1.0, 1.0) - 0.575080915004306) < 1e-12
    assert disk_mode_dtn(-5, 0.0, 1.3) == disk_mode_dtn(5, 0.0, 1.3)


def test_disk_mode_smoothing_decay():
    ks = np.arange(4, 33)
    diffs = np.array([abs(disk_mode_dtn(k, -1.0, 1.0) - disk_mode_dtn(k, -2.0, 1.0)) for k in ks])
    c = float(np.max(diffs * ks))
    assert np.all(diffs <= 1.0001 * c / ks)
    # large-k expansion: m_k(z) ~ -k + z/(2(k+1)), so c is near 1/2
    assert 0.3 < c < 0.8


def test_disk_backend_self_checks():
    d = DiskModel(radius=1.3, mode_cutoff=6)
    assert d.nboundary == 13
    M = d.dtn(0.0)
    assert np.max(np.abs(np.diag(M) - [-abs(k) / 1.3 for k in d.modes])) < 1e-14


def test_disk_harmonic_extension_and_traces():
    d = DiskModel(radius=1.0, mode_cutoff=3)
    g = np.zeros(d.nboundary, dtype=complex)
    g[d.mode_index(1)] = 1.0
    u = d.harmonic_extension(0.0, g)
    # mode-1 static harmonic is r e^{i theta}; check value and traces
    assert abs(u.value(0.3, 0.7) - 0.3 * np.exp(0.7j)) < 1e-14
    assert abs(u.gamma_neumann()[d.mode_index(1)] - 1.0) < 1e-14
    # Neumann data of the solve at z=-1 with unit Neumann mode 0: u = I_0(r)/I_1(1)
    un = d.harmonic_extension(-1.0, d.ntd(-1.0) @ np.eye(d.nboundary)[d.mode_index(0)])
    assert abs(un.value(0.0, 0.0) - 1.0 / I1_1) < 1e-13


def test_disk_resolvent_eigenfunction():
    from scipy.special import jn_zeros

    d = DiskModel(radius=1.0, mode_cutoff=2)
    j01 = jn_zeros(0, 1)[0]
    lam = j01**2
    w = -1.5
    u = d.resolvent_dirichlet(w, {0: (lambda r: np.asarray(np.cos(0 * r), dtype=complex) * 0 + _j0(j01 * r))})
    # resolvent acts as 1/(lam - w) on the eigenfunction J_0(j01 r)
    rr = np.linspace(0.05, 0.9, 7)
    assert np.max(np.abs(u.value(rr, 0.0) - _j0(j01 * rr) / (lam - w))) < 1e-11


def _j0(x):
    from scipy.special import jv

    return jv(0, x)


def test_disk_field_gradient():
    # grad of r e^{i theta} = (x + i y) is (1, i); checked off-axis
    d = DiskModel(radius=1.0, mode_cutoff=2)
    u = d.mode_poly_field(1, {1: 1.0})
    g = u.gradient(np.array([0.4]), np.array([1.1]))
    assert abs(g[0, 0] - 1.0) < 1e-14
    assert abs(g[0, 1] - 1j) < 1e-14
    # at the centre the angular term takes its limit, with no 0/0 warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.max(np.abs(u.gradient(0.0, 0.3) - np.array([1.0, 1j]))) < 1e-15
        # r e^{-i theta} = x - i y; r^2 e^{2 i theta} and r^2 have zero gradient at 0
        g = d.mode_poly_field(-1, {1: 1.0}).gradient(np.array([0.0, 0.5]), 1.1)
        assert np.max(np.abs(g - np.array([1.0, -1j]))) < 1e-15
        for k in (0, 2):
            g = d.mode_poly_field(k, {2: 1.0}).gradient(np.array([0.0]), np.array([0.4]))
            assert np.max(np.abs(g[0])) == 0.0


def test_disk_resolvent_neumann_traces():
    d = DiskModel(radius=1.0, mode_cutoff=2)
    u = d.resolvent_neumann(-2.0, {1: (lambda r: r)})
    assert np.max(np.abs(u.gamma_neumann())) < 1e-12
    ud = d.resolvent_dirichlet(-2.0, {1: (lambda r: r)})
    assert np.max(np.abs(ud.gamma_dirichlet())) < 1e-12


def test_backend_build_time_self_test():
    # the constructors re-derive the static boundary maps; failure would raise
    Model1D()
    DiskModel(radius=2.0, mode_cutoff=4)


# field algebra: sums, scalar multiples and the Helmholtz action must give the
# termwise closed forms bit for bit
C, Z = 0.3 - 1.2j, -0.7 + 0.4j


def test_interval_field_algebra_keeps_its_bits():
    b = Model1D()
    P = np.polynomial.Polynomial([1.0, -2.0, 0.5])
    Q = np.polynomial.Polynomial([0.0, 3.0, 0.0, -1.5])
    u, v = b.polynomial(P.coef), b.polynomial(Q.coef)
    w = C * u + v
    x = np.linspace(0.0, 1.0, 7)
    for got, p, q in ((w.value(x), P, Q), (w.derivative(x), P.deriv(), Q.deriv()),
                      (w.laplacian(x), P.deriv(2), Q.deriv(2))):
        assert np.array_equal(got, C * (p(x) + 0j) + (q(x) + 0j))
    assert np.array_equal(u.helmholtz_apply(Z).value(x), -(P.deriv(2)(x) + 0j) - Z * (P(x) + 0j))


def test_disk_field_algebra_keeps_its_bits():
    d = DiskModel(radius=1.3, mode_cutoff=3)
    u = d.mode_poly_field(2, {2: 1.0, 4: -0.5})
    v = d.mode_poly_field(2, {3: 0.25j})
    r, theta = np.linspace(0.1, 1.3, 5)[:, None], np.linspace(0.0, 6.0, 4)
    # radial parts and (p^2 - k^2) r^(p - 2) Laplacian parts of mode k = 2
    U, dU, lapU = r**2 - 0.5 * r**4, 2 * r - 2.0 * r**3, -6.0 * r**2
    V, dV, lapV = 0.25j * r**3, 0.75j * r**2, 1.25j * r
    phase = np.exp(2j * theta)
    w = C * u + v
    assert np.array_equal(w.value(r, theta), (C * U + V) * phase)
    assert np.array_equal(w.laplacian(r, theta), (C * lapU + lapV) * phase)
    gr, gt = (C * dU + dV) * phase, 2j * (C * U + V) / r * phase
    grad = np.stack([gr * np.cos(theta) - gt * np.sin(theta),
                     gr * np.sin(theta) + gt * np.cos(theta)], axis=-1)
    assert np.array_equal(w.gradient(r, theta), grad)
    assert np.array_equal(u.helmholtz_apply(Z).value(r, theta), (-lapU - Z * U) * phase)


def test_interval_field_source_gives_the_callable_source_bits():
    b = Model1D()
    fn = lambda x: np.exp(-x) * (1 + 1j * x)
    u = b.polynomial([0.0, 0.0, 1.0])
    x = np.linspace(0.0, 1.0, 5)
    for resolvent in (b.resolvent_dirichlet, b.resolvent_neumann):
        pairs = [(resolvent(-1.3, b.field(fn)), resolvent(-1.3, fn)),
                 (resolvent(-1.0, u.helmholtz_apply(-1.0)),
                  resolvent(-1.0, lambda x: -u.laplacian(x) - -1.0 * u.value(x)))]
        for via_field, via_callable in pairs:
            for part in ("value", "derivative", "laplacian"):
                assert np.array_equal(getattr(via_field, part)(x), getattr(via_callable, part)(x))


@pytest.mark.parametrize("reference", ["dirichlet", "neumann"])
def test_resolvent_reads_keep_scalars_and_shapes(reference):
    b = Model1D()
    u = getattr(b, f"resolvent_{reference}")(-1.0, lambda x: np.cos(x) + 0j)
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)  # holds the endpoints 0 and 1
    for part in (u.value, u.derivative, u.laplacian):
        assert all(isinstance(part(t), complex) for t in (0.0, 0.5, 1.0))
        assert part(x).shape == (3, 4)
    d = DiskModel(radius=1.3, mode_cutoff=2)
    v = getattr(d, f"resolvent_{reference}")(-2.0, {0: lambda r: np.exp(-r), 1: lambda r: r})
    r = np.linspace(0.0, 1.3, 12).reshape(3, 4)  # holds the centre r = 0 and r = R
    for p in v.profiles.values():
        for part in (p.val, p.dval, p.lap):
            assert all(isinstance(part(t), complex) for t in (0.0, 0.65, 1.3))
            assert part(r).shape == (3, 4) and np.all(np.isfinite(part(r)))
    assert isinstance(v.value(0.0, 0.3), complex)
    assert v.value(r, 0.3).shape == v.laplacian(r, r).shape == (3, 4)


# vectorized Green quadrature: one array pass per call must match the former
# per-target split-Gauss loop, written out here, to rounding

def _per_target_green(left, right, scale, source, end, radial, x, derivative=False):
    from kreinlab.oracles import _GL_NODES, _GL_WEIGHTS

    (uL, duL), (uR, duR) = left, right
    at_left, at_right = (duL, duR) if derivative else (uL, uR)
    out = np.empty(np.shape(x), dtype=complex)
    for idx, xi in np.ndenumerate(np.asarray(x, dtype=float)):
        xs1, ws1 = 0.5 * xi * _GL_NODES + 0.5 * xi, 0.5 * xi * _GL_WEIGHTS
        xs2, ws2 = 0.5 * (end - xi) * _GL_NODES + 0.5 * (xi + end), 0.5 * (end - xi) * _GL_WEIGHTS
        lower, upper = ws1 * uL(xs1), ws2 * uR(xs2)
        if radial:
            lower, upper = lower * xs1, upper * xs2
        below = at_right(xi) * np.sum(lower * source(xs1)) if xi != 0 else 0.0
        out[idx] = (below + at_left(xi) * np.sum(upper * source(xs2))) / scale
    return out


def _interval_problem(reference, w):
    k = np.sqrt(complex(w))
    if reference == "dirichlet":
        left = (lambda x: np.sin(k * x)), (lambda x: k * np.cos(k * x))
        right = (lambda x: np.sin(k * (1 - x))), (lambda x: -k * np.cos(k * (1 - x)))
        return left, right, k * np.sin(k)
    left = (lambda x: np.cos(k * x)), (lambda x: -k * np.sin(k * x))
    right = (lambda x: np.cos(k * (1 - x))), (lambda x: k * np.sin(k * (1 - x)))
    return left, right, -k * np.sin(k)


def _disk_problem(k, w, R):
    from scipy.special import jv, jvp, yv, yvp

    kap = np.sqrt(complex(w))
    a, b = yv(k, kap * R), jv(k, kap * R)
    left = (lambda r: jv(k, kap * r)), (lambda r: kap * jvp(k, kap * r))
    right = ((lambda r: jv(k, kap * r) * a - yv(k, kap * r) * b),
             (lambda r: kap * (jvp(k, kap * r) * a - yvp(k, kap * r) * b)))
    return left, right, (2.0 / np.pi) * b


def _assert_green_matches(left, right, scale, source, end, radial, targets):
    from kreinlab.oracles import _green_profile

    w = -0.8 + 0.3j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the disk's uR must never be read at r = 0
        profile = _green_profile(left, right, scale, w, source, end, radial)
        for x in targets:
            for part, derivative in ((profile.val, False), (profile.dval, True)):
                got = part(x)
                want = _per_target_green(left, right, scale, source, end, radial, x, derivative)
                assert np.shape(got) == np.shape(x)
                assert isinstance(got, complex) == (np.ndim(x) == 0)
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
            want = -w * profile.val(x) - source(np.asarray(x, dtype=float))
            assert np.array_equal(profile.lap(x), want)


@pytest.mark.parametrize("reference", ["dirichlet", "neumann"])
def test_green_profile_matches_the_per_target_loop_on_the_interval(reference):
    left, right, scale = _interval_problem(reference, -0.8 + 0.3j)
    callable_source = lambda x: np.exp(-x) * (1.0 + 0.5j * x)
    sampled_source = Model1D().basis.interpolant(callable_source(Model1D().quad_nodes))
    targets = [0.0, 1.0, 0.37, np.array([0.0, 0.2, 1.0]),
               np.linspace(0.0, 1.0, 12).reshape(3, 4), Model1D().quad_nodes]
    for source in (callable_source, sampled_source):
        _assert_green_matches(left, right, scale, source, 1.0, False, targets)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_green_profile_matches_the_per_target_loop_on_the_disk(k):
    R = 1.3
    left, right, scale = _disk_problem(k, -0.8 + 0.3j, R)
    source = lambda r: np.exp(-r) * r**k + 0j
    targets = [0.0, R, 0.61, np.array([0.0, 0.4, R]), np.linspace(0.0, R, 12).reshape(3, 4)]
    _assert_green_matches(left, right, scale, source, R, True, targets)


def _former_barycentric(nodes, values, x):
    """The per-interpolant formula the basis replaced."""
    cap = 0.25 * (np.max(nodes) - np.min(nodes))
    w = np.array([1.0 / np.prod((nodes[j] - np.delete(nodes, j)) / cap) for j in range(len(nodes))])
    diff = x[..., None] - nodes
    hit = diff == 0.0
    diff = np.where(hit, 1.0, diff)
    out = np.sum(w * values / diff, axis=-1) / np.sum(w / diff, axis=-1)
    return np.where(np.any(hit, axis=-1), values[np.argmax(hit, axis=-1)], out)


@pytest.mark.parametrize("backend", [Model1D(), DiskModel(radius=1.3, mode_cutoff=2)])
def test_barycentric_basis_is_exact_at_nodes_and_agrees_with_the_former_formula(backend):
    nodes = backend.quad_nodes
    rng = np.random.default_rng(3)
    values = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
    interp = backend.basis.interpolant(values)
    # a batch where only some points are nodes, in a 2-D layout
    x = np.array([[nodes[5], 0.5 * (nodes[5] + nodes[6])], [0.0, nodes[-1]], [0.3, nodes[0]]])
    got = interp(x)
    assert got.shape == (3, 2)
    assert got[0, 0] == values[5] and got[1, 1] == values[-1] and got[2, 1] == values[0]
    assert interp(nodes[7]) == values[7] and isinstance(interp(nodes[7]), complex)
    assert np.array_equal(interp(nodes), values)
    probe = np.concatenate([x.ravel(), rng.uniform(0.0, nodes[-1] + nodes[0], 50)])
    want = _former_barycentric(nodes, values, probe)
    assert np.max(np.abs(interp(probe) - want)) <= 1e-13 * np.max(np.abs(want))
    B = backend.basis.matrix(x)
    assert np.max(np.abs(B.sum(axis=-1) - 1.0)) < 1e-13
    assert backend.basis.matrix(x) is B  # memoized per array of points
    for _ in range(2 * backend.basis.STORE_SIZE):
        backend.basis.matrix(rng.uniform(0.0, 1.0, 3))
    assert len(backend.basis._store) == backend.basis.STORE_SIZE


def test_barycentric_basis_rejects_samples_off_the_nodes():
    with pytest.raises(DomainError):
        Model1D().basis.interpolant(np.ones(10))


def test_witness_pass_leaves_no_basis_store(monkeypatch):
    import gc
    import weakref

    from kreinlab import kreinformulas

    stores = []

    class Recording(Model1D):
        def __init__(self):
            super().__init__()
            stores.append(weakref.ref(self.basis))

    monkeypatch.setattr(kreinformulas, "Model1D", Recording)
    witnesses = kreinformulas.sign_witnesses()
    assert witnesses["krein-formula"] < 1e-12
    assert len(stores) == 1
    gc.collect()
    assert stores[0]() is None
    # the store is used by the pass, bounded, and dies with its backend
    backend = Recording()
    ext = kreinformulas._extension_from_matrix(np.array([[1.0, 0.2], [0.2, 0.5]]), 0.0, backend)
    kreinformulas.interval_sign_witnesses(ext, -1.0 + 0.7j)
    assert 0 < len(backend.basis._store) <= backend.basis.STORE_SIZE
    store = weakref.ref(backend.basis)
    del backend, ext
    gc.collect()
    assert store() is None
