"""Layer-operator assembly checks against closed forms on circles."""

import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from scipy import special

from kreinlab import layerpot
from kreinlab.errors import TargetTooClose
from kreinlab.geometry import CurveSpec, make_grid
from kreinlab.layerpot import (
    JUMP_SIGN,
    SPLIT_MIN,
    _pairwise,
    assemble_adjoint_double_layer,
    assemble_single_layer_trace,
    evaluate_potential,
    evaluate_potential_gradient,
    log_quadrature_weights,
)
from kreinlab.specfun import EULER_GAMMA, sqrt_upper
from kreinlab.weyl import BemBackend, Mirrored


def test_log_quadrature_rule_exact_on_modes():
    n = 32
    t = 2 * np.pi * np.arange(n) / n
    R = log_quadrature_weights(n)
    # exact value of the log integral against cos(m(t - s)) is -2 pi / m
    for m in (0, 1, 3, 7):
        got = R[2] @ np.cos(m * (t - t[2]))
        want = 0.0 if m == 0 else -2 * np.pi / m
        assert abs(got - want) < 1e-13


def test_single_layer_uniform_density_unit_circle():
    # logarithmic-capacity degeneracy: the static trace annihilates constants
    grid = make_grid(CurveSpec.circle(1.0), 64)
    V = assemble_single_layer_trace(grid, 0.0)
    assert np.max(np.abs(V @ np.ones(grid.n))) < 1e-14


def test_single_layer_uniform_density_radius_two():
    grid = make_grid(CurveSpec.circle(2.0), 64)
    V = assemble_single_layer_trace(grid, 0.0)
    want = -2.0 * np.log(2.0)
    assert np.max(np.abs(V @ np.ones(grid.n) - want)) < 1e-13


def test_single_layer_fourier_modes_static():
    # closed form on a circle of radius a: mode k maps to (a / 2|k|) mode k
    a = 2.0
    grid = make_grid(CurveSpec.circle(a), 128)
    V = assemble_single_layer_trace(grid, 0.0)
    for k in (1, 2, 5):
        g = np.cos(k * grid.t)
        assert np.max(np.abs(V @ g - (a / (2 * k)) * g)) < 1e-13


def test_single_layer_weighted_symmetry_kite():
    grid = make_grid(CurveSpec.kite(), 128)
    V = assemble_single_layer_trace(grid, -1.0)
    WV = grid.weighted_measure[:, None] * V
    assert np.max(np.abs(WV - WV.T)) < 1e-12


def test_adjoint_double_layer_unit_circle_static():
    grid = make_grid(CurveSpec.circle(1.0), 64)
    K = assemble_adjoint_double_layer(grid, 0.0)
    # constant kernel -1/(4 pi): constants map to -1/2, oscillations to zero
    assert np.max(np.abs(K @ np.ones(grid.n) + 0.5)) < 1e-14
    assert np.max(np.abs(K @ np.exp(3j * grid.t))) < 1e-13


def test_jump_relation_sign_on_circle():
    assert JUMP_SIGN == 1.0
    grid = make_grid(CurveSpec.circle(1.0), 64)
    T = BemBackend(grid).neumann_trace(0.0)
    assert np.max(np.abs(T @ np.ones(grid.n))) < 1e-13


def test_neumann_trace_fourier_mode():
    # S_0[e^{i theta}] = r/2 e^{i theta} inside the unit disk
    grid = make_grid(CurveSpec.circle(1.0), 64)
    T = BemBackend(grid).neumann_trace(0.0)
    g = np.exp(1j * grid.t)
    assert np.max(np.abs(T @ g - 0.5 * g)) < 1e-13


def _extrapolated_normal_derivative(grid, density, z, node: int, distances):
    """Interior normal derivative at a node by polynomial extrapolation of
    analytic-gradient samples along the inward normal."""
    x0 = grid.points[node]
    nu = grid.normals[node]
    samples = []
    for d in distances:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TargetTooClose)
            g = evaluate_potential_gradient(grid, density, z, (x0 - d * nu)[None, :])
        samples.append(np.dot(nu, g[0]))
    coeffs = np.polyfit(np.asarray(distances), np.asarray(samples), len(distances) - 1)
    return np.polyval(coeffs, 0.0)


def test_jump_relation_kite_by_extrapolation():
    """Interior Neumann trace of the single layer matches (1/2 I + K#) g on
    the kite; quadrature near the boundary is replaced by extrapolating the
    analytic gradient from safe distances to the boundary."""
    grid = make_grid(CurveSpec.kite(), 1024)
    z = -1.0
    density = np.exp(np.cos(grid.t)) + 0.5j * np.sin(grid.t)
    T = BemBackend(grid).neumann_trace(z)
    matrix_action = T @ density
    distances = np.linspace(0.05, 0.4, 12)
    for node in (0, 150, 490, 800):
        got = _extrapolated_normal_derivative(grid, density, z, node, distances)
        assert abs(got - matrix_action[node]) < 1e-4


@pytest.mark.parametrize(
    "spec,z",
    [(CurveSpec.ellipse(2.0, 1.0), 2 + 1j), (CurveSpec.star(0.3, 5), -1.0)],
)
def test_jump_relation_other_catalog_curves(spec, z):
    # same extrapolated-trace confirmation on the remaining catalog curves
    grid = make_grid(spec, 512)
    density = np.cos(grid.t) + 0.4j * np.sin(2 * grid.t)
    matrix_action = BemBackend(grid).neumann_trace(z) @ density
    distances = np.linspace(0.14, 0.5, 10)
    for node in (3, 200):
        got = _extrapolated_normal_derivative(grid, density, z, node, distances)
        assert abs(got - matrix_action[node]) < 1e-4


def test_adjoint_double_layer_self_convergence_kite():
    z = 2 + 1j
    coarse = make_grid(CurveSpec.kite(), 128)
    fine = make_grid(CurveSpec.kite(), 256)
    dens = lambda t: np.exp(np.sin(t)) + 1j * np.cos(2 * t)
    kc = assemble_adjoint_double_layer(coarse, z) @ dens(coarse.t)
    kf = assemble_adjoint_double_layer(fine, z) @ dens(fine.t)
    assert np.max(np.abs(kc - kf[::2])) < 1e-9


def test_compactness_surrogate_singular_values():
    # static kernel on the unit circle is rank one: everything past the first
    # singular value collapses, far below the index-N/4 threshold
    grid = make_grid(CurveSpec.circle(1.0), 128)
    K0 = assemble_adjoint_double_layer(grid, 0.0)
    s0 = np.linalg.svd(K0, compute_uv=False)
    assert np.max(s0[grid.n // 4:]) < 1e-12
    assert np.max(s0[2:]) < 1e-12
    # Helmholtz kernels have an r^2 log r diagonal part, so the tail decays
    # cubically; check the rate and that it passes 1e-8 within the rate fit
    for z in (-1.0, 2 + 1j):
        K = assemble_adjoint_double_layer(grid, z)
        s = np.sort(np.linalg.svd(K, compute_uv=False))[::-1]
        ratio = s[16] / s[32]
        assert 6.0 < ratio < 11.0  # ~2^3 per octave
        c = s[32] * 32.0**3
        index_needed = (c / 1e-8) ** (1.0 / 3.0)
        assert index_needed < 1024  # comfortably reached by refining the grid
        assert s[32] < 1e-3


def test_evaluate_potential_closed_forms():
    grid = make_grid(CurveSpec.circle(1.0), 64)
    val = evaluate_potential(grid, np.ones(grid.n), 0.0, np.array([[0.0, 0.0]]))
    assert abs(val[0]) < 1e-14
    grid2 = make_grid(CurveSpec.circle(2.0), 64)
    val = evaluate_potential(grid2, np.ones(grid2.n), 0.0, np.array([[0.0, 0.0]]))
    assert abs(val[0] + 2 * np.log(2.0)) < 1e-13


def test_evaluate_potential_pde_residual():
    # five-point Laplacian of the potential equals -z u at interior points
    grid = make_grid(CurveSpec.kite(), 256)
    z = 2 + 1j
    density = np.cos(grid.t) + 0.3j
    x0 = np.array([-0.3, 0.1])
    h = 1e-3
    stencil = np.array(
        [x0, x0 + [h, 0], x0 - [h, 0], x0 + [0, h], x0 - [0, h]]
    )
    vals = evaluate_potential(grid, density, z, stencil)
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2
    assert abs(-lap - z * vals[0]) < 1e-6 * max(1.0, abs(vals[0]))


def test_target_too_close_warning():
    grid = make_grid(CurveSpec.circle(1.0), 64)
    near = np.array([[0.999, 0.0]])
    with pytest.warns(TargetTooClose):
        evaluate_potential(grid, np.ones(grid.n), 0.0, near)
    # value is still returned, just flagged
    with pytest.warns(TargetTooClose):
        out = evaluate_potential(grid, np.ones(grid.n), -1.0, near)
    assert np.all(np.isfinite(out))


def _full_matrix_reference(grid, z):
    """V_z and K#_z with every kernel evaluated on the full n x n distance matrix,
    diagonal included: Laplace at z = 0, modified Bessel I/K at real z < 0, Bessel/Hankel
    otherwise, from the ray table of the grid's distinct distances where the rule gives
    one."""
    n = grid.n
    trap = 2.0 * np.pi / n
    R = log_quadrature_weights(n)
    d, r, log4sin = _pairwise(grid)
    sp = grid.speed
    dn = np.sum(d * grid.normals[:, None, :], axis=-1)
    c = 1.0 / (2.0 * np.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        if z == 0:
            m1 = -(1.0 / (4.0 * np.pi)) * np.ones((n, n)) * sp[None, :]
            m2 = -c * np.log(r) * sp[None, :] - m1 * log4sin
            k1 = np.zeros((n, n))
            k2 = -c * np.ones((n, n)) * dn / r**2 * sp[None, :]
            diagonal = -c * np.log(sp) * sp
        elif z.imag == 0 and z.real < 0:
            kappa = sqrt_upper(z).imag
            m1 = -(1.0 / (4.0 * np.pi)) * special.i0(kappa * r) * sp[None, :]
            m2 = c * special.k0(kappa * r) * sp[None, :] - m1 * log4sin
            k1 = (-kappa / (4.0 * np.pi)) * special.i1(kappa * r) * dn / r * sp[None, :]
            k2 = ((-kappa / (2.0 * np.pi)) * special.k1(kappa * r) * dn / r * sp[None, :]
                  - k1 * log4sin)
            diagonal = (-EULER_GAMMA / (2.0 * np.pi)
                        - np.log(kappa * sp / 2.0) / (2.0 * np.pi)) * sp
        else:
            k = sqrt_upper(z)
            # each kernel's fresh array meets its coefficient within one expression, as
            # in the assembly, so that numpy orders the operands of the product alike
            table = layerpot._ray_table(k, np.unique(r[~np.eye(n, dtype=bool)]))
            amos = [partial(f, m) for m in (0, 1) for f in (special.jv, special.hankel1)]
            j0, h0, j1, h1 = table or [lambda r, f=f: f(k * r) for f in amos]
            m1 = -(1.0 / (4.0 * np.pi)) * j0(r) * sp[None, :]
            m2 = 0.25j * h0(r) * sp[None, :] - m1 * log4sin
            k1 = (k / (4.0 * np.pi)) * j1(r) * dn / r * sp[None, :]
            k2 = -(0.25j * k) * h1(r) * dn / r * sp[None, :] - k1 * log4sin
            diagonal = (0.25j - EULER_GAMMA / (2.0 * np.pi) - np.log(k * sp / 2.0) * c) * sp
    np.fill_diagonal(m2, diagonal)
    np.fill_diagonal(k1, 0.0)
    np.fill_diagonal(k2, -grid.curvature * sp / (4.0 * np.pi))
    return R * m1 + trap * m2, R * k1 + trap * k2


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("z", [2 + 1j, -1.5])
def test_triangle_kernels_bit_identical_to_full_matrix(n, z):
    # kernels evaluated once per distinct distance and gathered equal the full
    # evaluation exactly, diagonals included
    grid = make_grid(CurveSpec.kite(), n)
    V_ref, K_ref = _full_matrix_reference(grid, z)
    V = assemble_single_layer_trace(grid, z)
    K = assemble_adjoint_double_layer(grid, z)
    assert np.array_equal(V, V_ref)
    assert np.array_equal(K, K_ref)


# not the unit circle, whose V_0 is singular (logarithmic capacity one)
_SPLIT_CURVES = [CurveSpec.kite(), CurveSpec.star(0.3, 5), CurveSpec.ellipse(1.5, 1.0),
                 CurveSpec.circle(0.8)]


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("z", [0.0, -1.0, 2 + 1j, -0.5 + 0.8j])
@pytest.mark.parametrize("spec", _SPLIT_CURVES, ids=lambda spec: spec.kind)
def test_distinct_distance_kernels_bit_identical_to_full_matrix(spec, z, n):
    # one evaluation per distinct distance, gathered, has the bits of one per pair
    grid = make_grid(spec, n)
    V_ref, K_ref = _full_matrix_reference(grid, z)
    V, K = assemble_single_layer_trace(grid, z, with_adjoint=True)
    assert np.array_equal(V, V_ref)
    assert np.array_equal(K, K_ref)


@pytest.mark.parametrize("f, order, ref", [(special.i0, 0, "besseli"), (special.k0, 0, "besselk"),
                                           (special.i1, 1, "besseli"), (special.k1, 1, "besselk")])
def test_real_row_parts_against_mpmath(f, order, ref):
    # the real row evaluates exactly these four ufuncs, at kappa r up to kappa * diameter
    import mpmath

    grid = make_grid(CurveSpec.kite(), 64)
    assert f in [part[1] for part in layerpot._kernels(grid, -1.0 + 0j).parts]
    x = np.geomspace(1e-3, 18.0, 100)
    with mpmath.workdps(40):
        want = np.array([float(getattr(mpmath, ref)(order, v)) for v in x])
    assert np.max(np.abs(f(x) - want) / want) <= 2e-15


@pytest.mark.parametrize("z", [2 + 1j, 2 - 1j, -3 + 0.5j, -0.5 + 1j, 5.1 + 1.03j, 6 + 0.3j,
                               100.3 + 1j])
def test_ray_table_against_mpmath(z):
    # J_0, H_0, J_1 and H_1 from the table of a ray over the kite's distances [0, 3], at
    # random distances, the first and the last, a midpoint between anchors, and both sides
    # of the anchor TABLE_NEAR, where H_0 and H_1 leave AMOS for the table
    import mpmath

    k = sqrt_upper(z)
    table = layerpot._ray_table(k, np.linspace(0.0, 3.0, layerpot.TABLE_MIN))
    spacing = 3.0 / (layerpot.TABLE_ANCHORS - 1)
    r = np.concatenate([np.random.default_rng(7).uniform(0.0, 3.0, 48),
                        [1e-3, 3.0, 0.5 * spacing, (layerpot.TABLE_NEAR - 0.6) * spacing,
                         (layerpot.TABLE_NEAR - 0.4) * spacing]])
    references = [(special.jv, mpmath.besselj), (special.hankel1, mpmath.hankel1)]
    for part, (order, (amos, ref)) in zip(table, [(m, f) for m in (0, 1) for f in references]):
        with mpmath.workdps(40):
            want = np.array([complex(ref(order, mpmath.mpc(k) * mpmath.mpf(v))) for v in r])
        got = part(r)
        assert np.max(np.abs(got - want)) <= 1.5e-15 * np.max(np.abs(want)), (z, order, amos)
        rel, rel_amos = (np.max(np.abs(v - want) / np.abs(want)) for v in (got, amos(order, k * r)))
        assert rel <= 2.0 * rel_amos, (z, order, amos, rel, rel_amos)


@pytest.mark.parametrize("n", [192, 256, 1024])
@pytest.mark.parametrize("spec", _SPLIT_CURVES, ids=lambda spec: spec.kind)
def test_ray_table_route_of_each_catalog_curve(monkeypatch, spec, n):
    # the kite, the star and the ellipse have at least 7,181 distinct distances at these n
    # and read the table; the circle has at most 5,239 and calls AMOS at each
    routes = []
    ray_table = layerpot._ray_table

    def recorded(k, distances):
        table = ray_table(k, distances)
        routes.append(table is not None)
        return table

    monkeypatch.setattr(layerpot, "_ray_table", recorded)
    assemble_single_layer_trace(make_grid(spec, n), 2 + 1j, with_adjoint=True, full=False)
    assert routes == [spec.kind != "circle"]


def _amos_route(grid, z, density, targets):
    """V_z, K#_z, dtn(z), ntd(z), and the potential of ``density`` and its gradient at
    ``targets``, through AMOS J_m and H^(1)_m at k = sqrt(z), every kernel on the full
    distance matrix.  The maps are formed from the mirror blocks of V_z and T_z, as
    :class:`BemBackend` forms them, so that the two routes differ in their kernels only:
    inverses of the full matrices alone move the circle's ntd by up to 2e-13, its rounding
    amplified by a condition of up to 3e3 here."""
    k, n, sp = sqrt_upper(z), grid.n, grid.speed
    d, r, log4sin = _pairwise(grid)
    dn = np.sum(d * grid.normals[:, None, :], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        m1 = -special.jv(0, k * r) / (4.0 * np.pi) * sp
        m2 = 0.25j * special.hankel1(0, k * r) * sp - m1 * log4sin
        k1 = k / (4.0 * np.pi) * special.jv(1, k * r) * dn / r * sp
        k2 = -0.25j * k * special.hankel1(1, k * r) * dn / r * sp - k1 * log4sin
    np.fill_diagonal(m2, (0.25j - (EULER_GAMMA + np.log(k * sp / 2.0)) / (2.0 * np.pi)) * sp)
    np.fill_diagonal(k1, 0.0)
    np.fill_diagonal(k2, -grid.curvature * sp / (4.0 * np.pi))
    R, trap = log_quadrature_weights(n), 2.0 * np.pi / n
    V, K = R * m1 + trap * m2, R * k1 + trap * k2
    rows = n // 2 + 1
    T = Mirrored.fold((0.5 * JUMP_SIGN * np.eye(n) + K)[:rows])
    dtn = T @ Mirrored.fold(-V[:rows]).inverse()
    x = targets[:, None, :] - grid.points[None, :, :]
    rt = np.sqrt(np.sum(x**2, axis=-1))
    g = grid.weighted_measure * density
    radial = -0.25j * k * special.hankel1(1, k * rt)
    return {"V": V, "K#": K, "dtn": dtn.full(), "ntd": -dtn.inverse().full(),
            "potential": 0.25j * special.hankel1(0, k * rt) @ g,
            "gradient": np.einsum("mj,mjc,j->mc", radial / rt, x, g)}


# both routes apply one quadrature, so targets within 5 spacings of a 64-node grid only warn
@pytest.mark.filterwarnings("ignore::kreinlab.errors.TargetTooClose")
@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("z", [-0.25, -1.0, -4.0])
@pytest.mark.parametrize("spec", _SPLIT_CURVES, ids=lambda spec: spec.kind)
def test_real_row_matches_the_amos_route(spec, z, n):
    # at real z < 0 the I/K row, real from the kernels to the maps, agrees with J/H^(1)
    # at k = i kappa to rounding
    grid = make_grid(spec, n)
    rng = np.random.default_rng(n)
    density = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    targets = 0.3 * rng.uniform(-1.0, 1.0, (20, 2))
    want = _amos_route(grid, z, density, targets)
    backend = BemBackend(grid)
    V, K = assemble_single_layer_trace(grid, z, with_adjoint=True)
    got = {"V": V, "K#": K, "dtn": backend.dtn(z), "ntd": backend.ntd(z),
           "potential": evaluate_potential(grid, density, z, targets),
           "gradient": evaluate_potential_gradient(grid, density, z, targets)}
    for name, value in got.items():
        assert value.dtype == (complex if name in ("potential", "gradient") else float), name
        err = np.max(np.abs(value - want[name])) / np.max(np.abs(want[name]))
        assert err <= 5e-14, (name, err)


@pytest.mark.parametrize("spec, share", [(CurveSpec.kite(), 0.55), (CurveSpec.circle(0.8), 0.05)],
                         ids=["kite", "circle"])
def test_each_distinct_distance_reaches_the_kernels_once(monkeypatch, spec, share):
    points = []
    apply = layerpot._apply
    monkeypatch.setattr(layerpot, "_apply",
                        lambda f, x, *dtype: points.append(x.size) or apply(f, x, *dtype))
    grid = make_grid(spec, 192)
    assemble_single_layer_trace(grid, 2 + 1j, with_adjoint=True)
    pairs = 192 * 191 // 2  # 18,336: what an evaluation on the upper triangle sends
    r = _pairwise(grid)[1]
    distinct = np.unique(r[np.triu_indices(192, 1)]).size
    assert points == [distinct] * 4  # one per kernel part
    assert distinct <= share * pairs


@pytest.mark.parametrize("n", [4, 16, 256, 1024])
def test_log_weights_are_a_read_only_circulant_view(n):
    half = n // 2
    angles = 2.0 * np.pi * np.arange(n) / n
    m = np.arange(1, half)
    profile = -(2.0 * np.pi / half) * (np.cos(np.outer(angles, m)) / m).sum(axis=1) - (
        np.pi / half**2) * np.cos(half * angles)
    # the weight is even in the index difference k: the profile is read at min(k, n - k),
    # so that R commutes with the grid mirror bit for bit
    k = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    gathered = profile[np.minimum(k, n - k)]
    R = log_quadrature_weights(n)
    assert np.array_equal(R, gathered)
    assert not R.flags.writeable


@pytest.fixture()
def cores(monkeypatch):
    """``cores(c)``: from then on kernel evaluations are cut into ``c`` slices (1:
    inline), with the slices past the caller's on a fresh one-thread pool."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(layerpot, "_pool", pool)
    yield lambda c: monkeypatch.setattr(layerpot, "_cores", lambda: c)
    pool.shutdown()


@pytest.mark.parametrize("z", [2 + 1j, -2.3, 0.0])
@pytest.mark.parametrize("spec", _SPLIT_CURVES, ids=lambda spec: spec.kind)
def test_split_kernels_equal_inline(cores, monkeypatch, spec, z):
    grid = make_grid(spec, 544)
    rng = np.random.default_rng(5)
    density = rng.standard_normal(544) + 1j * rng.standard_normal(544)
    targets = 0.3 * rng.uniform(-1.0, 1.0, (160, 2))  # 160 x 544 points: split too
    points = []  # the size of each kernel argument, and whether the ray table reads it
    apply = layerpot._apply
    monkeypatch.setattr(layerpot, "_apply", lambda f, x, *dtype: points.append(
        (x.size, bool(dtype))) or apply(f, x, *dtype))

    def evaluate():
        # T = I/2 + K#: off the diagonal, which no kernel reaches, T and K# have equal bits
        backend = BemBackend(grid)
        out = [backend.dtn(z), backend.single_layer(z), backend.neumann_trace(z)]
        # the kite's and the star's 544-node matrices have more than SPLIT_MIN distinct
        # distances (about 74,000), so they are evaluated in slices; the ellipse's
        # (59,065) and the circle's fewer.  With nodes 0 and n/2 on the axis a 512-node
        # kite has 65,485, below SPLIT_MIN
        assert (max(points)[0] >= SPLIT_MIN) == (spec.kind in ("kite", "star"))
        # at z = 2 + i the ray table reads the distances of every curve but the circle,
        # whose 2,919 lie below TABLE_MIN
        table = [size for size, read in points if read]
        assert len(table) == (4 if z == 2 + 1j and spec.kind != "circle" else 0)
        assert set(table) <= {max(points)[0]}
        out += [evaluate_potential(grid, density, z, targets),
                evaluate_potential_gradient(grid, density, z, targets)]
        return out + [backend.ntd(z)] if z != 0 else out  # 0 is a Neumann eigenvalue

    cores(1)
    inline = evaluate()
    points.clear()
    cores(3)
    for got, want in zip(evaluate(), inline):
        assert (got == want).all()


def test_kernels_are_cut_into_one_slice_per_core(monkeypatch, cores):
    calls = []

    def log(x, out=None):
        calls.append(x.size)
        return np.log(x, out=out)

    x = np.linspace(1.0, 2.0, SPLIT_MIN)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one core: inline
    assert np.array_equal(layerpot._apply(log, x), np.log(x)) and calls == [SPLIT_MIN]
    cores(3)
    calls.clear()
    assert np.array_equal(layerpot._apply(log, x), np.log(x))
    assert sorted(calls) == [SPLIT_MIN // 3, SPLIT_MIN // 3, SPLIT_MIN - 2 * (SPLIT_MIN // 3)]
    calls.clear()
    layerpot._apply(log, x[:-1])  # below SPLIT_MIN: inline
    assert calls == [SPLIT_MIN - 1]


def test_split_evaluation_under_warnings_as_errors(cores):
    cores(2)
    x = np.ones(2 * SPLIT_MIN)
    x[-1] = 0.0  # log(0) divides by zero in the pool's slice only
    grid = make_grid(CurveSpec.kite(), 512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_single_layer_trace(grid, 2 + 1j, with_adjoint=True)
        with np.errstate(divide="ignore"):  # the caller's errstate holds in the pool
            assert layerpot._apply(np.log, x)[-1] == -np.inf
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            layerpot._apply(np.log, x)


def test_concurrent_callers_share_one_pool(monkeypatch):
    monkeypatch.setattr(layerpot, "_pool", None)
    monkeypatch.setattr(layerpot, "_cores", lambda: 3)
    pools = []
    monkeypatch.setattr(layerpot, "ThreadPoolExecutor",
                        lambda *a, **k: pools.append(ThreadPoolExecutor(*a, **k)) or pools[-1])
    inputs = [np.linspace(1.0 + i, 2.0 + i, SPLIT_MIN + i) for i in range(8)]
    results = [None] * 8

    def call(i):
        results[i] = layerpot._apply(np.log, inputs[i])

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert len(pools) == 1
    for x, got in zip(inputs, results):
        assert np.array_equal(got, np.log(x))
