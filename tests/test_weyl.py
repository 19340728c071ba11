"""Boundary value solvers and spectral boundary maps (BEM lane)."""

import sys

import numpy as np
import pytest

from kreinlab.errors import NearSingular, RangeExceeded
from kreinlab.extensions import ExtensionSpec, apply_resolvent, direct_solve, make_extension
from kreinlab.geometry import CurveSpec, make_grid
from kreinlab.kreinformulas import (Abstract1D, abstract_krein_check, hermitian_part, mfunc,
                                    two_extension_transfer)
from kreinlab.layerpot import JUMP_SIGN, assemble_adjoint_double_layer, assemble_single_layer_trace
from kreinlab.oracles import Model1D, disk_mode_dtn
from kreinlab.traces import gamma_D, gamma_N
from kreinlab.weyl import (
    BemBackend,
    dtn,
    gated_inverse,
    inverse_and_condition,
    ntd,
    solve_dirichlet,
    solve_neumann,
)

# frozen oracle constants
INV_J0_1 = 1.3068518339335652  # 1/J_0(1)
INV_I1_1 = 1.7694132376805826  # 1/I_1(1)
INV_I1P_1 = 1.4267232639744664  # 1/I_1'(1)


@pytest.fixture(scope="module")
def circle_backend():
    return BemBackend(make_grid(CurveSpec.circle(1.0), 128))


@pytest.fixture(scope="module")
def disk13_backend():
    return BemBackend(make_grid(CurveSpec.circle(1.3), 192))


@pytest.fixture(scope="module")
def kite_backend():
    return BemBackend(make_grid(CurveSpec.kite(), 192))


def test_solve_dirichlet_constant(disk13_backend):
    # constants are harmonic (capacity-safe radius: the unit circle itself is
    # the degenerate case, covered by test_capacity_degeneracy_unit_circle)
    u = solve_dirichlet(disk13_backend, 0.0, np.ones(disk13_backend.grid.n))
    assert abs(u.value(np.array([[0.0, 0.0]]))[0] - 1.0) < 1e-10


def test_solve_dirichlet_linear_mode(disk13_backend):
    grid = disk13_backend.grid
    u = solve_dirichlet(disk13_backend, 0.0, np.cos(grid.t))
    # harmonic extension of cos(theta) boundary data is x / R
    assert abs(u.value(np.array([[0.3, 0.4]]))[0] - 0.3 / 1.3) < 1e-10


def test_solve_dirichlet_helmholtz_radial(circle_backend):
    u = solve_dirichlet(circle_backend, 1.0, np.ones(circle_backend.grid.n))
    # radial solution J_0(r)/J_0(1); at the origin 1/J_0(1)
    assert abs(u.value(np.array([[0.0, 0.0]]))[0] - INV_J0_1) < 1e-10


def test_solve_neumann_radial(circle_backend):
    u = solve_neumann(circle_backend, -1.0, np.ones(circle_backend.grid.n))
    # u = I_0(r)/I_1(1): value at origin 1/I_1(1)
    assert abs(u.value(np.array([[0.0, 0.0]]))[0] - INV_I1_1) < 1e-10


def test_solve_neumann_mode_one(circle_backend):
    grid = circle_backend.grid
    g = np.exp(1j * grid.t)
    u = solve_neumann(circle_backend, -1.0, g)
    # u = I_1(r) e^{i theta} / I_1'(1); check at r = 0.5, theta = 0.3
    from scipy.special import iv

    want = iv(1, 0.5) * np.exp(0.3j) * INV_I1P_1
    got = u.value(np.array([[0.5 * np.cos(0.3), 0.5 * np.sin(0.3)]]))[0]
    assert abs(got - want) < 1e-10


def test_solve_neumann_consistency_with_ntd(kite_backend):
    grid = kite_backend.grid
    g = np.cos(grid.t) + 0.2j * np.sin(2 * grid.t)
    u = solve_neumann(kite_backend, -1.0, g)
    want = ntd(kite_backend, -1.0) @ g
    assert np.max(np.abs(gamma_D(u) - want)) < 1e-8


def test_solve_neumann_rejects_static(circle_backend):
    with pytest.raises(NearSingular):
        solve_neumann(circle_backend, 0.0, np.ones(circle_backend.grid.n))


def test_capacity_degeneracy_unit_circle(circle_backend):
    # logarithmic capacity one: the static single-layer trace is singular
    with pytest.raises(NearSingular):
        solve_dirichlet(circle_backend, 0.0 + 0j, np.ones(circle_backend.grid.n))


def test_exactly_singular_matrix_is_near_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    inv, cond = inverse_and_condition(A)
    assert inv is None and cond == np.inf
    with pytest.raises(NearSingular, match="inf"):
        gated_inverse(A, NearSingular, "test matrix")


def _factorizations(monkeypatch, call, sizes=None) -> dict:
    """``np.linalg.inv`` and ``np.linalg.solve`` calls made from kreinlab by ``call()``;
    the order of each factored matrix is appended to ``sizes`` if given."""
    counts = {"inv": 0, "solve": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(np.linalg, name)):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("kreinlab"):
                counts[_name] += 1
                if sizes is not None:
                    sizes.append(len(args[0]))
            return _original(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    call()
    return counts


@pytest.mark.parametrize("name, systems", [
    ("apply_resolvent", 1),
    ("direct_solve", 1),
    # the Donoghue bracket, and the Krein bracket of the one probe's resolvent
    ("abstract_krein_check", 2),
    ("solve_dirichlet", 1),
    ("solve_neumann", 1),
])
def test_each_gated_system_is_factored_once(monkeypatch, name, systems):
    # the inverse formed for the condition gate is the one the answer uses; a system on
    # a curve is factored as its two mirror blocks, one inverse each
    interval = Model1D()
    krein = make_extension(ExtensionSpec("dirichlet", -1.0, "krein"), interval)
    kite = BemBackend(make_grid(CurveSpec.kite(), 64))
    ones = np.ones(kite.nboundary)
    probe = [lambda x: np.sin(np.pi * x)]
    call = {
        "apply_resolvent": lambda: apply_resolvent(krein, 0.5 + 1j, lambda x: x),
        "direct_solve": lambda: direct_solve(krein, 0.5 + 1j, lambda x: x),
        "abstract_krein_check": lambda: abstract_krein_check(Abstract1D(interval), -1.0, probe),
        "solve_dirichlet": lambda: solve_dirichlet(kite, -1.0, ones),
        "solve_neumann": lambda: solve_neumann(kite, -1.0, ones),
    }[name]
    blocks = 2 if name in ("solve_dirichlet", "solve_neumann") else 1
    assert _factorizations(monkeypatch, call) == {"inv": blocks * systems, "solve": 0}


def test_single_layer_condition_is_exact_one_norm(kite_backend):
    z = 2 + 1j
    V = kite_backend.single_layer(z)
    want = np.linalg.norm(V, 1) * np.linalg.norm(np.linalg.inv(V), 1)
    got = kite_backend.single_layer_condition(z)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)  # formed from the mirror blocks
    # the 1- and 2-norm condition numbers agree to within a factor n
    n = kite_backend.grid.n
    cond2 = np.linalg.cond(V)
    assert cond2 / n <= got <= n * cond2


def _relative(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


_CURVES = [CurveSpec.kite(), CurveSpec.star(0.3, 5), CurveSpec.ellipse(1.5, 1.0),
           CurveSpec.circle(0.8)]


_ZS = [-1.0, 2 + 1j, -0.5 + 0.8j, 0.0]


# every z at n = 64 and 256; at n = 1024, whose z != 0 cases take 1-2 s each, one z != 0
# and z = 0
@pytest.mark.parametrize("n, z", [(n, z) for n in (64, 256) for z in _ZS]
                         + [(1024, 2 + 1j), (1024, 0.0)])
@pytest.mark.parametrize("spec", _CURVES, ids=lambda spec: spec.kind)
def test_mirror_blocks_match_the_full_matrix_route(spec, n, z):
    # the full route inverts the full arrays of assemble_single_layer_trace
    grid = make_grid(spec, n)
    V, K = assemble_single_layer_trace(grid, z, with_adjoint=True)
    T = 0.5 * JUMP_SIGN * np.eye(n) + K
    V_inv = np.linalg.inv(V)
    M = -T @ V_inv
    rng = np.random.default_rng(n)
    data = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    backend = BemBackend(grid)
    assert _relative(backend.dtn(z), M) < 1e-13
    assert _relative(backend.single_layer_solve(z, data), V_inv @ data) < 1e-13
    u = solve_dirichlet(backend, z, data)
    assert _relative(gamma_D(u), V @ (V_inv @ data)) < 1e-13
    assert _relative(gamma_N(u), T @ (V_inv @ data)) < 1e-13
    cond = np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1)
    assert backend.single_layer_condition(z) == pytest.approx(cond, rel=1e-13, abs=0.0)
    if z == 0:
        return  # a Neumann eigenvalue: T_0 and dtn(0) are singular
    assert _relative(backend.ntd(z), -np.linalg.inv(M)) < 1e-13
    T_inv = np.linalg.inv(T)
    u = solve_neumann(backend, z, data)
    assert _relative(gamma_D(u), V @ (T_inv @ data)) < 1e-13
    assert _relative(gamma_N(u), T @ (T_inv @ data)) < 1e-13
    # the condition of the map written out: the two routes' maps differ by rounding,
    # which their inverses amplify by that condition (up to 2e3 here)
    M = backend.dtn(z)
    want = np.linalg.norm(M, 1) * np.linalg.norm(np.linalg.inv(M), 1)
    assert backend.dtn_condition(z) == pytest.approx(want, rel=1e-13, abs=0.0)


def _unchunked(blocks):
    """``(rows, full, norm1)`` of a :class:`Mirrored` matrix, each formed in one pass
    over all its rows 0..n/2: the formulas that the chunked ones reproduce bit for bit."""
    even, odd = blocks
    half = even.shape[0] - 1
    rows = np.empty((half + 1, 2 * half), dtype=complex)
    rows[:, [0, half]] = even[:, [0, half]]
    rows[:, 1:half] = rows[:, :half:-1] = 0.5 * even[:, 1:half]
    rows[1:half, 1:half] += 0.5 * odd
    rows[1:half, :half:-1] -= 0.5 * odd
    full = np.empty((2 * half, 2 * half), dtype=complex)
    full[:half + 1] = rows
    full[half + 1:, 0] = rows[half - 1:0:-1, 0]
    full[half + 1:, 1:] = rows[half - 1:0:-1, :0:-1]
    a = np.abs(rows)
    sums, mirrored = a.sum(axis=0), a[1:half].sum(axis=0)
    sums[0] += mirrored[0]
    sums[1:] += mirrored[:0:-1]
    return rows, full, float(sums.max())


@pytest.mark.parametrize("chunk", [None, 1, 3000])  # the default, one row, uneven chunks
@pytest.mark.parametrize("spec", _CURVES, ids=lambda spec: spec.kind)
def test_chunked_unfolding_and_norm_are_bit_identical(monkeypatch, spec, chunk):
    from kreinlab import weyl

    if chunk is not None:
        monkeypatch.setattr(weyl, "CHUNK_ENTRIES", chunk)
    backend = BemBackend(make_grid(spec, 256))
    z = 2 + 1j
    V, T = backend._layers(z)
    for blocks in (V, T, backend._dtn(z), V.inverse()):
        rows, full, norm1 = _unchunked(blocks)
        assert np.array_equal(blocks.rows(), rows)
        assert np.array_equal(blocks.full(), full)
        assert blocks.norm1() == norm1
        assert np.array_equal(blocks.rows(40, 70), rows[40:70])
    assert np.array_equal(backend.dtn(z), _unchunked(backend._dtn(z))[1])


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("spec", _CURVES, ids=lambda spec: spec.kind)
def test_dtn_at_zero_is_exactly_singular(spec, n):
    # constants are harmonic with zero Neumann data, so 0 is a Neumann eigenvalue
    backend = BemBackend(make_grid(spec, n))
    assert backend.dtn_condition(0.0) == np.inf
    with pytest.raises(NearSingular):
        backend.ntd(0.0)
    assert np.isfinite(backend.dtn_condition(-1.0))


def test_no_curve_system_is_factored_at_full_size(monkeypatch):
    n = 64
    backend = BemBackend(make_grid(CurveSpec.kite(), n))
    ones = np.ones(n)
    sizes = []

    def call():
        for z in (-1.0, 2 + 1j):
            backend.dtn(z)
            backend.ntd(z)
            backend.single_layer_condition(z)
            backend.dtn_condition(z)
            solve_dirichlet(backend, z, ones)
            solve_neumann(backend, z, ones)

    counts = _factorizations(monkeypatch, call, sizes)
    assert counts["solve"] == 0 and counts["inv"] == len(sizes) > 0
    assert max(sizes) == n // 2 + 1 and sorted(set(sizes)) == [n // 2 - 1, n // 2 + 1]


def test_dtn_static_modes(disk13_backend):
    grid = disk13_backend.grid
    M = dtn(disk13_backend, 0.0)
    w = grid.weighted_measure
    for k in range(-10, 11):
        v = np.exp(1j * k * grid.t)
        ray = np.sum(w * np.conj(v) * (M @ v)) / np.sum(w * np.abs(v) ** 2)
        assert abs(ray - (-abs(k) / 1.3)) < 1e-8


@pytest.mark.parametrize("z", [-1.0, 2 + 1j, -0.09, -2.25, -25.0])
def test_dtn_matches_disk_oracle(disk13_backend, z):
    grid = disk13_backend.grid
    M = dtn(disk13_backend, z)
    w = grid.weighted_measure
    for k in range(-10, 11):
        v = np.exp(1j * k * grid.t)
        ray = np.sum(w * np.conj(v) * (M @ v)) / np.sum(w * np.abs(v) ** 2)
        assert abs(ray - disk_mode_dtn(k, z, 1.3)) < 1e-8


@pytest.mark.parametrize("z, growth", [(-100.0, "20"), (-400.0, "40")])
def test_log_split_cancellation_raises_range_exceeded(circle_backend, z, growth):
    # past Im sqrt(z) * diameter = 17.6 the log split loses more than 1e-8 on the unit
    # circle; that must be loud, and never reported as a near-singular system
    with pytest.raises(RangeExceeded) as info:
        dtn(circle_backend, z)
    assert f"z = {complex(z)}" in str(info.value)
    assert f"Im sqrt(z) * diameter = {growth} exceeds" in str(info.value)


def test_curve_ntd_negates_its_inverse_in_place():
    # beside the cached blocks an ntd call holds the inverse blocks (0.5 n^2), the array
    # it returns (n^2) and the LAPACK work of one block; a negated copy of the inverse
    # would add another 0.5 n^2
    import tracemalloc

    n, z = 1024, 2 + 1j
    backend = BemBackend(make_grid(CurveSpec.kite(), n))
    backend.dtn_condition(z)  # the blocks of V_z, T_z and the map are cached untraced
    tracemalloc.start()
    try:
        backend.ntd(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 16 * n**2, peak / (16 * n**2)


def test_ntd_dtn_identity_kite(kite_backend):
    for z in (-1.0, 2 + 1j):
        prod = ntd(kite_backend, z) @ dtn(kite_backend, z)
        assert np.max(np.abs(prod + np.eye(kite_backend.grid.n))) < 1e-8


def test_dtn_symmetry_weighted(disk13_backend):
    w = disk13_backend.boundary_weights
    for z in (2 + 1j, -3 + 0.5j):
        M = dtn(disk13_backend, z)
        adj = (M.conj().T * w[None, :]) / w[:, None]
        assert np.max(np.abs(adj - dtn(disk13_backend, np.conj(z)))) < 1e-8


def test_dtn_sign_nonpositive(disk13_backend):
    w = disk13_backend.boundary_weights
    for z in (0.0, -1.0):
        eigs = np.linalg.eigvalsh(hermitian_part(dtn(disk13_backend, z), w))
        assert np.max(eigs) < 1e-10


def test_ntd_sign_validated_direction(disk13_backend):
    # at z = -1 the Neumann-to-Dirichlet map is positive semidefinite (the
    # definite-sign property holds with the empirically validated direction;
    # see the sign ledger entry "ntd-sign")
    w = disk13_backend.boundary_weights
    eigs = np.linalg.eigvalsh(hermitian_part(ntd(disk13_backend, -1.0), w))
    assert np.min(eigs) > -1e-10
    assert np.max(eigs) > 0.1  # genuinely positive, not merely zero


def test_bem_cache_keeps_the_eight_most_recent_parameters():
    from kreinlab.weyl import CACHED_PARAMETERS

    backend = BemBackend(make_grid(CurveSpec.circle(1.0), 32))
    zs = [complex(-1.0 - 0.25 * i, 0.1 * i) for i in range(20)]
    for z in zs:
        backend.dtn(z)  # stores V, T, the condition of V and the map itself
    cached = {key[1] for key in backend._cache}
    assert CACHED_PARAMETERS == 8 and cached == set(zs[-CACHED_PARAMETERS:])
    assert len(backend._cache) == 4 * CACHED_PARAMETERS
    # storing a new kind at a cached parameter makes it the most recent
    backend = BemBackend(make_grid(CurveSpec.circle(1.0), 32))
    for z in zs[:CACHED_PARAMETERS]:
        backend.single_layer(z)
    backend.dtn(zs[0])
    backend.single_layer(-7.0)
    assert {key[1] for key in backend._cache} == set(zs[:CACHED_PARAMETERS]) - {zs[1]} | {-7.0}
    assert len([key for key in backend._cache if key[1] == zs[0]]) == 4


@pytest.mark.parametrize("z", [-2.0, complex(-2.0, -0.0), 0.0, 2 + 1j])
def test_real_parameters_keep_every_block_real(z):
    # at real z <= 0 the kernels are real, and so is everything the backend caches and
    # returns; Im z = -0.0 counts as real, as in sqrt_upper
    backend = BemBackend(make_grid(CurveSpec.kite(), 64))
    real = complex(z).imag == 0
    dtype = np.float64 if real else np.complex128
    V, T = backend._layers(complex(z))
    for blocks in (V, T, backend._dtn(complex(z))):
        assert blocks.even.dtype == blocks.odd.dtype == dtype
    maps = [backend.single_layer(z), backend.neumann_trace(z), dtn(backend, z)]
    assert all(matrix.dtype == dtype for matrix in maps + ([] if z == 0 else [ntd(backend, z)]))
    if real and z != 0:  # the same bits as at Im z = +0.0
        assert np.array_equal(dtn(backend, z), dtn(BemBackend(backend.grid), -2.0))


def test_boundary_maps_are_arrays():
    # every boundary map is returned as a plain dense array, never wrapped
    grid = make_grid(CurveSpec.circle(0.8), 32)
    backend = BemBackend(grid)
    interval = Model1D()
    krein = make_extension(ExtensionSpec("dirichlet", -1.0, "krein"), interval)
    z = 2 + 1j
    maps = {
        "V": assemble_single_layer_trace(grid, z),
        "V, K#": assemble_single_layer_trace(grid, z, with_adjoint=True),
        "K#": assemble_adjoint_double_layer(grid, z),
        "T": backend.neumann_trace(z),
        "dtn": dtn(backend, z),
        "ntd": ntd(backend, z),
        "mfunc": mfunc(krein, z),
        "transfer": two_extension_transfer(np.zeros((2, 2)), -interval.dtn(-1.0), -1.0,
                                           -1.0 + 0.5j, interval),
    }
    for name, value in maps.items():
        for matrix in value if name == "V, K#" else (value,):
            assert type(matrix) is np.ndarray, name
