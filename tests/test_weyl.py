"""Boundary value solvers and spectral boundary maps (BEM lane)."""

import numpy as np
import pytest

from kreinlab.errors import NearSingular
from kreinlab.geometry import CurveSpec, make_grid
from kreinlab.kreinformulas import hermitian_part
from kreinlab.oracles import disk_mode_dtn
from kreinlab.traces import gamma_D
from kreinlab.weyl import (
    BemBackend,
    check_condition,
    dtn,
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
    want = ntd(kite_backend, -1.0).matrix @ g
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
        check_condition(cond, "test matrix", "exactly singular")


def test_single_layer_condition_is_exact_one_norm(kite_backend):
    z = 2 + 1j
    V = kite_backend.single_layer(z)
    want = np.linalg.norm(V, 1) * np.linalg.norm(np.linalg.inv(V), 1)
    got = kite_backend.single_layer_condition(z)
    assert got == want
    # the 1- and 2-norm condition numbers agree to within a factor n
    n = kite_backend.grid.n
    cond2 = np.linalg.cond(V)
    assert cond2 / n <= got <= n * cond2


def test_dtn_static_modes(disk13_backend):
    grid = disk13_backend.grid
    M = dtn(disk13_backend, 0.0).matrix
    w = grid.weighted_measure
    for k in range(-10, 11):
        v = np.exp(1j * k * grid.t)
        ray = np.sum(w * np.conj(v) * (M @ v)) / np.sum(w * np.abs(v) ** 2)
        assert abs(ray - (-abs(k) / 1.3)) < 1e-8


@pytest.mark.parametrize("z", [-1.0, 2 + 1j])
def test_dtn_matches_disk_oracle(disk13_backend, z):
    grid = disk13_backend.grid
    M = dtn(disk13_backend, z).matrix
    w = grid.weighted_measure
    for k in range(-10, 11):
        v = np.exp(1j * k * grid.t)
        ray = np.sum(w * np.conj(v) * (M @ v)) / np.sum(w * np.abs(v) ** 2)
        assert abs(ray - disk_mode_dtn(k, z, 1.3)) < 1e-8


def test_ntd_dtn_identity_kite(kite_backend):
    for z in (-1.0, 2 + 1j):
        prod = ntd(kite_backend, z).matrix @ dtn(kite_backend, z).matrix
        assert np.max(np.abs(prod + np.eye(kite_backend.grid.n))) < 1e-8


def test_dtn_symmetry_weighted(disk13_backend):
    w = disk13_backend.boundary_weights
    for z in (2 + 1j, -3 + 0.5j):
        M = dtn(disk13_backend, z).matrix
        adj = (M.conj().T * w[None, :]) / w[:, None]
        assert np.max(np.abs(adj - dtn(disk13_backend, np.conj(z)).matrix)) < 1e-8


def test_dtn_sign_nonpositive(disk13_backend):
    w = disk13_backend.boundary_weights
    for z in (0.0, -1.0):
        eigs = np.linalg.eigvalsh(hermitian_part(dtn(disk13_backend, z).matrix, w))
        assert np.max(eigs) < 1e-10


def test_ntd_sign_validated_direction(disk13_backend):
    # at z = -1 the Neumann-to-Dirichlet map is positive semidefinite (the
    # definite-sign property holds with the empirically validated direction;
    # see the sign ledger entry "ntd-sign")
    w = disk13_backend.boundary_weights
    eigs = np.linalg.eigvalsh(hermitian_part(ntd(disk13_backend, -1.0).matrix, w))
    assert np.min(eigs) > -1e-10
    assert np.max(eigs) > 0.1  # genuinely positive, not merely zero


def test_operator_role_tags(disk13_backend):
    assert dtn(disk13_backend, -1.0).role == "DtN"
    assert ntd(disk13_backend, -1.0).role == "NtD"
    assert dtn(disk13_backend, -1.0).grid_token == disk13_backend.grid.token


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
