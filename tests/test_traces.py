"""Trace calculus: plain and regularized traces, Green-formula meters."""

import numpy as np
import pytest

from kreinlab.errors import QuadratureUnavailable
from kreinlab.geometry import CurveSpec, make_grid
from kreinlab.oracles import DiskModel, Model1D
from kreinlab.traces import (
    classical_green_defect,
    gamma_D,
    gamma_N,
    green_defect,
    hermitian_part,
    tau_D,
    tau_N,
    weighted_adjoint,
)
from kreinlab.weyl import BemBackend, solve_dirichlet


@pytest.fixture(scope="module")
def interval():
    return Model1D()


@pytest.fixture(scope="module")
def disk():
    return DiskModel(radius=1.0, mode_cutoff=4)


def test_gamma_dirichlet_basic(interval):
    assert np.max(np.abs(gamma_D(interval.constant(1.0)) - 1.0)) < 1e-15
    x = interval.polynomial([0.0, 1.0])
    assert np.allclose(gamma_D(x), [0.0, 1.0])
    assert np.allclose(gamma_N(x), [-1.0, 1.0])  # outward normals at the endpoints
    assert np.max(np.abs(gamma_N(interval.constant(2.0)))) < 1e-15


def test_gamma_roundtrip_bem():
    backend = BemBackend(make_grid(CurveSpec.circle(1.3), 128))
    f = np.cos(backend.grid.t) + 0.5j * np.sin(2 * backend.grid.t)
    u = solve_dirichlet(backend, -1.0, f)
    assert np.max(np.abs(gamma_D(u) - f)) < 1e-8


def test_gamma_neumann_disk_mode(disk):
    # u = r cos(theta): normal derivative on the boundary is cos(theta)
    u = disk.mode_poly_field(1, {1: 0.5}) + disk.mode_poly_field(-1, {1: 0.5})
    gn = gamma_N(u)
    want = np.zeros(disk.nboundary, dtype=complex)
    want[disk.mode_index(1)] = 0.5
    want[disk.mode_index(-1)] = 0.5
    assert np.max(np.abs(gn - want)) < 1e-14


def test_tau_n_annihilates_harmonics(interval, disk):
    rng = np.random.default_rng(1)
    for backend, z0 in ((interval, 0.0), (interval, -2.0), (disk, -1.0)):
        g = rng.standard_normal(backend.nboundary) + 1j * rng.standard_normal(backend.nboundary)
        u = backend.harmonic_extension(z0, g)
        assert np.max(np.abs(tau_N(z0, u))) < 1e-10


def test_tau_n_reduces_to_neumann_trace_on_zero_dirichlet(interval):
    q = interval.h2n_field(np.array([0.7, -1.2]))
    # gamma_D q = 0, so the regularizing term drops out exactly
    assert np.max(np.abs(tau_N(-1.0, q) - gamma_N(q))) < 1e-14


def test_tau_n_factorization(interval):
    # tau_N(z) u = gamma_N R_D(z) (-Lap - z) u  for u = x^2, z = -1
    u = interval.polynomial([0.0, 0.0, 1.0])
    z = -1.0
    w = interval.resolvent_dirichlet(z, lambda x: -u.laplacian(x) - z * u.value(x))
    assert np.max(np.abs(tau_N(z, u) - gamma_N(w))) < 1e-10


def test_tau_d_annihilates_harmonics(interval, disk):
    rng = np.random.default_rng(2)
    for backend, z0 in ((interval, -1.0), (disk, -1.0)):
        g = rng.standard_normal(backend.nboundary) + 1j * rng.standard_normal(backend.nboundary)
        u = backend.harmonic_extension(z0, g)
        assert np.max(np.abs(tau_D(z0, u))) < 1e-10


def test_tau_d_relation_to_tau_n(interval):
    u = interval.polynomial([0.3, -1.0, 2.0, 0.5])
    z = -1.0
    rel = tau_D(z, u) + interval.ntd(z) @ tau_N(z, u)
    assert np.max(np.abs(rel)) < 1e-10


def test_tau_d_factorization(interval):
    u = interval.polynomial([0.0, 0.0, 1.0])
    z = -1.0
    w = interval.resolvent_neumann(z, lambda x: -u.laplacian(x) - z * u.value(x))
    assert np.max(np.abs(tau_D(z, u) - gamma_D(w))) < 1e-10


def test_green_defect_harmonic_pair(interval):
    z = -1.0
    u = interval.harmonic_extension(z, np.array([1.0, 0.5j]))
    v = interval.harmonic_extension(np.conj(z), np.array([0.2, -1.0]))
    assert green_defect(z, u, v) < 1e-10


def test_green_defect_polynomials(interval):
    u = interval.polynomial([0.0, 0.0, 1.0])  # x^2
    v = interval.polynomial([0.0, 0.0, 0.0, 1.0])  # x^3
    assert green_defect(-1.0, u, v) < 1e-10


def test_green_defect_disk_modes(disk):
    u = disk.mode_poly_field(1, {2: 1.0})  # r^2 e^{i theta}
    v = disk.mode_poly_field(1, {1: 1.0})  # r e^{i theta}
    assert green_defect(-1.0, u, v) < 1e-8


def test_green_defect_complex_parameter(interval):
    u = interval.polynomial([0.1, 1.0, -0.5, 0.25])
    v = interval.polynomial([0.0, 0.0, 1.0, 0.4])
    assert green_defect(2 + 1j, u, v) < 1e-10


def test_green_defect_layer_field_needs_quadrature():
    backend = BemBackend(make_grid(CurveSpec.circle(1.3), 64))
    u = solve_dirichlet(backend, -1.0, np.ones(64))
    v = solve_dirichlet(backend, -1.0, np.cos(backend.grid.t))
    with pytest.raises(QuadratureUnavailable):
        green_defect(-1.0, u, v)


@pytest.mark.filterwarnings("ignore::kreinlab.errors.TargetTooClose")
def test_green_defect_layer_field_with_interior_grid():
    backend = BemBackend(make_grid(CurveSpec.circle(1.3), 128))
    z = -1.0
    u = solve_dirichlet(backend, z, np.ones(128))
    v = solve_dirichlet(backend, z, np.cos(backend.grid.t))
    # polar tensor quadrature over the disk of radius 1.3
    nr, nth = 48, 64
    gx, gw = np.polynomial.legendre.leggauss(nr)
    rr = 0.65 * (gx + 1.0)
    rw = 0.65 * gw
    th = 2 * np.pi * np.arange(nth) / nth
    R, T = np.meshgrid(rr, th, indexing="ij")
    pts = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=1)
    wts = (rw[:, None] * rr[:, None] * np.full(nth, 2 * np.pi / nth)[None, :]).ravel()
    # both fields solve the same equation, so every term pairs off
    assert green_defect(z, u, v, interior_quad=(pts, wts)) < 1e-8


def test_classical_green_pairing(interval):
    w = interval.polynomial([0.0, 1.0, -1.0])  # x(1 - x): vanishing Dirichlet trace
    u = interval.polynomial([0.0, 0.0, 1.0])
    # hand-computed: <gamma_N w, gamma_D u> = -1 = (Lap w, u) - (w, Lap u)
    assert classical_green_defect(w, u) < 1e-12


def test_tau_n_full_rank_over_h2_family(interval, disk):
    for backend, z0 in ((interval, 0.0), (disk, -1.0)):
        m = backend.nboundary
        cols = [tau_N(z0, backend.h2n_field(col)) for col in np.eye(m, dtype=complex)]
        s = np.linalg.svd(np.array(cols).T, compute_uv=False)
        assert s[-1] > 1e-8


def test_tau_n_kernel_superposition(interval):
    rng = np.random.default_rng(3)
    phi = interval.h20_family(1, rng)[0]
    h = interval.harmonic_extension(0.0, np.array([0.4, -0.9 + 0.2j]))
    assert np.max(np.abs(tau_N(0.0, phi + h))) < 1e-9


def test_weighted_adjoint_and_hermitian_part_match_inline_forms():
    rng = np.random.default_rng(11)
    bw = rng.uniform(0.1, 2.0, 5)
    qw = rng.uniform(0.1, 2.0, 9)
    square = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rect = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))  # interior -> boundary
    assert np.array_equal(weighted_adjoint(square, bw, bw),
                          (square.conj().T * bw[None, :]) / bw[:, None])
    assert np.array_equal(weighted_adjoint(rect, bw, qw),
                          (rect.conj().T * bw[None, :]) / qw[:, None])
    s = np.sqrt(bw)
    sym = (s[:, None] * square) / s[None, :]
    assert np.array_equal(hermitian_part(square, bw), 0.5 * (sym + sym.conj().T))
    # the adjoint is the one of the weighted pairing
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lhs = np.sum(bw * np.conj(rect @ x) * y)
    rhs = np.sum(qw * np.conj(x) * (weighted_adjoint(rect, bw, qw) @ y))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)
