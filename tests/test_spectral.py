"""Eigenvalue scanning, ordering checks, and cross-method agreement."""

import numpy as np
import pytest

from kreinlab.errors import NearEigenvalue
from kreinlab.extensions import ExtensionSpec, make_extension
from kreinlab.kreinformulas import krein_shooting_determinant
from kreinlab.oracles import DiskModel, Model1D, interval_dtn
from kreinlab.spectral import (
    SpectrumRequest,
    _scan_function,
    dirichlet_disk_ground_state,
    eigenvalue_near,
    eigenvalues,
    ordering_check,
)

# shooting-oracle roots of tan(s) = s, scaled; and multiples of pi^2
KREIN_EIGS = (4 * np.pi**2, 80.76291422570652, 16 * np.pi**2)


@pytest.fixture(scope="module")
def interval():
    return Model1D()


def test_interval_dirichlet_spectrum(interval):
    spec = ExtensionSpec("dirichlet", 0.0, "dirichlet", "zero")
    roots = eigenvalues(SpectrumRequest(spec, (1.0, 100.0)), interval)
    want = [np.pi**2, 4 * np.pi**2, 9 * np.pi**2]
    assert len(roots) == 3
    for r, w in zip(roots, want):
        assert abs(r - w) < 1e-6 * w


def test_interval_krein_spectrum(interval):
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    roots = eigenvalues(SpectrumRequest(spec, (1.0, 200.0)), interval)
    assert len(roots) == 3
    for r, w in zip(roots, KREIN_EIGS):
        assert abs(r - w) < 1e-6 * w


def test_interval_neumann_spectrum(interval):
    spec = ExtensionSpec("dirichlet", -1.0, "neumann", "full")
    roots = eigenvalues(SpectrumRequest(spec, (1.0, 100.0)), interval)
    want = [np.pi**2, 4 * np.pi**2, 9 * np.pi**2]
    assert len(roots) == 3
    for r, w in zip(roots, want):
        assert abs(r - w) < 1e-6 * w


def test_robin_spectrum_against_determinant(interval):
    spec = ExtensionSpec("dirichlet", 0.0, ("robin", 1.0), "full")
    roots = eigenvalues(SpectrumRequest(spec, (0.5, 60.0)), interval)
    assert len(roots) == 3

    def robin_det(lam):
        s = np.sqrt(lam)
        c = 1.0 / s
        return -s * np.sin(s) + c * s * np.cos(s) + np.cos(s) + c * np.sin(s)

    for r in roots:
        assert abs(robin_det(r)) < 1e-7


def test_count_and_empty_window(interval):
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    roots = eigenvalues(SpectrumRequest(spec, (1.0, 200.0), count=2), interval)
    assert len(roots) == 2
    assert eigenvalues(SpectrumRequest(spec, (5.0, 5.0)), interval) == []
    assert eigenvalues(SpectrumRequest(spec, (10.0, 20.0)), interval) == []


def test_disk_dirichlet_ground_state():
    model = DiskModel(radius=1.0, mode_cutoff=2)
    spec = ExtensionSpec("dirichlet", -1.0, "dirichlet", "zero")
    roots = eigenvalues(SpectrumRequest(spec, (5.0, 6.0)), model)
    j2 = dirichlet_disk_ground_state()
    assert j2 == pytest.approx(5.783185962946785, abs=1e-10)
    assert len(roots) >= 1
    assert min(abs(r - j2) for r in roots) < 1e-6 * j2


def test_eigenvalue_continuity_in_L(interval):
    # perturbing L by +/- eps I moves eigenvalues monotonically upward in eps
    base = -interval.dtn(-1.0)
    lam0 = eigenvalue_near(ExtensionSpec("dirichlet", -1.0, base), interval, 39.4784, 1.0)
    lam_minus = eigenvalue_near(
        ExtensionSpec("dirichlet", -1.0, base - 1e-3 * np.eye(2)), interval, lam0, 0.5
    )
    lam_plus = eigenvalue_near(
        ExtensionSpec("dirichlet", -1.0, base + 1e-3 * np.eye(2)), interval, lam0, 0.5
    )
    assert lam_minus < lam0 < lam_plus
    assert abs(lam_plus - lam0) < 0.05 and abs(lam_minus - lam0) < 0.05


def test_cross_method_krein_shooting(interval):
    # determinant-scan eigenvalues match the domain-description shooting roots
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    roots = eigenvalues(SpectrumRequest(spec, (30.0, 170.0)), interval)
    for r in roots:
        lo, hi = r - 0.5, r + 0.5
        flo = krein_shooting_determinant(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = krein_shooting_determinant(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        assert abs(r - 0.5 * (lo + hi)) < 1e-8


def test_ordering_check_extremal_cases(interval):
    dirich = make_extension(ExtensionSpec("dirichlet", 0.0, "dirichlet", "zero"), interval)
    krein = make_extension(ExtensionSpec("dirichlet", 0.0, "krein", "full"), interval)
    robin = make_extension(ExtensionSpec("dirichlet", 0.0, ("robin", 1.0), "full"), interval)
    report = ordering_check([dirich, krein, robin], 1.0, interval, trial_count=20)
    assert report["pass"]
    # the extremal extensions saturate their own bound
    assert abs(report["items"][0]["lower_floor"]) < 1e-10
    assert abs(report["items"][1]["upper_floor"]) < 1e-10
    # the Robin extension sits strictly between
    assert report["items"][2]["lower_floor"] > -1e-9
    assert report["items"][2]["upper_floor"] > -1e-9


def test_ordering_rejects_bad_parameter(interval):
    with pytest.raises(ValueError):
        ordering_check([], -1.0, interval)


class _FailingBackend:
    """Two boundary points; dtn works only at z0 = -1 and raises ``error`` elsewhere."""

    nboundary = 2
    boundary_weights = np.ones(2)

    def __init__(self, error):
        self.error = error

    def dtn(self, z):
        if z == -1.0:
            return interval_dtn(-1.0)
        raise self.error


def test_scan_propagates_unexpected_errors():
    spec = ExtensionSpec("dirichlet", -1.0, "krein", "full")
    with pytest.raises(TypeError):
        eigenvalues(SpectrumRequest(spec, (1.0, 2.0)), _FailingBackend(TypeError("bug")))


def test_scan_maps_near_eigenvalue_to_sample_values():
    backend = _FailingBackend(NearEigenvalue("pole"))
    krein = make_extension(ExtensionSpec("dirichlet", -1.0, "krein", "full"), backend)
    assert _scan_function(krein)(1.5) == np.inf
    dirichlet = make_extension(ExtensionSpec("dirichlet", -1.0, "dirichlet", "zero"), backend)
    assert _scan_function(dirichlet)(1.5) == 0.0
