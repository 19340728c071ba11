"""Eigenvalue counting, ordering checks, and cross-method agreement."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import optimize, special

from kreinlab import spectral
from kreinlab.cli import main
from kreinlab.errors import CountFailed, DomainError, NearEigenvalue
from kreinlab.extensions import ExtensionSpec, make_extension
from kreinlab.oracles import DiskModel, Model1D, interval_dtn
from kreinlab.spectral import (
    SpectrumRequest,
    _scan_function,
    eigenvalues,
    ordering_check,
)
from kreinlab.traces import hermitian_part

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
    j2 = special.jn_zeros(0, 1)[0] ** 2
    assert j2 == pytest.approx(5.783185962946785, abs=1e-10)
    assert len(roots) >= 1
    assert min(abs(r - j2) for r in roots) < 1e-6 * j2


def test_eigenvalue_continuity_in_L(interval):
    # perturbing L by +/- eps I moves eigenvalues monotonically upward in eps
    base = -interval.dtn(-1.0)

    def only_eigenvalue(L, window):
        roots = eigenvalues(SpectrumRequest(ExtensionSpec("dirichlet", -1.0, L), window), interval)
        assert len(roots) == 1
        return roots[0]

    lam0 = only_eigenvalue(base, (38.4784, 40.4784))
    lam_minus = only_eigenvalue(base - 1e-3 * np.eye(2), (lam0 - 0.5, lam0 + 0.5))
    lam_plus = only_eigenvalue(base + 1e-3 * np.eye(2), (lam0 - 0.5, lam0 + 0.5))
    assert lam_minus < lam0 < lam_plus
    assert abs(lam_plus - lam0) < 0.05 and abs(lam_minus - lam0) < 0.05


def test_cross_method_krein_shooting(interval, krein_shooting_root):
    # counted eigenvalues match the domain-description shooting roots
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    roots = eigenvalues(SpectrumRequest(spec, (30.0, 170.0)), interval)
    for r in roots:
        assert abs(r - krein_shooting_root(r - 0.5, r + 0.5)) < 1e-8


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
    with pytest.raises(DomainError):
        ordering_check([], -1.0, interval)


class _FailingBackend:
    """Interval boundary data whose dtn raises ``error`` everywhere but at
    z0 = -1, or, when ``at`` is given, only within 1e-8 relative of ``at``."""

    nboundary = 2
    boundary_weights = np.ones(2)

    def __init__(self, error, at=None):
        self.error = error
        self.at = at

    def dtn(self, z):
        if z == -1.0 or (self.at is not None and abs(z - self.at) > 1e-8 * self.at):
            return interval_dtn(z)
        raise self.error

    def reference_eigenvalues(self, reference, top):
        return Model1D().reference_eigenvalues(reference, top)


def test_scan_propagates_unexpected_errors():
    spec = ExtensionSpec("dirichlet", -1.0, "krein", "full")
    # a singular boundary map raises NearEigenvalue, so a LinAlgError is a bug too
    for error in (TypeError("bug"), np.linalg.LinAlgError("bug")):
        with pytest.raises(type(error)):
            eigenvalues(SpectrumRequest(spec, (1.0, 2.0)), _FailingBackend(error))


def test_near_eigenvalue_samples_are_stepped_off(interval):
    spec = ExtensionSpec("dirichlet", -1.0, "krein", "full")
    # singular only near the reference eigenvalue pi^2: the samples stay off
    # it, and the spectrum is the interval's own
    near_pole = _FailingBackend(NearEigenvalue("pole"), at=np.pi**2)
    want = eigenvalues(SpectrumRequest(spec, (1.0, 50.0)), interval)
    assert len(want) == 1 and abs(want[0] - np.pi**2) > 1.0
    assert eigenvalues(SpectrumRequest(spec, (1.0, 50.0)), near_pole) == want
    # singular everywhere: the sample raises, it never becomes a value
    backend = _FailingBackend(NearEigenvalue("pole"))
    with pytest.raises(NearEigenvalue):
        _scan_function(make_extension(spec, backend))(1.5)
    for failing in (spec, ExtensionSpec("dirichlet", -1.0, "dirichlet", "zero")):
        with pytest.raises(CountFailed) as info:
            eigenvalues(SpectrumRequest(failing, (1.0, 2.0)), backend)
        assert info.value.lam == 1.0 and info.value.counts == (None, None)


def _counted(calls):
    original = spectral._scan_function

    def factory(ext):
        fun = original(ext)

        def count(lam):
            calls.append(lam)
            return fun(lam)

        return count

    return factory


def test_eigenvalues_calls_scan_function_through_module_global(interval, monkeypatch):
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    want = eigenvalues(SpectrumRequest(spec, (1.0, 200.0)), interval)
    calls = []
    monkeypatch.setattr(spectral, "_scan_function", _counted(calls))
    assert eigenvalues(SpectrumRequest(spec, (1.0, 200.0)), interval) == want
    assert len(calls) > len(want)
    assert all(1.0 - 1e-6 <= lam <= 200.0 * (1 + 1e-6) for lam in calls)


def test_decreasing_count_fails_loudly(interval, monkeypatch, tmp_path):
    monkeypatch.setattr(spectral, "_scan_function", lambda ext: lambda lam: 1 if lam < 3.0 else 0)
    spec = ExtensionSpec("dirichlet", -1.0, "krein", "full")
    with pytest.raises(CountFailed) as info:
        eigenvalues(SpectrumRequest(spec, (1.0, 5.0)), interval)
    assert info.value.counts == (1, 0) and info.value.lam >= 3.0
    # the CLI reports it on its error path
    spec_path, out = tmp_path / "krein.json", tmp_path / "eigs.csv"
    spec_path.write_text('{"L": {"special": "krein"}, "X": "full", "reference": "dirichlet", '
                         '"z0": -1.0}')
    res = CliRunner().invoke(main, ["spectrum", "--spec", str(spec_path), "--window", "1,5",
                                    "--out", str(out)])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "CountFailed"


# -- the disk, with multiplicity ------------------------------------------------

DISK_WINDOW = (1.0, 60.0)


def _with_modes(values_by_mode):
    """Sorted values, those of mode k > 0 twice (modes +k and -k)."""
    return sorted(v for k, vals in values_by_mode.items()
                  for v in vals for _ in range(1 if k == 0 else 2))


def _disk_dirichlet_eigs(top):
    zeros = {k: special.jn_zeros(k, 10) ** 2 for k in range(9)}
    return _with_modes({k: z[z < top] for k, z in zeros.items()})


def _disk_mode_value(k, lam):
    s = np.sqrt(complex(lam))
    s = -s if s.imag < 0 else s
    return (-s * special.jvp(k, s) / special.jv(k, s)).real


def _disk_krein_eigs(z0, a, b):
    """Roots of m_k(lam) = m_k(z0) per mode, between the poles jn_zeros(k)^2."""
    roots = {}
    for k in range(9):
        fun = lambda lam, k=k: _disk_mode_value(k, lam) - _disk_mode_value(k, z0)
        cuts = [a] + [p for p in special.jn_zeros(k, 10) ** 2 if a < p < b] + [b]
        roots[k] = []
        for lo, hi in zip(cuts, cuts[1:]):
            xs = np.linspace(lo + 1e-9 * hi, hi - 1e-9 * hi, 400)
            fs = np.array([fun(x) for x in xs])
            for i in np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]:
                roots[k].append(optimize.brentq(fun, xs[i], xs[i + 1], xtol=1e-14))
    return _with_modes(roots)


def test_disk_spectra_list_each_double_eigenvalue_twice():
    model = DiskModel(radius=1.0, mode_cutoff=8)
    dirichlet = eigenvalues(SpectrumRequest(ExtensionSpec("dirichlet", -1.0, "dirichlet", "zero"),
                                            DISK_WINDOW), model)
    want = [v for v in _disk_dirichlet_eigs(DISK_WINDOW[1]) if v > DISK_WINDOW[0]]
    assert len(dirichlet) == len(want) == 12
    assert np.max(np.abs(np.array(dirichlet) - want)) < 1e-12 * DISK_WINDOW[1]
    krein = eigenvalues(SpectrumRequest(ExtensionSpec("dirichlet", -1.0, "krein", "full"),
                                        DISK_WINDOW), model)
    want = _disk_krein_eigs(-1.0, *DISK_WINDOW)
    assert len(krein) == len(want) == 8
    assert np.max(np.abs(np.array(krein) - want) / np.array(want)) < 1e-9
    assert sum(a == b for a, b in zip(krein, krein[1:])) == 3


def test_count_keeps_multiplicity():
    model = DiskModel(radius=1.0, mode_cutoff=8)
    spec = ExtensionSpec("dirichlet", -1.0, "dirichlet", "zero")
    ground, first = special.jn_zeros(0, 1)[0] ** 2, special.jn_zeros(1, 1)[0] ** 2
    assert eigenvalues(SpectrumRequest(spec, DISK_WINDOW, count=2), model) == [ground, first]
    assert eigenvalues(SpectrumRequest(spec, DISK_WINDOW, count=3), model) == [ground, first, first]


# -- the sign of the Neumann-reference count -------------------------------------

def _both_sign_counts(ext, lams):
    """``N_ref + #neg`` and ``N_ref + #pos`` of the bracket's Hermitian part."""
    backend = ext.backend
    neg, pos = [], []
    for lam in lams:
        signed = np.linalg.eigvalsh(hermitian_part(ext.bracket(lam), backend.boundary_weights))
        n_ref = len(backend.reference_eigenvalues(ext.reference, lam))
        neg.append(n_ref + int(np.sum(signed < 0)))
        pos.append(n_ref + int(np.sum(signed > 0)))
    return np.array(neg), np.array(pos)


@pytest.mark.parametrize("backend_name", ["interval", "disk"])
def test_neumann_reference_counts_positive_eigenvalues(backend_name):
    backend = Model1D() if backend_name == "interval" else DiskModel(radius=1.0, mode_cutoff=8)
    top = 140.0 if backend_name == "interval" else 60.0
    spec = ExtensionSpec("neumann", -1.0, "dirichlet", "full")  # the Dirichlet Laplacian
    ext = make_extension(spec, backend)
    want = backend.reference_eigenvalues("dirichlet", top)
    neumann = backend.reference_eigenvalues("neumann", top)
    # from below 0, the Neumann eigenvalue that no Dirichlet one matches
    lams = [lam for lam in np.linspace(-2.0, top, 211) if np.min(np.abs(neumann - lam)) > 1e-3]
    neg, pos = _both_sign_counts(ext, lams)
    # the Neumann-reference count holds up to a constant: compare its jumps
    exact = np.array([np.sum(want < lam) for lam in lams])
    assert np.array_equal(pos - pos[0], exact)
    assert not np.array_equal(neg - neg[0], exact)
    found = eigenvalues(SpectrumRequest(spec, (-2.0, top)), backend)
    assert np.max(np.abs(np.array(found) - want)) < 1e-9 * top


def test_one_dimensional_subspace_on_the_interval(interval):
    # X = span (1, 1): odd modes keep the Dirichlet values (2 m pi)^2, even
    # modes solve k tan(k/2) = m_even(z0) + theta with m_even(-1) = -tanh(1/2)
    theta, top = 1.7, 150.0
    P = 0.5 * np.ones((2, 2))
    spec = ExtensionSpec("dirichlet", -1.0, theta * P, P)
    fun = lambda lam: np.sqrt(lam) * np.tan(np.sqrt(lam) / 2) - (theta - np.tanh(0.5))
    cuts = [1e-9] + [((2 * j + 1) * np.pi) ** 2 for j in range(2)] + [top]
    even = [optimize.brentq(fun, lo * (1 + 1e-9), hi * (1 - 1e-9), xtol=1e-14)
            for lo, hi in zip(cuts, cuts[1:]) if fun(lo * (1 + 1e-9)) * fun(hi * (1 - 1e-9)) < 0]
    want = sorted(even + [(2 * np.pi) ** 2])
    found = eigenvalues(SpectrumRequest(spec, (1.0, top)), interval)
    assert len(found) == len(want) == 3
    assert np.max(np.abs(np.array(found) - want) / np.array(want)) < 1e-9


def test_nonpositive_tolerance_still_terminates(interval):
    spec = ExtensionSpec("dirichlet", 0.0, ("robin", 1.0), "full")
    want = eigenvalues(SpectrumRequest(spec, (0.5, 60.0)), interval)
    for tol in (0.0, -1.0):
        found = eigenvalues(SpectrumRequest(spec, (0.5, 60.0), tol=tol), interval)
        assert len(found) == len(want) and np.max(np.abs(np.array(found) - want)) < 1e-10


@pytest.mark.parametrize("tol, count", [(np.nan, None), (np.inf, None), (-np.inf, None),
                                        (1e-8, -1)])
def test_bad_tolerance_or_count_raises_before_any_sample(interval, monkeypatch, tol, count):
    # a nan width never closes a bracket, so it would bisect forever
    def no_scan(ext):
        raise AssertionError("sampled")

    monkeypatch.setattr(spectral, "_scan_function", no_scan)
    spec = ExtensionSpec("dirichlet", 0.0, "krein", "full")
    with pytest.raises(DomainError):
        eigenvalues(SpectrumRequest(spec, (1.0, 60.0), count, tol), interval)
