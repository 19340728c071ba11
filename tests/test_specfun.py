"""Special-function checks against independent high-precision oracles."""

from fractions import Fraction

import numpy as np
import pytest

from kreinlab.errors import DomainError, RangeExceeded
from kreinlab.specfun import (
    bessel_j,
    bessel_j_prime,
    bessel_y,
    bessel_y_prime,
    hankel1,
    sqrt_upper,
)

EULER = 0.57721566490153286060651209008240243


def series_j(order: int, x: Fraction, terms: int = 200) -> Fraction:
    """Ascending-series oracle for J_n at rational x, exact rational arithmetic."""
    half = x / 2
    acc = Fraction(0)
    fact_k = 1
    fact_nk = 1
    for m in range(1, order + 1):
        fact_nk *= m
    power = half**order
    for k in range(terms):
        if k > 0:
            fact_k *= k
            fact_nk *= order + k
            power *= half * half
        acc += Fraction((-1) ** k) * power / (fact_k * fact_nk)
    return acc


def series_y0(x: float, terms: int = 60) -> float:
    """Oracle for Y_0 via the digamma/harmonic-number series."""
    acc = 0.0
    hk = 0.0
    term = 1.0
    for k in range(1, terms):
        hk += 1.0 / k
        term *= -(x * x / 4.0) / (k * k)
        acc += -term * hk
    j0 = float(series_j(0, Fraction(x).limit_denominator(10**12)))
    return (2.0 / np.pi) * ((np.log(x / 2.0) + EULER) * j0 + acc)


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_bessel_j_against_rational_series():
    expected = float(series_j(0, Fraction(1)))
    assert expected == pytest.approx(0.7651976865579665, abs=1e-15)
    assert abs(bessel_j(0, 1.0) - expected) < 1e-14
    # a harder argument, still desk scale
    expected = float(series_j(3, Fraction(7, 2)))
    assert abs(bessel_j(3, 3.5) - expected) < 1e-13 * abs(expected)


def test_bessel_relative_accuracy_across_range():
    import mpmath

    mpmath.mp.dps = 30
    rng = np.random.default_rng(3)
    for _ in range(25):
        order = int(rng.integers(0, 20))
        x = float(rng.uniform(0.1, 55.0))
        ref = complex(mpmath.besselj(order, x))
        val = bessel_j(order, x)
        assert abs(val - ref) <= 1e-12 * max(abs(ref), 1e-280)


def test_hankel_value_and_domain():
    expected = 0.7651976865579665 + 0.08825696421567696j
    assert abs(hankel1(0, 1.0) - expected) < 1e-13
    assert abs(series_y0(1.0) - 0.08825696421567696) < 1e-12
    with pytest.raises(DomainError):
        hankel1(0, 0.0)


def test_hankel_decay_on_imaginary_axis():
    mags = [abs(hankel1(0, 1j * t)) for t in (5.0, 10.0, 15.0)]
    assert mags[0] > mags[1] > mags[2]
    # decay at least like exp(-t)/sqrt(t)
    assert mags[2] < np.exp(-15.0)


def test_wronskian_identity():
    x, order = 2.0, 3
    w = bessel_j(order, x) * bessel_y_prime(order, x) - bessel_j_prime(order, x) * bessel_y(order, x)
    assert abs(w - 2.0 / (np.pi * x)) < 1e-14
    assert abs(2.0 / (np.pi * x) - 1.0 / np.pi) < 1e-15  # x = 2 makes it 1/pi


def test_range_checks():
    with pytest.raises(RangeExceeded):
        bessel_j(0, 61.0)
    with pytest.raises(RangeExceeded):
        bessel_j(61, 1.0)
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, np.nan)


def test_sqrt_branch():
    assert sqrt_upper(4.0) == 2.0
    assert sqrt_upper(-1.0) == 1j
    assert sqrt_upper(-4.0) == 2j
    w = sqrt_upper(2 - 1j)
    assert w.imag >= 0
    # the cut lies on the positive real axis: +2 just above it, -2 just below
    assert sqrt_upper(4 + 1e-9j) == pytest.approx(2 + 2.5e-10j, abs=1e-15)
    assert sqrt_upper(4 - 1e-9j) == pytest.approx(-2 + 2.5e-10j, abs=1e-15)
    assert sqrt_upper(0.25 + 1e-3j).real > 0 > sqrt_upper(0.25 - 1e-3j).real


def fundamental_solution(z, x) -> complex:
    """Free-space kernel of (-Laplace - z) in the plane, as layerpot assembles it:
    (i/4) H^(1)_0(sqrt(z) |x|), and -(1/2 pi) ln |x| at z = 0."""
    r = float(np.hypot(*x))
    if z == 0:
        return complex(-np.log(r) / (2.0 * np.pi))
    return 0.25j * hankel1(0, sqrt_upper(z) * r)


def fundamental_solution_gradient(z, x):
    """Gradient in x of :func:`fundamental_solution` at z != 0."""
    x = np.asarray(x, dtype=float)
    r = float(np.hypot(*x))
    k = sqrt_upper(z)
    return -0.25j * k * hankel1(1, k * r) * x / r


def test_fundamental_solution_static_values():
    assert fundamental_solution(0.0, [1.0, 0.0]) == 0.0
    assert fundamental_solution(0.0, [0.0, np.e]) == pytest.approx(-1.0 / (2 * np.pi), abs=1e-16)


def test_log_singularity_cancellation():
    # E(z) - E(0) stays bounded as |x| -> 0 in 2-d
    for r in (1e-3, 1e-6, 1e-9):
        diff = fundamental_solution(-1.0, [r, 0.0]) - fundamental_solution(0.0, [r, 0.0])
        assert abs(diff) < 1.0


def test_conjugation_in_upper_half_plane():
    for z in (1 + 2j, -3 + 0.4j, 0.1 + 0.1j):
        a = fundamental_solution(np.conj(z), [0.7, 0.2])
        b = np.conj(fundamental_solution(z, [0.7, 0.2]))
        assert abs(a - b) < 1e-14


def _bump(y, rho=0.5):
    s = (y[..., 0] ** 2 + y[..., 1] ** 2) / rho**2
    out = np.zeros(s.shape)
    inside = s < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    return out


def _bump_laplacian(y, rho=0.5):
    s = (y[..., 0] ** 2 + y[..., 1] ** 2) / rho**2
    out = np.zeros(s.shape)
    inside = s < 1.0
    si = s[inside]
    g = np.exp(-1.0 / (1.0 - si))
    gp = -g / (1.0 - si) ** 2
    gpp = g / (1.0 - si) ** 4 - 2.0 * g / (1.0 - si) ** 3
    r2 = si * rho**2
    out[inside] = gpp * 4.0 * r2 / rho**4 + gp * 4.0 / rho**2
    return out


def test_kernel_reproduces_bump():
    """Quadrature oracle: convolving the kernel with (-Lap - z) of a bump
    reproduces the bump pointwise.  Polar coordinates around the target with
    dyadic refinement toward the log singularity; the radial kernel profile
    is vectorized and spot-checked against fundamental_solution."""
    from scipy.special import hankel1 as sp_hankel1

    z = -1.0
    k = sqrt_upper(z)
    rho = 0.5
    x = np.array([0.1, 0.05])

    def kernel_profile(rr):
        return 0.25j * sp_hankel1(0, k * rr)

    rng = np.random.default_rng(0)
    for r in rng.uniform(1e-4, 1.0, 8):
        assert abs(kernel_profile(r) - fundamental_solution(z, [r, 0.0])) < 1e-15

    ntheta = 128
    thetas = 2 * np.pi * np.arange(ntheta) / ntheta
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    rmax = rho + np.hypot(*x) + 0.05
    # dyadic toward r = 0 for the log factor, split wide panels for the bump
    edges = [rmax * 0.5**j for j in range(42)] + [0.0]
    panels = []
    for hi, lo in zip(edges[:-1], edges[1:]):
        splits = np.linspace(lo, hi, 5) if hi - lo > 1e-3 else [lo, hi]
        panels.extend(zip(splits[:-1], splits[1:]))
    rr_all, ww_all = [], []
    for lo, hi in panels:
        rr_all.append(0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo))
        ww_all.append(0.5 * (hi - lo) * gl_w)
    rr = np.concatenate(rr_all)
    ww = np.concatenate(ww_all)
    kern = kernel_profile(rr) * rr * ww
    total = 0.0 + 0j
    for theta in thetas:
        direction = np.array([np.cos(theta), np.sin(theta)])
        pts = x[None, :] + rr[:, None] * direction[None, :]
        f = -_bump_laplacian(pts, rho) - z * _bump(pts, rho)
        total += np.sum(kern * f)
    total *= 2 * np.pi / ntheta
    assert abs(total - _bump(x[None, :], rho)[0]) < 1e-6


def test_gradient_matches_finite_difference():
    z = 2 + 1j
    x = np.array([0.4, -0.7])
    g = fundamental_solution_gradient(z, x)
    h = 1e-6
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        fd = (fundamental_solution(z, x + e) - fundamental_solution(z, x - e)) / (2 * h)
        assert abs(g[c] - fd) < 1e-8
