"""Curve catalog and quadrature grid checks."""

import numpy as np
import pytest
from scipy.integrate import quad

from kreinlab.errors import BadNodeCount, DomainError
from kreinlab.geometry import MAX_NODES, CurveSpec, check_node_count, make_grid

# adaptive-quadrature oracle: perimeter of ellipse(2, 1)
ELLIPSE_PERIMETER = 9.688448220547676


def test_circle_nodes_and_normals():
    grid = make_grid(CurveSpec.circle(1.0), 16)
    assert np.allclose(grid.points[0], [1.0, 0.0])
    assert np.allclose(grid.normals[0], [1.0, 0.0])
    assert np.max(np.abs(np.hypot(grid.normals[:, 0], grid.normals[:, 1]) - 1.0)) < 1e-14
    assert np.all(grid.weighted_measure > 0)


def test_circle_circumference():
    grid = make_grid(CurveSpec.circle(2.0), 64)
    assert abs(np.sum(grid.weighted_measure) - 4 * np.pi) < 1e-12


def test_ellipse_perimeter_against_quadrature_oracle():
    val, err = quad(lambda t: np.hypot(2 * np.sin(t), np.cos(t)), 0.0, np.pi / 2, limit=200)
    assert 4 * err < 1e-9
    assert abs(4 * val - ELLIPSE_PERIMETER) < 1e-9
    grid = make_grid(CurveSpec.ellipse(2.0, 1.0), 256)
    assert abs(np.sum(grid.weighted_measure) - ELLIPSE_PERIMETER) < 1e-10


@pytest.mark.parametrize(
    "spec,area",
    [
        (CurveSpec.circle(1.5), np.pi * 1.5**2),
        (CurveSpec.ellipse(2.0, 1.0), 2 * np.pi),
        (CurveSpec.kite(), 1.5 * np.pi),
        (CurveSpec.star(0.3, 5), np.pi * (1 + 0.3**2 / 2)),
    ],
)
def test_divergence_theorem(spec, area):
    # For F(x) = x: boundary flux = 2 |Omega|, exact for analytic curves
    grid = make_grid(spec, 256)
    flux = np.sum(grid.weighted_measure * np.sum(grid.normals * grid.points, axis=1))
    assert abs(flux - 2 * area) < 1e-10


def test_star_area_closed_form():
    # shoelace: area of r = 1 + a cos(w t) is pi (1 + a^2/2)
    grid = make_grid(CurveSpec.star(0.3, 5), 512)
    vel = grid.spec.derivative(grid.t, 1)
    area = 0.5 * 2 * np.pi / grid.n * np.sum(
        grid.points[:, 0] * vel[:, 1] - grid.points[:, 1] * vel[:, 0]
    )
    assert abs(area - np.pi * (1 + 0.3**2 / 2)) < 1e-12


def test_refinement_keeps_nodes():
    coarse = make_grid(CurveSpec.kite(), 32)
    fine = make_grid(CurveSpec.kite(), 64)
    assert np.array_equal(coarse.points, fine.points[::2])
    assert np.array_equal(coarse.normals, fine.normals[::2])


@pytest.mark.parametrize("n", [64, 192, 1024])
@pytest.mark.parametrize("spec", [CurveSpec.kite(), CurveSpec.star(0.3, 5),
                                  CurveSpec.ellipse(1.5, 1.0), CurveSpec.circle(0.8)],
                         ids=lambda spec: spec.kind)
def test_nodes_are_exact_mirror_images(spec, n):
    # node n - j (mod n) is node j reflected in the x-axis, bit for bit; nodes 0 and n/2
    # are their own images, on the axis
    grid = make_grid(spec, n)
    j = np.arange(n)
    mirror = -j % n
    assert np.all(grid.points[[0, n // 2], 1] == 0.0) and np.all(grid.normals[[0, n // 2], 1] == 0.0)
    assert np.array_equal(grid.points[mirror], grid.points[j] * [1.0, -1.0])
    assert np.array_equal(grid.normals[mirror], grid.normals[j] * [1.0, -1.0])
    assert np.array_equal(grid.speed[mirror], grid.speed[j])
    assert np.array_equal(grid.curvature[mirror], grid.curvature[j])
    assert np.array_equal(grid.t, 2.0 * np.pi * np.arange(n) / n)


@pytest.mark.parametrize("move", [
    lambda p, t: p + [0.0, 0.1],  # symmetric about y = 0.1: nodes 0 and n/2 off the axis
    lambda p, t: p + np.stack([0.1 * np.sin(t), 0.0 * t], axis=-1),  # on it, not a mirror
], ids=["off-axis", "not-a-mirror"])
def test_grid_that_is_not_its_own_mirror_image_raises(monkeypatch, move):
    derivative = CurveSpec.derivative
    monkeypatch.setattr(CurveSpec, "derivative", lambda self, t, order=0: (
        move(derivative(self, t), np.asarray(t)) if order == 0 else derivative(self, t, order)))
    with pytest.raises(DomainError, match="x-axis"):
        make_grid(CurveSpec.ellipse(1.5, 1.0), 64)


def test_curvature_on_circle():
    grid = make_grid(CurveSpec.circle(2.0), 32)
    assert np.max(np.abs(grid.curvature - 0.5)) < 1e-14


def test_bad_node_counts():
    for n in (15, 8, 33, MAX_NODES + 2):
        with pytest.raises(BadNodeCount):
            make_grid(CurveSpec.circle(1.0), n)
    assert check_node_count(MAX_NODES) == MAX_NODES


def test_invalid_specs():
    with pytest.raises(DomainError):
        CurveSpec.circle(-1.0)
    with pytest.raises(DomainError):
        CurveSpec.star(1.2, 3)
    with pytest.raises(DomainError):
        CurveSpec("pentagon", {})


@pytest.mark.parametrize("text", [
    '{"kind": "circle", "params": {"radius": "1"}}',
    '{"kind": "circle", "params": {"radius": true}}',
    '{"kind": "circle", "params": {"radius": Infinity}}',
    '{"kind": "ellipse", "params": {"a": 1.0, "b": NaN}}',
    '{"kind": "circle", "params": [1]}',
    '[1, 2]',
    # a name outside the kind's set: misplaced, misspelled, or any name on the kite
    '{"kind": "kite", "params": {"radius": 3.0}}',
    '{"kind": "circle", "params": {"radius": 1.0, "radus": 3.0}}',
    '{"kind": "ellipse", "params": {"a": 1.0, "b": 0.5, "radius": 1.0}}',
    '{"kind": "star", "params": {"amplitude": 0.2, "wavenumber": 3, "a": 1.0}}',
    '{"kind": ["circle"], "params": {}}',
    # JSON integers beyond the float range
    '{"kind": "circle", "params": {"radius": %d}}' % 10**400,
    '{"kind": "star", "params": {"amplitude": 0.2, "wavenumber": %d}}' % 10**400,
])
def test_curve_spec_needs_an_object_of_finite_real_parameters(text):
    with pytest.raises(DomainError):
        CurveSpec.from_json(text)


def test_curve_spec_takes_numpy_scalars():
    assert CurveSpec("star", {"amplitude": np.float64(0.25), "wavenumber": np.int64(7)}) \
        == CurveSpec.star(0.25, 7)


def test_json_roundtrip():
    again = CurveSpec.from_json('{"kind": "star", "params": {"amplitude": 0.25, "wavenumber": 7}}')
    assert again == CurveSpec.star(0.25, 7)
    assert CurveSpec.from_json('{"kind": "kite", "params": {}}') == CurveSpec.kite()


def test_a_large_finite_integer_parameter_is_accepted():
    grid = make_grid(CurveSpec.from_json('{"kind": "circle", "params": {"radius": %d}}' % 10**26), 16)
    assert np.array_equal(grid.points[0], [1e26, 0.0])


@pytest.mark.parametrize("wavenumber", ["1e300", str(10**300), str(2**80)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_star_with_a_huge_wavenumber_has_no_grid(wavenumber):
    # a valid spec, whose m^2 factors overflow to inf or whose sines round off the axis
    spec = CurveSpec.from_json('{"kind": "star", "params": {"amplitude": 0.3, "wavenumber": %s}}'
                               % wavenumber)
    with pytest.raises(DomainError, match="x-axis"):
        make_grid(spec, 16)


@pytest.mark.parametrize("spec, n", [(CurveSpec.star(0.3, 9), 16), (CurveSpec.star(0.3, 40), 64),
                                     (CurveSpec.star(0.3, 7), 16), (CurveSpec.star(0.3, 200), 256)])
def test_grid_that_aliases_its_curve_raises(spec, n):
    # the star's top mode w + 1 reaches n/2; one more node pair resolves it
    with pytest.raises(DomainError, match="alias"):
        make_grid(spec, n)
    make_grid(spec, 2 * spec.params["wavenumber"] + 4)  # n/2 = w + 2


TABLE_SPECS = [
    CurveSpec.circle(0.8), CurveSpec.ellipse(1.5, 1.0), CurveSpec.kite(), CurveSpec.star(0.3, 5),
    CurveSpec.star(0.25, 1), CurveSpec.star(0.2, 2),
    CurveSpec.from_json('{"kind": "star", "params": {"amplitude": 0.3, "wavenumber": 5.0}}'),
]


def _fft_derivative(values, n):
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0  # the Nyquist mode of a real sample has no odd derivative
    return np.real(np.fft.ifft(1j * k[:, None] * np.fft.fft(values, axis=0), axis=0))


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda spec: f"{spec.kind}{spec.params}")
def test_derivatives_match_fft_derivatives(spec):
    n = 256
    t = 2.0 * np.pi * np.arange(n) / n
    for order in (1, 2):
        exact = spec.derivative(t, order)
        spectral = _fft_derivative(spec.derivative(t, order - 1), n)
        assert np.max(np.abs(exact - spectral)) < 1e-12 * np.max(np.abs(exact))


def _closed_forms(spec, t):
    """The point, velocity and acceleration of the circle, ellipse and kite as they were
    written out by hand before the Fourier tables."""
    cos, sin = np.cos, np.sin
    if spec.kind == "kite":
        return (np.stack([cos(t) + 0.65 * cos(2 * t) - 0.65, 1.5 * sin(t)], axis=-1),
                np.stack([-sin(t) - 2 * 0.65 * sin(2 * t), 1.5 * cos(t)], axis=-1),
                np.stack([-cos(t) - 4 * 0.65 * cos(2 * t), -1.5 * sin(t)], axis=-1))
    p = spec.params
    a, b = (p["a"], p["b"]) if spec.kind == "ellipse" else (p["radius"], p["radius"])
    return (np.stack([a * cos(t), b * sin(t)], axis=-1),
            np.stack([-a * sin(t), b * cos(t)], axis=-1),
            np.stack([-a * cos(t), -b * sin(t)], axis=-1))


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("n", [16, 192, 1024])
@pytest.mark.parametrize("spec", TABLE_SPECS[:3], ids=lambda spec: spec.kind)
def test_tables_have_the_bits_of_the_closed_forms(spec, n):
    j = np.arange(n)
    s = 2.0 * np.pi * np.where(j <= n // 2, j, j - n) / n
    forms = _closed_forms(spec, s)
    for order, form in enumerate(forms):
        assert _same_bits(spec.derivative(s, order), form)
    grid = make_grid(spec, n)
    pts, vel, acc = forms
    pts[[0, n // 2], 1] = 0.0
    speed = np.sqrt(np.sum(vel**2, axis=1))
    assert _same_bits(grid.points, pts)
    assert _same_bits(grid.speed, speed)
    assert _same_bits(grid.curvature, (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed**3)
    assert _same_bits(grid.weighted_measure, np.full(n, 2.0 * np.pi / n) * speed)


@pytest.mark.parametrize("spec", TABLE_SPECS[3:], ids=lambda spec: f"{spec.kind}{spec.params}")
def test_star_table_matches_its_product_form(spec):
    amp, w = spec.params["amplitude"], spec.params["wavenumber"]
    t = 2.0 * np.pi * np.arange(256) / 256
    rho, drho, d2rho = 1 + amp * np.cos(w * t), -amp * w * np.sin(w * t), -amp * w * w * np.cos(w * t)
    c, s = np.cos(t), np.sin(t)
    forms = (np.stack([rho * c, rho * s], axis=-1),
             np.stack([drho * c - rho * s, drho * s + rho * c], axis=-1),
             np.stack([(d2rho - rho) * c - 2 * drho * s, (d2rho - rho) * s + 2 * drho * c], axis=-1))
    for order, form in enumerate(forms):
        assert np.max(np.abs(spec.derivative(t, order) - form)) < 1e-14 * np.max(np.abs(form))
