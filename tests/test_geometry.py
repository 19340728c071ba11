"""Curve catalog and quadrature grid checks."""

import numpy as np
import pytest
from scipy.integrate import quad

from kreinlab.errors import BadNodeCount, DomainError
from kreinlab.geometry import CurveSpec, make_grid

# adaptive-quadrature oracle: perimeter of ellipse(2, 1)
ELLIPSE_PERIMETER = 9.688448220547676


def test_circle_nodes_and_normals():
    grid = make_grid(CurveSpec.circle(1.0), 16)
    assert np.allclose(grid.points[0], [1.0, 0.0])
    assert np.allclose(grid.normals[0], [1.0, 0.0])
    assert np.max(np.abs(np.hypot(grid.normals[:, 0], grid.normals[:, 1]) - 1.0)) < 1e-14
    assert np.all(grid.weights > 0)


def test_circle_circumference():
    grid = make_grid(CurveSpec.circle(2.0), 64)
    assert abs(grid.length() - 4 * np.pi) < 1e-12


def test_ellipse_perimeter_against_quadrature_oracle():
    val, err = quad(lambda t: np.hypot(2 * np.sin(t), np.cos(t)), 0.0, np.pi / 2, limit=200)
    assert 4 * err < 1e-9
    assert abs(4 * val - ELLIPSE_PERIMETER) < 1e-9
    grid = make_grid(CurveSpec.ellipse(2.0, 1.0), 256)
    assert abs(grid.length() - ELLIPSE_PERIMETER) < 1e-10


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
    vel = grid.spec.velocity(grid.t)
    area = 0.5 * np.sum(
        grid.weights * (grid.points[:, 0] * vel[:, 1] - grid.points[:, 1] * vel[:, 0])
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
    # node n - j is node j reflected in the x-axis, bit for bit
    grid = make_grid(spec, n)
    j, mirror = np.arange(1, n // 2), n - np.arange(1, n // 2)
    assert np.array_equal(grid.points[mirror], grid.points[j] * [1.0, -1.0])
    assert np.array_equal(grid.normals[mirror], grid.normals[j] * [1.0, -1.0])
    assert np.array_equal(grid.speed[mirror], grid.speed[j])
    assert np.array_equal(grid.curvature[mirror], grid.curvature[j])
    assert np.array_equal(grid.t, 2.0 * np.pi * np.arange(n) / n)


def test_curvature_on_circle():
    grid = make_grid(CurveSpec.circle(2.0), 32)
    assert np.max(np.abs(grid.curvature - 0.5)) < 1e-14


def test_bad_node_counts():
    for n in (15, 8, 33):
        with pytest.raises(BadNodeCount):
            make_grid(CurveSpec.circle(1.0), n)


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
])
def test_curve_spec_needs_an_object_of_finite_real_parameters(text):
    with pytest.raises(DomainError):
        CurveSpec.from_json(text)


def test_curve_spec_takes_numpy_scalars():
    assert CurveSpec("star", {"amplitude": np.float64(0.25), "wavenumber": np.int64(7)}) \
        == CurveSpec.star(0.25, 7)


def test_json_roundtrip():
    spec = CurveSpec.star(0.25, 7)
    again = CurveSpec.from_json(spec.to_json())
    assert again == spec
    assert CurveSpec.from_json('{"kind": "kite", "params": {}}') == CurveSpec.kite()


def test_metadata_flags():
    assert CurveSpec.kite().metadata["quasi_convex"] is True
