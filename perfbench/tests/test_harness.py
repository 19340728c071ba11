"""Tests of the benchmark harness itself: span arithmetic, oracles, task lists.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import tasks  # noqa: E402
from spans import Recorder, wrap  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time():
    clock = FakeClock()
    rec = Recorder(clock)

    def leaf():
        clock.now += 3.0

    leaf_op = wrap(rec, "b.leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf_op()
        clock.now += 2.0

    middle_op = wrap(rec, "a.middle", middle)
    recursive = wrap(rec, "a.middle", lambda: middle_op())  # folded into one span
    recursive()
    clock.now += 10.0  # time outside every span is not covered
    totals = rec.totals()
    assert totals["a.middle"] == [1, pytest.approx(3.0)]
    assert totals["b.leaf"] == [1, pytest.approx(3.0)]
    assert rec.main_covered() == pytest.approx(6.0)


def test_self_time_on_pool_threads():
    rec = Recorder()
    barrier = threading.Barrier(2)

    def work(_):
        barrier.wait(timeout=5)
        time.sleep(0.05)

    item = wrap(rec, "w.item", work)

    def suite():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(item, range(2)))

    start = time.perf_counter()
    wrap(rec, "m.suite", suite)()
    wall = time.perf_counter() - start
    totals = rec.totals()
    assert totals["w.item"][0] == 2
    assert totals["w.item"][1] >= 0.1
    # children on other threads do not reduce the waiting span's self time
    assert totals["m.suite"][1] == pytest.approx(wall, rel=0.2)
    # busy time summed over threads exceeds wall time
    assert totals["w.item"][1] + totals["m.suite"][1] > wall
    assert rec.main_covered() == pytest.approx(totals["m.suite"][1])


@pytest.mark.parametrize("curve", [
    {"kind": "circle", "params": {"radius": 0.8}},
    {"kind": "ellipse", "params": {"a": 1.2, "b": 0.7}},
    {"kind": "kite", "params": {}},
    {"kind": "star", "params": {"amplitude": 0.2, "wavenumber": 4}},
])
def test_curve_frame_matches_grid_convention(curve):
    from kreinlab.geometry import CurveSpec, make_grid

    grid = make_grid(CurveSpec(curve["kind"], curve["params"]), 64)
    pts, normals = checks.curve_frame(curve, 64)
    assert np.allclose(pts, grid.points, atol=1e-14)
    assert np.allclose(normals, grid.normals, atol=1e-14)


@pytest.mark.parametrize("z", [-1.0, 2.0 + 0.5j, 0.0])
def test_plane_wave_oracle_on_circle(z):
    from kreinlab.geometry import CurveSpec, make_grid
    from kreinlab.weyl import BemBackend

    curve = {"kind": "circle", "params": {"radius": 0.8}}
    check = {"curve": curve, "nodes": 64, "z": [complex(z).real, complex(z).imag],
             "direction": [0.6, 0.8]}
    matrix = BemBackend(make_grid(CurveSpec.circle(0.8), 64)).dtn(z)
    assert checks.dtn_residual(matrix, check) < 1e-10
    assert checks.dtn_residual(-matrix, check) > 1e-2


def test_spectrum_comparison_counts_multiplicity():
    expected = [[1.0, 1], [2.0, 2]]
    assert checks.compare_spectrum([1.0, 2.0, 2.0], expected)[:2] == (0, [])
    short, problems, _ = checks.compare_spectrum([1.0, 2.0], expected)
    assert (short, problems) == (1, [])
    _, problems, _ = checks.compare_spectrum([1.0, 1.5, 2.0, 2.0], expected)
    assert problems == ["spurious eigenvalue 1.5"]
    _, problems, _ = checks.compare_spectrum([2.0, 2.0], expected)
    assert problems and problems[0].startswith("missed eigenvalue 1")


def test_disk_dirichlet_oracle_multiplicity():
    eigs = checks.disk_dirichlet(31.0)
    assert [m for _, m in eigs] == [1, 2, 2, 1]  # j01, j11, j21, j02
    assert eigs[0][0] == pytest.approx(2.404825557695773**2)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_task_lists_are_deterministic(workload):
    first, again, other = (tasks.generate(workload, s) for s in (7, 7, 8))
    assert first == again
    assert first != other
    # seeds change the inputs, not the composition of a pass
    assert [t.kind for t in first] == [t.kind for t in other]
    assert [t.args[0] for t in first] == [t.args[0] for t in other]


def test_tracer_rebinds_every_module_and_restores():
    import kreinlab.layerpot as layerpot
    import kreinlab.weyl as weyl
    from kreinlab.geometry import CurveSpec, make_grid
    from layers import Tracer

    original = layerpot.assemble_single_layer_trace
    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        assert weyl.assemble_single_layer_trace is layerpot.assemble_single_layer_trace
        assert weyl.assemble_single_layer_trace is not original
        weyl.BemBackend(make_grid(CurveSpec.circle(0.8), 32)).dtn(-1.0)
    finally:
        tracer.uninstall()
    assert weyl.assemble_single_layer_trace is original
    assert layerpot.assemble_single_layer_trace is original
    totals = rec.totals()
    assert totals["layerpot.assemble_single_layer_trace"][0] == 1
    assert totals["weyl.dtn"][0] == 1
    assert totals["numpy_linalg.cond"][0] == 1
    assert rec.counters["layerpot.kernel_entries"] == 2 * 32**2
