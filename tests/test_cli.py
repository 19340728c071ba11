"""Command-line interface: outputs, exit codes, determinism."""

import ast
import collections
import glob
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from click.testing import CliRunner

import kreinlab
from kreinlab import kreinformulas
from kreinlab.cli import (
    MAX_REFERENCE_EIGENVALUES,
    main,
    read_complex_csv,
    write_complex_matrix_csv,
)
from kreinlab.geometry import MAX_NODES
from kreinlab.oracles import DiskModel, Model1D, disk_mode_dtn, interval_dtn
from kreinlab.specfun import MAX_ORDER


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_complex_csv_roundtrip(tmp_path):
    mat = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0 - 1e-17j]])
    path = tmp_path / "m.csv"
    write_complex_matrix_csv(str(path), mat, "test matrix")
    again = read_complex_csv(str(path))
    assert np.max(np.abs(again - mat)) == 0.0  # 17 significant digits round-trip


def _per_cell_csv(matrix, header):
    """Reference writer: one f-string per real and imaginary part."""
    lines = [f"# {header}; cells are \"re,im\"; row-major\n"]
    for row in np.atleast_2d(np.asarray(matrix, dtype=complex)):
        lines.append(",".join(f'"{v.real:.17g},{v.imag:.17g}"' for v in row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("shape", [(4, 4), (4, 2)])
def test_csv_writer_bytes_match_per_cell_format(tmp_path, shape):
    special = [-0.0, 5e-324, 1e17, 3 - 1e-17j, -5e-324j, 1 / 3 + 2j / 7, -1e17 - 0.0j]
    cells = np.resize(np.array(special, dtype=complex), shape[0] * shape[1]).reshape(shape)
    for mat in (cells, cells.T.copy().T):  # C- and Fortran-ordered input
        path = tmp_path / "m.csv"
        write_complex_matrix_csv(str(path), mat, "header")
        assert path.read_text() == _per_cell_csv(mat, "header")


def test_dtn_interval_matches_oracle(runner, tmp_path):
    out = tmp_path / "dtn.csv"
    res = _run(runner, ["dtn", "--domain", "interval", "--z", "-1,0", "--out", str(out)])
    assert res.exit_code == 0
    mat = read_complex_csv(str(out))
    assert np.max(np.abs(mat - interval_dtn(-1.0))) < 1e-15
    meta = json.loads((tmp_path / "dtn.csv.meta.json").read_text())
    assert meta["z"] == [-1.0, 0.0]


def test_dtn_bem_disk_rayleigh_modes(runner, tmp_path):
    curve = tmp_path / "disk13.json"
    curve.write_text('{"kind": "circle", "params": {"radius": 1.3}}')
    out = tmp_path / "dtn.csv"
    res = _run(runner, ["dtn", "--domain", str(curve), "--z", "0,0", "--nodes", "128",
                        "--out", str(out)])
    assert res.exit_code == 0
    mat = read_complex_csv(str(out))
    n = len(mat)
    t = 2 * np.pi * np.arange(n) / n
    w = np.full(n, 2 * np.pi / n * 1.3)
    for k in range(-6, 7):
        v = np.exp(1j * k * t)
        ray = np.sum(w * np.conj(v) * (mat @ v)) / np.sum(w * np.abs(v) ** 2)
        assert abs(ray - (-abs(k) / 1.3)) < 1e-8
    meta = json.loads((tmp_path / "dtn.csv.meta.json").read_text())
    assert meta["condition_single_layer"] > 1.0
    assert meta["condition_dtn"] == np.inf  # dtn(0) annihilates the constants


def test_missing_config_exit_code(runner):
    res = runner.invoke(main, ["dtn", "--domain", "no-such-file.json"])
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1])["error"] == "config_not_found"


def test_solve_command(runner, tmp_path):
    curve = tmp_path / "disk.json"
    curve.write_text('{"kind": "circle", "params": {"radius": 1.3}}')
    out = tmp_path / "sol.csv"
    res = _run(runner, ["solve", "--domain", str(curve), "--z", "-1,0", "--bc", "neumann",
                        "--data", "ones", "--nodes", "64", "--out", str(out)])
    assert res.exit_code == 0
    rows = read_complex_csv(str(out))
    assert rows.shape == (64, 2)
    # gamma_N column reproduces the data
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-8


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("domain", ["interval", "disk:1:4"])
def test_solve_model_domains(runner, tmp_path, domain, bc):
    out = tmp_path / "sol.csv"
    res = _run(runner, ["solve", "--domain", domain, "--z", "-1,0", "--bc", bc, "--data", "mode:1",
                        "--out", str(out)])
    assert res.exit_code == 0
    gamma_d, gamma_n = read_complex_csv(str(out)).T
    backend = Model1D() if domain == "interval" else DiskModel(1.0, 4)
    data = np.eye(backend.nboundary)[1]  # mode:k is the k-th unit vector on a model
    if bc == "dirichlet":
        assert np.max(np.abs(gamma_d - data)) < 1e-12
        assert np.max(np.abs(gamma_n + backend.dtn(-1.0) @ data)) < 1e-12
    else:
        assert np.max(np.abs(gamma_n - data)) < 1e-12
        assert np.max(np.abs(gamma_d - backend.ntd(-1.0) @ data)) < 1e-12


def test_solve_curve_mode_data(runner, tmp_path):
    curve = tmp_path / "disk13.json"
    curve.write_text('{"kind": "circle", "params": {"radius": 1.3}}')
    out = tmp_path / "sol.csv"
    res = _run(runner, ["solve", "--domain", str(curve), "--z", "-1,0", "--data", "mode:2",
                        "--nodes", "64", "--out", str(out)])
    assert res.exit_code == 0
    gamma_d, gamma_n = read_complex_csv(str(out)).T
    mode = np.exp(2j * 2 * np.pi * np.arange(64) / 64)  # mode:k is e^(ikt) on a curve
    assert np.max(np.abs(gamma_d - mode)) < 1e-10
    assert np.max(np.abs(gamma_n + disk_mode_dtn(2, -1.0, 1.3) * mode)) < 1e-8


@pytest.mark.parametrize("k", [7, -7])
def test_solve_curve_highest_modes(runner, tmp_path, k):
    curve = tmp_path / "circle.json"
    curve.write_text('{"kind": "circle", "params": {"radius": 1.0}}')
    out = tmp_path / "sol.csv"
    res = _run(runner, ["solve", "--domain", str(curve), "--nodes", "16", "--data", f"mode:{k}",
                        "--out", str(out)])
    assert res.exit_code == 0
    gamma_d = read_complex_csv(str(out))[:, 0]
    assert np.max(np.abs(gamma_d - np.exp(1j * k * 2 * np.pi * np.arange(16) / 16))) < 1e-10


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_curve_solve_assembles_once(runner, tmp_path, monkeypatch, bc):
    from kreinlab import layerpot

    calls = []
    assemble = layerpot._assemble
    monkeypatch.setattr(layerpot, "_assemble", lambda *a: calls.append(a[1:]) or assemble(*a))
    curve = tmp_path / "kite.json"
    curve.write_text('{"kind": "kite"}')
    res = _run(runner, ["solve", "--domain", str(curve), "--bc", bc, "--z", "2,1", "--nodes", "64",
                        "--out", str(tmp_path / "sol.csv")])
    assert res.exit_code == 0
    assert calls == [(2 + 1j,)]  # both layers, one geometry


_STAR = {"amplitude": 0.3, "wavenumber": 5}


@pytest.mark.parametrize("kind, params, z", [
    pytest.param("kite", {}, "2,1", id="kite-params0"),
    pytest.param("star", _STAR, "2,1", id="star-params1"),
    pytest.param("circle", {"radius": 0.8}, "2,1", id="circle-params2"),
    pytest.param("kite", {}, "-2,0", id="kite-real-z"),
    pytest.param("star", _STAR, "-2,0", id="star-real-z"),
    pytest.param("circle", {"radius": 0.8}, "-2,0", id="circle-real-z"),
])
def test_curve_dtn_request_peaks_at_its_assembly(runner, tmp_path, kind, params, z):
    # the map is cached as its mirror blocks, both conditions are taken from them, and it
    # is unfolded once the backend is freed, into the array written; a real map is made
    # complex one block of the CSV at a time.  So nothing after the assembly holds more
    # than the assembly, whose peak the Dirichlet solve on the same grid shares
    import tracemalloc

    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"kind": kind, "params": params}))
    common = ["--domain", str(curve), "--nodes", "512", "--z", z]
    requests = {"dtn": ["dtn", *common, "--out", str(tmp_path / "dtn.csv")],
                "solve": ["solve", *common, "--bc", "dirichlet", "--out", str(tmp_path / "sol.csv")]}
    _run(runner, requests["dtn"])  # the kernel pool and lazy imports are made outside the trace
    peaks = {}
    for name, args in requests.items():
        tracemalloc.start()
        try:
            assert _run(runner, args).exit_code == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["dtn"] <= peaks["solve"], {name: peak / (16 * 512**2) for name, peak in peaks.items()}


def test_curve_dtn_at_real_z_writes_zero_imaginary_parts(runner, tmp_path):
    # the real lane's map is float64 up to the writer, so no rounding noise reaches Im
    curve = tmp_path / "kite.json"
    curve.write_text('{"kind": "kite"}')
    out = tmp_path / "dtn.csv"
    res = _run(runner, ["dtn", "--domain", str(curve), "--nodes", "64", "--z", "-2,0",
                        "--out", str(out)])
    assert res.exit_code == 0
    cells = [cell for line in out.read_text().splitlines()[1:]
             for cell in line[1:-1].split('","')]
    assert len(cells) == 64**2
    assert {cell.split(",")[1] for cell in cells} == {"0"}


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_curve_solve_at_real_z_keeps_complex_data(runner, tmp_path, bc):
    # real matrices act on complex data: the traces keep their imaginary parts
    curve = tmp_path / "disk13.json"
    curve.write_text('{"kind": "circle", "params": {"radius": 1.3}}')
    out = tmp_path / "sol.csv"
    res = _run(runner, ["solve", "--domain", str(curve), "--z", "-2,0", "--bc", bc,
                        "--data", "mode:3", "--nodes", "64", "--out", str(out)])
    assert res.exit_code == 0
    gamma_d, gamma_n = read_complex_csv(str(out)).T
    mode = np.exp(3j * 2 * np.pi * np.arange(64) / 64)
    m = disk_mode_dtn(3, -2.0, 1.3)
    want = (mode, -m * mode) if bc == "dirichlet" else (-mode / m, mode)
    assert np.max(np.abs(gamma_d - want[0])) < 1e-8 * np.max(np.abs(want[0]))
    assert np.max(np.abs(gamma_n - want[1])) < 1e-8 * np.max(np.abs(want[1]))


def test_mfunc_scan_off_the_full_subspace_exits_2_before_writing(runner, tmp_path):
    # a Dirichlet L fixes X = {0}; the Weyl function needs the full subspace
    spec = tmp_path / "dirichlet.json"
    spec.write_text('{"L": {"special": "dirichlet"}}')
    out = tmp_path / "mf.csv"
    res = _run(runner, ["mfunc-scan", "--spec", str(spec), "--path", "0.1+0.1i:0.1:1+0.1i",
                        "--out", str(out)])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == "bad_extension_spec"
    assert not out.exists()


def test_dtn_disk_model_matches_mode_oracle(runner, tmp_path):
    out = tmp_path / "dtn.csv"
    res = _run(runner, ["dtn", "--domain", "disk:1.3:6", "--z", "2,1", "--out", str(out)])
    assert res.exit_code == 0
    mat = read_complex_csv(str(out))
    assert np.array_equal(mat, np.diag(disk_mode_dtn(np.arange(-6, 7), 2 + 1j, 1.3)))
    meta = json.loads((tmp_path / "dtn.csv.meta.json").read_text())
    assert (meta["backend"], meta["radius"], meta["modes"]) == ("disk", 1.3, 13)


def test_spectrum_command(runner, tmp_path):
    spec = tmp_path / "krein.json"
    spec.write_text('{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    out = tmp_path / "eigs.csv"
    res = _run(runner, ["spectrum", "--spec", str(spec), "--window", "1,100", "--out", str(out)])
    assert res.exit_code == 0
    vals = [float(l) for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(vals) == 2
    assert abs(vals[0] - 4 * np.pi**2) < 1e-4
    assert abs(vals[1] - 80.7629142257) < 1e-4


def test_spectrum_disk_lists_double_eigenvalues_twice(runner, tmp_path):
    spec = tmp_path / "krein.json"
    spec.write_text('{"reference": "dirichlet", "z0": -1.0, "L": {"special": "krein"}, "X": "full"}')
    out = tmp_path / "eigs.csv"
    res = _run(runner, ["spectrum", "--spec", str(spec), "--backend", "disk", "--window", "1,60",
                        "--out", str(out)])
    assert res.exit_code == 0 and json.loads(res.output)["count"] == 8
    vals = [float(l) for l in out.read_text().splitlines() if not l.startswith("#")]
    distinct = sorted(set(vals))
    assert [vals.count(v) for v in distinct] == [1, 2, 2, 1, 2]
    assert np.max(np.abs(np.array(distinct) - [13.80, 25.90, 40.38, 48.33, 57.34])) < 0.01


def test_spectrum_empty_window(runner, tmp_path):
    spec = tmp_path / "krein.json"
    spec.write_text('{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    out = tmp_path / "eigs.csv"
    res = _run(runner, ["spectrum", "--spec", str(spec), "--window", "7,7", "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 1


#: a 400-digit JSON integer, beyond the float range
HUGE = 10**400

VERIFY_BAD_INPUT = [
    # verify has no tolerance option; click rejects it as an unknown option
    (["verify", "--tol", "nan"], "bad_argument"),
    (["verify", "--tol", "-1"], "bad_argument"),
    (["verify", "--tol", "inf"], "bad_argument"),
    (["verify", "--backend", "interval", "--nodes", "15"], "bad_node_count"),
    (["verify", "--backend", "interval", "--nodes", "64"], "bad_node_count"),
    (["verify", "--seed", "-1"], "bad_seed"),
]


@pytest.mark.parametrize("args, error", [
    (["spectrum", "--spec", "@spec", "--window", "1"], "bad_window"),
    (["spectrum", "--spec", "@spec", "--window", "1;60"], "bad_window"),
    (["spectrum", "--spec", "@spec", "--window", "1,inf"], "bad_window"),
    (["spectrum", "--spec", "@bad-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@csv-spec", "--window", "1,60"], "bad_extension_spec"),
    (["mfunc-scan", "--spec", "@spec", "--path", "0.1+0.1i:0:3+0.1i"], "bad_path"),
    (["mfunc-scan", "--spec", "@spec", "--path", "bad"], "bad_path"),
    (["dtn", "--domain", "disk:abc"], "bad_domain"),
    (["dtn", "--domain", "disk:1:x"], "bad_domain"),
    (["dtn", "--domain", "disk:-1"], "bad_domain"),
    (["dtn", "--domain", "disk:1:-3"], "bad_domain"),
    (["dtn", "--domain", "diskfoo"], "config_not_found"),
    (["solve", "--domain", "interval", "--data", "mode:x"], "bad_boundary_data"),
    (["dtn", "--domain", "interval", "--z", "nan,0"], "bad_spectral_parameter"),
    (["dtn", "--domain", "interval", "--z", "1,inf"], "bad_spectral_parameter"),
    (["solve", "--domain", "interval", "--z", "1,2,3"], "bad_spectral_parameter"),
    (["mfunc-scan", "--spec", "@spec", "--path", "nan+0.1i:0.1:3+0.1i"], "bad_path"),
    (["mfunc-scan", "--spec", "@spec", "--path", "0.1+0.1i:inf:3+0.1i"], "bad_path"),
    (["solve", "--domain", "interval", "--data", "@not-a-number.csv"], "bad_boundary_data"),
    (["solve", "--domain", "interval", "--data", "@no-comma.csv"], "bad_boundary_data"),
    (["solve", "--domain", "interval", "--data", "@three.csv"], "bad_boundary_data"),
    (["solve", "--domain", "disk", "--data", "@three.csv"], "bad_boundary_data"),
    (["solve", "--domain", "@circle", "--nodes", "16", "--data", "@three.csv"],
     "bad_boundary_data"),
    (["spectrum", "--spec", "@not-a-number-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@no-comma-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@three-by-three-spec", "--window", "1,60"], "bad_extension_spec"),
    (["mfunc-scan", "--spec", "@three-by-three-spec", "--path", "0.1+0.1i:0.1:1+0.1i"],
     "bad_extension_spec"),
    (["spectrum", "--spec", "@three-by-three-projector-spec", "--backend", "disk",
      "--window", "1,60"], "bad_extension_spec"),
    (["mfunc-scan", "--spec", "@three-by-three-projector-spec", "--path", "0.1+0.1i:0.1:1+0.1i"],
     "bad_extension_spec"),
    (["spectrum", "--spec", "@krein-projector-spec", "--window", "1,100"], "bad_extension_spec"),
    (["spectrum", "--spec", "@neumann-projector-spec", "--window", "1,100"], "bad_extension_spec"),
    (["mfunc-scan", "--spec", "@robin-projector-spec", "--path", "0.1+0.1i:0.1:1+0.1i"],
     "bad_extension_spec"),
    (["mfunc-scan", "--spec", "@krein-zero-spec", "--path", "0.1+0.1i:0.1:1+0.1i"],
     "bad_extension_spec"),
    (["spectrum", "--spec", "@krein-zero-spec", "--backend", "disk", "--window", "1,60"],
     "bad_extension_spec"),
    # on 16 curve nodes e^{ikt} with |k| >= 8 aliases to a lower mode
    (["solve", "--domain", "@circle", "--nodes", "16", "--data", "mode:17"], "bad_boundary_data"),
    (["solve", "--domain", "@circle", "--nodes", "16", "--data", "mode:8"], "bad_boundary_data"),
    (["solve", "--domain", "@circle", "--nodes", "16", "--data", "mode:-8"], "bad_boundary_data"),
    # a curve grid needs an even node count of at least 16
    (["dtn", "--domain", "@circle", "--nodes", "15"], "bad_node_count"),
    (["dtn", "--domain", "@circle", "--nodes", "0"], "bad_node_count"),
    (["dtn", "--domain", "@circle", "--nodes", "17"], "bad_node_count"),
    (["solve", "--domain", "@circle", "--nodes", "15"], "bad_node_count"),
    (["verify", "--backend", "kite", "--nodes", "15"], "bad_node_count"),
    (["verify", "--backend", "disk", "--nodes", "15"], "bad_node_count"),
    (["spectrum", "--spec", "@spec", "--window", "1,60", "--tol", "nan"], "bad_tol"),
    (["spectrum", "--spec", "@spec", "--window", "1,60", "--tol", "inf"], "bad_tol"),
    (["spectrum", "--spec", "@spec", "--window", "1,60", "--count", "-1"], "bad_count"),
    # verify checks its arguments, node count and seed before any work
    *VERIFY_BAD_INPUT,
    # the model domains take no node count
    (["dtn", "--domain", "interval", "--nodes", "15"], "bad_node_count"),
    (["solve", "--domain", "disk", "--nodes", "64"], "bad_node_count"),
    (["dtn", "--domain", "disk:1.3:4", "--nodes", "256"], "bad_node_count"),
    # click's own argument errors
    (["verify", "--seed", "abc"], "bad_argument"),
    (["dtn", "--domain", "interval", "--nodes", "1.5"], "bad_argument"),
    (["verify", "--backend", "square"], "bad_argument"),
    # non-finite or malformed extension specs
    (["spectrum", "--spec", "@nan-matrix-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@nan-robin-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@nan-projector-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@inf-z0-spec", "--window", "1,60"], "bad_extension_spec"),
    (["mfunc-scan", "--spec", "@list-spec", "--path", "0.1+0.1i:0.1:1+0.1i"],
     "bad_extension_spec"),
    # malformed curve specs
    (["dtn", "--domain", "@string-radius-curve"], "bad_curve_spec"),
    (["dtn", "--domain", "@list-curve"], "bad_curve_spec"),
    (["dtn", "--domain", "@list-params-curve"], "bad_curve_spec"),
    (["dtn", "--domain", "@inf-radius-curve"], "bad_curve_spec"),
    # the scan path must lie in the open upper half plane
    (["mfunc-scan", "--spec", "@spec", "--path", "-1-0.5i:0.5:1-0.5i"], "bad_path"),
    (["mfunc-scan", "--spec", "@spec", "--path", "0.1+0.1i:0.1:1+0i"], "bad_path"),
    # boundary data must be finite on every domain (2, 17 and 16 boundary values)
    (["solve", "--domain", "interval", "--data", "@nan-re-2.csv"], "bad_boundary_data"),
    (["solve", "--domain", "interval", "--data", "@inf-im-2.csv"], "bad_boundary_data"),
    (["solve", "--domain", "disk", "--data", "@nan-re-17.csv"], "bad_boundary_data"),
    (["solve", "--domain", "disk", "--data", "@inf-im-17.csv"], "bad_boundary_data"),
    (["solve", "--domain", "@circle", "--nodes", "16", "--data", "@nan-re-16.csv"],
     "bad_boundary_data"),
    (["solve", "--domain", "@circle", "--nodes", "16", "--data", "@inf-im-16.csv"],
     "bad_boundary_data"),
    (["solve", "--domain", "@circle", "--nodes", "16", "--bc", "neumann",
      "--data", "@inf-im-16.csv"], "bad_boundary_data"),
    # the disk radius must be finite
    (["dtn", "--domain", "disk:inf", "--z", "0,0"], "bad_domain"),
    (["dtn", "--domain", "disk:1e400"], "bad_domain"),
    # a disk takes at most a radius and a mode cutoff
    (["dtn", "--domain", "disk:1:2:3", "--z", "1,1"], "bad_domain"),
    # a curve takes its kind's parameter names only: none on the kite, no misspelling
    (["dtn", "--domain", "@kite-radius-curve"], "bad_curve_spec"),
    (["solve", "--domain", "@misspelled-radius-curve"], "bad_curve_spec"),
    # a JSON integer beyond the float range is not a finite real number
    (["dtn", "--domain", "@huge-radius-curve"], "bad_curve_spec"),
    (["dtn", "--domain", "@huge-wavenumber-curve"], "bad_curve_spec"),
    (["spectrum", "--spec", "@huge-z0-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@huge-robin-spec", "--window", "1,60"], "bad_extension_spec"),
    (["spectrum", "--spec", "@huge-matrix-spec", "--window", "1,60"], "bad_extension_spec"),
    # a scan path whose length / step overflows to inf
    (["mfunc-scan", "--spec", "@spec", "--path", "0.1+0.1i:1e-310:1+0.1i"], "bad_path"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_exits_2_with_structured_error(runner, tmp_path, args, error):
    (tmp_path / "spec.json").write_text(
        '{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    (tmp_path / "bad-spec.json").write_text('{"reference": "dirichlet", "L": "krein"}')
    (tmp_path / "csv-spec.json").write_text('{"L": {"matrix_csv": "no-such-file.csv"}}')
    (tmp_path / "circle.json").write_text('{"kind": "circle", "params": {"radius": 1.0}}')
    for name, text in (("not-a-number", '"1,abc"\n'), ("no-comma", '"1,2","3"\n'),
                       ("three", '"1,0"\n"2,0"\n"3,0"\n')):
        (tmp_path / f"{name}.csv").write_text(text)
        (tmp_path / f"{name}-spec.json").write_text(
            json.dumps({"L": {"matrix_csv": str(tmp_path / f"{name}.csv")}}))
    for n in (2, 16, 17):
        (tmp_path / f"nan-re-{n}.csv").write_text('"1,0"\n' * (n - 1) + '"nan,0"\n')
        (tmp_path / f"inf-im-{n}.csv").write_text('"1,0"\n' * (n - 1) + '"1,-inf"\n')
    # a 3 x 3 boundary operator or projector: the interval has 2 boundary points, the disk 17 modes
    (tmp_path / "three-by-three.csv").write_text('"1,0","0,0","0,0"\n' * 3)
    (tmp_path / "three-by-three-spec.json").write_text(json.dumps(
        {"L": {"matrix_csv": str(tmp_path / "three-by-three.csv")}}))
    (tmp_path / "three-by-three-projector-spec.json").write_text(json.dumps(
        {"L": {"shape": [], "matrix": [0.0, 0.0]},
         "X": {"projector_csv": str(tmp_path / "three-by-three.csv")}}))
    # a special or Robin L fixes its subspace: a projector, or "zero" under Krein, is rejected
    (tmp_path / "projector.csv").write_text('"1,0","0,0"\n"0,0","0,0"\n')
    projector = {"projector_csv": str(tmp_path / "projector.csv")}
    for name, L, X in (("krein-projector", {"special": "krein"}, projector),
                       ("neumann-projector", {"special": "neumann"}, projector),
                       ("robin-projector", {"special": "robin", "theta": 1.0}, projector),
                       ("krein-zero", {"special": "krein"}, "zero")):
        (tmp_path / f"{name}-spec.json").write_text(json.dumps({"z0": -1.0, "L": L, "X": X}))
    # json.dumps writes NaN and Infinity, which json.loads reads back
    nan_matrix = {"matrix": [np.nan, 0, 0, 0, 0, 0, 1, 0], "shape": [2, 2]}
    for name, spec in (("nan-matrix", {"z0": -1, "L": nan_matrix}),
                       ("nan-robin", {"L": {"special": "robin", "theta": np.nan}}),
                       ("nan-projector", {"L": {"matrix": [0.0] * 8, "shape": [2, 2]},
                                          "X": {"projector": [np.nan] + [0.0] * 7,
                                                "shape": [2, 2]}}),
                       ("inf-z0", {"z0": np.inf}),
                       ("list", []),
                       ("huge-z0", {"z0": HUGE}),
                       ("huge-robin", {"L": {"special": "robin", "theta": HUGE}}),
                       ("huge-matrix", {"L": {"matrix": [HUGE] + [0] * 7, "shape": [2, 2]}})):
        (tmp_path / f"{name}-spec.json").write_text(json.dumps(spec))
    for name, curve in (("string-radius", {"kind": "circle", "params": {"radius": "1"}}),
                        ("list", [1, 2]),
                        ("list-params", {"kind": "circle", "params": [1]}),
                        ("inf-radius", {"kind": "circle", "params": {"radius": np.inf}}),
                        ("huge-radius", {"kind": "circle", "params": {"radius": HUGE}}),
                        ("huge-wavenumber",
                         {"kind": "star", "params": {"amplitude": 0.3, "wavenumber": HUGE}}),
                        ("kite-radius", {"kind": "kite", "params": {"radius": 3.0}}),
                        ("misspelled-radius",
                         {"kind": "circle", "params": {"radius": 1.0, "radus": 3.0}})):
        (tmp_path / f"{name}-curve.json").write_text(json.dumps(curve))
    argv = [str(tmp_path / (a[1:] if a.endswith(".csv") else a[1:] + ".json"))
            if a.startswith("@") else a for a in args]
    res = _run(runner, argv + ["--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == error


def test_scan_path_with_too_many_points_writes_no_file(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    out = tmp_path / "mfunc.csv"
    res = _run(runner, ["mfunc-scan", "--spec", str(spec), "--path", "0.1+0.1i:1e-310:1+0.1i",
                        "--out", str(out)])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == "bad_path"
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-300", "9e-6"])
def test_scan_path_with_a_finite_count_above_the_most_writes_no_file(runner, tmp_path, step):
    # 9e299 points, which would run until killed, and MAX_SCAN_POINTS + 1 (0.9 / 9e-6 steps)
    spec = tmp_path / "spec.json"
    spec.write_text('{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    out = tmp_path / "mfunc.csv"
    res = _run(runner, ["mfunc-scan", "--spec", str(spec), "--path", f"0.1+0.1i:{step}:1+0.1i",
                        "--out", str(out)])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == "bad_path"
    assert "too many points" in json.loads(res.output)["detail"]
    assert not out.exists()


def test_scan_path_of_the_most_points_is_accepted(runner, tmp_path, monkeypatch):
    # MAX_SCAN_POINTS points exactly pass the check; the scan itself is cut short here
    from kreinlab import cli

    spec = tmp_path / "spec.json"
    spec.write_text('{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    calls = []
    monkeypatch.setattr(cli, "imaginary_part_eigenvalues",
                        lambda ext, z: calls.append(z) or np.zeros(0))
    out = tmp_path / "mfunc.csv"
    res = _run(runner, ["mfunc-scan", "--spec", str(spec), "--path", "0.1+0.1i:0.1:10000+0.1i",
                        "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(res.output)["points"] == len(calls) == cli.MAX_SCAN_POINTS


@pytest.mark.parametrize("args, error, cap", [
    (["dtn", "--domain", "@kite", "--nodes", "65536"], "bad_node_count",
     f"MAX_NODES = {MAX_NODES}"),
    (["dtn", "--domain", "disk:1:1000000000"], "bad_domain", f"specfun.MAX_ORDER = {MAX_ORDER}"),
    (["spectrum", "--spec", "@spec", "--backend", "interval", "--window", "1,1e30"], "bad_window",
     f"MAX_REFERENCE_EIGENVALUES = {MAX_REFERENCE_EIGENVALUES}"),
], ids=["nodes", "disk-modes", "window-top"])
def test_input_past_a_cap_exits_2_naming_it(runner, tmp_path, args, error, cap):
    # each would end in a MemoryError: 8 GiB of pairwise distances, 2e9 + 1 disk modes, and
    # 3e14 interval eigenvalues below the top
    (tmp_path / "kite.json").write_text('{"kind": "kite"}')
    (tmp_path / "spec.json").write_text(
        '{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    argv = [str(tmp_path / a[1:]) + ".json" if a.startswith("@") else a for a in args]
    out = tmp_path / "out.csv"
    res = _run(runner, argv + ["--out", str(out)])
    assert res.exit_code == 2
    payload = json.loads(res.output)
    assert payload["error"] == error and cap in payload["detail"]
    assert not out.exists()


@pytest.mark.parametrize("wavenumber", [2**80, 1e300, 10**300])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_star_with_a_huge_wavenumber_ends_in_a_domain_error(runner, tmp_path, wavenumber):
    # finite, so a valid spec; its grid is not on the axis, or not a mirror image
    domain = tmp_path / "star.json"
    domain.write_text(json.dumps({"kind": "star",
                                  "params": {"amplitude": 0.3, "wavenumber": wavenumber}}))
    res = _run(runner, ["dtn", "--domain", str(domain), "--nodes", "16",
                        "--out", str(tmp_path / "dtn.csv")])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "DomainError"


@pytest.mark.parametrize("args", [
    ["spectrum", "--spec", "@neumann", "--backend", "interval", "--window", "1,30"],
    ["spectrum", "--spec", "@neumann", "--backend", "disk", "--window", "1,30"],
    ["mfunc-scan", "--spec", "@neumann", "--backend", "interval", "--path", "0.1+0.1i:0.1:1+0.1i"],
    ["mfunc-scan", "--spec", "@neumann", "--backend", "disk", "--path", "0.1+0.1i:0.1:1+0.1i"],
    ["solve", "--domain", "interval", "--bc", "neumann", "--z", "0,0"],
    ["solve", "--domain", "disk", "--bc", "neumann", "--z", "0,0"],
])
def test_singular_ntd_exits_1_with_near_eigenvalue(runner, tmp_path, args):
    # 0 is a Neumann eigenvalue of both models: their dtn(0) is exactly singular
    spec = tmp_path / "neumann.json"
    spec.write_text('{"reference": "neumann", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    argv = [str(spec) if a == "@neumann" else a for a in args]
    res = _run(runner, argv + ["--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "NearEigenvalue"


def test_mfunc_scan_upper_half_plane(runner, tmp_path):
    spec = tmp_path / "krein.json"
    spec.write_text('{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    out = tmp_path / "mf.csv"
    res = _run(runner, ["mfunc-scan", "--spec", str(spec),
                        "--path", "0.1+0.1i:0.1:3+0.1i", "--out", str(out)])
    assert res.exit_code == 0
    for line in out.read_text().splitlines():
        if line.startswith("#"):
            continue
        cells = [float(c) for c in line.split(",")]
        assert all(v >= -1e-10 for v in cells[2:])


def test_verify_interval_report(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "weyl", "--backend", "interval",
                               "--out", str(out)])
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    for item in report["results"]:
        assert set(item) == {"identity", "paper_ref", "residual", "tolerance", "pass", "sign_used"}
    idents = [it["identity"] for it in report["results"]]
    assert idents == sorted(idents)
    ledger = {e["identity"]: e for e in report["sign_ledger"]}
    assert ledger["jump-relation"]["validated_sign"] == "+1/2"


def test_verify_reports_are_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = runner.invoke(main, ["verify", "--suite", "traces", "--backend", "interval",
                                   "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_extension_spec_matrix_csv(tmp_path):
    from kreinlab.extensions import ExtensionSpec, make_extension
    from kreinlab.oracles import Model1D

    L = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    path = tmp_path / "L.csv"
    write_complex_matrix_csv(str(path), L, "boundary operator")
    text = json.dumps(
        {"reference": "dirichlet", "z0": 0.0, "L": {"matrix_csv": str(path)}, "X": "full"}
    )
    ext = make_extension(ExtensionSpec.from_json(text), Model1D())
    assert np.max(np.abs(ext.L - L)) == 0.0


# run in a child: ``open`` reads an int path as a descriptor, and closes it when done
_FD_PROBE = """
import os, sys
from kreinlab.cli import main
try:
    main(sys.argv[1:])
finally:
    os.fstat(0), os.fstat(1)  # EBADF if the request closed stdin or stdout
    sys.stderr.write("stdin and stdout open")
"""


@pytest.mark.parametrize("command, spec", [
    (["spectrum", "--window", "1,60"], {"L": {"matrix_csv": True}}),
    (["spectrum", "--window", "1,60"], {"L": {"matrix_csv": 0}}),
    (["mfunc-scan", "--path", "0.1+0.1i:0.1:1+0.1i"], {"X": {"projector_csv": True}}),
    (["spectrum", "--window", "1,60"], {"z0": True}),
    (["spectrum", "--window", "1,60"], {"L": {"special": "robin", "theta": True}}),
])
def test_spec_paths_and_numbers_must_not_be_json_literals(tmp_path, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kreinlab.__file__)))
    # a valid 2 x 2 matrix on stdin, which a descriptor 0 would read as L
    done = subprocess.run([sys.executable, "-c", _FD_PROBE, *command, "--spec", str(path),
                           "--out", str(tmp_path / "out.csv")], input='"1,0","0,0"\n"0,0","1,0"\n',
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["error"] == "bad_extension_spec"
    assert done.stderr == "stdin and stdout open"


@pytest.mark.parametrize("command", [["spectrum", "--window", "1,60"],
                                     ["mfunc-scan", "--path", "0.1+0.1i:0.1:1+0.1i"]])
@pytest.mark.parametrize("special", ["5", "true", "{}", "null", "[]"])
def test_special_boundary_operator_must_be_a_string(runner, tmp_path, command, special):
    # 5 and true were read as the operators 5 I and I, {} failed inside the bracket
    path = tmp_path / "spec.json"
    path.write_text('{"reference": "dirichlet", "z0": -1.0, "L": {"special": %s}}' % special)
    res = _run(runner, command + ["--spec", str(path), "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == "bad_extension_spec"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("args, error", VERIFY_BAD_INPUT + [
    (["verify", "--backend", "kite", "--nodes", "15"], "bad_node_count"),
    (["verify", "--backend", "disk", "--nodes", "17"], "bad_node_count"),
])
def test_verify_rejects_bad_input_before_the_witness_pass(runner, tmp_path, monkeypatch, args,
                                                          error):
    from kreinlab import cli

    calls = []
    monkeypatch.setattr(cli, "sign_witnesses", lambda: calls.append(1))
    res = _run(runner, args + ["--out", str(tmp_path / "report.json")])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == error
    assert calls == []
    assert not (tmp_path / "report.json").exists()


def test_argument_errors_print_json_on_both_standalone_paths(tmp_path, capsys):
    bad = ["verify", "--seed", "abc"]
    for standalone in (True, False):
        with pytest.raises(SystemExit) as exc:
            main(bad, standalone_mode=standalone)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert json.loads(out) == {"error": "bad_argument",
                                   "detail": "Invalid value for '--seed': 'abc' is not a valid integer."}
        assert err == ""
    # a valid request returns as before: standalone exits 0, the other returns
    good = ["dtn", "--domain", "interval", "--out", str(tmp_path / "dtn.csv")]
    with pytest.raises(SystemExit) as exc:
        main(good, standalone_mode=True)
    assert exc.value.code == 0
    assert main(good, standalone_mode=False) is None
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and json.loads(lines[0]) == json.loads(lines[1])


def test_typed_errors_print_json_on_both_standalone_paths(tmp_path, capsys):
    # 0 is a Neumann eigenvalue of the interval, so its ntd(0) raises NearEigenvalue
    args = ["solve", "--domain", "interval", "--bc", "neumann", "--z", "0,0",
            "--out", str(tmp_path / "out.csv")]
    for standalone in (True, False):
        with pytest.raises(SystemExit) as exc:
            main(args, standalone_mode=standalone)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "NearEigenvalue"
        assert err == ""
    assert not (tmp_path / "out.csv").exists()


def test_verify_injected_sign_flip_fails(runner, tmp_path, monkeypatch):
    from kreinlab import cli

    def swapped():  # the witness pass favours the other jump sign
        witnesses = kreinformulas.sign_witnesses()
        jump = witnesses["jump-relation"]
        jump["+1/2"], jump["-1/2"] = jump["-1/2"], jump["+1/2"]
        return witnesses

    monkeypatch.setattr(cli, "sign_witnesses", swapped)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "krein", "--backend", "disk",
                               "--out", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    failing = [it for it in report["results"] if not it["pass"]]
    assert [it["identity"] for it in failing] == ["jump-relation"]
    ledger = {e["identity"]: e for e in report["sign_ledger"]}
    # the item keeps the validated sign, so it reads the wrong candidate's residual
    assert failing[0]["sign_used"] == "+1/2"
    assert ledger["jump-relation"]["validated_sign"] == "-1/2"


def test_verify_runs_the_sign_witnesses_once(runner, tmp_path, monkeypatch):
    from kreinlab import kreinformulas

    calls = []
    original = kreinformulas._discretize_interval

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kreinformulas, "_discretize_interval", counted)
    out = tmp_path / "report.json"
    res = _run(runner, ["verify", "--suite", "krein", "--backend", "kite", "--out", str(out)])
    assert res.exit_code == 0
    assert len(calls) == 1
    report = json.loads(out.read_text())
    items = {it["identity"]: it for it in report["results"]}
    ledger = {e["identity"]: e for e in report["sign_ledger"]}
    # the ledger and the sign items read the same residuals
    assert items["resolvent-difference"]["residual"] == ledger["resolvent-difference"]["residual"]
    assert items["krein-formula-matrix"]["residual"] == ledger["krein-formula"]["residual"]


#: identity names of each task group, per backend; "all" runs every group
SUITE_IDENTITIES = {
    "interval": {
        "weyl": ["dtn-shifted-closed-form", "dtn-sign-nonpositive", "dtn-static-closed-form",
                 "dtn-symmetry", "ntd-dtn-inverse", "ntd-sign-definite"],
        "traces": ["classical-green", "green-defect-generic", "green-defect-harmonic",
                   "tauD-factorization", "tauD-kernel", "tauD-relation", "tauN-factorization",
                   "tauN-kernel", "tauN-kernel-decomposition", "tauN-range"],
        "krein": ["harmonic-adjoint", "herglotz-krein", "herglotz-random-L", "jump-relation",
                  "krein-formula-matrix", "krein-resolvent-vs-direct", "mfunc-neumann-ntd",
                  "mfunc-symmetry", "mfunc-vs-direct", "nonnegativity-krein",
                  "resolvent-difference", "resolvent-ordering", "smoothing-factorization",
                  "special-krein", "special-neumann", "special-robin",
                  "two-extension-alternative", "two-extension-identity",
                  "two-extension-symmetry"],
        "abstract": ["deficiency-gram", "deficiency-indices", "domain-splitting",
                     "donoghue-at-i", "donoghue-herglotz", "donoghue-symmetry",
                     "friedrichs-is-dirichlet", "kernel-of-krein", "krein-formula-deficiency",
                     "parametrized-ordering"],
    },
    "disk": {
        "weyl": ["bem-dtn-helmholtz-modes", "bem-dtn-static-modes", "dtn-sign-nonpositive",
                 "dtn-smoothing-decay", "dtn-symmetry", "ntd-dtn-inverse", "ntd-sign-definite",
                 "solve-neumann-consistency"],
        "traces": ["classical-green", "green-defect-generic", "green-defect-harmonic",
                   "tauD-kernel", "tauN-kernel", "tauN-kernel-decomposition", "tauN-range"],
        "krein": ["cross-factory-krein", "harmonic-adjoint", "herglotz-krein",
                  "herglotz-random-L", "jump-relation", "krein-formula-matrix",
                  "krein-resolvent-vs-direct", "mfunc-neumann-ntd", "mfunc-symmetry",
                  "mfunc-vs-direct", "resolvent-difference", "smoothing-factorization",
                  "special-krein", "special-neumann"],
        "abstract": [],
    },
    "kite": {
        "weyl": ["dirichlet-roundtrip", "dtn-self-convergence", "dtn-sign-nonpositive",
                 "dtn-symmetry", "ntd-dtn-inverse"],
        "traces": ["gamma-roundtrip", "tauN-kernel"],
        "krein": ["harmonic-adjoint", "herglotz-krein", "jump-relation", "krein-formula-matrix",
                  "mfunc-symmetry", "resolvent-difference"],
        "abstract": [],
    },
}


#: the sign items only read these residuals
STUB_WITNESSES = {"jump-relation": {"+1/2": 0.0}, "resolvent-difference": {"-": 0.0},
                  "krein-formula": 0.0, "harmonic-adjoint": 0.0}


@pytest.mark.parametrize("backend", ["interval", "disk", "kite"])
def test_each_suite_runs_its_pinned_identities(backend):
    from kreinlab.verifysuite import build_suite

    want = dict(SUITE_IDENTITIES[backend])
    want["all"] = sorted(name for names in want.values() for name in names)
    nodes = 0 if backend == "interval" else 64
    got = {suite: [it["identity"] for it in build_suite(suite, backend, STUB_WITNESSES,
                                                         nodes=nodes)]
           for suite in want}
    assert got == want
    assert len(want["all"]) == {"interval": 45, "disk": 29, "kite": 13}[backend]


#: identities by tolerance, per backend; a change here loosens or tightens a check
SUITE_TOLERANCES = {
    "interval": {
        1e-12: ["donoghue-at-i", "dtn-shifted-closed-form", "dtn-static-closed-form",
                "ntd-dtn-inverse"],
        1e-10: ["deficiency-gram", "donoghue-herglotz", "dtn-sign-nonpositive",
                "green-defect-generic", "green-defect-harmonic", "harmonic-adjoint",
                "herglotz-krein", "jump-relation", "kernel-of-krein", "ntd-sign-definite",
                "tauD-factorization", "tauD-relation", "tauN-factorization"],
        1e-9: ["domain-splitting", "herglotz-random-L", "krein-formula-matrix",
               "krein-resolvent-vs-direct", "mfunc-neumann-ntd", "mfunc-symmetry",
               "parametrized-ordering", "resolvent-difference", "resolvent-ordering",
               "tauN-kernel-decomposition", "two-extension-alternative", "two-extension-identity",
               "two-extension-symmetry"],
        1e-8: ["classical-green", "donoghue-symmetry", "dtn-symmetry", "friedrichs-is-dirichlet",
               "mfunc-vs-direct", "nonnegativity-krein", "smoothing-factorization",
               "special-krein", "special-neumann", "special-robin", "tauD-kernel", "tauN-kernel",
               "tauN-range"],
        1e-6: ["krein-formula-deficiency"],
        0.5: ["deficiency-indices"],
    },
    "disk": {
        1e-12: ["dtn-smoothing-decay"],
        1e-10: ["dtn-sign-nonpositive", "green-defect-harmonic", "harmonic-adjoint",
                "herglotz-krein", "jump-relation", "ntd-sign-definite"],
        1e-9: ["herglotz-random-L", "krein-formula-matrix", "mfunc-neumann-ntd", "mfunc-symmetry",
               "resolvent-difference", "tauN-kernel-decomposition"],
        1e-8: ["bem-dtn-helmholtz-modes", "bem-dtn-static-modes", "classical-green",
               "cross-factory-krein", "dtn-symmetry", "green-defect-generic", "mfunc-vs-direct",
               "ntd-dtn-inverse", "smoothing-factorization", "solve-neumann-consistency",
               "special-krein", "special-neumann", "tauD-kernel", "tauN-kernel", "tauN-range"],
        1e-7: ["krein-resolvent-vs-direct"],
    },
    "kite": {
        1e-10: ["dtn-sign-nonpositive", "harmonic-adjoint", "jump-relation"],
        1e-9: ["dtn-self-convergence", "herglotz-krein", "krein-formula-matrix",
               "resolvent-difference"],
        1e-8: ["dirichlet-roundtrip", "dtn-symmetry", "gamma-roundtrip", "mfunc-symmetry",
               "ntd-dtn-inverse"],
        1e-7: ["tauN-kernel"],
    },
}


@pytest.mark.parametrize("backend", ["interval", "disk", "kite"])
def test_each_suite_item_keeps_its_pinned_tolerance(backend):
    # tolerances depend on neither the witnesses nor the node count
    from kreinlab.verifysuite import build_suite

    items = build_suite("all", backend, STUB_WITNESSES, nodes=0 if backend == "interval" else 64)
    got = collections.defaultdict(list)
    for it in items:
        got[it["tolerance"]].append(it["identity"])
    assert got == SUITE_TOLERANCES[backend]


def test_suite_tasks_keep_their_random_streams():
    from kreinlab.verifysuite import _krein, _plan, build_suite

    witnesses = kreinformulas.sign_witnesses()
    items = {it["identity"]: it for it in build_suite("krein", "disk", witnesses, seed=3)}
    # the extension task follows the sign items, so it draws from stream [seed, 1]
    alone = _krein(_plan("disk", 192), np.random.default_rng([3, 1]))
    want = [it for it in alone if it["identity"] == "herglotz-random-L"]
    assert items["herglotz-random-L"]["residual"] == want[0]["residual"]


def test_disk_traces_task_builds_its_harmonic_field_once(monkeypatch):
    from kreinlab.oracles import DiskModel
    from kreinlab.verifysuite import build_suite

    calls = []
    extend = DiskModel.harmonic_extension

    def counted(self, w, g):
        calls.append(w)
        return extend(self, w, g)

    monkeypatch.setattr(DiskModel, "harmonic_extension", counted)
    build_suite("traces", "disk", {})
    # z0 = -1 on the disk, so the probe field at z0 is also the field at -1
    assert calls == [-1.0, -1.0]


def test_verify_runs_every_suite_task_in_the_calling_thread(runner, tmp_path, monkeypatch):
    from kreinlab import verifysuite

    threads = []

    def task(*args):
        threads.append(threading.get_ident())
        return []

    for name in ("_weyl", "_traces", "_sign_items", "_krein"):
        monkeypatch.setattr(verifysuite, name, task)
    assert verifysuite.build_suite("all", "kite", {}) == []
    assert threads == [threading.get_ident()] * 4
    out = tmp_path / "report.json"
    res = _run(runner, ["verify", "--suite", "all", "--backend", "kite", "--out", str(out)])
    assert res.exit_code == 0
    assert threads == [threading.get_ident()] * 8
    assert set(json.loads(out.read_text())) == {
        "suite", "backend", "seed", "nodes", "results", "sign_ledger", "pass"}


def test_kite_dtn_starts_no_thread(runner, tmp_path):
    # a 544-node kite has about 74,000 distinct distances: its kernels, like every other,
    # are evaluated in the calling thread
    curve = tmp_path / "kite.json"
    curve.write_text('{"kind": "kite"}')
    before = threading.enumerate()
    res = _run(runner, ["dtn", "--domain", str(curve), "--z", "2,1", "--nodes", "544",
                        "--out", str(tmp_path / "dtn.csv")])
    assert res.exit_code == 0
    assert threading.enumerate() == before


def test_kite_verify_assembles_each_z_once(runner, tmp_path, monkeypatch):
    from kreinlab import layerpot

    calls = collections.Counter()
    assemble = layerpot._assemble

    def counted(grid, z, *args):
        calls[grid.n, z] += 1
        return assemble(grid, z, *args)

    monkeypatch.setattr(layerpot, "_assemble", counted)
    res = _run(runner, ["verify", "--suite", "all", "--backend", "kite",
                        "--out", str(tmp_path / "report.json")])
    assert res.exit_code == 0
    # the witness pass assembles on its own 64-node circle; every suite task shares one kite
    # backend of 192 nodes, and the convergence check one of 384
    assert {n for n, _ in calls} == {64, 192, 384}
    assert max(calls.values()) == 1


def test_no_cli_option_is_hidden():
    hidden = [f"{name} {param.name}" for name, command in main.commands.items()
              for param in command.params if getattr(param, "hidden", False)]
    assert not hidden


def test_no_library_module_keeps_an_unused_import():
    unused = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(kreinlab.__file__), "*.py"))):
        if os.path.basename(path) == "__init__.py":  # imports there are the package's names
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module",
                                                                          None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{os.path.basename(path)}: line {line} imports {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused


def _imported_names(node) -> list:
    """Absolute module names an import statement in a top-level kreinlab module may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = "kreinlab" + (f".{node.module}" if node.module else "") if node.level else node.module
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_no_library_module_imports_the_cli():
    offenders = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(kreinlab.__file__), "*.py"))):
        if os.path.basename(path) == "cli.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name == "kreinlab.cli" or name.startswith("kreinlab.cli.")
                    for name in _imported_names(node)):
                offenders.append(f"{os.path.basename(path)}: line {node.lineno}")
    assert not offenders


def test_import_starts_no_thread_and_package_reads_no_environment():
    # kreinlab starts no thread of its own
    code = "import threading, kreinlab.cli; print(threading.active_count())"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kreinlab.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["1"], done.stderr
    readers = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(kreinlab.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        readers += [f"{os.path.basename(path)}: line {node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and
                    {"environ", "environb", "getenv", "getenvb"} & {
                        getattr(node, "attr", None), getattr(node, "id", None),
                        getattr(node, "name", None)}]
    assert not readers
