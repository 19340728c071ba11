"""Command-line interface: outputs, exit codes, determinism."""

import json
import threading

import numpy as np
import pytest
from click.testing import CliRunner

from kreinlab.cli import main, read_complex_csv, write_complex_matrix_csv
from kreinlab.oracles import interval_dtn


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
])
def test_bad_input_exits_2_with_structured_error(runner, tmp_path, args, error):
    (tmp_path / "spec.json").write_text(
        '{"reference": "dirichlet", "z0": 0.0, "L": {"special": "krein"}, "X": "full"}')
    (tmp_path / "bad-spec.json").write_text('{"reference": "dirichlet", "L": "krein"}')
    (tmp_path / "csv-spec.json").write_text('{"L": {"matrix_csv": "no-such-file.csv"}}')
    argv = [str(tmp_path / (a[1:] + ".json")) if a.startswith("@") else a for a in args]
    res = _run(runner, argv + ["--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == error


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


def test_verify_injected_sign_flip_fails(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "krein", "--backend", "disk",
                               "--inject-sign-flip", "jump-relation", "--out", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    failing = [it for it in report["results"] if not it["pass"]]
    assert [it["identity"] for it in failing] == ["jump-relation"]
    assert failing[0]["sign_used"] == "-1/2"


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


def test_suite_tasks_keep_their_random_streams():
    from kreinlab.oracles import DiskModel
    from kreinlab.verifysuite import _krein_model, build_suite

    items = {it["identity"]: it for it in build_suite("krein", "disk", seed=3)}
    alone = _krein_model(DiskModel(radius=1.0, mode_cutoff=8), np.random.default_rng([3, 1]), 1.0)
    want = [it for it in alone if it["identity"] == "herglotz-random-L"]
    assert items["herglotz-random-L"]["residual"] == want[0]["residual"]


def test_verify_runs_every_suite_task_in_the_calling_thread(runner, tmp_path, monkeypatch):
    from kreinlab import verifysuite

    threads = []

    def task(*args):
        threads.append(threading.get_ident())
        return []

    for name in ("_weyl_kite", "_traces_kite", "_sign_items", "_krein_kite"):
        monkeypatch.setattr(verifysuite, name, task)
    assert verifysuite.build_suite("all", "kite") == []
    assert threads == [threading.get_ident()] * 4
    out = tmp_path / "report.json"
    res = _run(runner, ["verify", "--suite", "all", "--backend", "kite", "--out", str(out)])
    assert res.exit_code == 0
    assert threads == [threading.get_ident()] * 8
    assert set(json.loads(out.read_text())) == {
        "suite", "backend", "seed", "nodes", "tolerance_scale", "results", "sign_ledger", "pass"}
