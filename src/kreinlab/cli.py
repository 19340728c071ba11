"""Command-line front end: dtn, solve, spectrum, verify, mfunc-scan.

CSV conventions: complex cells are quoted "re,im" pairs with 17 significant
digits; the first line is a ``#``-prefixed header describing the layout.
Reports are emitted as JSON with sorted keys, so identical (config, seed)
pairs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from .errors import KreinlabError
from .extensions import ExtensionSpec, make_extension
from .geometry import CurveSpec, make_grid
from .kreinformulas import imaginary_part_eigenvalues, resolve_sign_conventions, sign_witnesses
from .oracles import DiskModel, Model1D, interval_dtn
from .spectral import SpectrumRequest, eigenvalues
from .verifysuite import build_suite
from .weyl import BemBackend, inverse_and_condition


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_complex_matrix_csv(path: str, matrix: np.ndarray, header: str):
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=complex)
    # one format string per row, applied to the (re, im) pairs of a float view
    row_format = ",".join(['"%.17g,%.17g"'] * matrix.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# {header}; cells are \"re,im\"; row-major\n")
        for row in matrix.view(np.float64):
            fh.write(row_format % tuple(row.tolist()))


def read_complex_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip().strip('"') for c in line.split('","')]
            cells[0] = cells[0].lstrip('"')
            cells[-1] = cells[-1].rstrip('"')
            rows.append([complex(float(c.split(",")[0]), float(c.split(",")[1])) for c in cells])
    return np.array(rows, dtype=complex)


def _fail(payload: dict, code: int):
    click.echo(json.dumps(payload, sort_keys=True))
    sys.exit(code)


def _parse_z(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        z = complex(float(re_s), float(im_s))
    except ValueError:
        _fail({"error": "bad_spectral_parameter", "value": text}, 2)
    if not np.isfinite(z):
        _fail({"error": "bad_spectral_parameter", "value": text, "detail": "z must be finite"}, 2)
    return z


def _load_domain(domain: str, nodes: int):
    """Returns ("interval", Model1D) | ("disk", DiskModel) | ("bem", BemBackend)."""
    if domain == "interval":
        return "interval", Model1D()
    if domain == "disk" or domain.startswith("disk:"):
        parts = domain.split(":")
        try:
            radius = float(parts[1]) if len(parts) > 1 else 1.0
            cutoff = int(parts[2]) if len(parts) > 2 else 8
            return "disk", DiskModel(radius=radius, mode_cutoff=cutoff)
        except (ValueError, KreinlabError) as exc:
            _fail({"error": "bad_domain", "value": domain, "detail": str(exc)}, 2)
    if not os.path.exists(domain):
        _fail({"error": "config_not_found", "path": domain}, 2)
    try:
        spec = CurveSpec.from_json(open(domain).read())
    except (json.JSONDecodeError, KeyError, KreinlabError) as exc:
        _fail({"error": "bad_curve_spec", "detail": str(exc)}, 2)
    return "bem", BemBackend(make_grid(spec, nodes))


def _load_extension_spec(path: str) -> ExtensionSpec:
    if not os.path.exists(path):
        _fail({"error": "config_not_found", "path": path}, 2)
    # JSON syntax errors are ValueErrors; OSError covers a missing matrix CSV
    try:
        return ExtensionSpec.from_json(open(path).read())
    except (OSError, KeyError, TypeError, ValueError, KreinlabError) as exc:
        _fail({"error": "bad_extension_spec", "detail": str(exc)}, 2)


@click.group()
def main():
    """Boundary-operator calculus on model domains."""


@main.command("dtn")
@click.option("--domain", required=True, help='"interval", "disk[:R[:K]]", or a curve JSON path')
@click.option("--z", "z_text", default="0,0", show_default=True, help="spectral parameter re,im")
@click.option("--nodes", default=256, show_default=True, type=int)
@click.option("--out", default="dtn.csv", show_default=True)
def cmd_dtn(domain, z_text, nodes, out):
    """Emit the Dirichlet-to-Neumann matrix as CSV plus JSON metadata.

    On Nystrom grids the metadata holds ``condition_single_layer`` and
    ``condition_dtn``, the exact 1-norm condition numbers
    ``||A||_1 ||A^{-1}||_1`` of ``V_z`` and of the map.
    """
    z = _parse_z(z_text)
    kind, backend = _load_domain(domain, nodes)
    try:
        if kind == "interval":
            matrix = interval_dtn(z)
            meta = {"backend": "interval", "n": 2}
        elif kind == "disk":
            matrix = backend.dtn(z)
            meta = {"backend": "disk", "radius": backend.radius, "modes": backend.nboundary}
        else:
            matrix = backend.dtn(z)
            meta = {
                "backend": backend.name,
                "n": backend.grid.n,
                "condition_single_layer": backend.single_layer_condition(z),
                "condition_dtn": inverse_and_condition(matrix)[1],
            }
    except KreinlabError as exc:
        _fail({"error": type(exc).__name__, "detail": str(exc)}, 1)
    meta.update({"z": [z.real, z.imag], "out": out})
    write_complex_matrix_csv(out, matrix, f"dtn matrix at z = {z}")
    with open(out + ".meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
    click.echo(json.dumps({"written": out, "n": len(matrix)}, sort_keys=True))


def _boundary_data(data: str, n: int, t: np.ndarray | None):
    if data == "ones":
        return np.ones(n, dtype=complex)
    if data.startswith("mode:"):
        try:
            k = int(data.split(":")[1])
        except ValueError:
            _fail({"error": "bad_boundary_data", "detail": f"mode index of {data!r} is not an int"}, 2)
        if t is None:
            if not 0 <= k < n:
                _fail({"error": "bad_boundary_data", "detail": f"mode index {k} out of range"}, 2)
            vec = np.zeros(n, dtype=complex)
            vec[k] = 1.0
            return vec
        return np.exp(1j * k * t)
    if os.path.exists(data):
        return read_complex_csv(data).ravel()
    _fail({"error": "config_not_found", "path": data}, 2)


@main.command("solve")
@click.option("--domain", required=True)
@click.option("--z", "z_text", default="-1,0", show_default=True)
@click.option("--bc", type=click.Choice(["dirichlet", "neumann"]), default="dirichlet",
              show_default=True)
@click.option("--data", default="ones", show_default=True,
              help='"ones", "mode:k", or a CSV path')
@click.option("--nodes", default=256, show_default=True, type=int)
@click.option("--out", default="solution.csv", show_default=True)
def cmd_solve(domain, z_text, bc, data, nodes, out):
    """Solve a boundary value problem; emit boundary traces of the solution."""
    from .traces import gamma_D, gamma_N
    from .weyl import solve_dirichlet, solve_neumann

    z = _parse_z(z_text)
    kind, backend = _load_domain(domain, nodes)
    try:
        if kind == "bem":
            vec = _boundary_data(data, backend.grid.n, backend.grid.t)
            u = (solve_dirichlet if bc == "dirichlet" else solve_neumann)(backend, z, vec)
            rows = np.stack([gamma_D(u), gamma_N(u)], axis=1)
        else:
            m = backend.nboundary
            vec = _boundary_data(data, m, None)
            if bc == "dirichlet":
                u = backend.harmonic_extension(z, vec)
            else:
                u = backend.harmonic_extension(z, backend.ntd(z) @ vec)
            rows = np.stack([gamma_D(u), gamma_N(u)], axis=1)
    except KreinlabError as exc:
        _fail({"error": type(exc).__name__, "detail": str(exc)}, 1)
    write_complex_matrix_csv(out, rows, f"columns gamma_D, gamma_N of the {bc} solution at z = {z}")
    click.echo(json.dumps({"written": out, "n": len(rows)}, sort_keys=True))


@main.command("spectrum")
@click.option("--spec", "spec_path", required=True, help="extension JSON path")
@click.option("--backend", "backend_name", type=click.Choice(["interval", "disk"]),
              default="interval", show_default=True)
@click.option("--window", required=True, help="window a,b")
@click.option("--count", default=None, type=int,
              help="keep the first COUNT eigenvalues, counted with multiplicity")
@click.option("--tol", default=1e-8, show_default=True, type=float,
              help="width to which the count is bisected around each eigenvalue")
@click.option("--out", default="eigs.csv", show_default=True)
def cmd_spectrum(spec_path, backend_name, window, count, tol, out):
    """Eigenvalues of an extension in a window by certified counting.

    The eigenvalue count below lambda is bisected on; each eigenvalue is
    listed as often as its multiplicity.  A count that cannot be trusted
    exits 1 with a CountFailed error.
    """
    spec = _load_extension_spec(spec_path)
    try:
        a, b = (float(v) for v in window.split(","))
    except ValueError:
        _fail({"error": "bad_window", "value": window}, 2)
    if not np.isfinite([a, b]).all():
        _fail({"error": "bad_window", "value": window, "detail": "bounds must be finite"}, 2)
    backend = Model1D() if backend_name == "interval" else DiskModel(radius=1.0, mode_cutoff=8)
    try:
        roots = eigenvalues(SpectrumRequest(spec, (a, b), count, tol), backend)
    except KreinlabError as exc:
        _fail({"error": type(exc).__name__, "detail": str(exc)}, 1)
    with open(out, "w") as fh:
        fh.write("# eigenvalues of the realized Laplacian extension\n")
        for lam in roots:
            fh.write(_fmt(lam) + "\n")
    click.echo(json.dumps({"written": out, "count": len(roots)}, sort_keys=True))


@main.command("mfunc-scan")
@click.option("--spec", "spec_path", required=True)
@click.option("--backend", "backend_name", type=click.Choice(["interval", "disk"]),
              default="interval", show_default=True)
@click.option("--path", "path_text", required=True, help='upper-half-plane path "start:step:end"')
@click.option("--out", default="mfunc.csv", show_default=True)
def cmd_mfunc_scan(spec_path, backend_name, path_text, out):
    """Emit eigenvalues of Im M(z) along a path in the upper half plane."""
    spec = _load_extension_spec(spec_path)
    backend = Model1D() if backend_name == "interval" else DiskModel(radius=1.0, mode_cutoff=8)
    try:
        start_s, step_s, end_s = path_text.split(":")
        start = complex(start_s.replace("i", "j"))
        end = complex(end_s.replace("i", "j"))
        step = float(step_s)
    except ValueError:
        _fail({"error": "bad_path", "value": path_text}, 2)
    if not np.isfinite([start, end, step]).all():
        _fail({"error": "bad_path", "value": path_text, "detail": "path must be finite"}, 2)
    if not step > 0:
        _fail({"error": "bad_path", "value": path_text, "detail": "step must be positive"}, 2)
    try:
        ext = make_extension(spec, backend)
        length = abs(end - start)
        npts = max(2, int(round(length / step)) + 1)
        zs = [start + (end - start) * i / (npts - 1) for i in range(npts)]
        with open(out, "w") as fh:
            fh.write("# columns: Re z, Im z, eigenvalues of Im M(z) ascending\n")
            for z in zs:
                eigs = imaginary_part_eigenvalues(ext, z)
                fh.write(",".join([_fmt(z.real), _fmt(z.imag)] + [_fmt(v) for v in eigs]) + "\n")
    except KreinlabError as exc:
        _fail({"error": type(exc).__name__, "detail": str(exc)}, 1)
    click.echo(json.dumps({"written": out, "points": npts}, sort_keys=True))


@main.command("verify")
@click.option("--suite", type=click.Choice(["weyl", "traces", "krein", "abstract", "all"]),
              default="all", show_default=True)
@click.option("--backend", "backend_name", type=click.Choice(["interval", "disk", "kite"]),
              default="interval", show_default=True)
@click.option("--nodes", default=0, type=int, help="override the backend node count")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--tol", default=1.0, show_default=True, type=float,
              help="tolerance scale applied to every item")
@click.option("--out", default="report.json", show_default=True)
@click.option("--inject-sign-flip", "flip", default=None, hidden=True,
              help="testing hook: evaluate the named identity with the wrong sign")
def cmd_verify(suite, backend_name, nodes, seed, tol, out, flip):
    """Run an identity suite; exit 0 iff every residual is within tolerance."""
    try:
        # one witness pass feeds both the krein-suite sign items and the ledger
        witnesses = sign_witnesses()
        items = build_suite(suite, backend_name, nodes=nodes, seed=seed, tol=tol, flip=flip,
                            witnesses=witnesses)
        ledger = resolve_sign_conventions(witnesses=witnesses)
    except KreinlabError as exc:
        _fail({"error": type(exc).__name__, "detail": str(exc)}, 1)
    passed = all(it["pass"] for it in items)
    report = {
        "suite": suite,
        "backend": backend_name,
        "seed": seed,
        "nodes": nodes,
        "tolerance_scale": tol,
        "results": items,
        "sign_ledger": ledger.to_list(),
        "pass": passed,
    }
    with open(out, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    failed = [it["identity"] for it in items if not it["pass"]]
    click.echo(json.dumps({"pass": passed, "failed": failed, "written": out}, sort_keys=True))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
