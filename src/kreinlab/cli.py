"""Command-line front end: dtn, solve, spectrum, verify, mfunc-scan.

CSV conventions: complex cells are quoted "re,im" pairs with 17 significant
digits, as ``%.17g`` prints them (see :mod:`kreinlab.csvtext`); the first
line is a ``#``-prefixed header describing the layout.
Reports are emitted as JSON with sorted keys, so identical (config, seed)
pairs produce byte-identical files on hosts with the same CPU affinity
(OpenBLAS sizes its thread pool by it, and the last bits of an inverse follow).
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from .csvtext import read_complex_csv, write_complex_matrix_csv
from .errors import BadNodeCount, KreinlabError, SpecInvalid
from .extensions import ExtensionSpec, make_extension
from .geometry import CurveSpec, check_node_count, make_grid
from .kreinformulas import imaginary_part_eigenvalues, resolve_sign_conventions, sign_witnesses
from .oracles import DiskModel, Model1D
from .spectral import SpectrumRequest, eigenvalues
from .traces import gamma_D, gamma_N
from .verifysuite import BACKENDS, SUITES, build_suite
from .weyl import BemBackend, solve_neumann


#: node count of a curve grid when ``dtn`` or ``solve`` is given no ``--nodes``
CURVE_NODES = 256

#: most points an ``mfunc-scan`` path may have: each costs one Weyl-function evaluation
MAX_SCAN_POINTS = 100_000


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def _load_domain(domain: str, nodes: int | None):
    """Returns ("interval", Model1D) | ("disk", DiskModel) | ("bem", BemBackend).

    ``nodes`` is the node count of a curve grid, ``CURVE_NODES`` when None; the
    model domains take none.
    """
    if nodes is not None and (domain == "interval" or domain.split(":")[0] == "disk"):
        _fail({"error": "bad_node_count",
               "detail": f"the model domain {domain!r} takes no node count, got {nodes}"}, 2)
    if domain == "interval":
        return "interval", Model1D()
    if domain.split(":")[0] == "disk":
        fields = domain.split(":")[1:]
        try:  # disk[:radius[:mode cutoff]]
            if len(fields) > 2:
                raise ValueError("a disk takes at most a radius and a mode cutoff")
            return "disk", DiskModel(*(cast(part) for cast, part in zip((float, int), fields)))
        except (ValueError, KreinlabError) as exc:
            _fail({"error": "bad_domain", "value": domain, "detail": str(exc)}, 2)
    if not os.path.exists(domain):
        _fail({"error": "config_not_found", "path": domain}, 2)
    try:
        spec = CurveSpec.from_json(open(domain).read())
    except (json.JSONDecodeError, KeyError, KreinlabError) as exc:
        _fail({"error": "bad_curve_spec", "detail": str(exc)}, 2)
    try:
        return "bem", BemBackend(make_grid(spec, CURVE_NODES if nodes is None else nodes))
    except BadNodeCount as exc:
        _fail({"error": "bad_node_count", "detail": str(exc)}, 2)


def _load_extension_spec(path: str) -> ExtensionSpec:
    if not os.path.exists(path):
        _fail({"error": "config_not_found", "path": path}, 2)
    # JSON syntax errors are ValueErrors; OSError covers a missing matrix CSV, and
    # OverflowError a JSON integer beyond the float range
    try:
        return ExtensionSpec.from_json(open(path).read())
    except (OSError, OverflowError, KeyError, TypeError, ValueError, KreinlabError) as exc:
        _fail({"error": "bad_extension_spec", "detail": str(exc)}, 2)


class _Commands(click.Group):
    """The command group.  Click's own argument errors (a bad type, an unknown
    option or command, a value outside a choice) exit 2 with one JSON line, as
    :func:`_fail` does; a bare ``kreinlab`` still prints the help."""

    def make_context(self, info_name, args, parent=None, **extra):
        try:
            return super().make_context(info_name, args, parent, **extra)
        except click.exceptions.NoArgsIsHelpError:
            raise
        except click.UsageError as exc:
            _fail({"error": "bad_argument", "detail": exc.format_message()}, 2)

    def invoke(self, ctx):
        # the subcommand's arguments are parsed here; a typed error of the
        # computation exits 1 with its class name
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail({"error": "bad_argument", "detail": exc.format_message()}, 2)
        except KreinlabError as exc:
            _fail({"error": type(exc).__name__, "detail": str(exc)}, 1)


@click.group(cls=_Commands)
def main():
    """Boundary-operator calculus on model domains."""


@main.command("dtn")
@click.option("--domain", required=True, help='"interval", "disk[:R[:K]]", or a curve JSON path')
@click.option("--z", "z_text", default="0,0", show_default=True, help="spectral parameter re,im")
@click.option("--nodes", type=int, help=f"node count of a curve grid [default: {CURVE_NODES}]; "
              "the model domains take none")
@click.option("--out", default="dtn.csv", show_default=True)
def cmd_dtn(domain, z_text, nodes, out):
    """Emit the Dirichlet-to-Neumann matrix as CSV plus JSON metadata.

    On Nystrom grids the metadata holds ``condition_single_layer`` and
    ``condition_dtn``, the exact 1-norm condition numbers
    ``||A||_1 ||A^{-1}||_1`` of ``V_z`` and of the map, formed from their mirror
    blocks before the full map is unfolded.
    """
    z = _parse_z(z_text)
    kind, backend = _load_domain(domain, nodes)
    if kind == "interval":
        meta = {"backend": "interval", "n": 2}
    elif kind == "disk":
        meta = {"backend": "disk", "radius": backend.radius, "modes": backend.nboundary}
    else:
        condition_dtn = backend.dtn_condition(z)  # forms the map, and V_z's condition on the way
        meta = {
            "backend": backend.name,
            "n": backend.grid.n,
            "condition_single_layer": backend.single_layer_condition(z),
            "condition_dtn": condition_dtn,
        }
    # a curve's map is taken as its blocks, and unfolded once the backend, and with it
    # the cached V_z and T_z, is freed
    matrix = backend._dtn(z) if kind == "bem" else backend.dtn(z)
    del backend
    if kind == "bem":
        matrix = matrix.full()
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
        # a model backend has modes 0..n-1; on n curve nodes e^{ikt} with |k| >= n/2
        # equals a lower mode
        if not (0 <= k < n if t is None else 2 * abs(k) < n):
            _fail({"error": "bad_boundary_data", "detail": f"mode index {k} out of range"}, 2)
        if t is not None:
            return np.exp(1j * k * t)
        vec = np.zeros(n, dtype=complex)
        vec[k] = 1.0
        return vec
    if not os.path.exists(data):
        _fail({"error": "config_not_found", "path": data}, 2)
    try:
        vec = read_complex_csv(data).ravel()
        if len(vec) != n:
            raise ValueError(f"{len(vec)} values for a boundary of {n}")
        bad = np.flatnonzero(~np.isfinite(vec))
        if len(bad):
            raise ValueError(f"value at index {bad[0]} is not finite")
    except ValueError as exc:
        _fail({"error": "bad_boundary_data", "detail": f"{data}: {exc}"}, 2)
    return vec


@main.command("solve")
@click.option("--domain", required=True)
@click.option("--z", "z_text", default="-1,0", show_default=True)
@click.option("--bc", type=click.Choice(["dirichlet", "neumann"]), default="dirichlet",
              show_default=True)
@click.option("--data", default="ones", show_default=True,
              help='"ones", "mode:k", or a CSV path')
@click.option("--nodes", type=int, help=f"node count of a curve grid [default: {CURVE_NODES}]; "
              "the model domains take none")
@click.option("--out", default="solution.csv", show_default=True)
def cmd_solve(domain, z_text, bc, data, nodes, out):
    """Solve a boundary value problem; emit boundary traces of the solution."""
    z = _parse_z(z_text)
    kind, backend = _load_domain(domain, nodes)
    vec = _boundary_data(data, backend.nboundary, backend.grid.t if kind == "bem" else None)
    if bc == "dirichlet":
        u = backend.harmonic_extension(z, vec)
    elif kind == "bem":
        u = solve_neumann(backend, z, vec)
    else:
        u = backend.harmonic_extension(z, backend.ntd(z) @ vec)
    rows = np.stack([gamma_D(u), gamma_N(u)], axis=1)
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
    if not np.isfinite(tol):
        _fail({"error": "bad_tol", "detail": f"tol must be finite, got {tol}"}, 2)
    if count is not None and count < 0:
        _fail({"error": "bad_count", "detail": f"count must be nonnegative, got {count}"}, 2)
    backend = Model1D() if backend_name == "interval" else DiskModel()
    try:
        roots = eigenvalues(SpectrumRequest(spec, (a, b), count, tol), backend)
    except SpecInvalid as exc:  # raised only by the user's spec, e.g. a matrix of the wrong size
        _fail({"error": "bad_extension_spec", "detail": str(exc)}, 2)
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
    backend = Model1D() if backend_name == "interval" else DiskModel()
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
    if min(start.imag, end.imag) <= 0:
        _fail({"error": "bad_path", "value": path_text, "detail": "Im z must be positive"}, 2)
    steps = abs(end - start) / step  # inf where the step underflows it
    if not np.round(steps) + 1 <= MAX_SCAN_POINTS:  # npts below; an infinite count fails too
        _fail({"error": "bad_path", "value": path_text,
               "detail": f"too many points (at most {MAX_SCAN_POINTS})"}, 2)
    npts = max(2, int(round(steps)) + 1)
    try:
        ext = make_extension(spec, backend)
        if ext.projector is not None:  # checked before the output file is opened
            raise SpecInvalid("mfunc-scan needs the full subspace (X = \"full\"): the Weyl "
                              "function is the inverse of the bracket on the whole boundary")
        with open(out, "w") as fh:
            fh.write("# columns: Re z, Im z, eigenvalues of Im M(z) ascending\n")
            for i in range(npts):
                z = start + (end - start) * i / (npts - 1)
                eigs = imaginary_part_eigenvalues(ext, z)
                fh.write(",".join([_fmt(z.real), _fmt(z.imag)] + [_fmt(v) for v in eigs]) + "\n")
    except SpecInvalid as exc:  # raised only by the user's spec, e.g. a matrix of the wrong size
        _fail({"error": "bad_extension_spec", "detail": str(exc)}, 2)
    click.echo(json.dumps({"written": out, "points": npts}, sort_keys=True))


@main.command("verify")
@click.option("--suite", type=click.Choice(SUITES), default="all", show_default=True)
@click.option("--backend", "backend_name", type=click.Choice(BACKENDS), default="interval",
              show_default=True)
@click.option("--nodes", default=0, type=int,
              help="node count of the kite or disk grid; 0 keeps the default")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default="report.json", show_default=True)
def cmd_verify(suite, backend_name, nodes, seed, out):
    """Run an identity suite; exit 0 iff every residual is within tolerance."""
    if seed < 0:
        _fail({"error": "bad_seed", "detail": f"seed must be nonnegative, got {seed}"}, 2)
    if nodes:  # 0 keeps the backend's default
        try:
            if backend_name == "interval":
                raise BadNodeCount(f"the interval backend takes no node count, got {nodes}")
            check_node_count(nodes)
        except BadNodeCount as exc:
            _fail({"error": "bad_node_count", "detail": str(exc)}, 2)
    # one witness pass feeds both the krein-suite sign items and the ledger
    witnesses = sign_witnesses()
    items = build_suite(suite, backend_name, witnesses, nodes=nodes, seed=seed)
    ledger = resolve_sign_conventions(witnesses)
    passed = all(it["pass"] for it in items)
    report = {
        "suite": suite,
        "backend": backend_name,
        "seed": seed,
        "nodes": nodes,
        "results": items,
        "sign_ledger": ledger,
        "pass": passed,
    }
    with open(out, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    failed = [it["identity"] for it in items if not it["pass"]]
    click.echo(json.dumps({"pass": passed, "failed": failed, "written": out}, sort_keys=True))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
