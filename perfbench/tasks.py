"""Seeded task lists for the two benchmark workloads.

``nystrom`` is the Nystrom lane: ``dtn`` and ``solve`` requests on smooth
curves, where the time goes to layer-potential assembly, dense LAPACK and
CSV output.  ``model`` is the model-backend lane: ``verify`` requests, then
``spectrum`` and ``mfunc-scan`` requests on the interval and the disk, where
the time goes to closed-form Green kernels, extension resolvents, the sign
witnesses and thousands of tiny boundary-map evaluations.  The verify and
spectral requests share one workload, not one each: measured alone, the
spectral requests, whose tiny calls are the code most sensitive to how the
speed of a shared 2-vCPU host drifts from minute to minute, spread from run
to run by as much as the 25% a metric may move.

A task is one kreinlab CLI request: its argument list, the input files it
reads, and the parameters its oracle needs.  Everything is derived from the
workload seed; kreinlab only ever sees the generated arguments and files.
The composition of a pass (request kinds, node counts, window widths, path
lengths) is the same for every seed, so that seeds vary the inputs but not
the amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import checks

WORKLOADS = ("nystrom", "model")

CURVE_KINDS = ("kite", "star", "ellipse", "circle")

#: verify report sizes at the time the benchmark was defined; a change in the
#: number of suite items is reported as a failed task, not silently accepted.
#: Every request also runs the sign witnesses on the interval model backend.
#: The interval backend's own ``--suite all`` (about 27 s, most of it
#: ``ordering_check``) is left out: a run could not repeat it, and a run can
#: repeat only a few requests, since each costs at least the 4 s of the sign
#: witnesses
VERIFY_ITEMS = {"disk": 29, "kite": 13}

#: eigenvalues closer than this to a window edge make "inside" ambiguous
EDGE_MARGIN = 0.05


@dataclass(frozen=True)
class Task:
    """One CLI request.

    ``args`` holds the CLI arguments; the tokens ``@in/<name>`` and
    ``@out/<name>`` are replaced by paths in the run's input and output
    directories.  ``inputs`` maps input file names to their text.
    """

    kind: str
    label: str
    args: tuple
    check: dict = field(default_factory=dict)
    inputs: tuple = ()


def _fmt(x: float) -> str:
    return repr(float(x))


def _z_text(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


def _draw_z(rng) -> complex:
    """Spectral parameter off both spectra: negative real, or Im z >= 0.3."""
    if rng.random() < 0.5:
        return complex(-rng.uniform(0.25, 4.0), 0.0)
    return complex(rng.uniform(-2.0, 6.0), rng.uniform(0.3, 1.5))


def _draw_curve(rng, kind: str) -> dict:
    if kind == "kite":
        return {"kind": "kite", "params": {}}
    if kind == "star":
        return {"kind": "star", "params": {"amplitude": round(rng.uniform(0.1, 0.25), 4),
                                            "wavenumber": int(rng.integers(3, 6))}}
    if kind == "ellipse":
        return {"kind": "ellipse", "params": {"a": round(rng.uniform(1.0, 1.5), 4),
                                               "b": round(rng.uniform(0.6, 1.0), 4)}}
    return {"kind": "circle", "params": {"radius": round(rng.uniform(0.6, 1.4), 4)}}


def _direction(rng) -> list:
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return [float(np.cos(phi)), float(np.sin(phi))]


def _nystrom_request(rng, kind, curve, nodes, idx) -> Task:
    z = _draw_z(rng)
    check = {"curve": curve, "nodes": nodes, "z": [z.real, z.imag], "direction": _direction(rng)}
    name = f"{kind}{idx}"
    curve_file = (f"{curve['kind']}.json", json.dumps(curve, sort_keys=True))
    if kind == "dtn":
        args = ("dtn", "--domain", f"@in/{curve_file[0]}", "--z", _z_text(z),
                "--nodes", str(nodes), "--out", f"@out/{name}.csv")
        return Task("dtn", f"dtn {curve['kind']} n={nodes}", args, check, (curve_file,))
    bc = "dirichlet" if kind == "solve-d" else "neumann"
    u, dnu = checks.plane_wave(curve, nodes, z, check["direction"])
    data_file = (f"{name}-data.csv", checks.format_column(u if bc == "dirichlet" else dnu))
    args = ("solve", "--domain", f"@in/{curve_file[0]}", "--z", _z_text(z), "--bc", bc,
            "--data", f"@in/{data_file[0]}", "--nodes", str(nodes), "--out", f"@out/{name}.csv")
    return Task("solve", f"solve {bc} {curve['kind']} n={nodes}", args, check,
                (curve_file, data_file))


def nystrom(seed: int) -> list:
    """dtn and solve requests on four curves at n = 256, 512 and 1024."""
    rng = np.random.default_rng([seed, 0])
    curves = {kind: _draw_curve(rng, kind) for kind in CURVE_KINDS}
    plan = [("dtn", "kite", 1024)]
    others = [str(k) for k in rng.permutation(CURVE_KINDS[1:])]
    plan += [(kind, others[i], 512) for i, kind in enumerate(("dtn", "solve-d", "solve-n"))]
    # four solves below and four larger requests above five n = 256 dtn
    # requests make the median task the middle one of those five
    plan += [("dtn", c, 256) for c in CURVE_KINDS + (others[0],)]
    plan += [(kind, c, 256) for c in ("kite", others[2]) for kind in ("solve-d", "solve-n")]
    return [_nystrom_request(rng, kind, curves[curve_kind], nodes, idx)
            for idx, (kind, curve_kind, nodes) in enumerate(plan)]


def verify(seed: int) -> list:
    """``verify --suite all`` on the disk and the kite, with seeded suite seeds."""
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for backend, items in VERIFY_ITEMS.items():
        vseed = int(rng.integers(0, 2**31 - 1))
        args = ("verify", "--suite", "all", "--backend", backend, "--seed", str(vseed),
                "--out", f"@out/report-{backend}.json")
        tasks.append(Task("verify", f"verify {backend}", args,
                          {"backend": backend, "items": items}))
    return tasks


def _window(rng, eigs, lo, hi, width, need_double=False) -> tuple:
    """Window [a, a + width] with a in [lo, hi] and no eigenvalue near an edge."""
    values = np.array([lam for lam, _ in eigs])
    for _ in range(10_000):
        a = round(float(rng.uniform(lo, hi)), 3)
        b = a + width
        if values.size and np.min(np.minimum(np.abs(values - a), np.abs(values - b))) < EDGE_MARGIN:
            continue
        inside = [(lam, m) for lam, m in eigs if a < lam < b]
        if not inside or (need_double and not any(m > 1 for _, m in inside)):
            continue
        return a, b
    raise RuntimeError("no admissible spectral window")


def _spec_json(special: str, z0: float, theta: float | None = None) -> str:
    L = {"special": special}
    if theta is not None:
        L["theta"] = theta
    return json.dumps({"reference": "dirichlet", "z0": z0, "L": L, "X": "full"}, sort_keys=True)


def _path_text(rng, length: float, npts: int) -> tuple:
    x0 = round(float(rng.uniform(-2.0, 2.0)), 3)
    y = round(float(rng.uniform(0.3, 1.0)), 3)
    start, end = complex(x0, y), complex(x0 + length, y)
    step = length / (npts - 1)
    text = f"{_fmt(start.real)}{start.imag:+.3f}i:{_fmt(step)}:{_fmt(end.real)}{end.imag:+.3f}i"
    return text, [start.real, start.imag], [end.real, end.imag]


#: window widths, fixed so that every seed scans the same number of samples
#: (the scan takes 400 per unit of width)
WIDTHS = {("interval", "dirichlet"): 20.0, ("interval", "krein"): 30.0,
          ("interval", "robin"): 50.0, ("interval", "neumann"): 60.0,
          ("disk", "dirichlet"): 6.0, ("disk", "krein"): 4.0}
KREIN_SCANS = 3
PATH_LENGTH = 40.0
PATH_POINTS = 201


def spectral(seed: int) -> list:
    """Spectra on the interval and the disk, and Im M(z) along paths."""
    rng = np.random.default_rng([seed, 2])
    z0_krein = [round(float(rng.uniform(-3.0, -0.5)), 3) for _ in range(KREIN_SCANS)]
    theta = round(float(rng.uniform(0.5, 3.0)), 3)
    z0_disk = round(float(rng.uniform(-3.0, -0.5)), 3)
    top = 150.0
    cases = [
        ("interval", "dirichlet", -1.0, None, checks.interval_dirichlet(top)),
        ("interval", "neumann", -1.0, None, checks.interval_neumann(top)),
        ("interval", "robin", -1.0, theta, checks.interval_robin(theta, top)),
        ("disk", "dirichlet", -1.0, None, checks.disk_dirichlet(70.0)),
        ("disk", "krein", z0_disk, None, checks.disk_krein(z0_disk, 70.0)),
    ]
    cases += [("interval", "krein", z0, None, checks.interval_krein(z0, top)) for z0 in z0_krein]
    tasks = []
    for idx, (backend, special, z0, th, eigs) in enumerate(cases):
        width = WIDTHS[backend, special]
        if backend == "interval":
            a, b = _window(rng, eigs, 1.0, 60.0, width)
        else:  # every disk window holds a double eigenvalue (modes +-k)
            a, b = _window(rng, eigs, 1.0, 50.0, width, need_double=True)
        spec = f"spec{idx}.json"
        expected = [[lam, m] for lam, m in eigs if a < lam < b]
        args = ("spectrum", "--spec", f"@in/{spec}", "--backend", backend,
                "--window", f"{_fmt(a)},{_fmt(b)}", "--out", f"@out/eigs{idx}.csv")
        tasks.append(Task("spectrum", f"spectrum {backend} {special} [{a:g},{b:g}]", args,
                          {"expected": expected}, ((spec, _spec_json(special, z0, th)),)))
    for idx, (backend, special, z0, th) in enumerate(
            [("interval", "krein", z0_krein[0], None), ("interval", "robin", -1.0, theta),
             ("disk", "krein", z0_disk, None)], start=len(cases)):
        path, start, end = _path_text(rng, PATH_LENGTH, PATH_POINTS)
        spec = f"spec{idx}.json"
        args = ("mfunc-scan", "--spec", f"@in/{spec}", "--backend", backend, "--path", path,
                "--out", f"@out/mfunc{idx}.csv")
        check = {"backend": backend, "special": special, "z0": z0, "theta": th,
                 "start": start, "end": end, "points": PATH_POINTS}
        tasks.append(Task("mfunc-scan", f"mfunc-scan {backend} {special}", args, check,
                          ((spec, _spec_json(special, z0, th)),)))
    return tasks


def generate(workload: str, seed: int) -> list:
    if workload == "nystrom":
        return nystrom(seed)
    if workload == "model":
        return verify(seed) + spectral(seed)
    raise ValueError(f"unknown workload {workload!r}")
