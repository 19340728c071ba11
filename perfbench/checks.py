"""Closed-form oracles for the benchmark's outputs.

Nothing here imports kreinlab, so an oracle never shares code with the path
it checks.  Curves and grids follow the documented input conventions
(counterclockwise parametrization over [0, 2 pi), n equispaced parameter
nodes, outward normal (y', -x') / |x'|, Dirichlet-to-Neumann map f -> -du/dn).
Spectra come from textbook equations solved with scipy root finders, and
are compared with multiplicity.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import optimize, special

#: the fixed kite of the curve catalogue: x = cos t + B cos 2t - B, y = H sin t
KITE_BEND = 0.65
KITE_HEIGHT = 1.5

#: disk backend of the spectrum / mfunc-scan commands: unit radius, modes |k| <= 8
DISK_MODES = 8

NYSTROM_TOL = 1e-8
SPECTRUM_TOL = 1e-7
MFUNC_TOL = 1e-8


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


# ---------------------------------------------------------------------------
# Nystrom lane: curves and plane waves
# ---------------------------------------------------------------------------

def curve_frame(curve: dict, n: int):
    """Nodes and outward unit normals of an n-node grid on a catalogue curve."""
    t = 2.0 * np.pi * np.arange(n) / n
    kind, p = curve["kind"], curve.get("params", {})
    c, s = np.cos(t), np.sin(t)
    if kind == "circle":
        r = p["radius"]
        x, y, dx, dy = r * c, r * s, -r * s, r * c
    elif kind == "ellipse":
        x, y, dx, dy = p["a"] * c, p["b"] * s, -p["a"] * s, p["b"] * c
    elif kind == "kite":
        x = c + KITE_BEND * np.cos(2 * t) - KITE_BEND
        y = KITE_HEIGHT * s
        dx = -s - 2 * KITE_BEND * np.sin(2 * t)
        dy = KITE_HEIGHT * c
    elif kind == "star":
        amp, w = p["amplitude"], p["wavenumber"]
        rho, drho = 1.0 + amp * np.cos(w * t), -amp * w * np.sin(w * t)
        x, y = rho * c, rho * s
        dx, dy = drho * c - rho * s, drho * s + rho * c
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    speed = np.hypot(dx, dy)
    return np.stack([x, y], axis=1), np.stack([dy, -dx], axis=1) / speed[:, None]


def sqrt_upper(z: complex) -> complex:
    w = np.sqrt(complex(z))
    return -w if w.imag < 0 else w


def plane_wave(curve: dict, n: int, z: complex, direction) -> tuple:
    """Boundary values and outward normal derivative of a solution of
    (-Laplace - z) u = 0: exp(i sqrt(z) d.x), or u = d.x at z = 0."""
    pts, normals = curve_frame(curve, n)
    d = np.asarray(direction, dtype=float)
    if z == 0:
        return (pts @ d).astype(complex), (normals @ d).astype(complex)
    k = sqrt_upper(z)
    u = np.exp(1j * k * (pts @ d))
    return u, 1j * k * (normals @ d) * u


def format_column(values) -> str:
    """One complex value per line as a quoted "re,im" cell."""
    lines = ["# boundary data, one node per line"]
    lines += [f'"{v.real:.17g},{v.imag:.17g}"' for v in np.asarray(values, dtype=complex)]
    return "\n".join(lines) + "\n"


def read_cells(path: str) -> np.ndarray:
    """Matrix of quoted "re,im" cells, one row per line; '#' lines skipped."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            vals = np.array(line.replace('"', "").split(","), dtype=float)
            rows.append(vals[0::2] + 1j * vals[1::2])
    return np.array(rows)


def _relative(residual, scale) -> float:
    return float(np.max(np.abs(residual)) / max(float(np.max(np.abs(scale))), 1e-300))


def dtn_residual(matrix: np.ndarray, check: dict) -> float:
    """max |dtn u + du/dn| / max |du/dn| for the task's plane wave."""
    u, dnu = plane_wave(check["curve"], check["nodes"], complex(*check["z"]), check["direction"])
    return _relative(matrix @ u + dnu, dnu)


def check_dtn(out_csv: str, check: dict) -> float:
    n = check["nodes"]
    matrix = read_cells(out_csv)
    if matrix.shape != (n, n):
        raise CheckFailed(f"dtn matrix has shape {matrix.shape}, expected {(n, n)}")
    with open(out_csv + ".meta.json") as fh:
        meta = json.load(fh)
    if meta.get("n") != n:
        raise CheckFailed(f"metadata reports n = {meta.get('n')}, expected {n}")
    res = dtn_residual(matrix, check)
    if not res <= NYSTROM_TOL:
        raise CheckFailed(f"plane-wave dtn residual {res:.3e} > {NYSTROM_TOL:g}")
    return res


def check_solve(out_csv: str, check: dict) -> float:
    n = check["nodes"]
    traces = read_cells(out_csv)
    if traces.shape != (n, 2):
        raise CheckFailed(f"solution traces have shape {traces.shape}, expected {(n, 2)}")
    u, dnu = plane_wave(check["curve"], n, complex(*check["z"]), check["direction"])
    res = max(_relative(traces[:, 0] - u, u), _relative(traces[:, 1] - dnu, dnu))
    if not res <= NYSTROM_TOL:
        raise CheckFailed(f"plane-wave trace residual {res:.3e} > {NYSTROM_TOL:g}")
    return res


# ---------------------------------------------------------------------------
# spectra, with multiplicity
# ---------------------------------------------------------------------------

def _branch_roots(fun, poles, lo: float, hi: float, samples: int = 400) -> list:
    """Roots of fun on (lo, hi), split at the given poles, by sign change + brentq."""
    cuts = [lo] + sorted(p for p in poles if lo < p < hi) + [hi]
    roots = []
    for a, b in zip(cuts, cuts[1:]):
        pad = 1e-9 * max(1.0, b)
        xs = np.linspace(a + pad, b - pad, samples)
        fs = np.array([fun(x) for x in xs])
        for i in np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]:
            roots.append(optimize.brentq(fun, xs[i], xs[i + 1], xtol=1e-14, rtol=1e-15))
    return roots


def _with_multiplicity(values, mult: int = 1) -> list:
    return [[float(v), mult] for v in values]


def _merge(eigs: list) -> list:
    """Sort (value, multiplicity) pairs, adding multiplicities of equal values."""
    out = []
    for lam, m in sorted(eigs):
        if out and abs(lam - out[-1][0]) <= 1e-9 * max(1.0, lam):
            out[-1][1] += m
        else:
            out.append([lam, m])
    return out


def interval_dirichlet(top: float) -> list:
    k = np.arange(1, int(np.sqrt(top) / np.pi) + 2)
    return _with_multiplicity((k * np.pi) ** 2)


def interval_neumann(top: float) -> list:
    k = np.arange(0, int(np.sqrt(top) / np.pi) + 2)
    return _with_multiplicity((k * np.pi) ** 2)


def interval_mode_values(lam) -> tuple:
    """Eigenvalues of the interval Dirichlet-to-Neumann map at lam on the
    even (1, 1) and odd (1, -1) boundary vectors: k tan(k/2), -k cot(k/2)."""
    k = sqrt_upper(lam)
    if k == 0:
        return 0.0, -2.0
    return k * np.tan(k / 2), -k / np.tan(k / 2)


def interval_krein(z0: float, top: float) -> list:
    """Roots of m(lam) = m(z0) for the even and odd modes, lam in (0, top)."""
    targets = [float(np.real(v)) for v in interval_mode_values(z0)]
    kmax = int(np.sqrt(top) / np.pi) + 2
    even_poles = [((2 * j + 1) * np.pi) ** 2 for j in range(kmax)]
    odd_poles = [((2 * j) * np.pi) ** 2 for j in range(1, kmax)]
    roots = []
    for mode, poles in ((0, even_poles), (1, odd_poles)):
        fun = lambda lam, mode=mode: float(np.real(interval_mode_values(lam)[mode])) - targets[mode]
        roots += _branch_roots(fun, poles, 1e-6, top)
    return _merge(_with_multiplicity(roots))


def interval_robin(theta: float, top: float) -> list:
    """Robin u' = theta u at 0, -u' = theta u at 1: roots of
    (theta^2 - k^2) sin k + 2 theta k cos k with lam = k^2."""
    fun = lambda k: (theta**2 - k**2) * np.sin(k) + 2 * theta * k * np.cos(k)
    return _with_multiplicity(np.array(_branch_roots(fun, [], 1e-6, np.sqrt(top), 4000)) ** 2)


def disk_dirichlet(top: float) -> list:
    eigs = []
    for k in range(DISK_MODES + 1):
        zeros = special.jn_zeros(k, 20)
        eigs += _with_multiplicity(zeros[zeros**2 < top] ** 2, 1 if k == 0 else 2)
    return _merge(eigs)


def disk_mode_value(k: int, lam) -> complex:
    """Mode-k Dirichlet-to-Neumann value on the unit disk: -kappa J'_k / J_k."""
    kap = sqrt_upper(lam)
    if kap == 0:
        return complex(-k)
    return complex(-kap * special.jvp(k, kap) / special.jv(k, kap))


def disk_krein(z0: float, top: float) -> list:
    """Roots of m_k(lam) = m_k(z0), |k| <= 8; modes +-k give double eigenvalues."""
    eigs = []
    for k in range(DISK_MODES + 1):
        target = disk_mode_value(k, z0).real
        poles = list(special.jn_zeros(k, 20) ** 2)
        fun = lambda lam, k=k, target=target: disk_mode_value(k, lam).real - target
        eigs += _with_multiplicity(_branch_roots(fun, poles, 1e-6, top), 1 if k == 0 else 2)
    return _merge(eigs)


def read_eigenvalues(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip() and not line.startswith("#")])


def compare_spectrum(found, expected: list) -> tuple:
    """Returns (missing_with_multiplicity, problems, largest relative error).

    ``problems`` lists disagreements in the distinct values: spurious or
    missed eigenvalues.  ``missing_with_multiplicity`` counts eigenvalues
    found with a smaller multiplicity than the oracle's.
    """
    found = sorted(float(v) for v in found)
    problems, short, worst = [], 0, 0.0
    used = [False] * len(found)
    for lam, mult in expected:
        tol = SPECTRUM_TOL * max(1.0, lam)
        hits = [i for i, v in enumerate(found) if abs(v - lam) <= tol and not used[i]]
        if not hits:
            problems.append(f"missed eigenvalue {lam:.10g} (multiplicity {mult})")
            continue
        for i in hits[:mult]:
            used[i] = True
            worst = max(worst, abs(found[i] - lam) / max(1.0, lam))
        if len(hits) > mult:
            problems.append(f"eigenvalue {lam:.10g} reported {len(hits)} times, multiplicity {mult}")
        short += max(0, mult - len(hits))
    problems += [f"spurious eigenvalue {v:.10g}" for v, u in zip(found, used) if not u]
    return short, problems, worst


# ---------------------------------------------------------------------------
# Weyl function along a path
# ---------------------------------------------------------------------------

def mode_values(backend: str, lam) -> np.ndarray:
    """All mode values of the Dirichlet-to-Neumann map, with multiplicity."""
    if backend == "interval":
        return np.array(interval_mode_values(lam), dtype=complex)
    vals = [disk_mode_value(abs(k), lam) for k in range(-DISK_MODES, DISK_MODES + 1)]
    return np.array(vals, dtype=complex)


def weyl_im_eigenvalues(check: dict, z: complex) -> np.ndarray:
    """Eigenvalues of Im M(z), M(z) = [L - dtn(z + z0) + dtn(z0)]^{-1}, per mode.

    Krein: L = 0.  Robin: L = -dtn(z0) + theta.
    """
    backend, z0 = check["backend"], check["z0"]
    at_w = mode_values(backend, z + z0)
    if check["special"] == "krein":
        bracket = mode_values(backend, z0) - at_w
    else:
        bracket = check["theta"] - at_w
    return np.sort((1.0 / bracket).imag)


def check_mfunc(out_csv: str, check: dict) -> float:
    rows = []
    with open(out_csv) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                rows.append(np.array(line.split(","), dtype=float))
    if len(rows) != check["points"]:
        raise CheckFailed(f"{len(rows)} path points, expected {check['points']}")
    start, end = complex(*check["start"]), complex(*check["end"])
    first, last = complex(*rows[0][:2]), complex(*rows[-1][:2])
    if abs(first - start) > 1e-9 or abs(last - end) > 1e-9:
        raise CheckFailed(f"path runs {first} .. {last}, expected {start} .. {end}")
    worst = 0.0
    for row in rows:
        expected = weyl_im_eigenvalues(check, complex(row[0], row[1]))
        if len(row) - 2 != len(expected):
            raise CheckFailed(f"{len(row) - 2} eigenvalues per point, expected {len(expected)}")
        err = float(np.max(np.abs(row[2:] - expected)) / max(1.0, float(np.max(np.abs(expected)))))
        worst = max(worst, err)
    if not worst <= MFUNC_TOL:
        raise CheckFailed(f"Im M(z) eigenvalues off by {worst:.3e} > {MFUNC_TOL:g}")
    return worst


# ---------------------------------------------------------------------------
# verify reports
# ---------------------------------------------------------------------------

def check_verify(report_path: str, check: dict) -> float:
    """The report passes item by item and has the expected number of items;
    returns the largest residual / tolerance ratio."""
    with open(report_path) as fh:
        report = json.load(fh)
    items = report.get("results", [])
    if report.get("backend") != check["backend"]:
        raise CheckFailed(f"report is for backend {report.get('backend')!r}")
    if len(items) != check["items"]:
        raise CheckFailed(f"{len(items)} suite items, expected {check['items']}")
    bad = [it["identity"] for it in items if not it["residual"] <= it["tolerance"]]
    if bad or report.get("pass") is not True:
        raise CheckFailed(f"identities over tolerance: {bad}")
    return max(it["residual"] / it["tolerance"] for it in items)
