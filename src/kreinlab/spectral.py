"""Eigenvalue computation for extensions via boundary-determinant scanning.

An eigenvalue of the realized Laplacian extension makes the bracket
``L - dtn(lambda) + dtn(z0)`` singular, so the scan tracks its smallest
singular value and refines each dip by bisection on the sign of its
numerical derivative.  The Dirichlet special case has no bracket; its
eigenvalues appear as poles of the Dirichlet-to-Neumann map and are tracked
through ``1 / (1 + ||dtn(lambda)||_F)`` instead.  A sample where the boundary
map or the bracket fails with a :class:`KreinlabError` or a ``LinAlgError``
counts as a pole (``inf``) or, in the Dirichlet case, as an
eigenvalue (``0``); any other error propagates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KreinlabError, WindowTooWide
from .extensions import Extension, ExtensionSpec, make_extension
from .kreinformulas import _galerkin_resolvent, _trial_family

SCAN_DENSITY = 400.0  # sample points per unit window
MAX_SCAN_POINTS = 200_000
REFINE_TOL = 1e-10
DIP_FACTOR = 0.05  # loose: spurious candidates are rejected after refinement


@dataclass(frozen=True)
class SpectrumRequest:
    spec: ExtensionSpec
    window: tuple
    count: int | None = None
    tol: float = REFINE_TOL


def _scan_function(ext: Extension):
    backend = ext.backend
    dirichlet_case = ext.projector is not None and not np.any(ext.projector)

    if dirichlet_case:

        def fun(lam: float) -> float:
            try:
                M = backend.dtn(lam)
            except (KreinlabError, np.linalg.LinAlgError):
                return 0.0
            return 1.0 / (1.0 + float(np.linalg.norm(M)))

        return fun

    def fun(lam: float) -> float:
        try:
            bracket = ext.bracket(lam)
        except (KreinlabError, np.linalg.LinAlgError):
            return np.inf
        s = np.linalg.svd(bracket, compute_uv=False)
        return float(s[-1])

    return fun


def _golden_section(fun, lo: float, hi: float, width: float):
    phi = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > width:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = fun(d)
    return lo, hi


def _vee_vertex(fun, lo: float, hi: float):
    """Vertex of a near-V dip by intersecting lines fitted to the flanks.

    Near an eigenvalue the smallest singular value behaves like |c (x - v)|,
    but its evaluation noise grows like eps/|x - v| near poles of the
    boundary map, so samples close to the vertex are unreliable.  Only the
    outer three samples of each flank enter the fit; the returned fitted
    value at the vertex is noise-immune and distinguishes genuine zeros
    from smooth nonzero minima.  Returns ``(vertex, fitted_value)``.
    """
    xs = np.linspace(lo, hi, 9)
    fs = np.array([fun(x) for x in xs])
    mid = 0.5 * (lo + hi)
    keepL = np.isfinite(fs[:3])
    keepR = np.isfinite(fs[-3:])
    if keepL.sum() < 2 or keepR.sum() < 2:
        return mid, float(np.nanmin(fs[np.isfinite(fs)])) if np.any(np.isfinite(fs)) else np.inf
    aL, bL = np.polyfit(xs[:3][keepL], fs[:3][keepL], 1)
    aR, bR = np.polyfit(xs[-3:][keepR], fs[-3:][keepR], 1)
    if aR - aL <= 0:
        finite = np.isfinite(fs)
        return float(xs[finite][np.argmin(fs[finite])]), float(np.min(fs[finite]))
    v = (bL - bR) / (aR - aL)
    value = aL * v + bL
    return float(np.clip(v, lo, hi)), float(value)


def _refine_minimum(fun, a: float, b: float, tol: float):
    """Golden-section bracketing followed by two V-vertex fits; returns
    ``(vertex, fitted_vertex_value)``.

    The fit widths stay above ~1e-4 because the smallest singular value
    carries evaluation noise of order eps * ||bracket||, which grows like
    1/distance near poles of the boundary map; sampling below that floor
    degrades the vertex estimate instead of improving it.
    """
    scale = max(abs(a), abs(b), 1.0)
    coarse = max(64.0 * tol, 2e-7 * scale)
    lo, hi = _golden_section(fun, a, b, coarse)
    pad = max(8.0 * (hi - lo), 5e-4)
    v, _ = _vee_vertex(fun, max(a, lo - pad), min(b, hi + pad))
    width = max(64.0 * tol, 1e-4)
    v2, value = _vee_vertex(fun, v - width, v + width)
    return v2, value


def eigenvalues(req: SpectrumRequest, backend) -> list:
    """Sorted eigenvalues of the realized Laplacian extension in the window.

    The scan starts at ``SCAN_DENSITY`` samples per unit length and halves the
    step (up to three times) if dips cannot be separated; a window that still
    defeats bracketing raises :class:`WindowTooWide`.
    """
    a, b = float(req.window[0]), float(req.window[1])
    if b <= a:
        return []
    ext = make_extension(req.spec, backend)
    fun = _scan_function(ext)

    npts = int(min(MAX_SCAN_POINTS, max(64, SCAN_DENSITY * (b - a))))
    for _ in range(4):
        grid = np.linspace(a, b, npts)
        vals = np.array([fun(x) for x in grid])
        finite = np.isfinite(vals)
        scale = float(np.median(vals[finite])) if np.any(finite) else 1.0
        idx = [
            i
            for i in range(1, npts - 1)
            if np.isfinite(vals[i])
            and vals[i] <= np.nan_to_num(vals[i - 1], nan=np.inf)
            and vals[i] <= np.nan_to_num(vals[i + 1], nan=np.inf)
            and vals[i] < DIP_FACTOR * scale
        ]
        # candidate dips must be separated by at least one sample on each side
        if all(j - i > 1 for i, j in zip(idx, idx[1:])):
            break
        npts *= 2
        if npts > MAX_SCAN_POINTS:
            raise WindowTooWide("scan could not separate candidate eigenvalues")
    roots = []
    step = (b - a) / (npts - 1)
    for i in idx:
        lo, hi = grid[i] - step, grid[i] + step
        lam, fitted = _refine_minimum(fun, lo, hi, req.tol)
        # accept only genuine zeros: the extrapolated vertex value must
        # collapse relative to the bracket values
        edge = max(fun(lo), fun(hi))
        if np.isfinite(edge) and fitted < 5e-2 * max(edge, 1e-300):
            roots.append(lam)
    roots = sorted(roots)
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > max(10 * req.tol, 1e-9 * abs(r)):
            merged.append(r)
    if req.count is not None:
        merged = merged[: req.count]
    return merged


def ordering_check(ext_list, a: float, backend, trial_count: int = 40) -> dict:
    """Galerkin resolvent ordering against the extremal extensions.

    Builds ``G_ext[i, j] = (phi_i, R_ext(-a) phi_j)`` over a fixed trial
    family and checks ``G_dirichlet <= G_ext <= G_krein`` with eigenvalue
    floor -1e-9.
    """
    if a <= 0:
        raise ValueError("ordering parameter a must be positive")
    trial = _trial_family(backend, trial_count)
    z0 = ext_list[0].z0 if ext_list else 0.0
    dir_ext = make_extension(ExtensionSpec("dirichlet", z0, "dirichlet", "zero"), backend)
    krein_ext = make_extension(ExtensionSpec("dirichlet", z0, "krein", "full"), backend)
    g_dir = _galerkin_resolvent(dir_ext, a, trial)
    g_krein = _galerkin_resolvent(krein_ext, a, trial)
    report = {"a": a, "trial_count": trial_count, "items": []}
    ok = True
    for ext in ext_list:
        g = _galerkin_resolvent(ext, a, trial)
        low = float(np.min(np.linalg.eigvalsh(g - g_dir)))
        high = float(np.min(np.linalg.eigvalsh(g_krein - g)))
        passed = low >= -1e-9 and high >= -1e-9
        ok = ok and passed
        report["items"].append(
            {"lower_floor": low, "upper_floor": high, "pass": passed}
        )
    report["pass"] = ok
    return report


def eigenvalue_near(spec: ExtensionSpec, backend, guess: float, width: float = 1.0) -> float:
    """Single eigenvalue nearest to a guess (helper for perturbation tests)."""
    req = SpectrumRequest(spec, (guess - width, guess + width))
    roots = eigenvalues(req, backend)
    if not roots:
        raise WindowTooWide(f"no eigenvalue within {width} of {guess}")
    return min(roots, key=lambda r: abs(r - guess))


def dirichlet_disk_ground_state(radius: float = 1.0) -> float:
    """Square of the first root of J_0, scaled to the disk radius, by bisection."""
    from .specfun import bessel_j

    lo, hi = 2.0, 3.0
    flo = bessel_j(0, lo).real
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(0, mid).real
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-14:
            break
    root = 0.5 * (lo + hi)
    return (root / radius) ** 2
