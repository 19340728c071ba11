"""Eigenvalues of extensions by certified counting.

The number of eigenvalues of an extension below a real ``lambda``, counted
with multiplicity, is

    N_ext(lambda) = N_ref(lambda) + nu(lambda),

where ``N_ref`` counts the eigenvalues of the reference operator below
``lambda`` (closed-form data of the backend, ``reference_eigenvalues``) and
``nu`` counts the negative eigenvalues of the Hermitian part of the bracket
``L - dtn(lambda) + dtn(z0)`` (Dirichlet reference) or the positive ones of
``L + ntd(lambda) - ntd(z0)`` (Neumann reference).  The bracket is
compressed to ``P B P + (I - P)``, so only ``ran X`` moves the count.  This
is Friedlander's counting identity (ARMA 116, 1991; Arendt-Mazzeo, CPAA 11,
2012) for the ``(L, X)`` parametrization.  With the Neumann reference it
holds up to a constant that depends on the extension: below the spectrum the
count reads the boundary dimension for the Dirichlet case ``L = ntd(z0)``
and 0 for the Krein case.  Only the jumps of the count enter the spectrum,
so the constant does not matter.  The eigenvalues in a window are
located by bisecting this integer count until each jump is bracketed to
width ``tol``, and each is returned repeated by its jump, that is, with its
multiplicity; no eigenvalue in the window can be skipped.

The boundary maps are singular at the reference eigenvalues, so samples stay
a relative ``STEP_OFF`` away from them, and an eigenvalue inside that gap is
reported as the reference eigenvalue itself.  A count that decreases between
two samples, or a boundary map that fails with ``NearEigenvalue`` or
``LinAlgError`` at a sample, raises :class:`CountFailed`; any other error
propagates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackendUnsupported, CountFailed, NearEigenvalue
from .extensions import Extension, ExtensionSpec, make_extension
from .kreinformulas import _galerkin_resolvent, _trial_family
from .traces import hermitian_part

STEP_OFF = 1e-7  # relative distance of every sample from the reference eigenvalues
REFINE_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumRequest:
    spec: ExtensionSpec
    window: tuple
    count: int | None = None
    tol: float = REFINE_TOL


def _scan_function(ext: Extension):
    """Per-sample function ``lam -> N_ext(lam)``: the number of eigenvalues of
    the extension below ``lam``, with multiplicity (up to a constant for the
    Neumann reference)."""
    backend, reference = ext.backend, ext.reference
    weights = backend.boundary_weights

    def count(lam: float) -> int:
        signed = np.linalg.eigvalsh(hermitian_part(ext.bracket(lam), weights))
        nu = np.count_nonzero(signed < 0 if reference == "dirichlet" else signed > 0)
        return len(backend.reference_eigenvalues(reference, lam)) + int(nu)

    return count


def _gap(mu: float) -> float:
    return STEP_OFF * max(1.0, abs(mu))


def _sample_points(a: float, b: float, ref: list) -> list:
    """Sorted ``(lam, mu)``: the edges ``mu -+ gap`` around each distinct
    reference eigenvalue ``mu`` in ``[a, b]``, and the window edges (``mu``
    None).  A window edge inside a gap gives way to the edge of that gap."""
    points = [(mu + side * _gap(mu), mu) for mu in ref if a <= mu <= b for side in (-1, 1)]
    for edge, outward in ((a, -1), (b, 1)):
        near = [mu for mu in ref if abs(edge - mu) <= _gap(mu)]
        if not near:
            points.append((edge, None))
        elif not a <= near[0] <= b:
            points.append((near[0] - outward * _gap(near[0]), None))
    return sorted(points, key=lambda p: p[0])


def _sample(count, lam: float, left, right) -> int:
    try:
        return count(lam)
    except (NearEigenvalue, np.linalg.LinAlgError) as exc:
        raise CountFailed(f"boundary map failed off the reference eigenvalues ({exc})",
                          lam, (left, right)) from exc


def eigenvalues(req: SpectrumRequest, backend) -> list:
    """Sorted eigenvalues of the realized Laplacian extension in the window,
    each repeated by its multiplicity; ``count`` keeps the first ``count``."""
    a, b = float(req.window[0]), float(req.window[1])
    if b <= a:
        return []
    if not hasattr(backend, "reference_eigenvalues"):
        raise BackendUnsupported("eigenvalue counting needs closed-form reference eigenvalues")
    ext = make_extension(req.spec, backend)
    count = _scan_function(ext)
    ref = np.unique(backend.reference_eigenvalues(ext.reference, b + 2.0 * _gap(b))).tolist()
    # a bracket a few ulps wide still has its midpoint strictly inside
    tol = max(req.tol, 8.0 * np.spacing(max(abs(a), abs(b), 1.0)))
    limit = np.inf if req.count is None else req.count
    roots = []
    (lo, mu_lo), *rest = _sample_points(a, b, ref)
    n_lo = _sample(count, lo, None, None)
    for hi, mu_hi in rest:
        n_hi = _sample(count, hi, n_lo, None)
        gap = mu_lo is not None and mu_lo == mu_hi
        stack = [(lo, hi, n_lo, n_hi)]
        while stack and len(roots) < limit:
            x, y, nx, ny = stack.pop()
            if ny < nx:
                raise CountFailed("the eigenvalue count decreased", y, (nx, ny))
            if ny == nx:
                continue
            if gap:
                roots += [mu_lo] * (ny - nx)
            elif y - x <= tol:
                roots += [0.5 * (x + y)] * (ny - nx)
            else:
                mid = 0.5 * (x + y)
                n_mid = _sample(count, mid, nx, ny)
                stack += [(mid, y, n_mid, ny), (x, mid, nx, n_mid)]
        if len(roots) >= limit:
            break
        lo, mu_lo, n_lo = hi, mu_hi, n_hi
    return roots[: req.count]


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

