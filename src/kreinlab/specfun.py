"""Bessel and Hankel functions on a checked range, and the sqrt(z) branch.

All evaluation is restricted to a desk-scale range (``|x| <= 60``, order
``<= 60``); inside it the values are accurate to well below 1e-12 relative,
which the rest of the package relies on.  Each function takes a scalar, for which
it returns a complex scalar, or an array.  The square root of the spectral
parameter always uses the branch with nonnegative imaginary part.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError, RangeExceeded

MAX_ORDER = 60
MAX_ARG = 60.0

#: Euler-Mascheroni constant, used in log-splitting diagonals.
EULER_GAMMA = 0.5772156649015328606


def as_complex(value) -> complex:
    """Coerce to a finite complex number; reject NaN/Inf."""
    z = complex(value)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DomainError(f"non-finite complex value {value!r}")
    return z


def _check_order(order: int) -> int:
    if order != int(order) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise RangeExceeded(f"order {order} exceeds supported maximum {MAX_ORDER}")
    return int(order)


def _check_arg(x):
    arr = np.asarray(x, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite argument")
    amax = float(np.max(np.abs(arr))) if arr.size else 0.0
    if amax > MAX_ARG:
        raise RangeExceeded(f"|argument| = {amax:.3g} exceeds supported maximum {MAX_ARG}")
    return arr


def sqrt_upper(z) -> complex:
    """Square root of ``z`` on the branch with Im >= 0."""
    w = np.sqrt(as_complex(z))
    if w.imag < 0.0:
        w = -w
    return complex(w)


def _checked(f, order: int, x, singular: str | None = None):
    """``f(order, x)`` for a checked order and argument, which must not be 0 where
    ``singular`` names the function; scalar input returns a complex scalar."""
    order, arr = _check_order(order), _check_arg(x)
    if singular and np.any(arr == 0):
        raise DomainError(f"{singular} has a singularity at the origin")
    out = f(order, arr)
    return complex(out) if np.isscalar(x) or arr.ndim == 0 else out


def _prime(f):
    """The derivative f'_n = (f_{n-1} - f_{n+1})/2 of a cylinder function, f_{-1} = -f_1."""
    return lambda n, arr: 0.5 * ((-f(1, arr) if n == 0 else f(n - 1, arr)) - f(n + 1, arr))


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order at real or complex argument."""
    return _checked(_sp.jv, order, x)


def bessel_j_prime(order: int, x):
    """Derivative J'_order."""
    return _checked(_prime(_sp.jv), order, x)


def bessel_y(order: int, x):
    """Bessel function of the second kind Y_order; singular at the origin."""
    return _checked(_sp.yv, order, x, "Y_n")


def bessel_y_prime(order: int, x):
    return _checked(_prime(_sp.yv), order, x, "Y'_n")


def hankel1(order: int, x):
    """Hankel function of the first kind, H^(1)_order = J_order + i Y_order."""
    return _checked(_sp.hankel1, order, x, "H^(1)_n")
