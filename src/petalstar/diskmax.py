"""Maximum of ``|A + B z + C z^2| + 1 - |z|^2`` over the closed unit disk.

For real ``(A, B, C)`` the maximum has a closed piecewise form; the branch
depends on the sign of ``A C`` and on how ``B^2`` compares with a handful of
expressions in ``|A|, |B|, |C|``.  :func:`quad_disk_max` implements that
formula; :func:`quad_disk_max_grid` is an independent polar-grid oracle used
to certify every branch numerically.

Ties on branch boundaries resolve to the first branch listed; adjacent
branches agree there (continuity), which the oracle agreement test confirms.
The fall-through branches are reached by explicit negation of the earlier
conditions, so the function is total on finite inputs; both functions
reject non-finite coefficients, and finite ones whose evaluation overflows,
with :class:`~petalstar.errors.DomainViolation`.  The square root in the
last branch is only evaluated when ``A C < 0``, where its argument is ``>= 1``.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps

import numpy as np

from .errors import _MAX_POINTS, DomainViolation, _count

__all__ = ["quad_disk_max", "quad_disk_max_grid"]


def _finite(maximum):
    """Both maxima reject non-finite coefficients, and an evaluation that
    overflows, with :class:`~petalstar.errors.DomainViolation`."""

    @wraps(maximum)
    def checked(a, b, c, *args, **kwargs):
        # NaN fails every branch condition and would reach 1 / c^2 with c = 0
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise DomainViolation(f"coefficients must be finite, got ({a}, {b}, {c})")
        try:
            value = maximum(a, b, c, *args, **kwargs)
        except OverflowError:  # float ** raises where * and + return inf
            value = math.inf
        if not math.isfinite(value):
            raise DomainViolation(f"coefficients ({a}, {b}, {c}) overflow the evaluation")
        return value

    return checked


@_finite
def quad_disk_max(a: float, b: float, c: float) -> float:
    """Closed-form maximum of ``|a + b z + c z^2| + 1 - |z|^2``, ``|z| <= 1``."""
    aa, ab, ac = abs(a), abs(b), abs(c)
    if a * c >= 0.0:
        if ab >= 2.0 * (1.0 - ac):
            return aa + ab + ac
        # here |b| < 2 (1 - |c|) forces |c| < 1
        return 1.0 + aa + b * b / (4.0 * (1.0 - ac))

    # a c < 0, so c != 0; where 1/c^2 overflows, the equal 4 |a| (1/|c| - |c|)
    try:
        gate = -4.0 * a * c * (c ** -2 - 1.0)
    except OverflowError:
        gate = 4.0 * aa * (1.0 / ac - ac)
    if gate <= b * b and ab < 2.0 * (1.0 - ac):
        return 1.0 - aa + b * b / (4.0 * (1.0 - ac))
    if b * b < min(4.0 * (1.0 + ac) ** 2, gate):
        return 1.0 + aa + b * b / (4.0 * (1.0 + ac))

    # residual region
    if ac * (ab + 4.0 * aa) <= abs(a * b):
        return aa + ab - ac
    if abs(a * b) <= ac * (ab - 4.0 * aa):
        return -aa + ab + ac
    return (ac + aa) * float(np.sqrt(1.0 - b * b / (4.0 * a * c)))


#: Grid points per block of the oracle.  A complex block stays under 128 KiB,
#: glibc's default mmap threshold, so the block temporaries are reused from
#: the heap; whole-grid temporaries can be mapped and page-faulted in afresh
#: on every call (about 1,400 faults per 600 x 600 call in a fresh process).
_ORACLE_BLOCK = 8000


@lru_cache(maxsize=8)
def _polar_grid(radial: int, angular: int):
    """The upper half ``0 <= t <= pi`` of the polar grid: its angles
    ``2 pi k / angular`` are closed under conjugation, and for real
    coefficients the objective takes the same value at ``z`` and at
    ``conj(z)``, so the half grid has the full grid's maximum."""
    r = np.linspace(0.0, 1.0, radial)[:, None]
    t = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)[None, : angular // 2 + 1]
    z = (r * np.exp(1j * t)).ravel()
    weight = np.broadcast_to(1.0 - r * r, (radial, t.size)).ravel()
    return z, z * z, weight


@_finite
def quad_disk_max_grid(a: float, b: float, c: float,
                       radial: int = 600, angular: int = 600) -> float:
    """Grid oracle: maximum of the objective over an ``radial x angular``
    polar grid of the closed disk (radii include 0 and 1).  The coefficients
    must be real, and ``radial * angular`` at most ``_MAX_POINTS``."""
    radial, angular = _count(radial, "radial"), _count(angular, "angular")
    if radial < 2 or angular < 4 or radial * angular > _MAX_POINTS:
        raise DomainViolation(f"grid needs radial >= 2, angular >= 4 and radial * angular "
                              f"at most {_MAX_POINTS}")
    z, z2, weight = _polar_grid(radial, angular)
    best = -np.inf
    with np.errstate(over="ignore"):  # only the sums overflow, to inf
        for s in range(0, z.size, _ORACLE_BLOCK):
            block = slice(s, s + _ORACLE_BLOCK)
            best = max(best, float((np.abs(a + b * z[block] + c * z2[block]) + weight[block]).max()))
    return best
