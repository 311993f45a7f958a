"""Maximum of ``|A + B z + C z^2| + 1 - |z|^2`` over the closed unit disk.

For real ``(A, B, C)`` the maximum has a closed piecewise form; the branch
depends on the sign of ``A C`` and on how ``B^2`` compares with a handful of
expressions in ``|A|, |B|, |C|``.  :func:`quad_disk_max` implements that
formula; :func:`quad_disk_max_grid` is an independent polar-grid oracle used
to certify every branch numerically (Choi, Kim & Sugawa, J. Math. Soc.
Japan 59, 2007, give the case analysis).

The oracle evaluates every node of the upper half polar grid in real
arithmetic.  On the ring ``|z| = r`` with ``x = cos t``,

    |A + B z + C z^2|^2 = K + L x + M x^2,
    K = (A - C r^2)^2 + (B r)^2,  L = 2 B r (A + C r^2),  M = 4 A C r^2,

so each block of whole rings is one matrix product of the ``(K, L, M)``
rows with the grid's rows ``(1, x, x^2)``, and the square root is taken
once per ring, of its largest value.  The identity shares no branch logic
with the closed form, so the oracle stays an independent check.

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
from functools import lru_cache

import numpy as np

from .errors import _MAX_POINTS, DomainViolation, _count, _finite

__all__ = ["quad_disk_max", "quad_disk_max_grid"]


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


#: Grid nodes per block of the oracle, a block being whole rings, at least
#: one.  A block of real values stays under 128 KiB, glibc's default mmap
#: threshold, so the block temporaries are reused from the heap; whole-grid
#: temporaries can be mapped and page-faulted in afresh on every call.  A
#: half ring wider than the block (``angular >= 32000``) is a block alone.
_ORACLE_BLOCK = 16000


@lru_cache(maxsize=1)
def _polar_grid(radial: int, angular: int):
    """The radii ``r``, their weights ``1 - r^2`` and the rows ``(1, x, x^2)``,
    ``x = cos t``, of the upper half ``0 <= t <= pi`` of the polar grid.  Its
    angles ``2 pi k / angular`` are closed under conjugation, and for real
    coefficients the objective takes the same value at ``z`` and at
    ``conj(z)``, so the half grid has the full grid's maximum.  Only the
    last grid is kept: callers repeat one grid, and one of 600 x 600 holds
    about 12 KB."""
    r = np.linspace(0.0, 1.0, radial)
    x = np.cos(np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)[: angular // 2 + 1])
    return r, 1.0 - r * r, np.stack((np.ones_like(x), x, x * x))


def _ring_quadratic(a: float, b: float, c: float, r):
    """The ``(K, L, M)`` rows, one per radius ``r``, of the ring identity
    ``|a + b z + c z^2|^2 = K + L x + M x^2`` at ``z = r e^{it}``,
    ``x = cos t``; ``K`` is a sum of squares, so it is never negative."""
    r2 = r * r
    cr2, br = c * r2, b * r
    return np.stack(((a - cr2) ** 2 + br * br, 2.0 * br * (a + cr2), 4.0 * a * c * r2), axis=1)


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
    r, weight, powers = _polar_grid(radial, angular)
    # a power-of-two scale is exact: the squares in K stay finite wherever
    # |a + b z + c z^2| does, and no value short of overflow or underflow
    # changes by a bit
    e = math.frexp(max(abs(a), abs(b), abs(c)))[1]
    klm = _ring_quadratic(math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e), r)
    rings = max(1, _ORACLE_BLOCK // powers.shape[1])
    peaks = np.empty(radial)
    for s in range(0, radial, rings):
        np.max(klm[s : s + rings] @ powers, axis=1, out=peaks[s : s + rings])
    # sqrt and + weight are monotone, so each ring's peak gives its maximum;
    # only the scale back overflows, to inf
    return float((np.ldexp(np.sqrt(np.maximum(peaks, 0.0)), e) + weight).max())
