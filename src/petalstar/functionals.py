"""Coefficient functionals: logarithmic coefficients and their determinants.

Conventions
-----------
Logarithmic coefficients of a normalized ``f`` are half the Taylor
coefficients of ``log(f(z)/z)``; those of the inverse are half the
coefficients of ``log(F(w)/w)`` where ``F`` is the compositional inverse.
Coefficient sequences returned here are indexed so that ``seq[n]`` holds the
``n``-th coefficient, with ``seq[0] = 0`` (the constant term of the log is
identically zero).  That convention makes the determinant helpers read like
the defining matrices: ``hankel_det(seq, q, n)`` places ``seq[n+i+j]`` at
entry ``(i, j)``.

Each of the four second-determinant functionals is computed here by its
degree-4 closed form in the ``a``-coefficients.  The generic determinant
path over the coefficient sequences is kept independent so the two can be
cross-checked.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation, IndexOutOfRange, InsufficientOrder
from .series import SchlichtSeries, Series, log_over_z, revert

__all__ = [
    "log_coeffs",
    "log_coeffs_closed",
    "inv_log_coeffs",
    "inv_log_coeffs_closed",
    "hankel_det",
    "toeplitz_det",
    "hankel2_log",
    "hankel2_invlog",
    "toeplitz2_log",
    "toeplitz2_invlog",
]


def _require_order(f: Series, order: int, what: str):
    if f.order < order:
        raise InsufficientOrder(f"{what} needs series order >= {order}, got {f.order}")


def _require_count(f: Series, m: int, what: str):
    # a negative m would slice the coefficients from the end
    if m < 0:
        raise DomainViolation(f"{what} needs m >= 0")
    _require_order(f, m + 1, what)


def log_coeffs(f: SchlichtSeries, m: int) -> np.ndarray:
    """First ``m`` logarithmic coefficients of ``f``.

    Returns an array ``g`` of length ``m + 1`` with ``g[n]`` the ``n``-th
    coefficient for ``n = 1..m`` and ``g[0] = 0``.
    """
    _require_count(f, m, f"log_coeffs(m={m})")
    lo = log_over_z(f)
    return lo.coeffs[: m + 1] / 2.0


def log_coeffs_closed(f: SchlichtSeries) -> np.ndarray:
    """The first three logarithmic coefficients by their closed forms.

    Independent of :func:`log_coeffs`; used to cross-check the series path.
    """
    _require_order(f, 4, "log_coeffs_closed")
    a2, a3, a4 = f.coeffs[2], f.coeffs[3], f.coeffs[4]
    g1 = a2 / 2.0
    g2 = (a3 - a2 * a2 / 2.0) / 2.0
    g3 = (a4 - a2 * a3 + a2 ** 3 / 3.0) / 2.0
    return np.array([0.0, g1, g2, g3], dtype=complex)


def inv_log_coeffs(f: SchlichtSeries, m: int) -> np.ndarray:
    """First ``m`` logarithmic coefficients of the inverse of ``f``.

    Computed from the definition: the logarithmic coefficients of the
    reverted series.  Indexing as in :func:`log_coeffs`.
    """
    _require_count(f, m, f"inv_log_coeffs(m={m})")
    return log_coeffs(revert(f), m)


def inv_log_coeffs_closed(f: SchlichtSeries) -> np.ndarray:
    """The first three inverse logarithmic coefficients by closed form."""
    _require_order(f, 4, "inv_log_coeffs_closed")
    a2, a3, a4 = f.coeffs[2], f.coeffs[3], f.coeffs[4]
    G1 = -a2 / 2.0
    G2 = -a3 / 2.0 + 0.75 * a2 * a2
    G3 = -a4 / 2.0 + 2.0 * a2 * a3 - (5.0 / 3.0) * a2 ** 3
    return np.array([0.0, G1, G2, G3], dtype=complex)


def _det(entries, q: int, n: int, offset, span: int) -> complex:
    """Both determinants: entry ``(i, j)`` is ``entries[n + offset(i, j)]``,
    at most ``entries[n + span]``; only ``q >= 3`` builds an index matrix."""
    e = np.asarray(entries, dtype=complex)
    if q < 1 or n < 0:
        raise IndexOutOfRange("need q >= 1 and n >= 0")
    top = n + span
    if e.size <= top:
        raise IndexOutOfRange(f"entries must be indexable up to {top}, got length {e.size}")
    if q == 1:
        return complex(e[n])
    if q == 2:
        return complex(e[n] * e[n + offset(1, 1)] - e[n + offset(0, 1)] ** 2)
    k = np.arange(q)
    return complex(np.linalg.det(e[n + offset(k[:, None], k[None, :])]))


def hankel_det(entries, q: int, n: int) -> complex:
    """Determinant of the ``q x q`` Hankel matrix with entry ``(i, j)`` equal
    to ``entries[n + i + j]``: exact for ``q = 1``, a closed form for
    ``q = 2``, LU factorization beyond that."""
    return _det(entries, q, n, lambda i, j: i + j, 2 * (q - 1))


def toeplitz_det(entries, q: int, n: int) -> complex:
    """Determinant of the ``q x q`` symmetric Toeplitz matrix with entry
    ``(i, j)`` equal to ``entries[n + |i - j|]``; evaluated as
    :func:`hankel_det` is."""
    return _det(entries, q, n, lambda i, j: abs(i - j), q - 1)


# -- second determinants of the log coefficient sequences ---------------------


def hankel2_log(f: SchlichtSeries) -> complex:
    """Second Hankel determinant of the logarithmic coefficients,
    ``g1 g3 - g2^2``, by its closed form in ``a2, a3, a4``."""
    _require_order(f, 4, "hankel2_log")
    a2, a3, a4 = f.coeffs[2], f.coeffs[3], f.coeffs[4]
    return complex((a2 * a4 - a3 ** 2 + a2 ** 4 / 12.0) / 4.0)


def hankel2_invlog(f: SchlichtSeries) -> complex:
    """Second Hankel determinant of the inverse logarithmic coefficients."""
    _require_order(f, 4, "hankel2_invlog")
    a2, a3, a4 = f.coeffs[2], f.coeffs[3], f.coeffs[4]
    return complex(
        (13.0 * a2 ** 4 - 12.0 * a2 ** 2 * a3 - 12.0 * a3 ** 2 + 12.0 * a2 * a4) / 48.0
    )


def toeplitz2_log(f: SchlichtSeries) -> complex:
    """Second Toeplitz determinant of the logarithmic coefficients,
    ``g1^2 - g2^2``, by its closed form in ``a2, a3``."""
    _require_order(f, 3, "toeplitz2_log")
    a2, a3 = f.coeffs[2], f.coeffs[3]
    return complex(
        (4.0 * a2 ** 2 - a2 ** 4 - 4.0 * a3 ** 2 + 4.0 * a2 ** 2 * a3) / 16.0
    )


def toeplitz2_invlog(f: SchlichtSeries) -> complex:
    """Second Toeplitz determinant of the inverse logarithmic coefficients."""
    _require_order(f, 3, "toeplitz2_invlog")
    a2, a3 = f.coeffs[2], f.coeffs[3]
    return complex(
        (-9.0 * a2 ** 4 + 4.0 * a2 ** 2 - 4.0 * a3 ** 2 + 12.0 * a2 ** 2 * a3) / 16.0
    )
