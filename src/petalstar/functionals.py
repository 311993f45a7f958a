"""Coefficient functionals: logarithmic coefficients and their determinants.

Conventions
-----------
Logarithmic coefficients of a normalized ``f`` are half the Taylor
coefficients of ``log(f(z)/z)``; those of the inverse are half the
coefficients of ``log(F(w)/w)`` where ``F`` is the compositional inverse,
read off the powers of ``z / f(z)`` without forming ``F``.
Coefficient sequences returned here are indexed so that ``seq[n]`` holds the
``n``-th coefficient, with ``seq[0] = 0`` (the constant term of the log is
identically zero).  That convention makes the determinant helpers read like
the defining matrices: ``hankel_det(seq, q, n)`` places ``seq[n+i+j]`` at
entry ``(i, j)``.

Each of the four second-determinant functionals is computed here by its
degree-4 closed form in the ``a``-coefficients.  The generic determinant
path over the coefficient sequences is kept independent so the two can be
cross-checked.  :func:`rotation_check` checks the four against their exact
laws under rotation of ``f``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DomainViolation,
    IndexOutOfRange,
    InsufficientOrder,
    NotInvertibleAtOrigin,
    NotNormalized,
    _count,
    _finite,
)
from .series import _NORM_TOL, SchlichtSeries, Series, _lagrange, log_over_z, rotate

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
    "rotation_check",
]


def _require_order(f: Series, order: int, what: str):
    if f.order < order:
        raise InsufficientOrder(f"{what} needs series order >= {order}, got {f.order}")


def _require_count(f: Series, m: int, what: str):
    # a negative m would slice the coefficients from the end
    if _count(m, "m") < 0:
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

    The inverse ``F`` is never formed: by Lagrange-Buermann,
    ``Gamma_n = [z^n] (z / f(z))^n / (2 n)`` (Ponnusamy, Sharma & Wirths,
    Results Math. 73, 2018), one power of ``z / f(z)`` per coefficient.
    Indexing as in :func:`log_coeffs`.  ``f`` must be normalized, as
    :func:`log_coeffs` requires of ``F``.
    """
    _require_count(f, m, f"inv_log_coeffs(m={m})")
    c = f.coeffs
    if c[0] != 0 or c[1] == 0:
        raise NotInvertibleAtOrigin("the inverse needs c0 = 0 and c1 != 0")
    if abs(1.0 / c[1] - 1.0) > _NORM_TOL:
        raise NotNormalized("inv_log_coeffs needs c1 = 1")
    with np.errstate(over="ignore", invalid="ignore"):
        lo = _lagrange(c, m, 1)  # log(c1 F(w) / w)
    return Series(np.concatenate(([0j], lo))).coeffs / 2.0


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
    at most ``entries[n + span]``; only ``q >= 3`` builds an index matrix.
    Non-finite entries, or a determinant that overflows, raise
    :class:`DomainViolation`."""
    e = np.asarray(entries, dtype=complex)
    if _count(q, "q") < 1 or _count(n, "n") < 0:
        raise IndexOutOfRange("need q >= 1 and n >= 0")
    top = n + span
    if e.size <= top:
        raise IndexOutOfRange(f"entries must be indexable up to {top}, got length {e.size}")
    if not np.isfinite(e).all():
        raise DomainViolation("determinant entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if q == 1:
            d = e[n]
        elif q == 2:
            d = e[n] * e[n + offset(1, 1)] - e[n + offset(0, 1)] ** 2
        else:
            k = np.arange(q)
            d = np.linalg.det(e[n + offset(k[:, None], k[None, :])])
    if not np.isfinite(d):
        raise DomainViolation(f"the q = {q} determinant overflows")
    return complex(d)


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


@_finite
def hankel2_log(f: SchlichtSeries) -> complex:
    """Second Hankel determinant of the logarithmic coefficients,
    ``g1 g3 - g2^2``, by its closed form in ``a2, a3, a4``."""
    _require_order(f, 4, "hankel2_log")
    a2, a3, a4 = f.coeffs[2], f.coeffs[3], f.coeffs[4]
    return complex((a2 * a4 - a3 ** 2 + a2 ** 4 / 12.0) / 4.0)


@_finite
def hankel2_invlog(f: SchlichtSeries) -> complex:
    """Second Hankel determinant of the inverse logarithmic coefficients."""
    _require_order(f, 4, "hankel2_invlog")
    a2, a3, a4 = f.coeffs[2], f.coeffs[3], f.coeffs[4]
    return complex(
        (13.0 * a2 ** 4 - 12.0 * a2 ** 2 * a3 - 12.0 * a3 ** 2 + 12.0 * a2 * a4) / 48.0
    )


@_finite
def toeplitz2_log(f: SchlichtSeries) -> complex:
    """Second Toeplitz determinant of the logarithmic coefficients,
    ``g1^2 - g2^2``, by its closed form in ``a2, a3``."""
    _require_order(f, 3, "toeplitz2_log")
    a2, a3 = f.coeffs[2], f.coeffs[3]
    return complex(
        (4.0 * a2 ** 2 - a2 ** 4 - 4.0 * a3 ** 2 + 4.0 * a2 ** 2 * a3) / 16.0
    )


@_finite
def toeplitz2_invlog(f: SchlichtSeries) -> complex:
    """Second Toeplitz determinant of the inverse logarithmic coefficients."""
    _require_order(f, 3, "toeplitz2_invlog")
    a2, a3 = f.coeffs[2], f.coeffs[3]
    return complex(
        (-9.0 * a2 ** 4 + 4.0 * a2 ** 2 - 4.0 * a3 ** 2 + 12.0 * a2 ** 2 * a3) / 16.0
    )


def rotation_check(f: SchlichtSeries, thetas) -> dict:
    """Verify the exact rotation laws of the four functionals on ``f``.

    Under ``f -> e^{-i theta} f(e^{i theta} z)`` the log coefficients scale
    as ``g_n -> e^{i n theta} g_n`` (same for the inverse ones), so both
    Hankel determinants rotate uniformly by ``e^{4 i theta}`` and their
    moduli are invariant.  The Toeplitz determinants are bi-homogeneous,
    ``e^{2 i theta} g1^2 - e^{4 i theta} g2^2``, so their moduli are only
    invariant when one of the two coefficients vanishes (as it does for
    every preset extremal); the report records the exact-law residuals and
    the observed modulus spread, reduced from one ``(len(thetas), 4)`` array
    of the functionals (0 for no angle).
    """
    thetas = np.asarray(thetas, dtype=float)
    fns = (hankel2_log, hankel2_invlog, toeplitz2_log, toeplitz2_invlog)
    vals = np.array([[fn(rotate(f, theta)) for fn in fns] for theta in thetas.tolist()],
                    dtype=complex).reshape(-1, 4)
    w2, w4 = np.exp(2j * thetas)[:, None], np.exp(4j * thetas)[:, None]
    g = np.array([log_coeffs(f, 2), inv_log_coeffs(f, 2)])
    base = np.array([hankel2_log(f), hankel2_invlog(f)])
    laws = np.hstack([w4 * base, w2 * g[:, 1] ** 2 - w4 * g[:, 2] ** 2])
    res = np.abs(vals - laws).max(axis=0, initial=0.0)
    mags = np.abs(vals)
    mag = np.abs(mags[:, :2] - np.abs(base)).max(axis=0, initial=0.0)
    spread = np.ptp(mags[:, 2:], axis=0) if thetas.size else np.zeros(2)

    report = {
        "hankel_log_law_residual": float(res[0]),
        "hankel_invlog_law_residual": float(res[1]),
        "hankel_log_magnitude_residual": float(mag[0]),
        "hankel_invlog_magnitude_residual": float(mag[1]),
        "toeplitz_log_law_residual": float(res[2]),
        "toeplitz_invlog_law_residual": float(res[3]),
        "toeplitz_log_magnitude_spread": float(spread[0]),
        "toeplitz_invlog_magnitude_spread": float(spread[1]),
    }
    report["ok"] = bool(max(res.max(), mag.max()) <= 1e-10)
    return report
