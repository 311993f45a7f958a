"""Coefficient parametrization of functions with positive real part.

The first three coefficients of any function ``p(z) = 1 + p1 z + p2 z^2 +
p3 z^3 + ...`` with positive real part on the unit disk are parametrized by
a triple ``(zeta1, zeta2, zeta3)`` with ``zeta1 in [0, 1]`` and ``zeta2,
zeta3`` in the closed unit disk:

    p1 = 2 zeta1
    p2 = 2 zeta1^2 + 2 (1 - zeta1^2) zeta2
    p3 = 2 zeta1^3 + 4 (1 - zeta1^2) zeta1 zeta2
         - 2 (1 - zeta1^2) zeta1 zeta2^2
         + 2 (1 - zeta1^2) (1 - |zeta2|^2) zeta3

For the starlike class studied here the subordination transfers these to the
function coefficients via ``a2 = p1/2``, ``a3 = p2/4`` and ``a4 = (-p1^3 -
6 p1 p2 + 24 p3) / 144``, which turns every second-determinant functional
into an explicit polynomial in the parameters.  This module holds those
polynomials (in the ``p`` variables; the Hankel ones also in the ``zeta``
variables, as ``alpha + beta zeta3``), the reduction of the Toeplitz
functionals to the two parameters ``(p1, zeta)`` with the term-wise
majorants that the Toeplitz max scans certify, and the case analysis
machinery used to certify the sharp Hankel bound of the inverse
coefficients: the quadratic triples ``(A, B, C)``, the six case
discriminants, and the two envelope curves.

Every zeta-variable form, the Hankel ``alpha`` in ``zeta2`` and the reduced
Toeplitz forms in ``zeta``, is ``c0 + c1 z + c2 z^2`` with real ``c_k``
quadratic in ``u = zeta1^2`` or ``u = p1^2``.  Each is held once, as an
integer table with its denominator; the scans, ring bounds, Toeplitz
majorants and ``(A, B, C)`` triples all read these tables, and the
``p``-variable forms are their independent reference.

Endpoints ``zeta1 in {0, 1}`` are special: the zeta-variable functionals
remain valid there, but the ``(A, B, C)`` reductions have poles and raise
:class:`~petalstar.errors.EndpointSingularity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainViolation, EndpointSingularity, _finite

__all__ = [
    "CaratheodoryPoint",
    "ABCTriple",
    "CaseTable",
    "p_from_zeta",
    "a_from_p",
    "hankel_log_from_p",
    "hankel_invlog_from_p",
    "hankel_log_from_zeta",
    "hankel_invlog_from_zeta",
    "toeplitz_log_from_p",
    "toeplitz_invlog_from_p",
    "reduced_p2",
    "toeplitz_log_reduced",
    "toeplitz_invlog_reduced",
    "toeplitz_log_majorant",
    "toeplitz_invlog_majorant",
    "disk_objective",
    "abc_hankel_log",
    "abc_hankel_invlog",
    "case_functions",
    "CASE_SPLIT_POINT",
    "ENVELOPE_INNER_PEAK",
    "envelope_inner",
    "envelope_outer",
]

#: Slack admitted when validating |zeta| <= 1 style constraints, to absorb
#: floating-point roundoff from polar grids.
DOMAIN_TOL = 1e-12


def _check_in_disk(name: str, z: complex):
    # negated so that a NaN modulus fails the check too
    if not abs(z) <= 1.0 + DOMAIN_TOL:
        raise DomainViolation(f"|{name}| = {abs(z)} is not at most 1")


@dataclass(frozen=True)
class CaratheodoryPoint:
    """Parameter triple ``(zeta1, zeta2, zeta3)`` of the parametrization."""

    zeta1: float
    zeta2: complex
    zeta3: complex

    def __post_init__(self):
        try:
            inside = -DOMAIN_TOL <= self.zeta1 <= 1.0 + DOMAIN_TOL
        except TypeError:  # not a real number
            inside = False
        if not inside:
            raise DomainViolation(f"zeta1 = {self.zeta1} outside [0, 1]")
        _check_in_disk("zeta2", self.zeta2)
        _check_in_disk("zeta3", self.zeta3)


class ABCTriple(NamedTuple):
    """Real coefficients of the disk quadratic ``A + B z + C z^2``."""

    a: float
    b: float
    c: float


class CaseTable(NamedTuple):
    """The six case discriminants of the inverse-Hankel analysis."""

    t1: float
    t2: float
    t3: float
    t4: float
    t5: float
    t6: float


def p_from_zeta(point: CaratheodoryPoint) -> tuple:
    """Coefficients ``(p1, p2, p3)`` realized by a parameter point."""
    z1, z2, z3 = point.zeta1, point.zeta2, point.zeta3
    w = 1.0 - z1 * z1
    p1 = 2.0 * z1
    p2 = 2.0 * z1 * z1 + 2.0 * w * z2
    p3 = (
        2.0 * z1 ** 3
        + 4.0 * w * z1 * z2
        - 2.0 * w * z1 * z2 * z2
        + 2.0 * w * (1.0 - abs(z2) ** 2) * z3
    )
    return (complex(p1), complex(p2), complex(p3))


@_finite
def a_from_p(p) -> tuple:
    """Function coefficients ``(a2, a3, a4)`` induced by ``(p1, p2, p3)``."""
    p1, p2, p3 = p
    a2 = p1 / 2.0
    a3 = p2 / 4.0
    a4 = (-(p1 ** 3) - 6.0 * p1 * p2 + 24.0 * p3) / 144.0
    return (complex(a2), complex(a3), complex(a4))


# -- zeta-variable forms: one integer table each ------------------------------


# Each table is ``(rows, denominator)``; row ``k`` holds the ``u^0, u^1, u^2``
# coefficients of ``c_k`` in ``c0 + c1 z + c2 z^2``.
_HANKEL_LOG_ALPHA = (((0, 0, -2), (0, 0, 0), (-9, 6, 3)), 144)
_HANKEL_INVLOG_ALPHA = (((0, 0, 16), (0, -18, 18), (-9, 6, 3)), 144)
_TOEPLITZ_LOG = (((0, 16, 0), (0, 0, 0), (-16, 8, -1)), 256)
_TOEPLITZ_INVLOG = (((0, 16, -4), (0, 16, -4), (-16, 8, -1)), 256)


def _coeffs(table, x):
    """Array-safe real ``(c0, c1, c2)`` of a table at ``x``: Horner in ``u =
    x^2`` on each integer row, divided once by the denominator, so that
    exact rows stay exact (``16/144`` on the ``zeta1 = 1`` face)."""
    rows, den = table
    u = x * x
    return [(a + u * (b + u * c)) / den for a, b, c in rows]


def _coeff_rows(table):
    """The evaluator ``x -> np.array(_coeffs(table, x))`` of an axis ``x`` of
    shape ``(n,)``: the same Horner steps on the three rows at once, in place
    in the ``(3, n)`` result or ``out``, so that it is bit-equal to :func:`_coeffs`."""
    rows, den = table
    a, b, c = np.array(rows, dtype=float).T[:, :, None]

    def coeffs(x, out=None):
        u = x * x
        out = np.multiply(u, c, out=out)
        out += b
        out *= u
        out += a
        out /= den
        return out
    return coeffs


def _quadratic(c, z):
    """Array-safe ``c0 + c1 z + c2 z^2`` for coefficients ``c``, summed in
    place into ``c1 z``, the largest of the three operands."""
    out = c[1] * z
    out += c[0]
    out += c[2] * (z * z)
    return out


def _abs_table(table):
    """The table of a form's term-wise absolute-value majorant."""
    rows, den = table
    return tuple(tuple(abs(a) for a in row) for row in rows), den


def _majorant(table, x, t):
    """Term-wise absolute-value majorant of a form at ``t = |z|``: the
    table's absolute values, evaluated as the form is."""
    return _quadratic(_coeffs(_abs_table(table), x), t)


# -- Hankel functionals in p- and zeta-variables ------------------------------


@_finite
def hankel_log_from_p(p) -> complex:
    """``g1 g3 - g2^2`` as a polynomial in the positive-real-part coefficients."""
    p1, p2, p3 = p
    return complex(
        (p1 ** 4 - 12.0 * p1 ** 2 * p2 - 36.0 * p2 ** 2 + 48.0 * p1 * p3) / 2304.0
    )


@_finite
def hankel_invlog_from_p(p) -> complex:
    """``G1 G3 - G2^2`` as a polynomial in the positive-real-part coefficients."""
    p1, p2, p3 = p
    return complex(
        (37.0 * p1 ** 4 - 48.0 * p1 ** 2 * p2 - 36.0 * p2 ** 2 + 48.0 * p1 * p3) / 2304.0
    )


def _hankel_beta(z1, r):
    """The ``zeta3`` coefficient of both functionals at ``|zeta2| = r``:
    ``12 z1 (1 - z1^2) (1 - r^2) / 144``, real and nonnegative, as the
    product of its ``z1`` and ``r`` factors, which the scans take apart."""
    return _beta_z1(z1) * _beta_r(r)


def _beta_z1(z1):
    return 12.0 * z1 * (1.0 - z1 * z1)


def _beta_r(r):
    return (1.0 - r * r) / 144.0


def _hankel_from_zeta(table, point: CaratheodoryPoint) -> complex:
    z1, z2 = point.zeta1, point.zeta2
    alpha = _quadratic(_coeffs(table, z1), z2)
    return complex(alpha + _hankel_beta(z1, abs(z2)) * point.zeta3)


def hankel_log_from_zeta(point: CaratheodoryPoint) -> complex:
    """Zeta-variable log-Hankel value; equals the ``p``-path by substitution."""
    return _hankel_from_zeta(_HANKEL_LOG_ALPHA, point)


def hankel_invlog_from_zeta(point: CaratheodoryPoint) -> complex:
    """Zeta-variable inverse-log-Hankel value."""
    return _hankel_from_zeta(_HANKEL_INVLOG_ALPHA, point)


# -- Toeplitz functionals and their two-parameter reduction -------------------


@_finite
def toeplitz_log_from_p(p1: complex, p2: complex) -> complex:
    """``g1^2 - g2^2`` as a polynomial in ``(p1, p2)``."""
    return complex(
        (-(p1 ** 4) - 4.0 * p2 ** 2 + 4.0 * p1 ** 2 * (4.0 + p2)) / 256.0
    )


@_finite
def toeplitz_invlog_from_p(p1: complex, p2: complex) -> complex:
    """``G1^2 - G2^2`` as a polynomial in ``(p1, p2)``."""
    return complex(
        (-9.0 * p1 ** 4 - 4.0 * p2 ** 2 + 4.0 * p1 ** 2 * (4.0 + 3.0 * p2)) / 256.0
    )


@_finite
def reduced_p2(p1, zeta):
    """The second coefficient after eliminating ``zeta1``:
    ``p2 = (p1^2 + (4 - p1^2) zeta) / 2`` with ``|zeta| <= 1``."""
    return (p1 ** 2 + (4.0 - p1 ** 2) * zeta) / 2.0


def _check_reduced_domain(p1: float, zeta: complex):
    if not -DOMAIN_TOL <= p1 <= 2.0 + DOMAIN_TOL:
        raise DomainViolation(f"p1 = {p1} outside [0, 2]")
    _check_in_disk("zeta", zeta)


def toeplitz_log_reduced(p1: float, zeta: complex) -> complex:
    """Two-parameter form of the log-Toeplitz functional on
    ``p1 in [0, 2]``, ``|zeta| <= 1``; equals
    ``toeplitz_log_from_p(p1, reduced_p2(p1, zeta))``."""
    _check_reduced_domain(p1, zeta)
    return complex(_quadratic(_coeffs(_TOEPLITZ_LOG, p1), zeta))


def toeplitz_invlog_reduced(p1: float, zeta: complex) -> complex:
    """Two-parameter form of the inverse-log-Toeplitz functional."""
    _check_reduced_domain(p1, zeta)
    return complex(_quadratic(_coeffs(_TOEPLITZ_INVLOG, p1), zeta))


def _majorant_domain(p1, t):
    """``p1`` and ``t`` as arrays, checked array-wise: real numbers only, and
    negated so that NaN fails too."""
    values = []
    for name, value, hi in (("p1", p1, 2.0), ("t", t, 1.0)):
        value = np.asarray(value)
        if value.dtype.kind not in "iuf" or not (
                (-DOMAIN_TOL <= value) & (value <= hi + DOMAIN_TOL)).all():
            raise DomainViolation(f"{name} outside [0, {hi:g}]")
        values.append(value)
    return values


def toeplitz_log_majorant(p1, t):
    """Term-wise absolute-value majorant of the reduced log-Toeplitz form:
    ``(p1^4 t^2 + 16 t^2 + 16 p1^2 + 8 p1^2 t^2) / 256`` with ``t = |zeta|``.

    Dominates ``|toeplitz_log_reduced(p1, zeta)|`` for every phase of
    ``zeta`` and peaks at the corner ``(2, 1)`` with value 1/2.  Takes
    numbers, sequences or arrays on the reduced forms' domain, ``p1 in [0,
    2]`` and ``t in [0, 1]``, else :class:`DomainViolation`.
    """
    return _majorant(_TOEPLITZ_LOG, *_majorant_domain(p1, t))


def toeplitz_invlog_majorant(p1, t):
    """Term-wise absolute-value majorant of the reduced inverse-log-Toeplitz
    form; peaks at the corner ``(2, 1)`` with value 5/4.  Same domain as
    :func:`toeplitz_log_majorant`."""
    return _majorant(_TOEPLITZ_INVLOG, *_majorant_domain(p1, t))


# -- case analysis for the inverse-Hankel sharp bound --------------------------


@_finite
def disk_objective(abc: ABCTriple, zeta2: complex) -> float:
    """``|A + B z + C z^2| + 1 - |z|^2`` evaluated at ``z = zeta2``.

    This is the quantity whose maximum over the closed disk the piecewise
    formula in :mod:`petalstar.diskmax` computes.  A non-finite triple entry,
    or one whose value overflows, raises :class:`DomainViolation`.
    """
    _check_in_disk("zeta2", zeta2)
    a, b, c = abc
    return float(abs(a + b * zeta2 + c * zeta2 * zeta2) + 1.0 - abs(zeta2) ** 2)


def _check_open_interval(zeta1):
    outside = ~((0.0 < np.asarray(zeta1)) & (zeta1 < 1.0))
    if outside.any():
        # an array names its first bad point and their count, not every value
        where = zeta1 if outside.ndim == 0 else (
            f"{zeta1[outside][0]} (first of {outside.sum()} bad points)")
        raise EndpointSingularity(
            f"zeta1 = {where} hits a pole; the reduction needs 0 < zeta1 < 1")


def _abc_from_alpha(table, zeta1: float) -> ABCTriple:
    # alpha = b0 (A + B zeta2 + C zeta2^2) and beta = b0 (1 - |zeta2|^2)
    _check_open_interval(zeta1)
    b0 = _hankel_beta(zeta1, 0.0)
    return ABCTriple(*(a / b0 for a in _coeffs(table, zeta1)))


def abc_hankel_log(zeta1: float) -> ABCTriple:
    """Quadratic coefficients of the log-Hankel bound at ``zeta1``.

    ``A = -zeta1^3 / (6 (1 - zeta1^2))``, ``B = 0``,
    ``C = -(zeta1^2 + 3) / (4 zeta1)``; both A and C are negative on (0, 1),
    so the product ``A C`` is nonnegative throughout.
    """
    return _abc_from_alpha(_HANKEL_LOG_ALPHA, zeta1)


def abc_hankel_invlog(zeta1: float) -> ABCTriple:
    """Quadratic coefficients of the inverse-log-Hankel bound at ``zeta1``.

    ``A = 4 zeta1^3 / (3 (1 - zeta1^2))``, ``B = -(3/2) zeta1``,
    ``C = -(3 + zeta1^2) / (4 zeta1)``; here ``A > 0 > C`` on (0, 1).
    """
    return _abc_from_alpha(_HANKEL_INVLOG_ALPHA, zeta1)


@_finite
def case_functions(zeta1) -> CaseTable:
    """The six discriminants deciding which maximizer branch applies to the
    inverse-Hankel triple at ``zeta1``, a float or an array (a sequence is
    taken as one); an array gives arrays bit-equal to the per-point values.

    On (0, 1): t1 > 0, t2 <= 0, t3 > 0, t4 < 0, t5 < 0 throughout, and t6
    changes sign at :data:`CASE_SPLIT_POINT`.  Below about 1e-154, where
    ``t3 ~ 9 / (4 zeta1^2)`` overflows, a point raises
    :class:`DomainViolation`.
    """
    t = zeta1 if np.isscalar(zeta1) else np.asarray(zeta1, dtype=float)
    _check_open_interval(t)
    t2_ = t * t
    t4_ = t2_ * t2_
    return CaseTable(
        t1=2.0 * t - 2.0 + 3.0 / (2.0 * t),
        t2=-t2_ * (225.0 + 11.0 * t2_) / (12.0 * (3.0 + t2_)),
        t3=(3.0 + 4.0 * t + t2_) ** 2 / (4.0 * t2_),
        t4=4.0 * t2_ * (-9.0 + t2_) / (3.0 * (3.0 + t2_)),
        t5=(27.0 + 78.0 * t2_ - 25.0 * t4_) / (24.0 * (-1.0 + t2_)),
        t6=(27.0 - 114.0 * t2_ - 89.0 * t4_) / (24.0 * (-1.0 + t2_)),
    )


#: Zero of the sixth case discriminant: the split point between the two
#: envelope regimes, sqrt((-57 + 6 sqrt(157)) / 89) ~ 0.451959.
CASE_SPLIT_POINT = math.sqrt((-57.0 + 6.0 * math.sqrt(157.0)) / 89.0)

#: Location of the interior envelope's maximum, sqrt(6/37) ~ 0.402694.
ENVELOPE_INNER_PEAK = math.sqrt(6.0 / 37.0)


@_finite
def envelope_inner(t):
    """Upper envelope ``(9 + 12 t^2 - 37 t^4) / 144`` of the inverse-Hankel
    modulus on the low range ``0 < zeta1 <= CASE_SPLIT_POINT``.

    Peaks at :data:`ENVELOPE_INNER_PEAK` with value ~ 0.0692568.  Takes a
    number or an array; an entry whose value is not finite, as a non-finite
    one, raises :class:`DomainViolation`.
    """
    t = np.asarray(t, dtype=float)
    out = (9.0 + 12.0 * t ** 2 - 37.0 * t ** 4) / 144.0
    return float(out) if out.ndim == 0 else out


@_finite
def envelope_outer(t):
    """Upper envelope on the high range ``CASE_SPLIT_POINT <= zeta1 < 1``:
    ``sqrt((75 - 11 t^2) / (3 + t^2)) (9 - 6 t^2 + 13 t^4) / 576``.

    Equals 45/576 at 0 and exactly 1/9 at 1.  Takes what
    :func:`envelope_inner` takes.
    """
    t = np.asarray(t, dtype=float)
    out = np.sqrt((75.0 - 11.0 * t ** 2) / (3.0 + t ** 2)) * (
        9.0 - 6.0 * t ** 2 + 13.0 * t ** 4
    ) / 576.0
    return float(out) if out.ndim == 0 else out
