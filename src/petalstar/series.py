"""Truncated Taylor series with complex coefficients.

Everything in this package is built on the :class:`Series` carrier: a
truncation order ``N`` and the ``N + 1`` coefficients ``c0 .. cN`` of an
expansion about 0.  Values are immutable after construction and all
operations are pure functions, so series can be shared freely between
workers.

Binary operations truncate to the smaller operand order.  Composition and
reversion are exact at the truncation order: the first ``N`` coefficients of
the result equal those of the exact (untruncated) operation.  Composition is
Horner's scheme in the outer series.  Division multiplies by a reciprocal
from Newton's iteration ``r <- r (2 - b r)``, which doubles the number of
correct terms at each step (Brent & Kung, J. ACM 25, 1978), so a quotient of
order ``N`` takes about ``log2 N`` convolutions.  Reversion and the
logarithmic coefficients of the inverse both read the powers of
``z / f(z)`` off one Lagrange loop, one matrix-vector product per power.

The kernels and the arithmetic ignore floating-point overflow while they
run: a coefficient that overflows makes the result non-finite, and the
:class:`Series` it is returned in raises :class:`DomainViolation`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    _MAX_POINTS,
    DomainViolation,
    NonzeroConstant,
    NonzeroInnerConstant,
    NotInvertibleAtOrigin,
    NotNormalized,
    ZeroConstantTerm,
    _count,
)

__all__ = [
    "DEFAULT_ORDER",
    "Series",
    "SchlichtSeries",
    "differentiate",
    "compose",
    "revert",
    "log_over_z",
    "exp_series",
    "integrate_over_t",
    "asinh_series",
    "rotate",
]

#: Truncation order used when callers do not request one explicitly.  All
#: closed-form functionals in this package need coefficients through degree
#: 4 only; the default leaves room for the degree-7 extremal expansions.
DEFAULT_ORDER = 10

#: |c0| below this threshold counts as a structural zero in division.
DIV_EPSILON = 1e-14

#: Tolerance used when checking the c0 = 0, c1 = 1 normalization.
_NORM_TOL = 1e-12


class Series:
    """A truncated power series ``c0 + c1 z + ... + cN z^N``.

    Parameters
    ----------
    coeffs : sequence of complex
        Coefficients ``c0 .. cN``, all finite (else :class:`DomainViolation`
        naming the first bad index); the truncation order is
        ``len(coeffs) - 1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainViolation("coeffs must be a non-empty 1-d sequence")
        if not np.isfinite(arr).all():
            i = int(np.argmin(np.isfinite(arr)))
            raise DomainViolation(f"coefficient {i} = {arr[i]} is not finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls(_zeros(order))

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "Series":
        c = _zeros(order)
        c[0] = 1.0
        return cls(c)

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "Series":
        """The series of ``z`` itself."""
        c = _zeros(order)
        if c.size > 1:
            c[1] = 1.0
        return cls(c)

    def __repr__(self) -> str:
        # np.round scales by 1e12 first, which overflows near the top of the
        # range; such coefficients print unrounded
        with np.errstate(over="ignore"):
            shown = np.round(self.coeffs, 12)
        shown = np.where(np.isfinite(shown), shown, self.coeffs)
        return f"Series(order={self.order}, coeffs={shown!r})"

    def __call__(self, z):
        """Evaluate the polynomial at ``z``, a number or an array (Horner).
        A value that is not finite, as far outside the disk of convergence,
        raises :class:`DomainViolation`."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.polyval(self.coeffs[::-1], z)
        finite = np.isfinite(value)
        if not finite.all():
            at = np.broadcast_to(z, finite.shape)[~finite][0]
            raise DomainViolation(f"the order-{self.order} series is not finite at z = {at}")
        return value

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, float, complex)):
            c = np.zeros(self.order + 1, dtype=complex)
            c[0] = other
            return Series(c)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        with np.errstate(over="ignore", invalid="ignore"):
            return Series(self.coeffs[: n + 1] + rhs.coeffs[: n + 1])

    __radd__ = __add__

    def __neg__(self):
        return Series(-self.coeffs)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            with np.errstate(over="ignore", invalid="ignore"):
                return Series(self.coeffs * other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        prod = np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])
        return Series(prod[: n + 1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return Series(self.coeffs / other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        b = other.coeffs
        if abs(b[0]) <= DIV_EPSILON:
            raise ZeroConstantTerm(
                f"divisor constant term {b[0]!r} is below {DIV_EPSILON}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.convolve(self.coeffs[: n + 1], _reciprocal(b, n))[: n + 1]
        return Series(q)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form ``{"order": N, "re": [...], "im": [...]}``."""
        return {
            "order": self.order,
            "re": [float(x) for x in self.coeffs.real],
            "im": [float(x) for x in self.coeffs.imag],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Series":
        missing = sorted({"order", "re", "im"} - set(data))
        if missing:
            raise DomainViolation(f"serialized series lacks {missing}")
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        if re.shape != im.shape or re.size != _count(data["order"], "order") + 1:
            raise DomainViolation("inconsistent serialized series")
        return cls(re + 1j * im)


class SchlichtSeries(Series):
    """A series with the normalization ``c0 = 0``, ``c1 = 1``.

    This is the coefficient carrier for normalized univalent functions
    ``f(z) = z + a2 z^2 + a3 z^3 + ...``.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence[complex]):
        super().__init__(coeffs)
        if self.order < 1 or self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise NotNormalized(
                "SchlichtSeries requires c0 = 0 and c1 = 1 exactly"
            )

    @classmethod
    def from_tail(cls, tail: Sequence[complex], order: int = DEFAULT_ORDER) -> "SchlichtSeries":
        """Build ``z + a2 z^2 + ...`` from the tail ``(a2, a3, ...)``."""
        tail = np.asarray(tail, dtype=complex)
        order = max(_order(order), tail.size + 1)
        c = np.zeros(order + 1, dtype=complex)
        c[1] = 1.0
        c[2 : 2 + tail.size] = tail
        return cls(c)


def _order(order) -> int:
    """``order`` as an ``int`` of at most ``_MAX_POINTS``, else
    :class:`DomainViolation`, checked before a series of ``order + 1``
    coefficients is built."""
    order = _count(order, "order")
    if order > _MAX_POINTS:
        raise DomainViolation(f"order = {order} must be at most {_MAX_POINTS}")
    return order


def _exp_order(order) -> int:
    """``order`` as :func:`_order` checks it, refused also where the
    recurrence of :func:`exp_series` takes over ``_MAX_POINTS`` products."""
    order = _order(order)
    if order * (order + 1) // 2 > _MAX_POINTS:
        raise DomainViolation(f"order = {order} needs {order * (order + 1) // 2} products, "
                              f"at most {_MAX_POINTS}")
    return order


def _zeros(order) -> np.ndarray:
    """The ``order + 1`` zero coefficients of a series of order ``order >= 0``."""
    order = _order(order)
    if order < 0:
        raise DomainViolation("order must be non-negative")
    return np.zeros(order + 1, dtype=complex)


# -- array kernels ------------------------------------------------------------


def _reciprocal(b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients ``0 .. n`` of ``1 / b`` for ``b[0] != 0``.

    Newton's iteration ``r <- r (2 - b r)``: if ``r`` is correct to ``k``
    terms, ``b r = 1 + z^k e`` and ``r - z^k r e`` is correct to ``2 k``.
    Terms already correct are kept; each step appends the new ones.
    """
    r = np.array([1.0 / b[0]], dtype=complex)
    while r.size <= n:
        k, m = r.size, min(2 * r.size, n + 1)
        e = np.convolve(b[:m], r)[k:m]
        r = np.concatenate((r, -np.convolve(r[: m - k], e)[: m - k]))
    return r


def _lagrange(f: np.ndarray, n: int, s: int) -> np.ndarray:
    """``[w^(k-1+s)] u^k / (k c1^k)`` for ``k = 1 .. n`` and
    ``u = c1 w / f(w)``, from ``f``'s coefficients ``c0 = 0, c1 != 0, ..``
    through ``c(n+s)``.

    ``s = 0`` gives the coefficients ``F_k`` of the inverse ``F`` of ``f``
    (Lagrange inversion); ``s = 1`` those of ``log(c1 F(w) / w)``
    (Lagrange-Buermann).  Row ``k`` of the power table is ``u^k``
    truncated, one product with the lower-triangular Toeplitz matrix of
    ``u`` (a truncated convolution) from row ``k - 1``.  A table, never
    smaller than the matrix, of over ``_MAX_POINTS`` entries is refused.
    """
    c1, size = f[1], n + s
    if (n + 1) * size > _MAX_POINTS:
        raise DomainViolation(f"order {n} needs {n + 1} x {size} entries, at most {_MAX_POINTS}")
    u = _reciprocal(f[1:] / c1, size - 1)
    i = np.arange(size)
    # entry (i, j) is u[i - j], 0 above the diagonal
    padded = np.concatenate((np.zeros(size - 1, dtype=complex), u))
    times_u = padded[i[:, None] - i + size - 1]
    powers = np.zeros((n + 1, size), dtype=complex)
    powers[0, 0] = 1.0
    for k in range(n):
        np.dot(times_u, powers[k], out=powers[k + 1])
    k = np.arange(1, n + 1)
    return powers[k, k - 1 + s] / (k * c1 ** k)


# -- calculus helpers ---------------------------------------------------------


def differentiate(f: Series) -> Series:
    """Term-wise derivative; the order drops by one."""
    if f.order == 0:
        return Series([0.0])
    n = np.arange(1, f.order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return Series(f.coeffs[1:] * n)


def compose(outer: Series, inner: Series) -> Series:
    """Taylor coefficients of ``outer(inner(z))`` to the minimum order.

    ``inner`` must have zero constant term, otherwise the truncated
    coefficients of the composite would not be well defined.
    """
    if inner.coeffs[0] != 0:
        raise NonzeroInnerConstant("inner series must have zero constant term")
    n = min(outer.order, inner.order)
    b = inner.coeffs[: n + 1]
    acc = np.zeros(n + 1, dtype=complex)
    for c in outer.coeffs[n::-1]:
        acc = np.convolve(acc, b)[: n + 1]
        acc[0] += c
    return Series(acc)


def revert(f: Series) -> Series:
    """Compositional inverse ``F`` with ``compose(f, F) = z`` up to order.

    Lagrange inversion: ``F_n = [w^(n-1)] u^n / (n c1^n)`` for the powers
    of ``u = c1 w / f(w)``.
    """
    if f.order < 1 or f.coeffs[0] != 0 or f.coeffs[1] == 0:
        raise NotInvertibleAtOrigin("reversion needs c0 = 0 and c1 != 0")
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _lagrange(f.coeffs, f.order, 0)
    return Series(np.concatenate(([0j], inv)))


def log_over_z(f: Series) -> Series:
    """The series ``log(f(z) / z)`` for a normalized ``f``; order drops by 1.

    The constant term of the result is 0 (principal branch, ``log 1 = 0``).
    """
    if f.order < 1 or abs(f.coeffs[0]) > _NORM_TOL or abs(f.coeffs[1] - 1) > _NORM_TOL:
        raise NotNormalized("log_over_z needs c0 = 0 and c1 = 1")
    g = f.coeffs[1:]  # f / z, constant term 1
    # (log g)' = g' / g with g' as differentiate and the quotient as division
    # give them, bit for bit; then integrate term by term
    dg = g[1:] * np.arange(1, g.size) if g.size > 1 else np.zeros(1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.convolve(dg, _reciprocal(g, dg.size - 1))[: dg.size]
        d /= np.arange(1, d.size + 1)
    return Series(np.concatenate(([0j], d)))


def exp_series(f: Series) -> Series:
    """Taylor series of ``exp(f)`` for ``f`` with zero constant term; its
    recurrence's ``n (n + 1) / 2`` products cap the order at 1413."""
    if f.coeffs[0] != 0:
        raise NonzeroConstant("exp_series needs a zero constant term")
    n = _exp_order(f.order)
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0
    # E' = E f'  =>  k E_k = sum_{j=1..k} j f_j E_{k-j}
    with np.errstate(over="ignore", invalid="ignore"):
        jf = np.arange(1, n + 1) * f.coeffs[1:]
        for k in range(1, n + 1):
            out[k] = np.dot(jf[:k], out[k - 1 :: -1]) / k
    return Series(out)


def integrate_over_t(f: Series) -> Series:
    """``int_0^z f(t)/t dt``, i.e. the term-wise map ``c_n z^n -> (c_n/n) z^n``.

    Requires a zero constant term, otherwise the integrand is singular at 0.
    """
    if f.coeffs[0] != 0:
        raise NonzeroConstant("integrand f(t)/t would be singular at t = 0")
    return Series(np.concatenate(([0j], f.coeffs[1:] / np.arange(1, f.order + 1))))


def asinh_series(c: complex, k: int, order: int) -> Series:
    """Taylor series of ``arcsinh(c z^k)`` truncated at ``order``.

    Uses the alternating expansion with coefficients
    ``(2n)! / (4^n (n!)^2 (2n+1))`` on odd powers of ``c z^k``.  A ``c``
    whose powers overflow raises :class:`DomainViolation`.
    """
    if _count(k, "power k") < 1:
        raise DomainViolation("power k must be a positive integer")
    out = _zeros(order)
    coeff = 1.0
    n = 0
    # Python's ** raises an overflow; NumPy's returns inf, which Series rejects
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while (2 * n + 1) * k <= order:
                out[(2 * n + 1) * k] = coeff * c ** (2 * n + 1)
                coeff *= -((2 * n + 1) ** 2) / (2.0 * (n + 1) * (2 * n + 3))
                n += 1
    except OverflowError:
        raise DomainViolation(f"c = {c} overflows the series to order {order}") from None
    return Series(out)


def rotate(f: Series, theta: float) -> Series:
    """The rotated series of ``e^{-i theta} f(e^{i theta} z)``.

    Coefficients map as ``c_n -> c_n e^{i (n-1) theta}``; a normalized
    series stays normalized.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = f.coeffs * np.exp(1j * np.arange(-1, f.order) * theta)
    if isinstance(f, SchlichtSeries):
        coeffs = coeffs.copy()
        coeffs[0] = 0.0
        coeffs[1] = 1.0
        return SchlichtSeries(coeffs)
    return Series(coeffs)
