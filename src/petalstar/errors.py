"""Exception types raised across the package, and the count check, size
cap and finiteness guard that raise one."""

import cmath
import math
import operator
import reprlib
from functools import wraps

import numpy as np


class PetalstarError(ValueError):
    """Base class for all petalstar errors."""


class ZeroConstantTerm(PetalstarError):
    """Division by a series whose constant term is (numerically) zero."""


class NonzeroInnerConstant(PetalstarError):
    """Composition with an inner series whose constant term is not zero."""


class NotInvertibleAtOrigin(PetalstarError):
    """Reversion of a series with c0 != 0 or vanishing linear term."""


class NotNormalized(PetalstarError):
    """Series does not satisfy the normalization c0 = 0, c1 = 1."""


class NonzeroConstant(PetalstarError):
    """Operation requires a series with zero constant term."""


class InsufficientOrder(PetalstarError):
    """Series truncation order too low for the requested coefficients."""


class IndexOutOfRange(PetalstarError):
    """Coefficient sequence too short for the requested determinant."""


class DomainViolation(PetalstarError):
    """Parameter outside its documented domain."""


#: Cap on the entries of any one grid or table that count arguments size:
#: a scan pass's rings or points, a ``class_check`` table, the disk oracle.
_MAX_POINTS = 10 ** 6


def _count(value, name: str) -> int:
    """``value`` as an ``int`` (a NumPy integer passes, a ``bool`` does not),
    else :class:`DomainViolation` naming the count."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainViolation(f"{name} = {value!r} is not an integer") from None


def _all_finite(value) -> bool:
    """Whether a number, an array or a tuple of them is finite throughout;
    :mod:`cmath` checks a number some 100 times faster than NumPy."""
    if isinstance(value, tuple):
        return all(map(_all_finite, value))
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    return bool(np.isfinite(value).all())


def _finite(fn):
    """``fn`` raising :class:`DomainViolation` where its value is not
    finite, or where a float argument is not: NaN fails every comparison,
    so a branch can return a finite value from it.  The arguments are
    checked after the call, so that an error ``fn`` raises of its own comes
    first.  Python's ``**`` raises an overflow and ``/`` a zero divisor
    where NumPy returns inf or NaN; both end here, and NumPy prints no
    warning."""

    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                value = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not _all_finite(value) or not all(
                math.isfinite(v) for v in (*args, *kwargs.values()) if isinstance(v, float)):
            shown = ", ".join(map(reprlib.repr, args))
            raise DomainViolation(f"{fn.__name__}({shown}) is not finite: an argument "
                                  f"is not, or the evaluation overflows")
        return value

    return checked


class EndpointSingularity(PetalstarError):
    """Evaluation at a parameter endpoint where the expression has a pole."""


class SingularSample(PetalstarError):
    """A sampling-based check hit a point where the function vanishes."""
