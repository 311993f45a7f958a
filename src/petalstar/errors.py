"""Exception types raised across the package, and the count check and
size cap that raise one."""

import operator


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


class EndpointSingularity(PetalstarError):
    """Evaluation at a parameter endpoint where the expression has a pole."""


class SingularSample(PetalstarError):
    """A sampling-based check hit a point where the function vanishes."""
