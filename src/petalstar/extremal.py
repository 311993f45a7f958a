"""Extremal functions of the petal starlike class and membership sampling.

The class under study consists of normalized analytic functions whose
logarithmic derivative ``z f'(z) / f(z)`` stays inside the petal-shaped
region ``{w : |sinh(w - 1)| < 1}``, the image of the unit disk under
``1 + arcsinh``.  Its bound-attaining members all have the one-parameter
shape

    f(z) = z exp( int_0^z arcsinh(c t^k) / t dt ),

built here by :func:`build_extremal` from the series kernel.  Five presets
are addressable by name:

    ======  ================  =========================================
    name    (c, k)            leading expansion
    ======  ================  =========================================
    f0      (1, 1)            z + z^2 + z^3/2 + z^4/9 - z^5/72 - ...
    f1      (1, 2)            z + z^3/2 + z^5/8 - z^7/144 + ...
    f2      (sqrt(8) i, 2)    z + sqrt(2) i z^3 - z^5 + ...
    f3      (i, 2)            z + i z^3/2 - z^5/8 + ...
    f4      (sqrt(20) i, 2)   z + sqrt(5) i z^3 - 5 z^5/2 + ...
    ======  ================  =========================================
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import _MAX_POINTS, DomainViolation, SingularSample, _count
from .series import (
    DEFAULT_ORDER,
    SchlichtSeries,
    Series,
    _order,
    asinh_series,
    exp_series,
    integrate_over_t,
)

__all__ = [
    "ExtremalSpec",
    "PRESETS",
    "build_extremal",
    "preset",
    "petal_map",
    "in_petal",
    "class_check",
    "ClassCheckReport",
]

#: Samples with |f(z)| below this are reported as singular.
_SAMPLE_EPS = 1e-12


@dataclass(frozen=True)
class ExtremalSpec:
    """Amplitude and power defining ``z exp(int arcsinh(c t^k)/t dt)``."""

    c: complex
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _count(self.k, "power k"))
        if self.k < 1:
            raise DomainViolation("power k must be >= 1")
        if not cmath.isfinite(self.c):
            raise DomainViolation(f"amplitude c = {self.c} is not finite")


PRESETS = {
    "f0": ExtremalSpec(1.0, 1),
    "f1": ExtremalSpec(1.0, 2),
    "f2": ExtremalSpec(math.sqrt(8.0) * 1j, 2),
    "f3": ExtremalSpec(1j, 2),
    "f4": ExtremalSpec(math.sqrt(20.0) * 1j, 2),
}


def build_extremal(spec: ExtremalSpec, order: int = DEFAULT_ORDER) -> SchlichtSeries:
    """Series of ``z exp(int_0^z arcsinh(c t^k) / t dt)`` to ``order``."""
    if _order(order) < 1:
        raise DomainViolation("order must be >= 1")
    try:
        inner = integrate_over_t(asinh_series(spec.c, spec.k, order - 1))
        outer = exp_series(inner)
    except (OverflowError, DomainViolation):
        # c is finite, so a non-finite coefficient here is an overflow
        raise DomainViolation(f"c = {spec.c} overflows the series to order {order}") from None
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1:] = outer.coeffs
    return SchlichtSeries(coeffs)


def preset(name: str, order: int = DEFAULT_ORDER) -> SchlichtSeries:
    """Build one of the named presets ``f0 .. f4``."""
    try:
        spec = PRESETS[name]
    except KeyError:
        raise DomainViolation(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return build_extremal(spec, order)


def petal_map(z: complex) -> complex:
    """``1 + arcsinh(z)``, the conformal map of the disk onto the petal.

    Principal branch: ``arcsinh(w) = log(w + sqrt(w^2 + 1))`` with principal
    square root and logarithm, cut along the imaginary axis outside
    ``[-i, i]``; analytic on the open unit disk.  A non-finite ``z`` raises
    :class:`DomainViolation`.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainViolation(f"z = {z} is not finite")
    return 1.0 + complex(np.arcsinh(z))


def in_petal(w: complex) -> bool:
    """Membership in the petal region: ``|sinh(w - 1)| < 1``."""
    return bool(np.abs(np.sinh(complex(w) - 1.0)) < 1.0)


@dataclass(frozen=True)
class ClassCheckReport:
    """Result of sampling ``z f'(z)/f(z)`` against the petal region.

    ``min_margin`` is the smallest value of ``1 - |sinh(q(z) - 1)|`` over
    the samples; a positive margin is consistent with class membership.
    ``tail_estimate`` is ``|c_m| r_max^m`` for the highest-index nonzero
    coefficient ``c_m``, a crude indicator of how much the series
    truncation can distort samples at the largest radius.
    """

    min_margin: float
    worst_point: complex
    samples: int
    order: int
    max_radius: float
    tail_estimate: float

    def to_dict(self) -> dict:
        return {
            "min_margin": self.min_margin,
            "worst_re": self.worst_point.real,
            "worst_im": self.worst_point.imag,
            "samples": self.samples,
            "order": self.order,
            "max_radius": self.max_radius,
            "tail_estimate": self.tail_estimate,
        }


def class_check(f: SchlichtSeries, radii, angles: int = 64) -> ClassCheckReport:
    """Sample ``q(z) = z f'(z) / f(z)`` on circles and report the worst petal
    margin ``min 1 - |sinh(q(z) - 1)|``.

    This is heuristic evidence, not proof: both the truncation order of
    ``f`` and the sampling radii are caller choices, and the report carries
    the truncation tail estimate as a caveat.  No two of ``angles``, the
    radii count and ``order + 1`` may multiply to over ``_MAX_POINTS``.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or not np.all((radii > 0.0) & (radii < 1.0)):
        raise DomainViolation("radii must lie strictly inside (0, 1)")
    angles, terms = _count(angles, "angles"), f.order + 1
    if angles < 1:
        raise DomainViolation("need at least one angle")
    if max(angles * terms, radii.size * terms, angles * radii.size) > _MAX_POINTS:
        raise DomainViolation(f"angles, radii and order + 1 must multiply pairwise to "
                              f"at most {_MAX_POINTS}")

    t = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    turn = np.exp(1j * t)
    z = (radii[:, None] * turn).ravel()
    # at z = r e^{it}, f(z) and z f'(z) sum (c_n r^n, n c_n r^n) e^{int} over n:
    # one table of powers e^{int} times one column per radius and sum
    n = np.arange(f.order + 1)
    turns = np.empty((angles, n.size), dtype=complex)
    turns[:, 0] = 1.0
    turns[:, 1:] = turn[:, None]
    np.cumprod(turns, axis=1, out=turns)
    scaled = f.coeffs[:, None] * radii ** n[:, None]
    fz, zdf = (turns @ np.hstack((scaled, n[:, None] * scaled))).T.reshape(2, z.size)
    singular = np.abs(fz) < _SAMPLE_EPS
    if singular.any():
        raise SingularSample(f"|f(z)| < {_SAMPLE_EPS} at z = {z[singular.argmax()]}")
    q = zdf / fz
    margin = 1.0 - np.abs(np.sinh(q - 1.0))
    worst = int(margin.argmin())
    rmax = float(radii.max())
    top = np.flatnonzero(f.coeffs)[-1]
    tail = float(abs(f.coeffs[top]) * rmax ** top)
    return ClassCheckReport(
        min_margin=float(margin[worst]),
        worst_point=complex(z[worst]),
        samples=z.size,
        order=f.order,
        max_radius=rmax,
        tail_estimate=tail,
    )
