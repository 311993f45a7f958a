"""Brute-force certification of the sharp bounds over the parameter domain.

The four second-determinant functionals are certified by scanning their
parameter domains on product grids and comparing the observed extrema with
the claimed sharp bounds.  Every scan runs on the same two-dimensional core:
a first parameter ``x`` on an interval times a point ``zeta`` of the closed
unit disk on a polar grid, refined around the incumbent.

* The two Hankel functionals take ``x = zeta1 in [0, 1]`` and
  ``zeta = zeta2``.  They are affine in the third parameter,
  ``alpha(zeta1, zeta2) + beta(zeta1, |zeta2|) zeta3``, so ``zeta3`` is
  eliminated in closed form: over ``|zeta3| <= 1`` the modulus peaks at
  ``|alpha| + |beta|`` (``zeta3`` lines ``beta zeta3`` up with ``alpha``)
  and bottoms out at ``max(|alpha| - |beta|, 0)``.  ``maximize`` uses the
  exact elimination by default; ``zeta3_mode="boundary"`` and ``"disk"``
  instead take the largest modulus over a grid of the circle or of the
  disk in ``zeta3``, and are kept as brute-force reference oracles.

* The two Toeplitz functionals are scanned in the reduced parameters
  ``(p1, zeta)`` with ``p1 in [0, 2]`` and ``zeta`` in the closed disk.
  The certified sharp bounds for these two are bounds on the term-wise
  absolute-value majorant of the reduced form (see
  :func:`toeplitz_log_majorant`), which dominates the functional modulus
  pointwise and attains the bound at the corner ``(p1, |zeta|) = (2, 1)``.
  It is the reduced form's coefficient table taken in absolute value.
  ``maximize`` therefore scans the majorant for them, and records which
  objective was scanned in the report.  The pointwise modulus itself stays
  well below the majorant (its true maximum over the same domain is 1/4
  for the log variant); it remains available through the reduced-form
  functions in :mod:`petalstar.caratheodory`, and :func:`minimize_modulus`
  scans it for the minima.

The core only maximizes; :func:`minimize_modulus` scans the negated
modulus.  An upper bound on each ``(x, |zeta|)`` ring prunes the rings that
cannot beat the incumbent, and each pass evaluates the rest in one call
(see :func:`_scan`).  The Hankel max bound is the triangle inequality on
real coefficient forms, ``|a0| + |a1| r + |a2| r^2 + beta`` for ``alpha =
a0 + a1 zeta2 + a2 zeta2^2`` with real ``a_k(zeta1)`` and ``beta = 12
zeta1 (1 - zeta1^2) (1 - r^2) / 144``.  The Toeplitz majorant is its own
bound, and a negated modulus is bounded by 0.  The ``zeta3`` oracles take
the bound ``+inf`` and evaluate every ring.  Every scan, bound and
majorant reads the coefficient tables of :mod:`petalstar.caratheodory`.

Scans are deterministic and run on one thread: exact ties in the
arg-extremum resolve to the lexicographically first grid point, and reports
carry the seed and sample count, which counts every grid node, pruned or
not.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import partial, reduce
from enum import Enum

import numpy as np

from . import caratheodory as cth
from .errors import DomainViolation
from .functionals import (
    hankel2_invlog,
    hankel2_log,
    inv_log_coeffs,
    log_coeffs,
    toeplitz2_invlog,
    toeplitz2_log,
)
from .series import SchlichtSeries, rotate

__all__ = [
    "FunctionalId",
    "GridSpec",
    "BoundReport",
    "SHARP_BOUNDS",
    "EXTREMAL_WITNESS",
    "maximize",
    "minimize_modulus",
    "envelope_check",
    "rotation_check",
    "toeplitz_log_majorant",
    "toeplitz_invlog_majorant",
]

#: Rounding margin added to the Hankel max ring bound.  It must exceed the
#: bound's largest shortfall below the split's ``|alpha| + beta``: about
#: 1e-16 over the default grid's first pass and 10^5 random points.
_BOUND_MARGIN = 1e-13


class FunctionalId(str, Enum):
    """Identifier of one of the four certified functionals."""

    HANKEL_LOG = "hankel-log"
    HANKEL_INVLOG = "hankel-invlog"
    TOEPLITZ_LOG = "toeplitz-log"
    TOEPLITZ_INVLOG = "toeplitz-invlog"


#: The claimed sharp bound each scan is certified against.
SHARP_BOUNDS = {
    FunctionalId.HANKEL_LOG: 1.0 / 16.0,
    FunctionalId.HANKEL_INVLOG: 1.0 / 9.0,
    FunctionalId.TOEPLITZ_LOG: 1.0 / 2.0,
    FunctionalId.TOEPLITZ_INVLOG: 5.0 / 4.0,
}

#: Preset extremal function attaining each bound (by coefficient formula).
EXTREMAL_WITNESS = {
    FunctionalId.HANKEL_LOG: "f1",
    FunctionalId.HANKEL_INVLOG: "f0",
    FunctionalId.TOEPLITZ_LOG: "f2",
    FunctionalId.TOEPLITZ_INVLOG: "f4",
}


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the product grid and of the local refinement.

    ``zeta1_steps`` also serves as the ``p1`` axis resolution for the
    Toeplitz scans.  After the initial full-domain pass, ``refine_rounds``
    local passes rescan a window around the incumbent whose width shrinks
    by ``refine_shrink`` each round.  Step counts and ``refine_rounds`` are
    integers; NumPy integers are stored as Python ints.
    """

    zeta1_steps: int = 201
    radial_steps: int = 41
    angular_steps: int = 64
    refine_rounds: int = 3
    refine_shrink: float = 0.3

    def __post_init__(self):
        # NumPy integers become Python ints, so that sample counts stay exact
        # and reports serialize
        for name in ("zeta1_steps", "radial_steps", "angular_steps", "refine_rounds"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise DomainViolation(
                    f"{name} = {getattr(self, name)!r} is not an integer") from None
        if min(self.zeta1_steps, self.radial_steps, self.angular_steps) < 2:
            raise DomainViolation("all step counts must be >= 2")
        if self.refine_rounds < 0:
            raise DomainViolation("refine_rounds must be >= 0")
        if not 0.0 < self.refine_shrink < 1.0:
            raise DomainViolation("refine_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one scan, serializable with all fields.

    ``deviation`` is ``sharp_bound - observed_max``; for a max scan it is
    the sharpness gap and must be nonnegative up to numeric tolerance.  A
    negative gap (an unsound scan) is reported, not raised, so that callers
    such as the ``verify`` command can print the report and fail on it.
    ``objective`` records what was scanned: the functional ``modulus`` or
    the Toeplitz proof ``majorant``.  Exact float ties resolve to the first
    grid point; where a functional is constant along a face in exact
    arithmetic, rounding picks ``argmax``, and ``observed_max`` can exceed
    the bound by about 1e-16 (see the README's conventions).
    """

    functional: str
    mode: str
    objective: str
    observed_max: float
    argmax: dict
    sharp_bound: float
    deviation: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def toeplitz_log_majorant(p1, t):
    """Term-wise absolute-value majorant of the reduced log-Toeplitz form:
    ``(p1^4 t^2 + 16 t^2 + 16 p1^2 + 8 p1^2 t^2) / 256`` with ``t = |zeta|``.

    Dominates ``|toeplitz_log_reduced(p1, zeta)|`` for every phase of
    ``zeta`` and peaks at the corner ``(2, 1)`` with value 1/2.
    """
    return cth._majorant(cth._TOEPLITZ_LOG, p1, t)


def toeplitz_invlog_majorant(p1, t):
    """Term-wise absolute-value majorant of the reduced inverse-log-Toeplitz
    form; peaks at the corner ``(2, 1)`` with value 5/4."""
    return cth._majorant(cth._TOEPLITZ_INVLOG, p1, t)


# -- grid scan core ------------------------------------------------------------


def _scan(objective, bound, x_hi: float, grid: GridSpec):
    """Maximize ``objective`` over ``x in [0, x_hi]`` times the closed disk.

    ``objective(x, r, zeta)`` receives ``m`` rings as ``x`` and ``r =
    |zeta|`` of shape ``(m, 1)`` and ``zeta = r e^{it}`` of shape ``(m, A)``,
    and returns real values broadcastable to ``(m, A)``; objectives of ``r``
    alone leave the angular axis to the tie-break, which pins its first
    angle.  Exact ties resolve to the first grid point in C order.

    ``bound(x, r)`` takes ``x`` of shape ``(n, 1)`` and ``r`` of shape
    ``(1, R)`` and bounds the objective from above on every ring, rounding
    included.  A pass evaluates the ring with the largest bound for a seed
    value, then, in one call, the rings whose bound exceeds the seed or ties
    it at or before the seed ring; when an earlier pass's incumbent is at
    least the seed, the rings whose bound exceeds the incumbent.  No skipped
    ring holds the first C-order maximum, so the result is the unpruned
    scan's; a bound of ``+inf`` prunes nothing.  Each refine pass scans the
    window ``lo`` to ``hi`` over ``(x, |zeta|, arg zeta)``, shrunk around the
    incumbent and clipped to the domain but for the angle.  Returns
    ``(value, (x, zeta), nodes)``, ``nodes`` counting every grid node.
    """
    two_pi = 2.0 * math.pi
    lo, hi = np.zeros(3), np.array([x_hi, 1.0, two_pi])
    n, rs, ts = grid.zeta1_steps, grid.radial_steps, grid.angular_steps
    best_val = None
    best_params = None

    for rnd in range(grid.refine_rounds + 1):
        x = np.linspace(lo[0], hi[0], n)
        r = np.linspace(lo[1], hi[1], rs)
        # the first pass's window is the whole circle, whose end 2 pi is 0
        t = np.linspace(lo[2], hi[2], ts, endpoint=rnd > 0)
        zg = r[:, None] * np.exp(1j * t)[None, :]

        def rings(ids):
            i, j = np.divmod(ids, rs)
            return np.broadcast_to(objective(x[i, None], r[j, None], zg[j]),
                                   (ids.size, ts))

        ring_bound = np.broadcast_to(bound(x[:, None], r[None, :]), (n, rs)).ravel()
        s = int(np.argmax(ring_bound))
        seed = float(rings(np.array([s])).max())
        if best_val is None or seed > best_val:
            keep = ring_bound > seed
            keep[:s + 1] |= ring_bound[:s + 1] == seed
        else:
            keep = ring_bound > best_val
        ids = np.flatnonzero(keep)

        if ids.size:
            vals = rings(ids)
            m, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if best_val is None or vals[m, k] > best_val:
                best_val = float(vals[m, k])
                i, j = divmod(int(ids[m]), rs)
                best_params = (float(x[i]), complex(r[j] * np.exp(1j * t[k])))

        x_c, z_c = best_params
        center = np.array([x_c, abs(z_c), float(np.angle(z_c)) % two_pi])
        w = (hi - lo) * grid.refine_shrink
        lo = np.maximum(center - w / 2.0, (0.0, 0.0, -math.inf))
        hi = np.minimum(center + w / 2.0, (x_hi, 1.0, math.inf))

    return best_val, best_params, (grid.refine_rounds + 1) * n * rs * ts


def _zeta3_grid(zeta3_mode: str, grid: GridSpec) -> np.ndarray:
    """The ``zeta3`` points a brute-force oracle takes the maximum over."""
    t3 = np.linspace(0.0, 2.0 * math.pi, grid.angular_steps, endpoint=False)
    if zeta3_mode == "boundary":
        return np.exp(1j * t3)
    r3 = np.linspace(0.0, 1.0, grid.radial_steps)
    return (r3[:, None] * np.exp(1j * t3)[None, :]).ravel()


def _hankel_objective(functional: FunctionalId, grid: GridSpec, mode: str,
                      zeta3_mode: str):
    """The ``(zeta1, zeta2)`` objective of a Hankel functional's modulus for
    :func:`_scan`.

    Returns ``(objective, depth, zeta3_at, bound)``; ``depth`` counts the
    ``zeta3`` points per grid node, ``zeta3_at(zeta1, zeta2)`` is the
    ``zeta3`` at which the objective's value is attained, and ``bound`` is
    the ring bound for :func:`_scan` (``+inf`` for the oracles).  Every
    objective reads the split ``alpha + beta zeta3`` of the real coefficient
    forms ``_HANKEL[functional]``, with ``beta`` taken once per ring from the
    scan's ``r = |zeta2|``.  The exact objective is ``|alpha| + beta`` (max)
    or ``-max(|alpha| - beta, 0)`` (min).  Its max bound takes ``|alpha| <=
    |a0| + |a1| r + |a2| r^2`` from the same forms and adds ``beta`` and
    :data:`_BOUND_MARGIN`; its min bound is 0.  The oracles keep a running
    maximum of ``|alpha + beta zeta3|`` over their ``zeta3`` points.
    """
    table = _HANKEL[functional]
    split = partial(cth._hankel_split, table)

    if mode == "max" and zeta3_mode != "exact":
        z3_grid = _zeta3_grid(zeta3_mode, grid)

        def oracle(z1, r, z2):
            alpha, beta = split(z1, z2, r)
            return reduce(np.maximum, (np.abs(alpha + beta * z3) for z3 in z3_grid))

        def oracle_zeta3(z1, z2):
            alpha, beta = split(z1, z2, abs(z2))
            return z3_grid[int(np.argmax(np.abs(alpha + beta * z3_grid)))]

        return oracle, z3_grid.size, oracle_zeta3, _unbounded

    def objective(z1, r, z2):
        alpha, beta = split(z1, z2, r)
        if mode == "max":
            return np.abs(alpha) + beta
        return -np.maximum(np.abs(alpha) - beta, 0.0)

    def max_bound(z1, r):
        moduli = [np.abs(c) for c in cth._coeffs(table, z1)]
        return cth._quadratic(moduli, r) + cth._hankel_beta(z1, r) + _BOUND_MARGIN

    def zeta3_at(z1, z2):
        alpha, beta = (complex(v) for v in split(z1, z2, abs(z2)))
        if alpha == 0.0 or beta == 0.0:
            return 1.0 if mode == "max" else 0.0
        # the unit phase lining beta zeta3 (beta > 0) up with alpha; the minimum
        # takes the opposite phase, shortened until beta zeta3 cancels alpha
        z3 = alpha / abs(alpha)
        return z3 if mode == "max" else -z3 * min(abs(alpha) / abs(beta), 1.0)

    return objective, 1, zeta3_at, max_bound if mode == "max" else _zero


def _zero(_x, _r):
    """Ring bound of the min scans, whose objectives are negated moduli."""
    return 0.0


def _unbounded(_x, _r):
    """Ring bound of the max oracles, which evaluate every ring."""
    return math.inf


#: Hankel functionals: the coefficient table of their ``alpha``.
_HANKEL = {
    FunctionalId.HANKEL_LOG: cth._HANKEL_LOG_ALPHA,
    FunctionalId.HANKEL_INVLOG: cth._HANKEL_INVLOG_ALPHA,
}

#: Toeplitz functionals: the coefficient table of their reduced form.
_TOEPLITZ = {
    FunctionalId.TOEPLITZ_LOG: cth._TOEPLITZ_LOG,
    FunctionalId.TOEPLITZ_INVLOG: cth._TOEPLITZ_INVLOG,
}


def _report(functional, grid: GridSpec, mode: str, seed: int,
            zeta3_mode: str = "exact") -> BoundReport:
    functional = FunctionalId(functional)
    if zeta3_mode not in ("exact", "boundary", "disk"):
        raise DomainViolation("zeta3_mode must be 'exact', 'boundary' or 'disk'")
    grid = grid or GridSpec()
    objective = "modulus"
    depth = 1
    if functional in _HANKEL:
        scan_objective, depth, zeta3_at, bound = _hankel_objective(
            functional, grid, mode, zeta3_mode
        )
        val, (z1, z2), nodes = _scan(scan_objective, bound, 1.0, grid)
        z3 = complex(zeta3_at(z1, z2))
        argmax = {
            "zeta1": z1,
            "zeta2_re": z2.real,
            "zeta2_im": z2.imag,
            "zeta3_re": z3.real,
            "zeta3_im": z3.imag,
        }
    else:
        table = _TOEPLITZ[functional]
        if mode == "max":
            objective = "majorant"
            majorant = partial(cth._majorant, table)
            val, (p1, z), nodes = _scan(lambda x, r, _z: majorant(x, r), majorant, 2.0, grid)
        else:
            val, (p1, z), nodes = _scan(
                lambda x, _r, zg: -np.abs(cth._quadratic(cth._coeffs(table, x), zg)),
                _zero, 2.0, grid)
        argmax = {"p1": p1, "zeta_re": z.real, "zeta_im": z.imag}
    if mode == "min":
        val = -val
    bound = SHARP_BOUNDS[functional]
    return BoundReport(
        functional=functional.value,
        mode=mode,
        objective=objective,
        observed_max=val,
        argmax=argmax,
        sharp_bound=bound,
        deviation=bound - val,
        samples=nodes * depth,
        seed=seed,
    )


def maximize(functional: FunctionalId, grid: GridSpec = None, seed: int = 0,
             threads: int = 1, zeta3_mode: str = "exact") -> BoundReport:
    """Scan the parameter domain for the largest objective value and report
    it against the certified sharp bound.

    Hankel identifiers scan the functional modulus itself, with ``zeta3``
    eliminated exactly by default.  ``zeta3_mode="boundary"`` or ``"disk"``
    selects a brute-force reference oracle instead, which evaluates every
    grid node at ``angular_steps`` points of the circle ``|zeta3| = 1`` or
    at the ``radial_steps x angular_steps`` polar grid of the disk; both
    count those evaluations in ``samples``.  Toeplitz identifiers scan the
    proof majorant (see the module docstring) and ignore a valid
    ``zeta3_mode``; an unknown one raises for every identifier.  ``threads``
    has no effect: every scan runs on one thread, and the keyword remains
    only for the benchmark's call signature.
    """
    return _report(functional, grid, "max", seed, zeta3_mode)


def minimize_modulus(functional: FunctionalId, grid: GridSpec = None,
                     seed: int = 0, threads: int = 1) -> BoundReport:
    """Scan the same domain for the smallest functional modulus.

    The observed minimum is 0 for all four functionals (the identity
    function belongs to the class), so the claimed two-sided lower bounds
    are not domain-wide facts; they are attained-value statements covered
    by the extremal witnesses instead.  ``threads`` has no effect; it
    remains only for the benchmark's call signature.
    """
    return _report(functional, grid, "min", seed)


# -- proof-replication checks --------------------------------------------------


def _bisect(fn, lo: float, hi: float, iters: int = 100) -> float:
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def envelope_check(step: float = 1e-4) -> dict:
    """Certify the envelope analysis behind the inverse-Hankel bound.

    Checks, on a grid of the given step, which must lie in ``(0, root]``
    for the split root ``root ~ 0.452`` (else :class:`DomainViolation`):

    * the sixth case discriminant changes sign at its closed-form root;
    * the inner envelope stays below its peak value on the low range and
      the grid argmax sits at the peak location;
    * both envelopes stay below the certified bound 1/9 (the outer one
      attains it exactly at the right endpoint);
    * the sign table of the six discriminants, from one
      :func:`case_functions` call on the 999 points of a 1e-3 grid.
    """
    root = _bisect(lambda t: cth.case_functions(t).t6, 0.05, 0.95)
    # NaN fails too; a step beyond the root leaves the inner grid empty
    if not 0.0 < step <= root:
        raise DomainViolation(f"step = {step} must lie in (0, {root}]")
    peak_loc = cth.ENVELOPE_INNER_PEAK
    peak_val = cth.envelope_inner(peak_loc)

    t_inner = np.arange(step, root + step / 2.0, step)
    t_inner = t_inner[t_inner <= root]
    inner_vals = cth.envelope_inner(t_inner)
    inner_max = float(inner_vals.max())
    inner_arg = float(t_inner[int(np.argmax(inner_vals))])

    t_outer = np.arange(root, 1.0, step)
    if t_outer.size == 0 or t_outer[-1] < 1.0:
        t_outer = np.append(t_outer, 1.0)
    outer_vals = cth.envelope_outer(t_outer)
    outer_max = float(outer_vals.max())
    outer_arg = float(t_outer[int(np.argmax(outer_vals))])

    sign_grid = np.arange(1e-3, 1.0, 1e-3)
    c = cth.case_functions(sign_grid)
    signs_ok = np.all((c.t1 > 0) & (c.t2 <= 0) & (c.t3 > 0) & (c.t4 < 0) & (c.t5 < 0))
    t6_split_ok = (np.all(c.t6[sign_grid < root - 1e-3] <= 0)
                   and np.all(c.t6[sign_grid > root + 1e-3] > 0))

    bound = SHARP_BOUNDS[FunctionalId.HANKEL_INVLOG]
    report = {
        "split_root": root,
        "split_closed_form": cth.CASE_SPLIT_POINT,
        "split_agreement": abs(root - cth.CASE_SPLIT_POINT),
        "inner_peak_location": peak_loc,
        "inner_peak_value": peak_val,
        "inner_max": inner_max,
        "inner_argmax": inner_arg,
        "inner_below_peak": bool(inner_max <= peak_val + 1e-15),
        "inner_argmax_at_peak": bool(abs(inner_arg - peak_loc) <= step),
        "outer_max": outer_max,
        "outer_argmax": outer_arg,
        "bound": bound,
        "inner_below_bound": bool(inner_max < bound),
        "outer_below_bound": bool(outer_max <= bound + 1e-12),
        "sign_table_ok": bool(signs_ok),
        "t6_split_consistent": bool(t6_split_ok),
    }
    # every check above is a bool field
    report["ok"] = report["split_agreement"] <= 1e-10 and all(
        v for v in report.values() if isinstance(v, bool))
    return report


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
