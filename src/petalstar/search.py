"""Brute-force certification of the sharp bounds over the parameter domain.

The four second-determinant functionals are certified by scanning their
parameter domains on product grids and comparing the observed extrema with
the claimed sharp bounds.  Every scan runs on the same two-dimensional core:
a first parameter ``x`` on an interval times a point ``zeta`` of the closed
unit disk on a polar grid, refined around the incumbent.

All four have one shape in the scan variables, ``alpha(x, zeta) + beta(x,
|zeta|) zeta3``, with ``alpha = c0 + c1 zeta + c2 zeta^2`` read from the
functional's coefficient table in :mod:`petalstar.caratheodory`.  Over
``|zeta3| <= 1`` the modulus peaks at ``|alpha| + beta`` (``zeta3`` lines
``beta zeta3`` up with ``alpha``) and bottoms out at ``max(|alpha| - beta,
0)``, so ``zeta3`` is eliminated in closed form, and every minimum scan
reads that one objective.

* The two Hankel functionals take ``x = zeta1 in [0, 1]``, ``zeta =
  zeta2`` and ``beta = zeta1 (1 - zeta1^2) (1 - |zeta2|^2) / 12``.
  ``maximize`` uses the exact elimination by default;
  ``zeta3_mode="boundary"`` and ``"disk"`` instead take the largest modulus
  over a grid of the circle or of the disk in ``zeta3``, and are kept as
  brute-force reference oracles.

* The two Toeplitz functionals are the ``beta = 0`` case, scanned in the
  reduced parameters ``(p1, zeta)`` with ``p1 in [0, 2]``; they have no
  ``zeta3``.  The certified sharp bounds for these two are bounds on the
  term-wise absolute-value majorant of the reduced form (see
  :func:`~petalstar.caratheodory.toeplitz_log_majorant`), which dominates
  the functional modulus pointwise and attains the bound at the corner
  ``(p1, |zeta|) = (2, 1)``.
  It is the reduced form's coefficient table taken in absolute value.
  ``maximize`` therefore scans the majorant for them, and records which
  objective was scanned in the report.  The pointwise modulus itself stays
  well below the majorant (its true maximum over the same domain is 1/4
  for the log variant); it remains available through the reduced-form
  functions in :mod:`petalstar.caratheodory`, and :func:`minimize_modulus`
  scans it for the minima.

The core only maximizes; :func:`minimize_modulus` scans the negated
modulus.  An upper bound on each ``(x, |zeta|)`` ring prunes the rings a
pass need not evaluate, as :func:`_scan` states, with each scan's bound
from :func:`_objective`.  Each functional has one record in ``_FORMS``
(table, ``beta``, ``x`` range and argmax names) and one path from its
identifier to its report.

Scans are deterministic and run on one thread: exact ties in the
arg-extremum resolve to the lexicographically first grid point, and reports
carry the seed and sample count, which counts every grid node, pruned or
not.

This module works in the parameters alone: it reads
:mod:`petalstar.caratheodory` and no series code.  :func:`envelope_check`
belongs here because it certifies against :data:`SHARP_BOUNDS`; the
rotation laws, a check on series, are
:func:`petalstar.functionals.rotation_check`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce
from enum import Enum

import numpy as np

from . import caratheodory as cth
from .errors import DomainViolation, _count

__all__ = [
    "FunctionalId",
    "GridSpec",
    "BoundReport",
    "SHARP_BOUNDS",
    "EXTREMAL_WITNESS",
    "maximize",
    "minimize_modulus",
    "envelope_check",
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
            object.__setattr__(self, name, _count(getattr(self, name), name))
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
    included.  Each pass prunes its rings against a floor and evaluates, in
    one call and only if there are any, the rings whose bound exceeds it.
    The first pass takes its floor from the seed ring, the first ring of
    largest bound, and also keeps the rings at or before the seed ring
    whose bound equals the floor; a refine pass takes the incumbent, which
    only a strictly larger value replaces.  An ``objective`` that ``is``
    its ``bound`` (a function of ``x`` and ``r`` alone) is never called:
    its rings read their values off the bound, at the pass's first angle.
    No pruned ring holds the first C-order maximum, so the result is the
    unpruned scan's; a bound of ``+inf`` prunes nothing.  Each refine pass
    scans the window ``lo`` to ``hi`` over ``(x, |zeta|, arg zeta)``,
    shrunk around the incumbent and clipped to the domain but for the
    angle.  Returns ``(value, (x, zeta), nodes)``, ``nodes`` counting every
    grid node.
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
        phase = np.exp(1j * t)

        ring_bound = np.broadcast_to(bound(x[:, None], r[None, :]), (n, rs)).ravel()

        def rings(ids):
            if objective is bound:
                # constant on each ring: its first maximum is at the first angle
                return ring_bound[ids, None]
            i, j = np.divmod(ids, rs)
            ring_r = r[j, None]
            return np.broadcast_to(objective(x[i, None], ring_r, ring_r * phase),
                                   (ids.size, ts))

        if best_val is None:
            s = int(np.argmax(ring_bound))
            floor = float(rings(np.array([s])).max())
            keep = ring_bound > floor
            keep[:s + 1] |= ring_bound[:s + 1] == floor
        else:
            keep = ring_bound > best_val
        ids = np.flatnonzero(keep)

        if ids.size:
            vals = rings(ids)
            m, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if best_val is None or vals[m, k] > best_val:
                best_val = float(vals[m, k])
                i, j = divmod(int(ids[m]), rs)
                best_params = (float(x[i]), complex(r[j] * phase[k]))

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


def _zero(_x, _r):
    """Ring bound of the min scans, whose objectives are negated moduli, and
    the ``beta`` of the Toeplitz forms, which have no ``zeta3``."""
    return 0.0


def _unbounded(_x, _r):
    """Ring bound of the max oracles, which evaluate every ring."""
    return math.inf


#: Each functional's form ``alpha + beta zeta3``: the coefficient table of
#: ``alpha``, ``beta(x, r)``, the upper end of ``x`` and the argmax names of
#: ``(x, zeta)``.
_FORMS = {
    FunctionalId.HANKEL_LOG: (cth._HANKEL_LOG_ALPHA, cth._hankel_beta, 1.0, ("zeta1", "zeta2")),
    FunctionalId.HANKEL_INVLOG: (cth._HANKEL_INVLOG_ALPHA, cth._hankel_beta, 1.0,
                                 ("zeta1", "zeta2")),
    FunctionalId.TOEPLITZ_LOG: (cth._TOEPLITZ_LOG, _zero, 2.0, ("p1", "zeta")),
    FunctionalId.TOEPLITZ_INVLOG: (cth._TOEPLITZ_INVLOG, _zero, 2.0, ("p1", "zeta")),
}


def _objective(functional: FunctionalId, grid: GridSpec, mode: str, zeta3_mode: str):
    """The ``(x, zeta)`` objective of one scan for :func:`_scan`.

    Returns ``(objective, bound, depth, zeta3_at)``: ``bound`` is the ring
    bound (``+inf`` for the oracles), ``depth`` counts the ``zeta3`` points
    per grid node, and ``zeta3_at(x, zeta)`` is the ``zeta3`` at which the
    objective's value is attained, ``None`` for a form without ``zeta3``.
    Every objective reads the form ``alpha + beta zeta3`` of
    ``_FORMS[functional]``, with ``beta`` taken once per ring from the
    scan's ``r = |zeta|``.  The min objective is ``-max(|alpha| - beta, 0)``,
    bounded by 0.  A Toeplitz max scans the majorant, returned as both
    objective and bound (see :func:`_scan` for what that means).  The
    Hankel max is ``|alpha| + beta``, bounded by ``|c0| + |c1| r + |c2| r^2 +
    beta`` from the same table plus :data:`_BOUND_MARGIN`; its oracles keep
    a running maximum of ``|alpha + beta zeta3|`` over their ``zeta3`` points.
    """
    table, beta, _, _ = _FORMS[functional]
    if mode == "max" and beta is _zero:
        def majorant(x, r, _z=None):
            return cth._majorant(table, x, r)
        return majorant, majorant, 1, None

    def split(x, z, r):
        return cth._quadratic(cth._coeffs(table, x), z), beta(x, r)

    if mode == "max" and zeta3_mode != "exact":
        z3_grid = _zeta3_grid(zeta3_mode, grid)

        def oracle(x, r, z):
            alpha, b = split(x, z, r)
            return reduce(np.maximum, (np.abs(alpha + b * z3) for z3 in z3_grid))

        def oracle_zeta3(x, z):
            alpha, b = split(x, z, abs(z))
            return z3_grid[int(np.argmax(np.abs(alpha + b * z3_grid)))]

        return oracle, _unbounded, z3_grid.size, oracle_zeta3

    def objective(x, r, z):
        alpha, b = split(x, z, r)
        if mode == "max":
            return np.abs(alpha) + b
        return -np.maximum(np.abs(alpha) - b, 0.0)

    def max_bound(x, r):
        moduli = [np.abs(c) for c in cth._coeffs(table, x)]
        return cth._quadratic(moduli, r) + beta(x, r) + _BOUND_MARGIN

    def zeta3_at(x, z):
        alpha, b = (complex(v) for v in split(x, z, abs(z)))
        if alpha == 0.0 or b == 0.0:
            return 1.0 if mode == "max" else 0.0
        # the unit phase lining beta zeta3 (beta > 0) up with alpha; the minimum
        # takes the opposite phase, shortened until beta zeta3 cancels alpha
        z3 = alpha / abs(alpha)
        return z3 if mode == "max" else -z3 * min(abs(alpha) / abs(b), 1.0)

    return (objective, max_bound if mode == "max" else _zero, 1,
            None if beta is _zero else zeta3_at)


def _report(functional, grid: GridSpec, mode: str, seed: int,
            zeta3_mode: str = "exact") -> BoundReport:
    try:
        functional = FunctionalId(functional)
    except ValueError:
        raise DomainViolation(f"unknown functional {functional!r}") from None
    seed = _count(seed, "seed")
    if zeta3_mode not in ("exact", "boundary", "disk"):
        raise DomainViolation("zeta3_mode must be 'exact', 'boundary' or 'disk'")
    if grid is None:
        grid = GridSpec()
    elif not isinstance(grid, GridSpec):
        raise DomainViolation(f"grid = {grid!r} is not a GridSpec")
    objective, bound, depth, zeta3_at = _objective(functional, grid, mode, zeta3_mode)
    _, _, x_hi, (x_name, z_name) = _FORMS[functional]
    val, (x, z), nodes = _scan(objective, bound, x_hi, grid)
    argmax = {x_name: x, f"{z_name}_re": z.real, f"{z_name}_im": z.imag}
    if zeta3_at is not None:
        z3 = complex(zeta3_at(x, z))
        argmax.update(zeta3_re=z3.real, zeta3_im=z3.imag)
    if mode == "min":
        val = -val
    sharp = SHARP_BOUNDS[functional]
    return BoundReport(
        functional=functional.value,
        mode=mode,
        objective="majorant" if mode == "max" and zeta3_at is None else "modulus",
        observed_max=val,
        argmax=argmax,
        sharp_bound=sharp,
        deviation=sharp - val,
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
    count those evaluations in ``samples``.  Toeplitz identifiers, whose
    forms have no ``zeta3``, scan the proof majorant (see the module
    docstring) and ignore a valid ``zeta3_mode``; an unknown one raises for
    every identifier.  ``threads``
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
