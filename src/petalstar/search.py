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
``beta zeta3`` up with ``alpha``), so ``zeta3`` is eliminated in closed
form.  The bounds are upper bounds; every modulus is 0 at the identity
function ``f(z) = z``, ``x = 0`` and ``zeta = zeta3 = 0`` (no table's
``c0`` or ``c1`` has a ``u^0`` term, and ``beta`` has the factor ``x``),
the first node of every grid, where :func:`minimize_modulus` reads it.

* The two Hankel functionals take ``x = zeta1 in [0, 1]``, ``zeta =
  zeta2`` and ``beta = zeta1 (1 - zeta1^2) (1 - |zeta2|^2) / 12``.
  ``maximize`` uses the exact elimination by default;
  ``zeta3_mode="boundary"`` and ``"disk"`` instead take the largest modulus
  over a grid of the circle or of the disk in ``zeta3``, and are kept as
  brute-force reference oracles.

* The two Toeplitz functionals are the ``beta = 0`` case, in the
  reduced parameters ``(p1, zeta)`` with ``p1 in [0, 2]``; they have no
  ``zeta3``.  Their certified sharp bounds bound the term-wise
  absolute-value majorant of the reduced form, its coefficient table taken
  in absolute value (see :func:`~petalstar.caratheodory.toeplitz_log_majorant`),
  which dominates the modulus pointwise and attains the bound at the corner
  ``(p1, |zeta|) = (2, 1)``.  That table is nonnegative, so the majorant
  increases in ``p1`` and ``|zeta|`` and the corner is its unique maximum
  over the domain and over every grid, whose first pass holds the corner
  node and whose refine passes keep the incumbent on ties.  ``maximize``
  therefore reads the majorant at the corner instead of scanning it, and
  records so in the report.  The modulus itself stays well below it (its
  maximum over the domain is 1/4 for the log variant); the reduced-form
  functions in :mod:`petalstar.caratheodory` evaluate it.

So only the two Hankel maxima and their ``zeta3`` oracles scan.  Each pass
evaluates the functional's coefficient table once on its ``x`` axis, and
an upper bound on each ``(x, |zeta|)`` ring, read from those rows, prunes
the rings the pass need not evaluate, whose objective reads the same rows; :func:`_scan` states the pass contract and
:func:`_objective` builds each scan's rows, objective and bound.  Each
functional has one record in ``_FORMS`` (table, ``beta``'s ``x`` factor,
``x`` range and argmax names) and one path from its identifier to its
report.

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
from .errors import _MAX_POINTS, DomainViolation, _count

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
#: bound's largest shortfall below the split's ``|alpha| + beta``, whose
#: rounding differs from the bound's matrix product: about 1e-17 over the
#: default grid's first pass and 10^5 random points.  None is added where
#: the rows past ``c0`` are 0 (``zeta1 = 1``): there the bound and the
#: objective are both ``|c0|`` exactly.
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
    integers; NumPy integers are stored as Python ints.  Neither
    ``(refine_rounds + 1) * zeta1_steps * radial_steps``, the rings all
    passes bound, nor ``radial_steps * angular_steps``, the most points one
    pass evaluates at one ``x``, may exceed ``_MAX_POINTS``; the default
    grid allows 120 refine rounds.
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
        passes = self.refine_rounds + 1
        if max(passes * self.zeta1_steps, self.angular_steps) * self.radial_steps > _MAX_POINTS:
            raise DomainViolation(
                f"(refine_rounds + 1) * zeta1_steps * radial_steps and "
                f"radial_steps * angular_steps must be at most {_MAX_POINTS}")
        if not 0.0 < self.refine_shrink < 1.0:
            raise DomainViolation("refine_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one scan, serializable with all fields.

    ``deviation`` is ``sharp_bound - observed_max``; for a max scan it is
    the sharpness gap and must be nonnegative up to numeric tolerance.  A
    negative gap (an unsound scan) is reported, not raised, so that callers
    such as the ``verify`` command can print the report and fail on it.
    ``objective`` records what was maximized: the functional ``modulus``
    or the Toeplitz proof ``majorant``, read at its corner.  Exact float
    ties resolve to the first grid point; where a functional is constant
    along a face in exact arithmetic, rounding picks ``argmax``, and
    ``observed_max`` can exceed the bound by about 1e-16 (see the README's
    conventions).
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


def _axis(ramp, lo: float, hi: float, endpoint: bool = True):
    """``np.linspace(lo, hi, ramp.size, endpoint=endpoint)``, bit for bit, from
    ``ramp = np.arange(ramp.size, dtype=float)``: the same multiply by the
    step (a divide and multiply where the step underflows to 0) and add."""
    div = ramp.size - 1 if endpoint else ramp.size
    step = (hi - lo) / div
    y = ramp * step if step != 0.0 else ramp / div * (hi - lo)
    y += lo
    if endpoint:
        y[-1] = hi
    return y


def _scan(rows, objective, bound, x_hi: float, grid: GridSpec):
    """Maximize ``objective`` over ``x in [0, x_hi]`` times the closed disk.

    Each pass calls ``rows(x)`` once on its ``x`` axis, of shape ``(n,)``,
    for a ``(k, n)`` array whose column ``i`` holds what the objective and
    the bound need of ``x[i]``; they read these rows in place of ``x``.
    ``bound(p, r)`` takes all of them as ``p`` of shape ``(k, n, 1)`` with
    ``r`` of shape ``(R,)`` and bounds the objective from above on every
    ring, rounding included.  ``objective(p, r, zeta)`` receives ``m``
    rings as their columns ``p`` of shape ``(k, m, 1)``, ``r = |zeta|`` of
    shape ``(m, 1)`` and ``zeta = r e^{it}`` of shape ``(m, A)``, and
    returns real values of shape ``(m, A)``, or ``(m, 1)`` for an objective
    of the rows and ``r`` alone, which pins the first angle of each ring.
    Exact ties resolve to the first grid point in C order.

    The first pass evaluates the seed ring, the first ring of largest
    bound, as the first incumbent.  Each pass then evaluates, in one call
    and only if there are any, the other rings whose bound exceeds the
    incumbent, and in the first pass also those before the seed ring whose
    bound equals it.  A ring replaces the incumbent with a larger value, or
    in the first pass with an equal one before the seed ring.  No pruned
    ring holds the first C-order maximum, so the result is the unpruned
    scan's; a bound of ``+inf`` prunes nothing.

    Each refine pass scans a window over ``(x, |zeta|, arg zeta)``, six
    Python floats shrunk around the incumbent and clipped to the domain but
    for the angle; every axis is ``np.linspace``'s, built by :func:`_axis`.
    A pass builds its angle axis only if it evaluates a ring.  Returns
    ``(value, (x, zeta), column)``, ``column`` the incumbent's rows, a view
    ``p[:, i]`` into those of the pass that found it.
    """
    two_pi = 2.0 * math.pi
    n, rs, ts = grid.zeta1_steps, grid.radial_steps, grid.angular_steps
    x_ramp, r_ramp, t_ramp = (np.arange(k, dtype=float) for k in (n, rs, ts))
    x_lo, x_up, r_lo, r_up, t_lo, t_up = 0.0, x_hi, 0.0, 1.0, 0.0, two_pi
    best_val = None

    def first_max(ids):
        # the first C-order maximum over this pass's rings ids: value, ring, point, column
        ring_r = r[ids % rs, None]
        vals = objective(p[:, ids // rs, None], ring_r, ring_r * phase)
        m, k = divmod(int(np.argmax(vals)), vals.shape[1])
        i, j = divmod(int(ids[m]), rs)
        return float(vals[m, k]), int(ids[m]), (float(x[i]), complex(r[j] * phase[k])), p[:, i]

    for rnd in range(grid.refine_rounds + 1):
        x = _axis(x_ramp, x_lo, x_up)
        r = _axis(r_ramp, r_lo, r_up)
        p = rows(x)
        ring_bound = bound(p[:, :, None], r)
        if np.shape(ring_bound) != (n, rs):
            ring_bound = np.broadcast_to(ring_bound, (n, rs))
        ring_bound = ring_bound.ravel()

        # the incumbent's place in this pass's C order: the seed ring's in the
        # first pass, before every ring in a refine pass
        seed, phase = -1, None
        if best_val is None:
            # the first pass's angles are the whole circle, whose end 2 pi is 0
            phase = np.exp(1j * _axis(t_ramp, t_lo, t_up, endpoint=False))
            seed = int(np.argmax(ring_bound))
            best_val, _, best_params, best_col = first_max(np.array([seed]))
        keep = ring_bound > best_val
        if seed >= 0:
            keep[:seed] |= ring_bound[:seed] == best_val
            keep[seed] = False
        ids = np.flatnonzero(keep)

        if ids.size:
            if phase is None:
                phase = np.exp(1j * _axis(t_ramp, t_lo, t_up))
            val, ring, params, col = first_max(ids)
            if val > best_val or val == best_val and ring < seed:
                best_val, best_params, best_col = val, params, col

        x_c, z_c = best_params
        r_c, t_c = abs(z_c), math.atan2(z_c.imag, z_c.real) % two_pi
        half = (x_up - x_lo) * grid.refine_shrink / 2.0
        x_lo, x_up = max(x_c - half, 0.0), min(x_c + half, x_hi)
        half = (r_up - r_lo) * grid.refine_shrink / 2.0
        r_lo, r_up = max(r_c - half, 0.0), min(r_c + half, 1.0)
        half = (t_up - t_lo) * grid.refine_shrink / 2.0
        t_lo, t_up = t_c - half, t_c + half

    return best_val, best_params, best_col


def _zeta3_grid(zeta3_mode: str, grid: GridSpec) -> np.ndarray:
    """The ``zeta3`` points a brute-force oracle takes the maximum over."""
    t3 = np.linspace(0.0, 2.0 * math.pi, grid.angular_steps, endpoint=False)
    if zeta3_mode == "boundary":
        return np.exp(1j * t3)
    r3 = np.linspace(0.0, 1.0, grid.radial_steps)
    return (r3[:, None] * np.exp(1j * t3)[None, :]).ravel()


def _zero(_p, _r):
    """The ``beta`` of the Toeplitz forms, which have no ``zeta3``."""
    return 0.0


def _unbounded(_p, _r):
    """Ring bound of the max oracles, which evaluate every ring."""
    return math.inf


#: Each functional's form ``alpha + beta zeta3``: the coefficient table of
#: ``alpha``, the ``x`` factor of ``beta`` (``None`` for a form without
#: ``zeta3``), the upper end of ``x`` and the argmax names of ``(x, zeta)``.
_FORMS = {
    FunctionalId.HANKEL_LOG: (cth._HANKEL_LOG_ALPHA, cth._beta_z1, 1.0, ("zeta1", "zeta2")),
    FunctionalId.HANKEL_INVLOG: (cth._HANKEL_INVLOG_ALPHA, cth._beta_z1, 1.0,
                                 ("zeta1", "zeta2")),
    FunctionalId.TOEPLITZ_LOG: (cth._TOEPLITZ_LOG, None, 2.0, ("p1", "zeta")),
    FunctionalId.TOEPLITZ_INVLOG: (cth._TOEPLITZ_INVLOG, None, 2.0, ("p1", "zeta")),
}


def _objective(functional: FunctionalId, grid: GridSpec, zeta3_mode: str):
    """The rows, objective and ring bound of one max scan for :func:`_scan`.

    Returns ``(rows, objective, bound, depth, zeta3_at)``: ``bound`` is the
    ring bound (``+inf`` for the oracles), ``depth`` counts the ``zeta3``
    points per grid node, and ``zeta3_at(column, zeta)`` is the ``zeta3`` at
    which the objective's value is attained, ``None`` for a form without
    ``zeta3``.  ``rows(x)`` evaluates the coefficient table of
    ``_FORMS[functional]`` once per pass, bit-equal to ``cth._coeffs``, and
    for the Hankel forms writes ``beta``'s ``x`` factor as a fourth row;
    every objective reads the form ``alpha + beta zeta3`` from those rows,
    with ``beta``'s ``r`` factor taken once per ring.  The objective, a
    Hankel one (a Toeplitz max runs no scan), is ``|alpha| + beta``, bounded
    by ``|c0| + |c1| r + |c2| r^2 + beta`` plus :data:`_BOUND_MARGIN`; its
    oracles keep a running maximum of ``|alpha + beta zeta3|`` over their
    ``zeta3`` points.  ``zeta3_at`` splits the rows column :func:`_scan`
    returns as the objectives do.
    """
    table, beta_x, _, _ = _FORMS[functional]
    coeffs = cth._coeff_rows(table)
    if beta_x is None:
        rows, beta = coeffs, _zero
    else:
        def rows(x):
            p = np.empty((4, x.size))
            coeffs(x, out=p[:3])
            p[3] = beta_x(x)
            return p

        def beta(p, r):
            return p[3] * cth._beta_r(r)

    def split(p, r, z):
        return cth._quadratic(p, z), beta(p, r)

    if zeta3_mode != "exact":
        z3_grid = _zeta3_grid(zeta3_mode, grid)

        def oracle(p, r, z):
            alpha, b = split(p, r, z)
            return reduce(np.maximum, (np.abs(alpha + b * z3) for z3 in z3_grid))

        def oracle_zeta3(p, z):
            alpha, b = split(p, abs(z), z)
            return z3_grid[int(np.argmax(np.abs(alpha + b * z3_grid)))]

        return rows, oracle, _unbounded, z3_grid.size, oracle_zeta3

    def objective(p, r, z):
        alpha, b = split(p, r, z)
        return np.abs(alpha) + b

    def bound(p, r):
        # one matrix product of the rows' moduli with the radius block (1, r,
        # r^2 and, for the Hankel rows, beta's r factor); the margin, added to
        # |c0| where a row past it is nonzero, covers its rounding too
        moduli = np.abs(p[:, :, 0])
        np.add(moduli[0], _BOUND_MARGIN, out=moduli[0], where=moduli[1:].any(axis=0))
        block = np.empty((len(p), r.size))
        block[0], block[1] = 1.0, r
        np.multiply(r, r, out=block[2])
        if len(p) > 3:
            block[3] = cth._beta_r(r)
        return moduli.T @ block

    def zeta3_at(p, z):
        alpha, b = (complex(v) for v in split(p, abs(z), z))
        if alpha == 0.0 or b == 0.0:
            return 1.0
        # the unit phase lining beta zeta3 (beta > 0) up with alpha
        return alpha / abs(alpha)

    return rows, objective, bound, 1, None if beta_x is None else zeta3_at


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
    table, beta_x, x_hi, (x_name, z_name) = _FORMS[functional]
    samples = (grid.refine_rounds + 1) * grid.zeta1_steps * grid.radial_steps * grid.angular_steps
    # a minimum (0 at the identity point, the first node) and a Toeplitz max
    # (the majorant's corner) are read at the node a scan of the grid would
    # report; samples count the grid's nodes all the same
    if mode == "min":
        val, x, z, z3 = 0.0, 0.0, 0j, 0j
    elif beta_x is None:
        val, x, z = cth._majorant(table, x_hi, 1.0), x_hi, 1 + 0j
    else:
        rows, objective, bound, depth, zeta3_at = _objective(functional, grid, zeta3_mode)
        val, (x, z), column = _scan(rows, objective, bound, x_hi, grid)
        z3 = complex(zeta3_at(column, z))
        samples *= depth
    argmax = {x_name: x, f"{z_name}_re": z.real, f"{z_name}_im": z.imag}
    if beta_x is not None:
        argmax.update(zeta3_re=z3.real, zeta3_im=z3.imag)
    sharp = SHARP_BOUNDS[functional]
    return BoundReport(
        functional=functional.value,
        mode=mode,
        objective="majorant" if mode == "max" and beta_x is None else "modulus",
        observed_max=val,
        argmax=argmax,
        sharp_bound=sharp,
        deviation=sharp - val,
        samples=samples,
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
    forms have no ``zeta3``, read the proof majorant at its corner, its
    maximum on every grid (see the module docstring), count the grid's
    nodes in ``samples`` and ignore a valid ``zeta3_mode``; an unknown one
    raises for every identifier.  ``threads`` has no effect: every scan
    runs on one thread, and the keyword remains only for the benchmark's
    call signature.
    """
    return _report(functional, grid, "max", seed, zeta3_mode)


def minimize_modulus(functional: FunctionalId, grid: GridSpec = None,
                     seed: int = 0, threads: int = 1) -> BoundReport:
    """Report the smallest functional modulus over the same domain.

    The minimum is 0 for all four functionals, attained at the identity
    function, which belongs to the class.  It is read, not scanned, at its
    parameter point ``x = 0``, ``zeta = 0`` (and ``zeta3 = 0``), the first
    node of every grid, and ``samples`` counts the grid's nodes as for a
    scan (see the module docstring).  So the claimed two-sided lower bounds
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
