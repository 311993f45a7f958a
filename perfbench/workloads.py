"""The four workloads: seeded inputs, one op each, and the op's gates.

Why each workload exists, and which layer metric should move which
end-to-end metric, is written down in ``README.md`` next to this file.

Inputs come in *passes*: a pass is a fixed, balanced set of op shapes whose
order and small per-op details the seed draws.  The timed loop checks the
clock only between passes, so every run measures whole passes and the seed
changes the work of a run by little.  ``pass_s`` is a nominal pass time on
a 2-core x86 machine; it sizes the traced run, so the traced counts depend
only on ``--seconds`` and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import gates
from petalstar import (
    ABCTriple,
    CASE_SPLIT_POINT,
    CaratheodoryPoint,
    ExtremalSpec,
    FunctionalId,
    GridSpec,
    abc_hankel_invlog,
    abc_hankel_log,
    build_extremal,
    case_functions,
    class_check,
    compose,
    hankel2_invlog,
    hankel2_log,
    hankel_det,
    hankel_invlog_from_p,
    hankel_log_from_p,
    inv_log_coeffs,
    inv_log_coeffs_closed,
    log_coeffs,
    log_coeffs_closed,
    maximize,
    minimize_modulus,
    p_from_zeta,
    quad_disk_max,
    quad_disk_max_grid,
    revert,
    toeplitz2_invlog,
    toeplitz2_log,
    toeplitz_det,
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``make_pass(rng)`` returns the inputs of one pass
    make_pass: Callable
    #: ``op(inputs, tracer)`` runs one op and raises if it fails
    op: Callable
    pass_s: float


def _kind(fid: FunctionalId) -> str:
    return "hankel" if fid.value.startswith("hankel") else "toeplitz"


def _samples(report) -> int:
    return report.samples


def _argmax_p(argmax: dict):
    point = CaratheodoryPoint(
        argmax["zeta1"],
        complex(argmax["zeta2_re"], argmax["zeta2_im"]),
        complex(argmax["zeta3_re"], argmax["zeta3_im"]),
    )
    return p_from_zeta(point)


_HANKEL_FROM_P = {
    FunctionalId.HANKEL_LOG: hankel_log_from_p,
    FunctionalId.HANKEL_INVLOG: hankel_invlog_from_p,
}


def _checked_max(fid, grid, threads, tr, prefix="", **kwargs):
    """One max scan, gated: sound, sharp, and (Hankel) attained at its
    reported arg-maximum through the independent ``p``-variable path."""
    kind = _kind(fid)
    rep = tr.call(f"{prefix}search.max.{kind}", maximize, fid, grid,
                  threads=threads, work=_samples, **kwargs)
    gates.check_max(rep)
    if kind == "hankel":
        p = tr.call(f"{prefix}caratheodory.p_from_zeta", _argmax_p, rep.argmax)
        value = tr.call(f"{prefix}caratheodory.hankel_from_p", _HANKEL_FROM_P[fid], p)
        gates.check_argmax_value(rep, abs(value))
    return rep


# -- certify: the paper's headline computation ---------------------------------


def certify_pass(rng):
    # the seed only reorders the four functionals; the grid stays the paper's
    return [tuple(FunctionalId(v) for v in rng.permutation([f.value for f in FunctionalId]))]


def certify_op(order, tr, threads=2, prefix=""):
    grid = GridSpec()
    for fid in order:
        _checked_max(fid, grid, threads, tr, prefix)


# -- sweep: a grid-convergence study of many small scans ------------------------

#: Grid corners: the acceptance suite's smallest grid and the largest sweep
#: grid, as (zeta1_steps, radial_steps, angular_steps, refine_rounds).
SWEEP_LO = (11, 7, 12, 0)
SWEEP_HI = (41, 16, 24, 2)
SWEEP_LEVELS = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)


def _sweep_grid(t: float, rng) -> GridSpec:
    z1, r, a = (
        int(np.clip(round(lo + (hi - lo) * t) + rng.integers(-1, 2), lo, hi))
        for lo, hi in zip(SWEEP_LO[:3], SWEEP_HI[:3])
    )
    return GridSpec(zeta1_steps=z1, radial_steps=r, angular_steps=a,
                    refine_rounds=round(SWEEP_HI[3] * t))


def sweep_pass(rng):
    """Every functional x mode x grid level once, in seeded order, each grid
    jittered by one step per axis.  Hankel max ops on the unrefined level
    also rerun with the full-disk zeta3 scan."""
    ops = []
    for fid in FunctionalId:
        for mode in ("max", "min"):
            for t in SWEEP_LEVELS:
                grid = _sweep_grid(t, rng)
                disk = mode == "max" and _kind(fid) == "hankel" and grid.refine_rounds == 0
                ops.append((fid, mode, grid, disk))
    return [ops[i] for i in rng.permutation(len(ops))]


def sweep_op(inp, tr):
    fid, mode, grid, disk = inp
    if mode == "min":
        rep = tr.call(f"search.min.{_kind(fid)}", minimize_modulus, fid, grid,
                      threads=1, work=_samples)
        gates.check_min(rep)
        return
    rep = _checked_max(fid, grid, 1, tr)
    if disk:
        full = tr.call(f"search.max.{_kind(fid)}", maximize, fid, grid, threads=1,
                       zeta3_mode="disk", work=_samples)
        gates.check_disk_agrees(rep, full)


# -- analysis: series, functionals and extremal functions ----------------------

ANALYSIS_ORDERS = (10, 20, 30, 40)
ANALYSIS_POWERS = (1, 2, 3)
CLASS_RADII = (0.3, 0.6, 0.9)
CLASS_ANGLES = 64


def analysis_pass(rng):
    """Every (power k, order) pair once with a seeded amplitude ``c`` in the
    unit disk, in seeded order."""
    ops = []
    for k in ANALYSIS_POWERS:
        for order in ANALYSIS_ORDERS:
            c = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            ops.append((complex(c), k, order))
    return [ops[i] for i in rng.permutation(len(ops))]


def analysis_op(inp, tr):
    c, k, order = inp
    f = tr.call("extremal.build", build_extremal, ExtremalSpec(c, k), order)

    inv = tr.call("series.revert", revert, f)
    back = tr.call("series.compose", compose, f, inv)
    gates.check_reversion(back.coeffs, inv.coeffs)

    m = order - 1
    g = tr.call("functionals.log_coeffs", log_coeffs, f, m)
    G = tr.call("functionals.inv_log_coeffs", inv_log_coeffs, f, m)
    gates.check_close("functionals", "log_coeffs",
                      g[:4], tr.call("functionals.closed.log_coeffs", log_coeffs_closed, f))
    gates.check_close("functionals", "inv_log_coeffs",
                      G[:4], tr.call("functionals.closed.inv_log_coeffs", inv_log_coeffs_closed, f))

    pairs = (
        ("hankel_det", hankel_det, g, "hankel2_log", hankel2_log),
        ("toeplitz_det", toeplitz_det, g, "toeplitz2_log", toeplitz2_log),
        ("hankel_det", hankel_det, G, "hankel2_invlog", hankel2_invlog),
        ("toeplitz_det", toeplitz_det, G, "toeplitz2_invlog", toeplitz2_invlog),
    )
    for det_name, det, seq, closed_name, closed in pairs:
        got = tr.call(f"functionals.{det_name}", det, seq, 2, 1)
        want = tr.call(f"functionals.closed.{closed_name}", closed, f)
        gates.check_close("functionals", closed_name, got, want)

    rep = tr.call("extremal.class_check", class_check, f, CLASS_RADII, CLASS_ANGLES,
                  work=_samples)
    gates.check_class(rep, c, k, CLASS_RADII, CLASS_ANGLES)


# -- casework: the inverse-Hankel case analysis --------------------------------

ORACLE_GRID = (600, 600)


def casework_pass(rng):
    zeta1 = 0.0
    while zeta1 == 0.0:  # the (A, B, C) reductions have poles at 0 and 1
        zeta1 = float(rng.uniform())
    return [(zeta1, tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3)))]


def casework_op(inp, tr):
    zeta1, triple = inp
    triples = (
        tr.call("caratheodory.abc_hankel_log", abc_hankel_log, zeta1),
        tr.call("caratheodory.abc_hankel_invlog", abc_hankel_invlog, zeta1),
        ABCTriple(*triple),
    )
    for abc in triples:
        closed = tr.call("diskmax.closed", quad_disk_max, *abc)
        oracle = tr.call("diskmax.oracle", quad_disk_max_grid, *abc, *ORACLE_GRID,
                         work=ORACLE_GRID[0] * ORACLE_GRID[1])
        gates.check_oracle(abc, closed, oracle)
    table = tr.call("caratheodory.case_functions", case_functions, zeta1)
    gates.check_case_table(table, zeta1, CASE_SPLIT_POINT)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", certify_pass, certify_op, pass_s=5.2),
        Workload("sweep", sweep_pass, sweep_op, pass_s=0.15),
        Workload("analysis", analysis_pass, analysis_op, pass_s=0.16),
        Workload("casework", casework_pass, casework_op, pass_s=0.023),
    )
}
