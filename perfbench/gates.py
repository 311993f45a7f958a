"""Correctness gates: each checks one library output against an independent
path or a known value, and raises :class:`GateError` naming the layer whose
output it rejected.

They take plain values and report-like objects (anything with the fields
read here), so the benchmark's tests can hand them perturbed outputs.
"""

from __future__ import annotations

import numpy as np

from tracing import GateError

#: Sharpness and soundness tolerances of ``petalstar verify`` and of
#: acceptance criterion 2.
MAX_GAP = 5e-4
SOUND_SLACK = 1e-9
#: Boundary-versus-disk agreement of criterion 5, and the substitution check
#: on the reported arg-maximum.
CROSS_TOL = 1e-10
#: Every scan grid contains the identity point, where all four functionals
#: vanish.
MIN_TOL = 1e-12
#: Closed piecewise maximum versus the 600 x 600 grid oracle (criterion 4).
ORACLE_TOL = 5e-3
#: Relative tolerance of the series-path versus closed-form coefficients.
REL_TOL = 1e-10


def check_max(report) -> None:
    """A max scan is sound (never above the bound) and sharp (within
    ``MAX_GAP`` of it); every product grid contains the attaining point."""
    if report.observed_max > report.sharp_bound + SOUND_SLACK:
        raise GateError("search", f"{report.functional}: observed {report.observed_max!r} "
                        f"exceeds the bound {report.sharp_bound!r}")
    if report.sharp_bound - report.observed_max > MAX_GAP:
        raise GateError("search", f"{report.functional}: gap "
                        f"{report.sharp_bound - report.observed_max:.3e} > {MAX_GAP}")


def check_argmax_value(report, reevaluated: float) -> None:
    """The functional re-evaluated at the reported arg-maximum through the
    coefficient (``p``) path equals the reported maximum."""
    if abs(reevaluated - report.observed_max) > CROSS_TOL:
        raise GateError("search", f"{report.functional}: value at argmax {reevaluated!r} "
                        f"!= observed {report.observed_max!r}")


def check_min(report) -> None:
    if abs(report.observed_max) > MIN_TOL:
        raise GateError("search", f"{report.functional}: minimum {report.observed_max!r} != 0")


def check_disk_agrees(boundary, disk) -> None:
    """The boundary zeta3 scan and the full-disk scan find the same maximum."""
    if abs(boundary.observed_max - disk.observed_max) > CROSS_TOL:
        raise GateError("search", f"{boundary.functional}: boundary {boundary.observed_max!r} "
                        f"!= disk {disk.observed_max!r}")


def check_reversion(roundtrip_coeffs, inverse_coeffs) -> None:
    """``compose(f, revert(f)) = z``, relative to the inverse's scale:
    at order 40 the inverse coefficients reach ~1e12, so an absolute gate
    would reject correct output."""
    identity = np.zeros(len(roundtrip_coeffs), dtype=complex)
    identity[1] = 1.0
    residual = float(np.abs(np.asarray(roundtrip_coeffs) - identity).max())
    scale = max(1.0, float(np.abs(np.asarray(inverse_coeffs)).max()))
    if residual > REL_TOL * scale:
        raise GateError("series", f"reversion residual {residual:.3e} > "
                        f"{REL_TOL:.0e} x scale {scale:.3e}")


def check_close(layer: str, what: str, got, want) -> None:
    """``got`` matches the independent value ``want`` to ``REL_TOL``,
    relative to ``max(1, |want|)``."""
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    want = np.atleast_1d(np.asarray(want, dtype=complex))
    err = float(np.abs(got - want).max())
    scale = max(1.0, float(np.abs(want).max()))
    if err > REL_TOL * scale:
        raise GateError(layer, f"{what}: residual {err:.3e} against the closed form")


def check_class(report, c: complex, k: int, radii, angles: int) -> None:
    """The sampled petal margin of ``z exp(int arcsinh(c t^k)/t dt)``.

    For the exact function ``z f'/f = 1 + arcsinh(c z^k)``, so the margin
    ``1 - |sinh(q - 1)|`` is ``1 - |c| r^k``, smallest on the outer circle.
    The series is truncated at ``report.order``; the tolerance
    ``r_max^order / 2`` covers the truncation error.
    """
    if report.samples != len(radii) * angles:
        raise GateError("extremal", f"class_check sampled {report.samples} points, "
                        f"expected {len(radii) * angles}")
    rmax = max(radii)
    exact = 1.0 - abs(c) * rmax ** k
    if report.min_margin <= 0.0 or abs(report.min_margin - exact) > 0.5 * rmax ** report.order:
        raise GateError("extremal", f"class_check margin {report.min_margin!r} against "
                        f"exact {exact!r} at order {report.order}")


def check_oracle(abc, closed: float, oracle: float) -> None:
    if abs(closed - oracle) > ORACLE_TOL:
        raise GateError("diskmax", f"{tuple(abc)}: closed {closed!r} vs oracle {oracle!r}")


def check_case_table(table, zeta1: float, split: float) -> None:
    """The sign table of the six case discriminants on (0, 1), with the
    sixth changing sign at the split point."""
    ok = table.t1 > 0 and table.t2 <= 0 and table.t3 > 0 and table.t4 < 0 and table.t5 < 0
    # t6 is a rounding-level number right at the split point; skip its sign there
    if abs(zeta1 - split) > 1e-9:
        ok = ok and ((table.t6 <= 0) if zeta1 < split else (table.t6 > 0))
    if not ok:
        raise GateError("caratheodory", f"case table at zeta1={zeta1!r} has wrong signs: {table}")
