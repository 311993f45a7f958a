"""Command-line interface with machine-readable JSON output.

Subcommands::

    coeffs      series coefficients of a named extremal preset
    functional  one of the four determinant functionals at a preset
    extremal    series of a custom amplitude/power extremal function
    verify      scan all (or one) functional domains against the bounds
    ymax        closed-form disk maximizer, optionally with the grid oracle
    classcheck  petal-membership sampling report for a preset
    envelope    envelope / case-analysis certification report

Exit codes: 0 on success, 1 on verification failure, 2 on argument errors
(messages on standard error).  A reader that closes the output pipe early
gets exit code 1 and nothing on standard error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from .diskmax import quad_disk_max, quad_disk_max_grid
from .errors import _MAX_POINTS, PetalstarError
from .extremal import PRESETS, ExtremalSpec, build_extremal, class_check, preset
from .functionals import hankel2_invlog, hankel2_log, toeplitz2_invlog, toeplitz2_log
from .search import FunctionalId, GridSpec, envelope_check, maximize
from .series import DEFAULT_ORDER

#: Numeric slack allowed on the sound side of a bound comparison.
_SOUNDNESS_TOL = 1e-9

_FUNCTIONAL_FNS = {
    FunctionalId.HANKEL_LOG: hankel2_log,
    FunctionalId.HANKEL_INVLOG: hankel2_invlog,
    FunctionalId.TOEPLITZ_LOG: toeplitz2_log,
    FunctionalId.TOEPLITZ_INVLOG: toeplitz2_invlog,
}

_KIND_CHOICES = [f.value for f in FunctionalId]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petalstar",
        description="Coefficient functionals and certified sharp bounds for "
        "the petal starlike class.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="series coefficients of a preset")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p = sub.add_parser("functional", help="determinant functional at a preset")
    p.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p = sub.add_parser("extremal", help="custom extremal function series")
    p.add_argument("--c-re", type=float, default=0.0)
    p.add_argument("--c-im", type=float, default=0.0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p = sub.add_parser("verify", help="grid-scan the bounds")
    p.add_argument("--functional", default="all", choices=["all"] + _KIND_CHOICES)
    for field in dataclasses.fields(GridSpec):
        p.add_argument("--" + field.name.replace("_", "-"),
                       type=type(field.default), default=field.default)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="largest admissible sharpness gap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="json", choices=["json", "csv"])

    p = sub.add_parser("ymax", help="disk maximizer of |A + Bz + Cz^2| + 1 - |z|^2")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--oracle", type=int, default=None, metavar="N",
                   help="also run the N x N polar grid oracle")

    p = sub.add_parser("classcheck", help="petal membership sampling")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--max-radius", type=float, default=0.9)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--radii", type=int, default=5, help="number of sample circles")
    p.add_argument("--angles", type=int, default=64)

    sub.add_parser("envelope", help="envelope and case-analysis certification")

    return parser


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_coeffs(args) -> int:
    _emit(preset(args.preset, args.order).to_dict())
    return 0


def _cmd_functional(args) -> int:
    f = preset(args.preset, args.order)
    value = _FUNCTIONAL_FNS[FunctionalId(args.kind)](f)
    _emit({"re": value.real, "im": value.imag})
    return 0


def _cmd_extremal(args) -> int:
    spec = ExtremalSpec(complex(args.c_re, args.c_im), args.k)
    _emit(build_extremal(spec, args.order).to_dict())
    return 0


def _cmd_verify(args) -> int:
    if not args.tol >= 0.0:  # NaN fails too
        raise PetalstarError("--tol must be >= 0")
    grid = GridSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GridSpec)})
    if args.functional == "all":
        targets = list(FunctionalId)
    else:
        targets = [FunctionalId(args.functional)]
    reports = [maximize(fid, grid, seed=args.seed) for fid in targets]
    ok = all(
        r.deviation <= args.tol and r.observed_max <= r.sharp_bound + _SOUNDNESS_TOL
        for r in reports
    )
    rows = [r.to_dict() for r in reports]
    if args.format == "csv":
        # the report's columns, argmax flattened last; csv writes floats by repr
        out = io.StringIO()
        writer = csv.writer(out)
        columns = [k for k in rows[0] if k != "argmax"]
        writer.writerow(columns + ["argmax"])
        for row in rows:
            writer.writerow([row[k] for k in columns]
                            + [";".join(f"{k}={v!r}" for k, v in row["argmax"].items())])
        sys.stdout.write(out.getvalue())
    else:
        _emit(rows)
    return 0 if ok else 1


def _cmd_ymax(args) -> int:
    piecewise = quad_disk_max(args.a, args.b, args.c)
    payload = {"piecewise": piecewise, "bruteforce": None, "diff": None}
    if args.oracle is not None:
        brute = quad_disk_max_grid(args.a, args.b, args.c, args.oracle, args.oracle)
        payload["bruteforce"] = brute
        payload["diff"] = piecewise - brute
    _emit(payload)
    return 0


def _cmd_classcheck(args) -> int:
    if not 0.0 < args.max_radius < 1.0:
        raise PetalstarError("--max-radius must lie in (0, 1)")
    # before the radius list is built, whose length is --radii
    if not 1 <= args.radii <= _MAX_POINTS:
        raise PetalstarError(f"--radii must be >= 1 and at most {_MAX_POINTS}")
    f = preset(args.preset, args.order)
    radii = [args.max_radius * (i + 1) / args.radii for i in range(args.radii)]
    report = class_check(f, radii, args.angles)
    _emit(report.to_dict())
    return 0 if report.min_margin > 0.0 else 1


def _cmd_envelope(_args) -> int:
    _emit(envelope_check())
    return 0


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "functional": _cmd_functional,
    "extremal": _cmd_extremal,
    "verify": _cmd_verify,
    "ymax": _cmd_ymax,
    "classcheck": _cmd_classcheck,
    "envelope": _cmd_envelope,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone; a stdout on devnull makes the exit flush succeed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except PetalstarError as exc:
        print(f"petalstar: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
