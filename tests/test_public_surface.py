"""The public surface: package names, CLI subcommands and flags, report fields.

A change to any of these is a change for every caller.  These pins make it
fail loudly, so a change that means it updates the pin and says why.
Recorded changes: ``verify --threads`` removed (it had no effect since the
scans run on one thread).
"""

import argparse
import dataclasses
import types

import petalstar
from petalstar import BoundReport
from petalstar.cli import _build_parser

PUBLIC_NAMES = {
    "ABCTriple", "BoundReport", "CASE_SPLIT_POINT", "CaratheodoryPoint",
    "CaseTable", "ClassCheckReport", "DEFAULT_ORDER", "ENVELOPE_INNER_PEAK",
    "EXTREMAL_WITNESS", "ExtremalSpec", "FunctionalId", "GridSpec", "PRESETS",
    "SHARP_BOUNDS", "SchlichtSeries", "Series", "a_from_p", "abc_hankel_invlog",
    "abc_hankel_log", "asinh_series", "build_extremal", "case_functions",
    "class_check", "compose", "differentiate", "disk_objective",
    "envelope_check", "envelope_inner", "envelope_outer", "exp_series",
    "hankel2_invlog", "hankel2_log", "hankel_det", "hankel_invlog_from_p",
    "hankel_invlog_from_zeta", "hankel_log_from_p", "hankel_log_from_zeta",
    "in_petal", "integrate_over_t", "inv_log_coeffs", "inv_log_coeffs_closed",
    "log_coeffs", "log_coeffs_closed", "log_over_z", "maximize",
    "minimize_modulus", "p_from_zeta", "petal_map", "preset", "quad_disk_max",
    "quad_disk_max_grid", "reduced_p2", "revert", "rotate", "rotation_check",
    "toeplitz2_invlog", "toeplitz2_log", "toeplitz_det",
    "toeplitz_invlog_from_p", "toeplitz_invlog_majorant",
    "toeplitz_invlog_reduced", "toeplitz_log_from_p", "toeplitz_log_majorant",
    "toeplitz_log_reduced",
}

CLI_FLAGS = {
    "coeffs": ["--preset", "--order"],
    "functional": ["--kind", "--preset", "--order"],
    "extremal": ["--c-re", "--c-im", "--k", "--order"],
    "verify": ["--functional", "--zeta1-steps", "--radial-steps",
               "--angular-steps", "--refine-rounds", "--refine-shrink", "--tol",
               "--seed", "--format"],
    "ymax": ["--a", "--b", "--c", "--oracle"],
    "classcheck": ["--preset", "--max-radius", "--order", "--radii", "--angles"],
    "envelope": [],
}

REPORT_FIELDS = [
    "functional", "mode", "objective", "observed_max", "argmax",
    "sharp_bound", "deviation", "samples", "seed",
]


def test_public_names():
    # submodules are left out: which of them are attributes depends on
    # what else has been imported
    names = {
        name for name, value in vars(petalstar).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def test_cli_subcommands_and_flags():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        command: [opt for action in p._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")]
        for command, p in sub.choices.items()
    }
    assert flags == CLI_FLAGS


def test_bound_report_fields():
    assert [f.name for f in dataclasses.fields(BoundReport)] == REPORT_FIELDS
