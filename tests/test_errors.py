"""Input checks: a non-integer count, a bool included, fails as a domain
error naming it, and malformed series data, a non-finite coefficient or
parameter and a parameter outside its domain fail as domain errors."""

import math

import numpy as np
import pytest

from petalstar import (
    PRESETS,
    ABCTriple,
    CaratheodoryPoint,
    ExtremalSpec,
    FunctionalId,
    GridSpec,
    SchlichtSeries,
    Series,
    asinh_series,
    build_extremal,
    case_functions,
    class_check,
    disk_objective,
    envelope_inner,
    envelope_outer,
    exp_series,
    hankel_det,
    inv_log_coeffs,
    log_coeffs,
    maximize,
    petal_map,
    preset,
    quad_disk_max_grid,
    revert,
    rotate,
    rotation_check,
    toeplitz_det,
    toeplitz_invlog_majorant,
    toeplitz_log_majorant,
)
from petalstar import extremal, series
from petalstar.errors import _MAX_POINTS, DomainViolation

F0 = preset("f0", 10)


@pytest.mark.parametrize("call, name", [
    (lambda: log_coeffs(F0, 2.5), "m"),
    (lambda: inv_log_coeffs(F0, 2.5), "m"),
    (lambda: hankel_det([1, 2, 3, 4, 5], 2.5, 0), "q"),
    (lambda: toeplitz_det([1, 2, 3, 4, 5], 2, 0.5), "n"),
    (lambda: class_check(F0, [0.5], angles=2.5), "angles"),
    (lambda: quad_disk_max_grid(1.0, 0.0, -1.0, 2.5, 600), "radial"),
    (lambda: quad_disk_max_grid(1.0, 0.0, -1.0, 600, 2.5), "angular"),
    (lambda: preset("f0", 2.5), "order"),
    (lambda: build_extremal(PRESETS["f1"], 2.5), "order"),
    (lambda: SchlichtSeries.from_tail([0.5], order=2.5), "order"),
    (lambda: asinh_series(1.0, 1.5, 5), "power k"),
    (lambda: asinh_series(1.0, 1, 5.0), "order"),
    (lambda: Series.from_dict({"order": 1.5, "re": [0.0, 1.0], "im": [0.0, 0.0]}), "order"),
    (lambda: Series.from_dict({"order": "x", "re": [0.0, 1.0], "im": [0.0, 0.0]}), "order"),
], ids=["log_coeffs", "inv_log_coeffs", "hankel_det", "toeplitz_det", "class_check",
        "grid_radial", "grid_angular", "preset", "build_extremal", "from_tail",
        "asinh_k", "asinh_order", "from_dict_fraction", "from_dict_string"])
def test_fractional_count_is_domain_violation(call, name):
    with pytest.raises(DomainViolation, match=f"^{name} = "):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: ExtremalSpec(1.0, True), "power k"),
    (lambda: class_check(F0, [0.5], angles=True), "angles"),
    (lambda: maximize(FunctionalId.HANKEL_LOG, GridSpec(5, 3, 5, 0), seed=True), "seed"),
    (lambda: GridSpec(zeta1_steps=False), "zeta1_steps"),
], ids=["extremal_k", "class_check_angles", "maximize_seed", "grid_steps"])
def test_bool_count_is_domain_violation(call, name):
    # True is an int to operator.index, but not a count
    with pytest.raises(DomainViolation, match=f"^{name} = "):
        call()


@pytest.mark.parametrize("call", [
    lambda: asinh_series(1.0, 0, 5),
    lambda: asinh_series(1.0, 1, -1),
], ids=["asinh_k0", "asinh_order_negative"])
def test_out_of_range_count_is_domain_violation(call):
    with pytest.raises(DomainViolation):
        call()


@pytest.mark.parametrize("call", [
    lambda: Series([]),
    lambda: Series.from_dict({"order": 2, "re": [0.0, 1.0], "im": [0.0, 0.0]}),
    lambda: Series.from_dict({"re": [0.0, 1.0], "im": [0.0, 0.0]}),
], ids=["empty_series", "inconsistent_from_dict", "from_dict_without_order"])
def test_malformed_series_is_domain_violation(call):
    with pytest.raises(DomainViolation):
        call()


@pytest.mark.parametrize("call, index", [
    (lambda: Series([math.nan, 1.0]), 0),
    (lambda: SchlichtSeries([0.0, 1.0, math.inf]), 2),
    (lambda: Series.from_dict({"order": 1, "re": [0.0, math.nan], "im": [0.0, 0.0]}), 1),
    (lambda: rotate(F0, math.nan), 2),
    (lambda: rotate(F0, 1e308), 3),
    (lambda: asinh_series(math.nan, 1, 3), 1),
    (lambda: rotation_check(F0, [math.nan]), 2),
], ids=["series_nan", "schlicht_inf", "from_dict_nan", "rotate_nan", "rotate_overflow",
        "asinh_nan", "rotation_check_nan"])
def test_non_finite_series_is_domain_violation(call, index):
    # the message names the first bad coefficient
    with pytest.raises(DomainViolation, match=f"^coefficient {index} = .* is not finite"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: CaratheodoryPoint("a", 0.0, 0.0), "zeta1"),
    (lambda: toeplitz_log_majorant(3.0, 0.5), "p1"),
    (lambda: toeplitz_log_majorant(1.0, 2.0), "t"),
    (lambda: toeplitz_invlog_majorant(np.array([0.0, math.nan]), 0.5), "p1"),
    (lambda: toeplitz_invlog_majorant(1.0, np.array([0.5, -0.1])), "t"),
], ids=["point_string", "log_majorant_p1", "log_majorant_t", "invlog_majorant_nan",
        "invlog_majorant_t_array"])
def test_parameter_outside_domain_is_domain_violation(call, name):
    with pytest.raises(DomainViolation, match=f"^{name} "):
        call()


@pytest.mark.parametrize("call", [
    lambda: disk_objective(ABCTriple(math.nan, 0.0, 0.0), 0.5),
    lambda: disk_objective(ABCTriple(0.0, 0.0, math.inf), 0.5),
    lambda: petal_map(math.nan),
    lambda: petal_map(complex(0.0, math.inf)),
    lambda: envelope_inner(math.nan),
    lambda: envelope_inner(np.array([0.2, math.nan])),
    lambda: envelope_outer(math.nan),
    lambda: envelope_outer([0.5, -math.inf]),
    lambda: disk_objective(ABCTriple(1e308, 1e308, 1e308), 0.9),
    lambda: envelope_inner(1e100),
    lambda: envelope_outer(1e100),
    lambda: envelope_outer([1e200]),
    lambda: case_functions(1e-200),
    lambda: case_functions([1e-200]),
], ids=["disk_objective_nan", "disk_objective_inf", "petal_map_nan", "petal_map_inf",
        "envelope_inner_nan", "envelope_inner_array", "envelope_outer_nan",
        "envelope_outer_list", "disk_objective_overflow", "envelope_inner_overflow",
        "envelope_outer_overflow", "envelope_outer_list_overflow", "case_functions_tiny",
        "case_functions_tiny_array"])
def test_non_finite_parameter_is_domain_violation(call):
    # these returned NaN or inf, warned on the way (the suite turns warnings
    # into errors), or raised ZeroDivisionError: a finite parameter counts
    # too where the value overflows, as near case_functions' pole at 0
    with pytest.raises(DomainViolation, match="not finite"):
        call()


def test_sample_grid_caps():
    # each size just past its cap fails before anything is allocated; the
    # other sizes stay small, so a missing check allocates megabytes
    cap = _MAX_POINTS
    for radial, angular in ((2, cap // 2 + 1), (cap // 4 + 1, 4)):
        with pytest.raises(DomainViolation, match="at most"):
            quad_disk_max_grid(1.0, 0.0, -1.0, radial, angular)
    short, long = SchlichtSeries([0.0, 1.0]), SchlichtSeries.from_tail([0.5], order=999)
    for f, radii, angles in ((short, [0.5], cap // 2 + 1),  # angles * (order + 1)
                             (short, np.full(1000, 0.5), 1001),  # angles * radii
                             (long, np.full(1001, 0.5), 1)):  # radii * (order + 1)
        with pytest.raises(DomainViolation, match="at most"):
            class_check(f, radii, angles)
    # tables at the cap pass
    assert class_check(short, [0.5], cap // 2).samples == cap // 2


_PAST_CAP = _MAX_POINTS + 1


@pytest.mark.parametrize("build, order", [
    (Series.zero, _PAST_CAP),
    (Series.one, _PAST_CAP),
    (Series.identity, _PAST_CAP),
    (lambda order: SchlichtSeries.from_tail([0.5], order=order), _PAST_CAP),
    (lambda order: asinh_series(1.0, 1, order), _PAST_CAP),
    (lambda order: build_extremal(PRESETS["f1"], order), _PAST_CAP),
    (lambda order: preset("f0", order), _PAST_CAP),
    # exp_series's recurrence takes order (order + 1) / 2 products, over the
    # cap from order 1414, and the extremal builders run it
    (lambda order: exp_series(Series.identity(order)), 1414),
    (lambda order: build_extremal(PRESETS["f1"], order), 1414),
    (lambda order: preset("f0", order), 1414),
], ids=["zero", "one", "identity", "from_tail", "asinh_series", "build_extremal", "preset",
        "exp_series_products", "build_extremal_products", "preset_products"])
def test_series_order_cap(monkeypatch, build, order):
    # an order past the cap fails before any series is built; the extremal
    # builders would build asinh_series first and exp_series's products are
    # np.dot calls, so reaching either fails the test.  The order below a
    # product cap builds
    if order < _MAX_POINTS:
        assert build(order - 1).order == order - 1

    def built(*_args):
        raise AssertionError("built a series past the cap")

    monkeypatch.setattr(extremal, "asinh_series", built)
    monkeypatch.setattr(np, "dot", built)
    with pytest.raises(DomainViolation, match="^order = .* at most"):
        build(order)


@pytest.mark.parametrize("lagrange", [
    lambda: revert(SchlichtSeries.from_tail([0.05], order=1000)),
    lambda: inv_log_coeffs(SchlichtSeries.from_tail([0.05], order=1001), 1000),
], ids=["revert", "inv_log_coeffs"])
def test_lagrange_table_cap(monkeypatch, lagrange):
    # a Lagrange power table past the cap, 1001 x 1000 for revert and 1001 x
    # 1001 for the inverse log coefficients, fails before anything is built:
    # the power loop starts from the reciprocal, so reaching it fails the test
    def built(*_args):
        raise AssertionError("started a power table past the cap")

    monkeypatch.setattr(series, "_reciprocal", built)
    with pytest.raises(DomainViolation, match="^order 1000 .* at most"):
        lagrange()


def test_numpy_integer_counts_pass():
    three = np.int64(3)
    assert np.array_equal(log_coeffs(F0, three), log_coeffs(F0, 3))
    assert np.array_equal(inv_log_coeffs(F0, three), inv_log_coeffs(F0, 3))
    seq = [1, 2, 3, 4, 5]
    assert hankel_det(seq, np.int64(2), np.int64(0)) == hankel_det(seq, 2, 0)
    assert np.array_equal(preset("f0", three).coeffs, preset("f0", 3).coeffs)
    assert np.array_equal(asinh_series(1.0, np.int64(1), three).coeffs,
                          asinh_series(1.0, 1, 3).coeffs)
    assert class_check(F0, [0.5], angles=np.int64(8)) == class_check(F0, [0.5], angles=8)
    assert (quad_disk_max_grid(1.0, 0.0, -1.0, np.int64(20), np.int64(20))
            == quad_disk_max_grid(1.0, 0.0, -1.0, 20, 20))
