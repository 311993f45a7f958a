"""Parametrization, closed functional forms, case analysis, envelopes."""

import math

import numpy as np
import pytest

from conftest import SEED, random_point
from petalstar import (
    ABCTriple,
    CASE_SPLIT_POINT,
    ENVELOPE_INNER_PEAK,
    CaratheodoryPoint,
    SchlichtSeries,
    a_from_p,
    abc_hankel_invlog,
    abc_hankel_log,
    case_functions,
    class_check,
    disk_objective,
    envelope_inner,
    envelope_outer,
    hankel2_invlog,
    hankel2_log,
    hankel_invlog_from_p,
    hankel_invlog_from_zeta,
    hankel_log_from_p,
    hankel_log_from_zeta,
    p_from_zeta,
    preset,
    reduced_p2,
    toeplitz2_invlog,
    toeplitz2_log,
    toeplitz_invlog_from_p,
    toeplitz_invlog_reduced,
    toeplitz_log_from_p,
    toeplitz_log_reduced,
)
from petalstar.errors import DomainViolation, EndpointSingularity


# -- parametrization --------------------------------------------------------------


def test_p_from_zeta_degenerate_top():
    # zeta1 = 1 annihilates every zeta2 / zeta3 contribution
    for z2, z3 in [(0.3 + 0.1j, -1j), (0, 0), (1, 1)]:
        p = p_from_zeta(CaratheodoryPoint(1.0, z2, z3))
        assert p == (2, 2, 2)


def test_p_from_zeta_middle():
    p = p_from_zeta(CaratheodoryPoint(0.0, 1.0, 0.5j))
    assert p == (0, 2, 0)


def test_p_from_zeta_zero():
    assert p_from_zeta(CaratheodoryPoint(0.0, 0.0, 0.0)) == (0, 0, 0)


def test_point_validation():
    with pytest.raises(DomainViolation):
        CaratheodoryPoint(1.5, 0, 0)
    with pytest.raises(DomainViolation):
        CaratheodoryPoint(0.5, 1.2, 0)
    with pytest.raises(DomainViolation):
        CaratheodoryPoint(0.5, 0, -1.0001)


_NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: CaratheodoryPoint(0.5, _NAN, 0),
    lambda: CaratheodoryPoint(0.5, 0, complex(_NAN, 0)),
    lambda: toeplitz_log_reduced(1.0, _NAN),
    lambda: disk_objective(ABCTriple(1.0, 0.0, 1.0), _NAN),
    lambda: class_check(preset("f0", 6), [_NAN]),
], ids=["point-zeta2", "point-zeta3", "toeplitz-reduced", "disk-objective", "class-check"])
def test_nan_fails_domain_checks(call):
    # "abs(z) > 1 + tol" is False for NaN; the checks must reject it anyway
    with pytest.raises(DomainViolation):
        call()


def test_first_coefficient_within_caratheodory_range():
    rng = np.random.default_rng(SEED + 20)
    for _ in range(50):
        p1, p2, p3 = p_from_zeta(random_point(rng))
        assert abs(p1) <= 2 + 1e-12


def test_a_from_p_values():
    assert a_from_p((2, 2, 2)) == (1.0, 0.5, 1 / 9)
    assert a_from_p((0, 0, 0)) == (0, 0, 0)
    a2, a3, a4 = a_from_p((0, 2, 0))
    assert (a2, a3, a4) == (0, 0.5, 0)


# -- Hankel forms -------------------------------------------------------------------


def test_hankel_log_from_p_values():
    assert abs(hankel_log_from_p((2, 2, 2)) + 1 / 72) <= 1e-15
    assert hankel_log_from_p((0, 0, 0)) == 0
    assert abs(hankel_log_from_p((0, 2, 0)) + 1 / 16) <= 1e-15


def test_hankel_invlog_from_p_values():
    assert abs(hankel_invlog_from_p((2, 2, 2)) - 1 / 9) <= 1e-15
    assert hankel_invlog_from_p((0, 0, 0)) == 0
    assert abs(hankel_invlog_from_p((0, 2, 0)) + 1 / 16) <= 1e-15


def test_hankel_log_from_zeta_endpoints():
    for z2, z3 in [(0.7j, 0.2), (0, 0), (1, -1)]:
        v = hankel_log_from_zeta(CaratheodoryPoint(1.0, z2, z3))
        assert abs(v + 1 / 72) <= 1e-14
    z = 0.6 * np.exp(0.3j)
    v = hankel_log_from_zeta(CaratheodoryPoint(0.0, z, 0.0))
    assert abs(v + 9 * z * z / 144) <= 1e-15
    assert hankel_log_from_zeta(CaratheodoryPoint(0, 0, 0)) == 0


def test_hankel_invlog_from_zeta_endpoints():
    for z2, z3 in [(0.7j, 0.2), (0, 0), (1, -1)]:
        v = hankel_invlog_from_zeta(CaratheodoryPoint(1.0, z2, z3))
        assert abs(v - 1 / 9) <= 1e-14
    z = 0.8 * np.exp(-1.1j)
    v = hankel_invlog_from_zeta(CaratheodoryPoint(0.0, z, 0.0))
    assert abs(v + 9 * z * z / 144) <= 1e-15
    assert hankel_invlog_from_zeta(CaratheodoryPoint(0, 0, 0)) == 0


def test_hankel_invlog_from_zeta_exact_on_face():
    # at zeta1 = 1 the forms reduce to alpha = 16/144 and beta = 0, so the
    # value is 1/9 to the last bit, on the rim |zeta2| = 1 too
    for z2, z3 in [(0, 0), (0.7j, 0.2), (1, -1), (np.exp(0.3j), 1j),
                   (np.exp(-2.1j), np.exp(0.9j)), (0.89 - 0.068j, 1)]:
        assert hankel_invlog_from_zeta(CaratheodoryPoint(1.0, z2, z3)) == 1 / 9


def test_substitution_consistency_bulk():
    # zeta-variable polynomials against the p-variable route, 10^4 points
    rng = np.random.default_rng(SEED + 21)
    for _ in range(10_000):
        pt = random_point(rng)
        p = p_from_zeta(pt)
        assert abs(hankel_log_from_zeta(pt) - hankel_log_from_p(p)) <= 1e-10
        assert abs(hankel_invlog_from_zeta(pt) - hankel_invlog_from_p(p)) <= 1e-10


def test_end_to_end_series_consistency():
    # parameters -> coefficients -> series functionals reproduce the p-forms
    rng = np.random.default_rng(SEED + 22)
    for _ in range(200):
        pt = random_point(rng)
        p = p_from_zeta(pt)
        f = SchlichtSeries.from_tail(a_from_p(p), order=5)
        assert abs(hankel2_log(f) - hankel_log_from_p(p)) <= 1e-10
        assert abs(hankel2_invlog(f) - hankel_invlog_from_p(p)) <= 1e-10
        assert abs(toeplitz2_log(f) - toeplitz_log_from_p(p[0], p[1])) <= 1e-10
        assert abs(toeplitz2_invlog(f) - toeplitz_invlog_from_p(p[0], p[1])) <= 1e-10


# -- Toeplitz forms ------------------------------------------------------------------


def test_toeplitz_log_from_p_values():
    assert abs(toeplitz_log_from_p(2, 2) - 0.25) <= 1e-15
    assert toeplitz_log_from_p(0, 0) == 0
    assert abs(toeplitz_log_from_p(0, 2j * math.sqrt(2)) - 1 / 8) <= 1e-15


def test_toeplitz_invlog_from_p_values():
    assert abs(toeplitz_invlog_from_p(2, 2)) <= 1e-15
    assert toeplitz_invlog_from_p(0, 0) == 0
    p2 = 2j * math.sqrt(5)
    assert abs(toeplitz_invlog_from_p(0, p2) - 5 / 16) <= 1e-15
    # cross path: the coefficient route through a3 = p2 / 4
    f = SchlichtSeries.from_tail([0, p2 / 4], order=4)
    assert abs(toeplitz_invlog_from_p(0, p2) - toeplitz2_invlog(f)) <= 1e-12


def test_reduced_forms_fixed_points():
    for z in [0.3, -1, 1j, 0.5 - 0.2j]:
        assert abs(toeplitz_log_reduced(2.0, z) - 0.25) <= 1e-14
        assert abs(toeplitz_invlog_reduced(2.0, z)) <= 1e-14
    assert abs(toeplitz_log_reduced(0.0, 1.0) + 1 / 16) <= 1e-15
    assert abs(toeplitz_invlog_reduced(0.0, 1.0) + 1 / 16) <= 1e-15
    assert toeplitz_log_reduced(0.0, 0.0) == 0
    assert toeplitz_invlog_reduced(0.0, 0.0) == 0


def test_reduced_forms_match_substitution():
    rng = np.random.default_rng(SEED + 23)
    for _ in range(300):
        p1 = 2.0 * rng.uniform()
        zeta = math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        p2 = reduced_p2(p1, zeta)
        assert abs(toeplitz_log_reduced(p1, zeta) - toeplitz_log_from_p(p1, p2)) <= 1e-12
        assert abs(toeplitz_invlog_reduced(p1, zeta) - toeplitz_invlog_from_p(p1, p2)) <= 1e-12


def test_reduced_form_domain_checks():
    with pytest.raises(DomainViolation):
        toeplitz_log_reduced(2.5, 0.0)
    with pytest.raises(DomainViolation):
        toeplitz_invlog_reduced(1.0, 1.5)


# -- quadratic triples and the case analysis -------------------------------------------


def test_disk_objective_simple():
    from petalstar import ABCTriple

    assert disk_objective(ABCTriple(0, 0, 0), 0) == 1.0
    assert disk_objective(ABCTriple(1, 0, 0), 0) == 2.0
    with pytest.raises(DomainViolation):
        disk_objective(ABCTriple(0, 0, 0), 1.5)


def test_disk_objective_at_half():
    # at zeta1 = 1/2 the triple is (-1/36, 0, -13/8); at zeta2 = 1 the
    # objective is |A + C| = 1/36 + 13/8 = 119/72
    abc = abc_hankel_log(0.5)
    assert abs(disk_objective(abc, 1.0) - 119 / 72) <= 1e-14


def test_abc_hankel_log_values():
    a, b, c = abc_hankel_log(0.5)
    assert abs(a + 1 / 36) <= 1e-15
    assert b == 0
    assert abs(c + 13 / 8) <= 1e-15
    # the product A C stays nonnegative across the interval
    for t in np.linspace(0.01, 0.99, 99):
        a, b, c = abc_hankel_log(float(t))
        assert a * c >= 0
    with pytest.raises(EndpointSingularity):
        abc_hankel_log(0.0)
    with pytest.raises(EndpointSingularity):
        abc_hankel_log(1.0)


def test_abc_hankel_invlog_values():
    a, b, c = abc_hankel_invlog(0.5)
    assert abs(a - 2 / 9) <= 1e-15
    assert abs(b + 0.75) <= 1e-15
    assert abs(c + 13 / 8) <= 1e-15
    for t in np.linspace(0.01, 0.99, 99):
        a, b, c = abc_hankel_invlog(float(t))
        assert a > 0 and c < 0
    with pytest.raises(EndpointSingularity):
        abc_hankel_invlog(0.0)


def test_case_functions_signs_on_grid():
    for t in np.arange(1e-3, 1.0, 1e-3):
        tab = case_functions(float(t))
        assert tab.t1 > 0
        assert tab.t2 <= 0
        assert tab.t3 > 0
        assert tab.t4 < 0
        assert tab.t5 < 0
        if t <= CASE_SPLIT_POINT - 1e-3:
            assert tab.t6 <= 0
        elif t >= CASE_SPLIT_POINT + 1e-3:
            assert tab.t6 > 0


def test_case_functions_array_matches_points():
    # one call on the 999-point grid is bit-equal to the per-point calls
    grid = np.arange(1e-3, 1.0, 1e-3)
    table = case_functions(grid)
    for i, t in enumerate(grid):
        assert tuple(col[i] for col in table) == tuple(case_functions(float(t)))


def test_case_functions_list_is_array():
    # a list of points gives the array's table, and its bad points raise alike
    grid = np.arange(1e-3, 1.0, 1e-3)
    for got, want in zip(case_functions(grid.tolist()), case_functions(grid)):
        assert np.array_equal(got, want)
    with pytest.raises(EndpointSingularity):
        case_functions([0.25, 1.0, 0.75])


@pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
def test_case_functions_array_endpoint_raises(bad):
    with pytest.raises(EndpointSingularity):
        case_functions(np.array([0.25, bad, 0.75]))


def test_case_functions_array_message_names_first_bad_point():
    # one bad point in the 999-point grid is named with the count, not
    # printed with all 999 values; a scalar keeps its message
    grid = np.arange(1e-3, 1.0, 1e-3)
    grid[500] = 0.0
    with pytest.raises(EndpointSingularity) as exc:
        case_functions(grid)
    message = str(exc.value)
    assert len(message) < 200
    assert "0.0" in message and "1 bad point" in message
    with pytest.raises(EndpointSingularity, match=r"^zeta1 = 1\.0 hits a pole"):
        case_functions(1.0)


def test_case_functions_match_defining_combinations():
    # printed rational forms vs the defining |A|,|B|,|C| expressions
    for t in np.linspace(0.05, 0.95, 37):
        a, b, c = abc_hankel_invlog(float(t))
        aa, ab, ac = abs(a), abs(b), abs(c)
        tab = case_functions(float(t))
        gate = -4 * a * c * (c ** -2 - 1)
        assert abs(tab.t1 - (ab - 2 * (1 - ac))) <= 1e-12
        assert abs(tab.t2 - (gate - b * b)) <= 1e-10
        assert abs(tab.t3 - 4 * (1 + ac) ** 2) <= 1e-10
        assert abs(tab.t4 - gate) <= 1e-10
        assert abs(tab.t5 - (abs(a * b) - ac * (ab + 4 * aa))) <= 1e-10
        assert abs(tab.t6 - (abs(a * b) - ac * (ab - 4 * aa))) <= 1e-10


def test_case_split_examples():
    assert abs(CASE_SPLIT_POINT - 0.451959) <= 1e-6
    assert case_functions(0.9).t6 > 0
    assert case_functions(0.5).t6 > 0  # 0.5 lies above the split point
    assert case_functions(0.45).t6 < 0


# -- envelopes ---------------------------------------------------------------------------


def test_envelope_inner_values():
    assert abs(envelope_inner(0.0) - 1 / 16) <= 1e-15
    assert abs(envelope_inner(ENVELOPE_INNER_PEAK) - 0.0692568) <= 1e-6
    assert abs(envelope_inner(1.0) + 1 / 9) <= 1e-15


def test_envelope_inner_dual_path():
    # (1/12) t (1 - t^2) (-|A| + |B| + |C|) with the inverse-Hankel triple
    for t in np.linspace(0.05, 0.95, 31):
        a, b, c = abc_hankel_invlog(float(t))
        direct = t * (1 - t * t) * (-abs(a) + abs(b) + abs(c)) / 12
        assert abs(direct - envelope_inner(float(t))) <= 1e-14


def test_envelope_outer_values():
    assert abs(envelope_outer(1.0) - 1 / 9) <= 1e-15
    assert abs(envelope_outer(0.0) - 45 / 576) <= 1e-15


def test_envelope_outer_dual_path():
    # (1/12) t (1 - t^2) (|C| + |A|) sqrt(1 - B^2 / (4AC))
    for t in np.linspace(0.05, 0.95, 31):
        a, b, c = abc_hankel_invlog(float(t))
        direct = (
            t * (1 - t * t) * (abs(c) + abs(a)) * math.sqrt(1 - b * b / (4 * a * c)) / 12
        )
        assert abs(direct - envelope_outer(float(t))) <= 1e-14


def test_envelope_outer_peaks_at_right_endpoint():
    # the maximum over [split, 1] sits at t = 1 and equals exactly 1/9
    t = np.linspace(CASE_SPLIT_POINT, 1.0, 20001)
    vals = envelope_outer(t)
    assert vals.max() <= 1 / 9 + 1e-12
    assert abs(vals[-1] - 1 / 9) <= 1e-15
    assert int(np.argmax(vals)) == t.size - 1
