"""Log-coefficient functionals and their determinant cross-checks."""

import numpy as np
import pytest

from conftest import SEED, random_schlicht
from petalstar import (
    SchlichtSeries,
    Series,
    hankel2_invlog,
    hankel2_log,
    hankel_det,
    inv_log_coeffs,
    inv_log_coeffs_closed,
    log_coeffs,
    log_coeffs_closed,
    preset,
    revert,
    toeplitz2_invlog,
    toeplitz2_log,
    toeplitz_det,
)
from petalstar.errors import (
    DomainViolation,
    IndexOutOfRange,
    InsufficientOrder,
    NotInvertibleAtOrigin,
    NotNormalized,
)

F0 = preset("f0", 8)
F1 = preset("f1", 8)
F2 = preset("f2", 8)
F3 = preset("f3", 8)
F4 = preset("f4", 8)


# -- log coefficient sequences ---------------------------------------------------


def test_log_coeffs_identity_function():
    g = log_coeffs(SchlichtSeries.from_tail([], order=5), 4)
    assert np.abs(g).max() == 0


def test_log_coeffs_of_f0():
    # half the coefficients of log(f0/z): 1/2, 0, -1/36
    g = log_coeffs(F0, 3)
    assert abs(g[1] - 0.5) <= 1e-12
    assert abs(g[2]) <= 1e-12
    assert abs(g[3] + 1 / 36) <= 1e-12


def test_log_coeffs_koebe():
    koebe = SchlichtSeries([0, 1, 2, 3, 4, 5, 6])
    g = log_coeffs(koebe, 5)
    for n in range(1, 6):
        assert abs(g[n] - 1 / n) <= 1e-12


def test_log_coeffs_closed_matches_series_path():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(30):
        f = random_schlicht(rng, 6)
        assert np.abs(log_coeffs(f, 3) - log_coeffs_closed(f)).max() <= 1e-12


def test_inv_log_coeffs_identity_function():
    G = inv_log_coeffs(SchlichtSeries.from_tail([], order=5), 4)
    assert np.abs(G).max() == 0


def test_inv_log_coeffs_of_f0():
    # -1/2, 1/2, -13/18; the value 1/9 of the Hankel determinant pins the last
    G = inv_log_coeffs(F0, 3)
    assert abs(G[1] + 0.5) <= 1e-12
    assert abs(G[2] - 0.5) <= 1e-12
    assert abs(G[3] + 13 / 18) <= 1e-12


def test_inv_log_coeffs_of_f1():
    G = inv_log_coeffs(F1, 3)
    assert abs(G[1]) <= 1e-12
    assert abs(G[2] + 0.25) <= 1e-12
    assert abs(G[3]) <= 1e-12


def test_inv_log_coeffs_dual_path():
    # reversion route vs degree-3 closed forms
    rng = np.random.default_rng(SEED + 11)
    for _ in range(30):
        f = random_schlicht(rng, 8)
        assert np.abs(inv_log_coeffs(f, 3) - inv_log_coeffs_closed(f)).max() <= 1e-10


def test_coeff_functions_require_order():
    f = SchlichtSeries.from_tail([0.5], order=3)
    with pytest.raises(InsufficientOrder):
        log_coeffs(f, 3)
    with pytest.raises(InsufficientOrder):
        inv_log_coeffs(f, 3)
    # a negative m would slice the coefficients from the end
    for coeffs in (log_coeffs, inv_log_coeffs):
        with pytest.raises(DomainViolation):
            coeffs(F0, -3)
        assert coeffs(F0, 0).tolist() == [0.0]


def test_inv_log_coeffs_match_reversion_path():
    # Lagrange-Buermann against the definition: the log coefficients of the
    # reverted series, relative to the largest coefficient
    rng = np.random.default_rng(SEED + 15)
    series = [random_schlicht(rng, int(rng.integers(2, 41))) for _ in range(40)]
    series += [preset(name, 40) for name in ("f0", "f1", "f2", "f3", "f4")]
    for f in series:
        m = f.order - 1
        want = log_coeffs(revert(f), m)
        got = inv_log_coeffs(f, m)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("coeffs", [log_coeffs, inv_log_coeffs], ids=["log", "inv_log"])
def test_log_coeffs_overflow_raises_domain_violation_only(coeffs):
    # under the suite's warnings-as-errors, a RuntimeWarning would fail here
    with pytest.raises(DomainViolation):
        coeffs(SchlichtSeries([0, 1, 1e200, 1e200, 0]), 3)


@pytest.mark.parametrize("f, m, error", [
    (Series([1, 1, 0, 0]), 2, NotInvertibleAtOrigin),
    (Series([0, 0, 1, 0]), 2, NotInvertibleAtOrigin),
    (Series([0, 2, 1, 1, 0]), 3, NotNormalized),
    (Series([1, 1, 0]), 5, InsufficientOrder),  # the order is checked first
    (F0, 8, InsufficientOrder),
    (F0, -3, DomainViolation),
    (F0, 2.5, DomainViolation),
    (F0, True, DomainViolation),
], ids=["c0", "c1_zero", "c1_two", "short_before_c0", "m_too_high", "m_negative",
        "m_fractional", "m_bool"])
def test_inv_log_coeffs_error_classes(f, m, error):
    with pytest.raises(error):
        inv_log_coeffs(f, m)


# -- generic determinants --------------------------------------------------------


def test_hankel_det_first_order():
    assert hankel_det([3, 5, 7], 1, 1) == 5


def test_hankel_det_second_order_f0():
    g = log_coeffs(F0, 3)
    # g1 g3 - g2^2 = (1/2)(-1/36) = -1/72
    assert abs(hankel_det(g, 2, 1) + 1 / 72) <= 1e-12


def test_hankel_det_singular():
    assert hankel_det([1, 1, 1, 1], 2, 0) == 0


def test_hankel_det_large_matches_numpy():
    rng = np.random.default_rng(SEED + 12)
    e = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    for q in (3, 4):
        mat = np.array([[e[1 + i + j] for j in range(q)] for i in range(q)])
        assert abs(hankel_det(e, q, 1) - np.linalg.det(mat)) <= 1e-10


def test_hankel_det_index_guard():
    with pytest.raises(IndexOutOfRange):
        hankel_det([1, 2, 3], 2, 1)
    with pytest.raises(IndexOutOfRange):
        hankel_det([1, 2, 3], 0, 1)


def test_toeplitz_det_orders():
    assert toeplitz_det([9, 4], 1, 0) == 9
    assert toeplitz_det([0, 3, 1], 2, 1) == 9 - 1
    g = log_coeffs(F0, 2)
    assert abs(toeplitz_det(g, 2, 1) - 0.25) <= 1e-12
    rng = np.random.default_rng(SEED + 13)
    e = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for q in (3, 4, 5, 6):
        mat = np.array([[e[2 + abs(i - j)] for j in range(q)] for i in range(q)])
        assert abs(toeplitz_det(e, q, 2) - np.linalg.det(mat)) <= 1e-10
    with pytest.raises(IndexOutOfRange):
        toeplitz_det([1, 2], 2, 1)


@pytest.mark.parametrize("det", [hankel_det, toeplitz_det], ids=lambda det: det.__name__)
@pytest.mark.parametrize("entries, q, n", [
    ([1, 2, 3, 4, 5], 0, 1),
    ([1, 2, 3, 4, 5], 2, -1),
    ([1, 2], 2, 1),  # too short for both
], ids=["q0", "n-1", "short"])
def test_det_validation(det, entries, q, n):
    with pytest.raises(IndexOutOfRange):
        det(entries, q, n)


@pytest.mark.parametrize("det, entries, q", [
    (hankel_det, [0, np.nan, 1, 1], 2),
    (toeplitz_det, [0, np.nan, 1, 1], 2),
    (hankel_det, [0, 1, 2, np.inf, 1, 1], 3),  # the LU path
    (hankel_det, [0, 1e200, 1e200, 1e200], 2),  # finite entries, overflowing product
], ids=["hankel_nan", "toeplitz_nan", "hankel_inf_lu", "hankel_overflow"])
def test_det_non_finite_raises(det, entries, q):
    with pytest.raises(DomainViolation):
        det(entries, q, 1)


# -- the four closed-form functionals ---------------------------------------------


def test_hankel2_log_values():
    assert abs(hankel2_log(F0) + 1 / 72) <= 1e-12
    assert abs(hankel2_log(F1) + 1 / 16) <= 1e-12
    assert hankel2_log(SchlichtSeries.from_tail([], order=4)) == 0


def test_hankel2_invlog_values():
    assert abs(hankel2_invlog(F0) - 1 / 9) <= 1e-12
    assert abs(hankel2_invlog(F1) + 1 / 16) <= 1e-12
    assert hankel2_invlog(SchlichtSeries.from_tail([], order=4)) == 0


def test_toeplitz2_log_values():
    assert abs(toeplitz2_log(F2) - 0.5) <= 1e-12
    assert abs(toeplitz2_log(F3) - 1 / 16) <= 1e-12
    assert toeplitz2_log(SchlichtSeries.from_tail([], order=3)) == 0


def test_toeplitz2_invlog_values():
    assert abs(toeplitz2_invlog(F4) - 1.25) <= 1e-12
    assert abs(toeplitz2_invlog(F2) - 0.5) <= 1e-12
    assert toeplitz2_invlog(SchlichtSeries.from_tail([], order=3)) == 0


def test_functionals_insufficient_order():
    f = SchlichtSeries.from_tail([0.1], order=2)
    with pytest.raises(InsufficientOrder):
        hankel2_log(f)
    with pytest.raises(InsufficientOrder):
        toeplitz2_log(f)


def test_closed_forms_match_determinant_path():
    rng = np.random.default_rng(SEED + 14)
    for _ in range(40):
        f = random_schlicht(rng, 6)
        g = log_coeffs(f, 3)
        G = inv_log_coeffs(f, 3)
        assert abs(hankel2_log(f) - hankel_det(g, 2, 1)) <= 1e-12
        assert abs(hankel2_invlog(f) - hankel_det(G, 2, 1)) <= 1e-12
        assert abs(toeplitz2_log(f) - toeplitz_det(g, 2, 1)) <= 1e-12
        assert abs(toeplitz2_invlog(f) - toeplitz_det(G, 2, 1)) <= 1e-12
