"""Series kernel: arithmetic, composition, reversion, special expansions."""

import math

import numpy as np
import pytest

from conftest import SEED, random_schlicht, residual
from petalstar import SchlichtSeries, Series, asinh_series, compose, differentiate
from petalstar import exp_series, integrate_over_t, log_over_z, preset, revert, rotate
from petalstar import (
    a_from_p,
    hankel2_invlog,
    hankel2_log,
    hankel_invlog_from_p,
    hankel_log_from_p,
    reduced_p2,
    toeplitz2_invlog,
    toeplitz2_log,
    toeplitz_invlog_from_p,
    toeplitz_log_from_p,
)
from petalstar.errors import (
    DomainViolation,
    NonzeroConstant,
    NonzeroInnerConstant,
    NotInvertibleAtOrigin,
    NotNormalized,
    ZeroConstantTerm,
)


def S(*coeffs):
    return Series(list(coeffs))


# -- add / mul / div -----------------------------------------------------------


def test_add_cancellation():
    assert residual(S(1, 1) + S(1, -1), S(2, 0)) == 0


def test_add_zero_identity():
    s = S(1, 2, 3)
    assert residual(Series.zero(2) + s, s) == 0


def test_add_coefficientwise():
    assert residual(S(0, 1, 1) + S(0, 0, 1), S(0, 1, 2)) == 0


def test_add_truncates_to_min_order():
    out = S(1, 1, 1, 1) + S(1, 1)
    assert out.order == 1


def test_mul_difference_of_squares():
    assert residual(S(1, 1, 0) * S(1, -1, 0), S(1, 0, -1)) == 0


def test_mul_one_identity():
    s = S(2, -3, 5j)
    assert residual(s * Series.one(2), s) == 0


def test_mul_square():
    # (z + z^2)^2 = z^2 + 2 z^3 + z^4, expanded by hand
    s = S(0, 1, 1, 0, 0)
    assert residual(s * s, S(0, 0, 1, 2, 1)) == 0


def test_mul_commutative_associative():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        a = Series(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        b = Series(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        c = Series(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        assert residual(a * b, b * a) <= 1e-12
        assert residual((a * b) * c, a * (b * c)) <= 1e-12


def test_div_geometric():
    out = Series.one(3) / S(1, -1, 0, 0)
    assert residual(out, S(1, 1, 1, 1)) == 0


def test_div_self_is_one():
    a = S(2, 1, -1, 3)
    assert residual(a / a, Series.one(3)) <= 1e-15


def test_div_multiply_back():
    a = S(0, 1, 1)
    b = S(1, 1, 0)
    q = a / b
    assert residual(q, S(0, 1, 0)) <= 1e-15
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        a = Series(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        b = Series(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        if abs(b.coeffs[0]) < 0.1:
            continue
        assert residual((a / b) * b, a) <= 1e-10


def test_div_zero_constant_term_raises():
    with pytest.raises(ZeroConstantTerm):
        Series.one(3) / S(0, 1, 0, 0)


def divide_forward(a, b, n):
    """The quotient ``a / b`` to order ``n`` by forward substitution, one
    coefficient per step."""
    q = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        q[k] = (a[k] - np.dot(q[:k], b[k:0:-1])) / b[0]
    return q


def test_div_matches_forward_substitution():
    # Newton's reciprocal rounds differently from the substitution loop, so
    # the two agree to rounding relative to the largest coefficient, also for
    # divisors whose coefficients grow like 4^k up to order 40
    rng = np.random.default_rng(SEED + 20)
    for growth in (0.5, 1.0, 4.0):
        for order in range(41):
            a = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            b = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            b = b * growth ** np.arange(order + 1)
            b[0] = 1.0 + rng.uniform()
            want = divide_forward(a, b, order)
            got = (Series(a) / Series(b)).coeffs
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# -- compose / revert ----------------------------------------------------------


def test_compose_simple():
    out = compose(S(1, 1, 0), S(0, 0, 1))
    assert residual(out, S(1, 0, 1)) == 0
    # result order is the minimum of the operand orders
    assert compose(S(1, 1), S(0, 0, 1)).order == 1


def test_compose_identity():
    f = S(3, 1, -2, 5)
    assert residual(compose(f, Series.identity(3)), f) == 0


def test_compose_exp_log_pair():
    # exp(log(1 + z)) = 1 + z, both factors from known expansions
    n = 5
    log1p = Series([0] + [(-1) ** (k + 1) / k for k in range(1, n + 1)])
    e = exp_series(Series.identity(n))
    out = compose(e, log1p)
    expect = np.zeros(n + 1, complex)
    expect[0] = 1.0
    expect[1] = 1.0
    assert residual(out, Series(expect)) <= 1e-12


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(NonzeroInnerConstant):
        compose(S(1, 1), S(1, 1))


def test_revert_identity():
    assert residual(revert(Series.identity(4)), Series.identity(4)) == 0


def test_revert_quadratic():
    # inverse of z + z^2 is w - w^2 + 2 w^3 - 5 w^4 (solved by hand)
    out = revert(S(0, 1, 1, 0, 0))
    assert residual(out, S(0, 1, -1, 2, -5)) <= 1e-12
    assert residual(compose(S(0, 1, 1, 0, 0), out), Series.identity(4)) <= 1e-12


def test_revert_koebe_truncation():
    out = revert(S(0, 1, 2, 3))
    assert residual(out, S(0, 1, -2, 5)) <= 1e-12
    assert residual(compose(S(0, 1, 2, 3), out), Series.identity(3)) <= 1e-12


def test_revert_roundtrip_random():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(40):
        order = int(rng.integers(4, 13))
        f = random_schlicht(rng, order)
        back = compose(f, revert(f))
        assert residual(back, Series.identity(order)) <= 1e-10


def test_revert_catalan_closed_form():
    # w = a F + b F^2 inverts to F_n = (-1)^(n-1) C_(n-1) b^(n-1) / a^(2n-1),
    # C_m the m-th Catalan number; a != 1 exercises the c1 normalization
    a, b, n = 2 - 1j, 0.5 + 0.3j, 40
    out = revert(S(0, a, b, *([0] * (n - 2))))
    m = np.arange(1, n + 1)
    catalan = np.array([math.comb(2 * k, k) // (k + 1) for k in range(n)], dtype=float)
    want = (-1.0) ** (m - 1) * catalan * b ** (m - 1) / a ** (2 * m - 1)
    assert out.coeffs[0] == 0
    assert np.abs(out.coeffs[1:] / want - 1).max() <= 1e-12


def test_revert_requires_origin_fixed():
    with pytest.raises(NotInvertibleAtOrigin):
        revert(S(1, 1, 0))
    with pytest.raises(NotInvertibleAtOrigin):
        revert(S(0, 0, 1))
    with pytest.raises(NotInvertibleAtOrigin):  # no linear term at order 0
        revert(S(0))


# -- log / exp / integrate -----------------------------------------------------


def test_log_over_z_of_identity():
    out = log_over_z(SchlichtSeries([0, 1, 0, 0]))
    assert residual(out, Series.zero(2)) == 0


def test_log_over_z_koebe():
    # log((z/(1-z)^2)/z) = -2 log(1-z) = 2z + z^2 + (2/3) z^3 + ...
    koebe = SchlichtSeries([0, 1, 2, 3, 4])
    out = log_over_z(koebe)
    assert residual(out, S(0, 2, 1, 2 / 3)) <= 1e-12
    # exponentiating back recovers f / z
    back = exp_series(out)
    assert residual(back, S(1, 2, 3, 4)) <= 1e-12


def test_log_over_z_requires_normalization():
    with pytest.raises(NotNormalized):
        log_over_z(S(0, 2, 0))


def test_exp_series_basics():
    assert residual(exp_series(Series.zero(3)), Series.one(3)) == 0
    out = exp_series(Series.identity(3))
    assert residual(out, S(1, 1, 0.5, 1 / 6)) <= 1e-15


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(SEED + 3)
    z = Series.identity(9)
    for _ in range(30):
        f = random_schlicht(rng, 10)
        recon = z * exp_series(log_over_z(f))
        assert residual(recon, f) <= 1e-10


def test_exp_series_rejects_constant():
    with pytest.raises(NonzeroConstant):
        exp_series(S(1, 1))


def test_exp_series_matches_coefficient_loop():
    # the recurrence k E_k = sum_j j f_j E_(k-j), one weight vector per k:
    # exp_series computes the weights once and must agree byte for byte
    def exp_loop(f):
        out = np.zeros(f.order + 1, dtype=complex)
        out[0] = 1.0
        for k in range(1, f.order + 1):
            j = np.arange(1, k + 1)
            out[k] = np.dot(j * f.coeffs[1 : k + 1], out[k - 1 :: -1][:k]) / k
        return out

    rng = np.random.default_rng(SEED + 21)
    for order in range(41):
        f = Series(np.concatenate(([0j], rng.standard_normal(order)
                                   + 1j * rng.standard_normal(order))))
        assert exp_series(f).coeffs.tobytes() == exp_loop(f).tobytes()


@pytest.mark.parametrize("call", [
    lambda: exp_series(S(0, 1e200, 0, 0)),
    lambda: revert(S(0, 1e-200, 1, 1)),
    lambda: Series.one(3) / S(1, 1e200, 0, 0),
    lambda: log_over_z(SchlichtSeries([0, 1, 1e200, 1e200, 0])),
    lambda: S(1, 2, 3) / 0,
    lambda: S(1e308, 2, 3) * 10,
    lambda: S(1e308, 2, 3) / 1e-300,
    lambda: S(1e308, 2, 3) + 1e308,
    lambda: S(1e308, 2, 3) - (-1e308),
    lambda: differentiate(S(0, 1e308, 1e308)),
    lambda: asinh_series(1e200, 1, 5),
    lambda: asinh_series(1e200j, 1, 5),
    lambda: asinh_series(np.float64(1e200), 1, 5),
    lambda: a_from_p((1e200, 0, 0)),
    lambda: hankel_log_from_p((1e100,) * 3),
    lambda: hankel_invlog_from_p((1e100,) * 3),
    lambda: toeplitz_log_from_p(1e100, 1e100),
    lambda: toeplitz_invlog_from_p(1e100, 1e100),
    lambda: reduced_p2(1e200, 1),
    lambda: hankel2_log(SchlichtSeries([0, 1, 1e100, 0, 0])),
    lambda: hankel2_invlog(SchlichtSeries([0, 1, 1e100, 0, 0])),
    lambda: toeplitz2_log(SchlichtSeries([0, 1, 1e100, 0, 0])),
    lambda: toeplitz2_invlog(SchlichtSeries([0, 1, 1e100, 0, 0])),
], ids=["exp_series", "revert", "division", "log_over_z", "scalar_zero_division",
        "scalar_product", "scalar_division", "scalar_sum", "scalar_difference",
        "differentiate", "asinh_series_real", "asinh_series_imag",
        "asinh_series_numpy", "a_from_p",
        "hankel_log_from_p", "hankel_invlog_from_p", "toeplitz_log_from_p",
        "toeplitz_invlog_from_p", "reduced_p2", "hankel2_log", "hankel2_invlog",
        "toeplitz2_log", "toeplitz2_invlog"])
def test_overflow_raises_domain_violation_only(call):
    # the suite turns warnings into errors, so an overflow warning printed on
    # the way to the DomainViolation would fail here, as would the
    # OverflowError that Python's ** raises on floats
    with pytest.raises(DomainViolation):
        call()


def test_array_kernels_match_coefficient_loops():
    # compose, log_over_z and integrate_over_t do the same arithmetic as
    # Horner through Series objects and per-coefficient division loops, so
    # they must agree bit for bit, signs of zero included
    def compose_loop(outer, inner):
        n = min(outer.order, inner.order)
        inner_t, acc = Series(inner.coeffs[: n + 1]), Series.zero(n)
        for c in outer.coeffs[n::-1]:
            acc = acc * inner_t + c
        return acc.coeffs

    def divide_loop(coeffs):
        out = np.zeros(coeffs.size, dtype=complex)
        for k in range(1, coeffs.size):
            out[k] = coeffs[k] / k
        return out

    rng = np.random.default_rng(SEED + 9)
    for _ in range(40):
        f = random_schlicht(rng, int(rng.integers(2, 41)))
        for g in (f, revert(f)):
            assert compose(f, g).coeffs.tobytes() == compose_loop(f, g).tobytes()
            g_over_z = Series(g.coeffs[1:])
            d = (differentiate(g_over_z) / g_over_z).coeffs
            expected = divide_loop(np.concatenate(([0j], d)))
            assert log_over_z(g).coeffs.tobytes() == expected.tobytes()
            assert integrate_over_t(g).coeffs.tobytes() == divide_loop(g.coeffs).tobytes()


def test_integrate_over_t():
    assert residual(integrate_over_t(Series.identity(3)), Series.identity(3)) == 0
    assert residual(integrate_over_t(S(0, 0, 1)), S(0, 0, 0.5)) == 0
    out = integrate_over_t(asinh_series(1.0, 1, 5))
    assert residual(out, S(0, 1, 0, -1 / 18, 0, 3 / 200)) <= 1e-15
    with pytest.raises(NonzeroConstant):
        integrate_over_t(S(1, 0))


# -- asinh ----------------------------------------------------------------------


def test_asinh_series_values():
    out = asinh_series(1.0, 1, 5)
    assert residual(out, S(0, 1, 0, -1 / 6, 0, 3 / 40)) <= 1e-15
    assert residual(asinh_series(0.0, 1, 5), Series.zero(5)) == 0
    out = asinh_series(1j, 2, 6)
    assert residual(out, S(0, 0, 1j, 0, 0, 0, 1j / 6)) <= 1e-15


def test_asinh_inverts_sinh():
    # sinh built independently from the exponential series
    n = 9
    e_plus = exp_series(Series.identity(n))
    e_minus = exp_series(-Series.identity(n))
    sinh = (e_plus - e_minus) / 2
    out = compose(sinh, asinh_series(1.0, 1, n))
    assert residual(out, Series.identity(n)) <= 1e-10


def test_asinh_rejects_bad_args():
    with pytest.raises(ValueError):
        asinh_series(1.0, 0, 5)
    with pytest.raises(ValueError):
        asinh_series(1.0, 1, -1)


# -- evaluation / serialization / misc -------------------------------------------


def test_eval_points():
    assert S(1, 1)(0) == 1
    assert S(0, 1, 1)(1) == 2
    geo = Series.one(20) / S(1, -1, *([0] * 19))
    # partial sum of the geometric series: (1 - z^21) / (1 - z)
    expect = (1 - 0.5 ** 21) / (1 - 0.5)
    assert abs(geo(0.5) - expect) <= 1e-12


def test_eval_array_matches_points():
    # an array of points evaluates elementwise, as the points one by one do
    rng = np.random.default_rng(SEED + 6)
    f = random_schlicht(rng, 8)
    z = 0.9 * (rng.uniform(-1, 1, (3, 5)) + 1j * rng.uniform(-1, 1, (3, 5))) / np.sqrt(2)
    vals = f(z)
    assert vals.shape == z.shape
    for zi, vi in zip(z.ravel(), vals.ravel()):
        assert abs(f(complex(zi)) - vi) <= 1e-15


@pytest.mark.parametrize("z", [1e200, 1e200j, np.array([0.5, 1e300]), float("nan")],
                         ids=["overflow", "imaginary", "array", "nan"])
def test_eval_non_finite_raises(z):
    # far outside the disk the Horner sums overflowed, with two
    # RuntimeWarnings, and the value came back as nan+nanj
    f = preset("f0", 5)
    with pytest.raises(DomainViolation, match="not finite at z = "):
        f(z)
    assert f(np.array([0.5, 2.0])).shape == (2,)


def test_serialization_roundtrip():
    s = S(1 + 2j, -3, 0.25j)
    d = s.to_dict()
    assert d["order"] == 2 and len(d["re"]) == 3
    assert residual(Series.from_dict(d), s) == 0


def test_schlicht_validation():
    with pytest.raises(NotNormalized):
        SchlichtSeries([0, 2, 0])
    with pytest.raises(NotNormalized):
        SchlichtSeries([1, 1, 0])
    f = SchlichtSeries.from_tail([2, 3], order=5)
    assert f.coeffs[1] == 1 and f.coeffs[2] == 2 and f.order == 5


def test_series_immutable():
    s = S(1, 2)
    with pytest.raises((AttributeError, ValueError)):
        s.coeffs = np.array([1.0])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_differentiate():
    assert residual(differentiate(S(7, 1, 1, 1)), S(1, 2, 3)) == 0


def test_rotate_law():
    rng = np.random.default_rng(SEED + 4)
    f = random_schlicht(rng, 6)
    theta = 0.7
    ft = rotate(f, theta)
    # coefficient law c_n e^{i(n-1)theta}, checked against direct evaluation
    z = 0.3 + 0.2j
    direct = np.exp(-1j * theta) * f(np.exp(1j * theta) * z)
    assert abs(ft(z) - direct) <= 1e-12
    assert isinstance(ft, SchlichtSeries)


@pytest.mark.parametrize("call, want", [
    (lambda: 2 - S(1, 2, 3), S(1, -2, -3)),
    (lambda: S(1, 2, 3) * 2, S(2, 4, 6)),
    (lambda: S(1, 2) + "x", TypeError),
    (lambda: S(1, 2) * "x", TypeError),
    (lambda: S(1, 2) / "x", TypeError),
    (lambda: repr(S(1, 2)), "Series(order=1, coeffs="),
    (lambda: repr(S(1e300)), "Series(order=0, coeffs=array([1.e+300+0.j]))"),
    (lambda: SchlichtSeries.from_tail([0.5, 0.25], order=1),
     SchlichtSeries([0, 1, 0.5, 0.25])),
    (lambda: differentiate(S(5)), S(0)),
    (lambda: rotate(S(1, 2, 3), math.pi / 2), S(-1j, 2, 3j)),
], ids=["rsub", "mul_scalar", "add_str", "mul_str", "div_str", "repr", "repr_huge",
        "from_tail_low_order", "differentiate_order_0", "rotate_plain"])
def test_less_travelled_paths(call, want):
    # operand types a series does not take raise TypeError; the rest keep
    # the type and order of the wanted series, up to rounding of e^{i theta}
    if want is TypeError:
        with pytest.raises(TypeError):
            call()
        return
    got = call()
    if isinstance(want, str):
        assert got.startswith(want)
        return
    assert type(got) is type(want) and got.order == want.order
    assert residual(got, want) <= 1e-15
