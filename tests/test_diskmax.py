"""Closed-form disk maximizer against its polar-grid oracle."""

import warnings

import numpy as np
import pytest

from conftest import SEED
from petalstar import diskmax, quad_disk_max, quad_disk_max_grid
from petalstar.errors import DomainViolation


def test_known_values():
    assert quad_disk_max(0, 0, 0) == 1.0
    assert quad_disk_max(1, 2, 0) == 3.0
    assert quad_disk_max(0.25, 0, 0.25) == 1.25


def test_grid_oracle_known_values():
    assert quad_disk_max_grid(0, 0, 0, 50, 50) == 1.0
    assert abs(quad_disk_max_grid(1, 2, 0, 400, 400) - 3.0) <= 2e-3
    v = quad_disk_max_grid(-1, 1, 1, 400, 400)
    assert abs(quad_disk_max(-1, 1, 1) - v) <= 2e-3


def test_polar_grid_cache_keeps_one_grid():
    # a second grid replaces the first in the cache, so that a process
    # holds one oracle grid however many grids it has used
    quad_disk_max_grid(1, 0, -1, 20, 20)
    quad_disk_max_grid(1, 0, -1, 30, 24)
    assert diskmax._polar_grid.cache_info().currsize == 1


def test_grid_guard():
    with pytest.raises(DomainViolation):
        quad_disk_max_grid(1, 1, 1, 1, 100)
    with pytest.raises(DomainViolation):
        quad_disk_max_grid(1, 1, 1, 100, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_coefficients_rejected(bad, slot):
    # NaN used to fail every branch test and divide by c^2 = 0
    abc = [0.0, 0.0, 0.0]
    abc[slot] = bad
    with pytest.raises(DomainViolation):
        quad_disk_max(*abc)
    with pytest.raises(DomainViolation):
        quad_disk_max_grid(*abc, 50, 50)


@pytest.mark.parametrize("abc", [(1e308, 1e308, 1e308), (1e160, 1e160, -1e160)],
                         ids=["inf-sum", "pow-overflow"])
def test_closed_form_overflow_rejected(abc):
    # (1 + |c|)^2 raised OverflowError and 3e308 summed to inf
    with pytest.raises(DomainViolation, match="overflow"):
        quad_disk_max(*abc)


def test_tiny_c_gate_does_not_overflow():
    # c ** -2 overflows in the A C < 0 gate; the equal form 4 |a| (1/|c| - |c|)
    # stays finite, and the maximum agrees with the oracle
    assert quad_disk_max(1, 0, -1e-200) == 2.0
    assert quad_disk_max_grid(1, 0, -1e-200, 50, 50) == 2.0
    for abc in [(1e-300, 0, -1e-160), (1e-300, 1e-300, -1e-160), (1, 0.5, -1e-170)]:
        assert abs(quad_disk_max(*abc) - quad_disk_max_grid(*abc, 400, 400)) <= 5e-3


def test_grid_oracle_overflow_rejected():
    # the block sums overflowed to inf with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation, match="overflow"):
            quad_disk_max_grid(1e308, 1e308, 1e308, 50, 50)


def test_grid_oracle_matches_full_grid():
    # the oracle scans the upper half grid only; real coefficients make the
    # objective conjugation-symmetric, so the full grid has the same maximum.
    # The full grid's lower-half nodes exp(i (2 pi - t)) differ from
    # conj(exp(i t)) by rounding, which moves the maximum by a few ulps.
    r = np.linspace(0.0, 1.0, 600)[:, None]
    t = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)[None, :]
    z = r * np.exp(1j * t)
    rng = np.random.default_rng(SEED + 33)
    for _ in range(50):
        a, b, c = rng.uniform(-2, 2, 3)
        full = float((np.abs(a + b * z + c * (z * z)) + (1.0 - r * r)).max())
        assert abs(quad_disk_max_grid(a, b, c) - full) <= 4 * np.spacing(full), (a, b, c)


def test_oracle_agreement_coarse():
    # coarse version of the certification sweep (the full one runs in the
    # acceptance suite): lattice corners plus random triples
    vals = np.arange(-2.0, 2.01, 1.0)
    for a in vals:
        for b in vals:
            for c in vals:
                d = abs(quad_disk_max(a, b, c) - quad_disk_max_grid(a, b, c))
                assert d <= 5e-3, (a, b, c, d)
    rng = np.random.default_rng(SEED + 30)
    for _ in range(100):
        a, b, c = rng.uniform(-2, 2, 3)
        d = abs(quad_disk_max(a, b, c) - quad_disk_max_grid(a, b, c))
        assert d <= 5e-3, (a, b, c, d)


def test_symmetries():
    rng = np.random.default_rng(SEED + 31)
    for _ in range(200):
        a, b, c = rng.uniform(-2, 2, 3)
        v = quad_disk_max(a, b, c)
        assert v == pytest.approx(quad_disk_max(-a, -b, -c), abs=1e-14)
        assert v == pytest.approx(quad_disk_max(a, -b, c), abs=1e-14)


def test_center_candidate_floor():
    # the value at z = 0 is |A| + 1, so the maximum can never fall below it
    rng = np.random.default_rng(SEED + 32)
    for _ in range(300):
        a, b, c = rng.uniform(-2, 2, 3)
        assert quad_disk_max(a, b, c) >= abs(a) + 1.0 - 1e-12


def _branch(a, b, c):
    # the index of the return statement quad_disk_max takes, from its
    # branch conditions restated
    aa, ab, ac = abs(a), abs(b), abs(c)
    if a * c >= 0.0:
        return 0 if ab >= 2.0 * (1.0 - ac) else 1
    gate = -4.0 * a * c * (c ** -2 - 1.0)
    if gate <= b * b and ab < 2.0 * (1.0 - ac):
        return 2
    if b * b < min(4.0 * (1.0 + ac) ** 2, gate):
        return 3
    if ac * (ab + 4.0 * aa) <= abs(a * b):
        return 4
    if abs(a * b) <= ac * (ab - 4.0 * aa):
        return 5
    return 6


def test_oracle_agreement_every_branch():
    # uniform [-2, 2]^3 draws never reach the "|A| + |B| - |C|" branch (it
    # needs a large |B| and a small |C|, e.g. (0.908, -3.94, -0.036)) and
    # rarely the "1 - |A| + ..." one (small |A|); log-uniform |A| and |C|
    # with |B| <= 5 reach all seven returns
    rng = np.random.default_rng(SEED + 34)
    n = 2000
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 0.5, n)
    b = rng.uniform(-5.0, 5.0, n)
    c = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2.0, 0.5, n)
    branches = np.array([_branch(*abc) for abc in zip(a, b, c)])
    for k in range(7):
        hits = np.flatnonzero(branches == k)[:10]
        assert hits.size == 10, (k, hits.size)
        for i in hits:
            d = abs(quad_disk_max(a[i], b[i], c[i]) - quad_disk_max_grid(a[i], b[i], c[i]))
            assert d <= 5e-3, (k, a[i], b[i], c[i], d)
    assert _branch(0.908, -3.94, -0.036) == 4


def oracle_complex(a, b, c, radial=600, angular=600):
    """The oracle's kernel before the ring identity: the objective in complex
    arithmetic at every node of the upper half polar grid."""
    r = np.linspace(0.0, 1.0, radial)[:, None]
    t = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)[None, : angular // 2 + 1]
    z = r * np.exp(1j * t)
    return float((np.abs(a + b * z + c * (z * z)) + (1.0 - r * r)).max())


def test_ring_identity_matches_complex_kernel():
    # the same draws as test_oracle_agreement_every_branch, ten per return
    rng = np.random.default_rng(SEED + 34)
    n = 2000
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 0.5, n)
    b = rng.uniform(-5.0, 5.0, n)
    c = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2.0, 0.5, n)
    branches = np.array([_branch(*abc) for abc in zip(a, b, c)])
    triples = [(a[i], b[i], c[i]) for k in range(7) for i in np.flatnonzero(branches == k)[:10]]
    assert len(triples) == 70
    triples += [
        (0.0, 1.3, -0.4), (0.0, -2.0, 0.7),  # a = 0: M vanishes
        (1.2, 0.0, -0.6), (-0.3, 0.0, 0.9),  # b = 0: L vanishes
        (1.0, 0.5, 1e-200), (1.0, 0.5, -1e-200), (-0.4, 1.7, -1e-200),
        (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),  # every ring ties at 1
        (1e150, -2e150, 5e149), (-3e149, 1e150, 2e150),
        # past 1e154 the unscaled squares in K would overflow
        (1e200, -3e199, 2e200), (1e300, 0.0, 1e-300),
    ]
    for abc in triples:
        want = oracle_complex(*abc)
        assert abs(quad_disk_max_grid(*abc) - want) <= 4 * np.spacing(want), abc


def test_ring_identity_wide_rings():
    # a half ring wider than one block splits into part rings; the first
    # triple's maximum sits at t = pi, in the last part
    assert 40000 // 2 + 1 > diskmax._ORACLE_BLOCK
    for abc in [(0.3, -1.1, 0.8), (-0.5, 0.2, 1.4)]:
        for radial, angular in [(3, 40000), (2, 2 * diskmax._ORACLE_BLOCK + 6)]:
            want = oracle_complex(*abc, radial, angular)
            got = quad_disk_max_grid(*abc, radial, angular)
            assert abs(got - want) <= 4 * np.spacing(want), (abc, radial, angular)


def test_ring_quadratic_at_random_nodes():
    # K + L x + M x^2 is |a + b z + c z^2|^2 at z = r e^{it}, x = cos t
    rng = np.random.default_rng(SEED + 35)
    for scale in (1e-3, 1.0, 1e3):
        a, b, c = scale * rng.uniform(-2, 2, 3)
        r, t = rng.uniform(0, 1, 200), rng.uniform(0, 2 * np.pi, 200)
        z = r * np.exp(1j * t)
        x = np.cos(t)
        k, l, m = diskmax._ring_quadratic(a, b, c, r).T
        assert (k >= 0).all()
        want = np.abs(a + b * z + c * z * z) ** 2
        tol = 16 * np.finfo(float).eps * (abs(a) + abs(b) + abs(c)) ** 2
        np.testing.assert_allclose(k + l * x + m * x * x, want, rtol=0, atol=tol)
