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
