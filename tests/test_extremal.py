"""Extremal presets, petal membership, class-membership sampling."""

import math

import numpy as np
import pytest

from conftest import SEED
from petalstar import (
    PRESETS,
    ExtremalSpec,
    SchlichtSeries,
    build_extremal,
    class_check,
    differentiate,
    in_petal,
    petal_map,
    preset,
)
from petalstar.errors import DomainViolation, SingularSample

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

# printed expansions of the five presets, through degree 7
EXPECTED = {
    "f0": [0, 1, 1, 0.5, 1 / 9, -1 / 72, -1 / 225],
    "f1": [0, 1, 0, 0.5, 0, 1 / 8, 0, -1 / 144],
    "f2": [0, 1, 0, SQRT2 * 1j, 0, -1, 0, SQRT2 * 1j / 9],
    "f3": [0, 1, 0, 0.5j, 0, -1 / 8, 0, 1j / 144],
    "f4": [0, 1, 0, SQRT5 * 1j, 0, -5 / 2, 0, 5 * SQRT5 * 1j / 18],
}


def test_preset_specs():
    assert PRESETS["f0"] == ExtremalSpec(1.0, 1)
    assert PRESETS["f1"] == ExtremalSpec(1.0, 2)
    assert PRESETS["f2"].c == pytest.approx(math.sqrt(8.0) * 1j)
    assert PRESETS["f3"] == ExtremalSpec(1j, 2)
    assert PRESETS["f4"].c == pytest.approx(math.sqrt(20.0) * 1j)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_preset_coefficients(name):
    want = np.asarray(EXPECTED[name], dtype=complex)
    f = preset(name, want.size - 1)
    assert np.abs(f.coeffs - want).max() <= 1e-12


def test_build_extremal_validation():
    with pytest.raises(DomainViolation):
        build_extremal(ExtremalSpec(1.0, 1), 0)
    with pytest.raises(DomainViolation):
        ExtremalSpec(1.0, 0)
    with pytest.raises(DomainViolation):
        preset("f9")
    with pytest.raises(DomainViolation):
        ExtremalSpec(complex("nan"), 1)
    # a fractional power fails at construction; a NumPy integer is stored
    # as a Python int
    with pytest.raises(DomainViolation):
        ExtremalSpec(1.0, 1.5)
    spec = ExtremalSpec(1.0, np.int64(2))
    assert spec == PRESETS["f1"] and type(spec.k) is int


def test_petal_map_basics():
    assert petal_map(0.0) == 1.0
    xs = np.linspace(-0.9, 0.9, 19)
    vals = [petal_map(float(x)).real for x in xs]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        w = petal_map(z)
        assert abs(abs(np.sinh(w - 1.0)) - abs(z)) <= 1e-12


def test_in_petal():
    assert in_petal(1.0)
    assert in_petal(1.0 + np.arcsinh(0.99))
    assert not in_petal(3.0)


def test_petal_map_image_is_inside():
    for r in np.linspace(0.05, 0.999, 25):
        for t in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            assert in_petal(petal_map(r * np.exp(1j * t)))


def test_class_check_identity():
    f = SchlichtSeries.from_tail([], order=8)
    rep = class_check(f, [0.3, 0.6, 0.9], angles=16)
    assert rep.min_margin == pytest.approx(1.0)


def test_class_check_f0_inside():
    f = preset("f0", 30)
    rep = class_check(f, np.linspace(0.18, 0.9, 5), angles=48)
    assert rep.min_margin > 0
    assert rep.tail_estimate < 1e-3
    assert rep.samples == 5 * 48


def reference_margins(f, radii, angles):
    """The scalar sample loop: ``1 - |sinh(z f'(z)/f(z) - 1)|`` per sample,
    radius-major, evaluated by Python Horner at each point."""
    fprime = differentiate(f)
    out = []
    for r in radii:
        for t in np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False):
            z = r * np.exp(1j * t)
            out.append((z, 1.0 - abs(np.sinh(z * fprime(z) / f(z) - 1.0))))
    return out


def test_class_check_matches_scalar_loop():
    rng = np.random.default_rng(SEED + 5)
    radii = (0.3, 0.6, 0.9)
    for _ in range(30):
        c = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        f = build_extremal(ExtremalSpec(complex(c), int(rng.integers(1, 4))),
                           int(rng.integers(10, 41)))
        rep = class_check(f, radii, angles=64)
        ref = reference_margins(f, radii, 64)
        m = min(margin for _, margin in ref)
        tol = 1e-14 * max(1.0, abs(m))
        assert rep.samples == len(ref)
        assert abs(rep.min_margin - m) <= tol
        # the vectorized kernel may round a near-tie differently, but the
        # point it returns must be a minimizer of the reference loop
        z, margin = min(ref, key=lambda sample: abs(sample[0] - rep.worst_point))
        assert abs(z - rep.worst_point) <= 1e-15
        assert abs(margin - m) <= tol


def test_class_check_tail_skips_structural_zeros():
    # k = 2 extremals are odd, so at even order the top coefficient is 0
    for name in ("f1", "f2"):
        f = preset(name, 30)
        assert f.coeffs[30] == 0
        rep = class_check(f, [0.45, 0.9], angles=8)
        assert rep.tail_estimate == pytest.approx(abs(f.coeffs[29]) * 0.9 ** 29, rel=1e-14)


def test_class_check_koebe_exits():
    koebe = SchlichtSeries(np.arange(31, dtype=complex))
    rep = class_check(koebe, [0.9], angles=48)
    assert rep.min_margin < 0


def test_class_check_guards():
    f = preset("f0", 10)
    with pytest.raises(DomainViolation):
        class_check(f, [0.0, 0.5])
    with pytest.raises(DomainViolation):
        class_check(f, [1.1])
    with pytest.raises(DomainViolation):
        class_check(f, [0.5], angles=0)
    # a series vanishing at a sampled point is reported, not silently divided
    g = SchlichtSeries.from_tail([-5.0], order=6)  # zero at z = 0.2
    with pytest.raises(SingularSample):
        class_check(g, [0.2], angles=4)


def test_report_dict_shape():
    rep = class_check(preset("f1", 12), [0.5], angles=8)
    d = rep.to_dict()
    assert set(d) == {
        "min_margin", "worst_re", "worst_im", "samples",
        "order", "max_radius", "tail_estimate",
    }
