"""Grid certification scans: sharpness, soundness, determinism, consistency."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import SEED, random_schlicht
from petalstar import (
    CaratheodoryPoint,
    FunctionalId,
    GridSpec,
    SHARP_BOUNDS,
    SchlichtSeries,
    a_from_p,
    envelope_check,
    hankel2_invlog,
    hankel2_log,
    hankel_invlog_from_p,
    hankel_log_from_p,
    inv_log_coeffs,
    log_coeffs,
    maximize,
    minimize_modulus,
    p_from_zeta,
    preset,
    reduced_p2,
    rotate,
    rotation_check,
    toeplitz2_invlog,
    toeplitz2_log,
    toeplitz_invlog_from_p,
    toeplitz_invlog_majorant,
    toeplitz_invlog_reduced,
    toeplitz_log_from_p,
    toeplitz_log_majorant,
    toeplitz_log_reduced,
)
from petalstar import caratheodory as cth
from petalstar import search
from petalstar.errors import DomainViolation
from petalstar.search import _objective

COARSE = GridSpec(zeta1_steps=21, radial_steps=9, angular_steps=16, refine_rounds=1)

_FUNCTIONAL = {
    FunctionalId.HANKEL_LOG: hankel2_log,
    FunctionalId.HANKEL_INVLOG: hankel2_invlog,
}


def test_gridspec_validation():
    with pytest.raises(DomainViolation):
        GridSpec(zeta1_steps=1)
    for shrink in (1.0, None, "a"):
        with pytest.raises(DomainViolation):
            GridSpec(refine_shrink=shrink)
    with pytest.raises(DomainViolation):
        GridSpec(refine_rounds=-1)
    # a fractional count fails at construction, not inside the scan
    for field in ("zeta1_steps", "radial_steps", "angular_steps", "refine_rounds"):
        with pytest.raises(DomainViolation):
            GridSpec(**{field: 2.5})


def test_gridspec_caps_pass_size():
    # a grid whose passes would bound or evaluate more than _MAX_POINTS
    # points fails at construction, before any scan allocates them
    cap = search._MAX_POINTS
    for fields in ({"zeta1_steps": 10 ** 12}, {"zeta1_steps": cap // 41 + 1},
                   {"angular_steps": cap // 41 + 1}, {"radial_steps": cap // 2 + 1},
                   {"radial_steps": 10 ** 12, "zeta1_steps": 2, "angular_steps": 2}):
        with pytest.raises(DomainViolation, match="at most"):
            GridSpec(**fields)
    # the default grid, the largest reference grid and grids at the cap pass
    assert min(cap // 201 // 41, cap // 301 // 61) >= 50
    for fields in ({}, {"zeta1_steps": 301, "radial_steps": 61, "angular_steps": 96},
                   {"zeta1_steps": cap // 41, "angular_steps": cap // 41, "refine_rounds": 0}):
        GridSpec(**fields)


def test_gridspec_caps_refine_rounds():
    # every pass bounds zeta1_steps * radial_steps rings, so the passes of
    # all refine rounds together may bound at most _MAX_POINTS of them; the
    # default grid allows 120 rounds, and a count far past that fails at
    # construction, before any pass runs
    assert (120 + 1) * 201 * 41 <= search._MAX_POINTS < (121 + 1) * 201 * 41
    assert GridSpec(refine_rounds=120).refine_rounds == 120
    for rounds in (121, 10 ** 6, 10 ** 30):
        with pytest.raises(DomainViolation, match="refine_rounds"):
            GridSpec(refine_rounds=rounds)
    with pytest.raises(DomainViolation, match="at most"):
        GridSpec(zeta1_steps=search._MAX_POINTS // 41, refine_rounds=1)


@pytest.mark.parametrize("field", ["zeta1_steps", "radial_steps", "angular_steps",
                                   "refine_rounds"])
def test_gridspec_numpy_counts(field):
    # a NumPy integer is stored as a Python int and scans as one
    grid = dataclasses.replace(COARSE, **{field: np.int64(getattr(COARSE, field))})
    assert grid == COARSE and type(getattr(grid, field)) is int
    assert (json.dumps(maximize(FunctionalId.HANKEL_LOG, grid).to_dict())
            == json.dumps(maximize(FunctionalId.HANKEL_LOG, COARSE).to_dict()))


@pytest.mark.parametrize("fid", list(FunctionalId))
def test_maximize_reaches_bound(fid):
    rep = maximize(fid, COARSE)
    assert rep.deviation <= 5e-4
    assert rep.observed_max <= rep.sharp_bound + 1e-9
    assert rep.mode == "max"
    assert rep.samples > 0


def test_maximize_argmax_locations():
    rep = maximize(FunctionalId.HANKEL_LOG, COARSE)
    assert rep.argmax["zeta1"] <= 0.05
    assert math.hypot(rep.argmax["zeta2_re"], rep.argmax["zeta2_im"]) >= 0.95
    rep = maximize(FunctionalId.HANKEL_INVLOG, COARSE)
    assert rep.argmax["zeta1"] >= 0.95
    rep = maximize(FunctionalId.TOEPLITZ_INVLOG, COARSE)
    assert rep.argmax["p1"] == pytest.approx(2.0)
    assert math.hypot(rep.argmax["zeta_re"], rep.argmax["zeta_im"]) == pytest.approx(1.0)


_RNG_MIN = np.random.default_rng(SEED + 71)

#: Seeded random grids: 2-299 zeta1, 2-59 radial and 2-99 angular steps,
#: 0-7 refine rounds and a shrink in (0.01, 0.99).
_RANDOM_GRIDS = [GridSpec(*(int(_RNG_MIN.integers(2, hi)) for hi in (300, 60, 100, 8)),
                          float(_RNG_MIN.uniform(0.01, 0.99)))
                 for _ in range(50)]


@pytest.mark.parametrize("fid", list(FunctionalId))
def test_minimize_modulus_reaches_zero(fid):
    # every minimum is read at the identity point, the first node of every
    # grid: the whole report, each argmax entry a 0.0 without a sign bit,
    # and samples counting the grid's nodes as for a scan
    names = (["zeta1", "zeta2_re", "zeta2_im", "zeta3_re", "zeta3_im"] if fid in _FUNCTIONAL
             else ["p1", "zeta_re", "zeta_im"])
    for grid in [*_REFERENCE_GRIDS.values(), *_RANDOM_GRIDS]:
        nodes = (grid.refine_rounds + 1) * grid.zeta1_steps * grid.radial_steps * grid.angular_steps
        want = {"functional": fid.value, "mode": "min", "objective": "modulus",
                "observed_max": 0.0, "argmax": dict.fromkeys(names, 0.0),
                "sharp_bound": SHARP_BOUNDS[fid], "deviation": SHARP_BOUNDS[fid],
                "samples": nodes, "seed": 5}
        assert json.dumps(minimize_modulus(fid, grid, seed=5).to_dict()) == json.dumps(want)


def test_determinism_and_thread_invariance():
    a = maximize(FunctionalId.HANKEL_INVLOG, COARSE, seed=7)
    b = maximize(FunctionalId.HANKEL_INVLOG, COARSE, seed=7)
    c = maximize(FunctionalId.HANKEL_INVLOG, COARSE, seed=7, threads=4)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict()) == json.dumps(c.to_dict())
    assert a.seed == 7


def test_boundary_vs_disk_zeta3_scan():
    # the functionals are affine in zeta3, so restricting it to the boundary
    # circle must not lower the maximum
    grid = GridSpec(zeta1_steps=11, radial_steps=7, angular_steps=12, refine_rounds=0)
    for fid in (FunctionalId.HANKEL_LOG, FunctionalId.HANKEL_INVLOG):
        a = maximize(fid, grid, zeta3_mode="boundary")
        b = maximize(fid, grid, zeta3_mode="disk")
        assert a.observed_max == pytest.approx(b.observed_max, abs=1e-14)
        assert b.samples == a.samples * grid.radial_steps


def test_exact_zeta3_matches_oracles():
    # exact elimination finds the oracles' maximum on the criterion-5 grid
    # and evaluates one point per (zeta1, zeta2) grid node and round
    grid = GridSpec(zeta1_steps=11, radial_steps=7, angular_steps=12, refine_rounds=0)
    for fid in (FunctionalId.HANKEL_LOG, FunctionalId.HANKEL_INVLOG):
        exact = maximize(fid, grid)
        boundary = maximize(fid, grid, zeta3_mode="boundary")
        disk = maximize(fid, grid, zeta3_mode="disk")
        assert exact.observed_max == pytest.approx(boundary.observed_max, abs=1e-14)
        assert exact.observed_max == pytest.approx(disk.observed_max, abs=1e-14)
        assert exact.samples == 11 * 7 * 12
        assert boundary.samples == exact.samples * 12
        assert maximize(fid, COARSE).samples == 21 * 9 * 16 * (COARSE.refine_rounds + 1)
    for fid in (FunctionalId.HANKEL_LOG, FunctionalId.TOEPLITZ_LOG):
        with pytest.raises(DomainViolation):
            maximize(fid, grid, zeta3_mode="interior")
    # a Toeplitz max reads its majorant whatever the valid zeta3_mode
    for fid in (FunctionalId.TOEPLITZ_LOG, FunctionalId.TOEPLITZ_INVLOG):
        reports = {json.dumps(maximize(fid, COARSE, zeta3_mode=m).to_dict())
                   for m in ("exact", "boundary", "disk")}
        assert len(reports) == 1


def _columns(rows, x):
    """The rows a scan's ``rows`` callable gives the points ``x``, of any
    shape, as ``_scan`` hands them to an objective: shape ``(k,) + x.shape``."""
    x = np.asarray(x, dtype=float)
    return rows(x.ravel()).reshape((-1,) + x.shape)


def _split_kernel(table):
    """``alpha + beta zeta3`` from the scans' table and beta, array-safe in
    all three parameters."""
    def kernel(z1, z2, z3):
        return cth._quadratic(cth._coeffs(table, z1), z2) + cth._hankel_beta(z1, np.abs(z2)) * z3
    return kernel


_HANKEL_CASES = [
    pytest.param(fid, _split_kernel(search._FORMS[fid][0]),
                 id="_" + fid.value.replace("-", "_") + "_zeta")
    for fid in (FunctionalId.HANKEL_LOG, FunctionalId.HANKEL_INVLOG)
]

# the Toeplitz forms by the independent p-path, which has no zeta3
_TOEPLITZ_CASES = [
    pytest.param(FunctionalId.TOEPLITZ_LOG,
                 lambda p1, z, _z3: toeplitz_log_from_p(p1, reduced_p2(p1, z)),
                 id="toeplitz_log_from_p"),
    pytest.param(FunctionalId.TOEPLITZ_INVLOG,
                 lambda p1, z, _z3: toeplitz_invlog_from_p(p1, reduced_p2(p1, z)),
                 id="toeplitz_invlog_from_p"),
]


@pytest.mark.parametrize("fid, kernel", _HANKEL_CASES)
def test_exact_zeta3_elimination_pointwise(fid, kernel):
    # |alpha| + |beta| bounds a fine boundary zeta3 scan from above and is
    # attained at the reported unit-modulus zeta3
    rows, objective, _, depth, zeta3_at = _objective(fid, GridSpec(), "exact")
    assert depth == 1
    circle = np.exp(2j * math.pi * np.arange(4096) / 4096)
    rng = np.random.default_rng(SEED + 42)
    for _ in range(200):
        z1 = float(rng.uniform())
        z2 = complex(math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))
        exact = float(objective(_columns(rows, z1), np.asarray(abs(z2)), np.asarray(z2)))
        sampled = float(np.abs(kernel(z1, z2, circle)).max())
        assert sampled <= exact + 1e-15
        assert exact - sampled <= 1e-6
        z3 = complex(zeta3_at(_columns(rows, z1), z2))
        assert abs(abs(z3) - 1.0) <= 1e-15
        assert abs(abs(kernel(z1, z2, z3)) - exact) <= 1e-15


def _random_rings(seed, m=200):
    # m random (zeta1, |zeta2|) rings with 8 angles each, shaped for _scan
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(size=(m, 1))
    r = np.sqrt(rng.uniform(size=(m, 1)))
    return z1, r, r * np.exp(2j * math.pi * rng.uniform(size=(m, 8)))


@pytest.mark.parametrize("fid, kernel", _HANKEL_CASES + _TOEPLITZ_CASES)
def test_exact_zeta3_min_pointwise(fid, kernel):
    # the minimum report's point, the identity function's, is a zero of the
    # form for every zeta3 of a fine disk grid: by the form's kernel and,
    # for the Hankel forms, by the independent p-path
    disk = (np.linspace(0.0, 1.0, 65)[:, None]
            * np.exp(2j * math.pi * np.arange(64) / 64)).ravel()
    x, z_re, z_im, *_ = minimize_modulus(fid).argmax.values()
    assert not np.any(kernel(x, complex(z_re, z_im), disk))
    if fid in _FUNCTIONAL:
        from_p = {FunctionalId.HANKEL_LOG: hankel_log_from_p,
                  FunctionalId.HANKEL_INVLOG: hankel_invlog_from_p}[fid]
        for z3 in disk[::97]:
            assert from_p(p_from_zeta(CaratheodoryPoint(x, complex(z_re, z_im), z3))) == 0.0


@pytest.mark.parametrize("fid, kernel", _HANKEL_CASES)
def test_zeta3_oracles_pointwise(fid, kernel):
    # each oracle's ring values are the largest modulus over its zeta3 grid
    grid = GridSpec(radial_steps=5, angular_steps=32)
    z1, r, z2 = _random_rings(SEED + 45)
    for zeta3_mode in ("boundary", "disk"):
        rows, oracle, _, depth, _ = _objective(fid, grid, zeta3_mode)
        z3_grid = search._zeta3_grid(zeta3_mode, grid)
        assert depth == z3_grid.size
        want = np.abs(kernel(z1[..., None], z2[..., None], z3_grid)).max(axis=-1)
        assert np.abs(oracle(_columns(rows, z1), r, z2) - want).max() <= 1e-16


def _first_pass_and_random_rings():
    # the default grid's first pass, and 1e5 seeded random points of the
    # domain, one on each of 500 x 200 random rings: each as the x axis, the
    # radii and the points, of shape (x, r, angle), broadcast
    grid = GridSpec()
    r = np.linspace(0.0, 1.0, grid.radial_steps)
    t = np.linspace(0.0, 2.0 * math.pi, grid.angular_steps, endpoint=False)
    z1 = np.linspace(0.0, 1.0, grid.zeta1_steps)
    z2 = (r[:, None] * np.exp(1j * t)[None, :])[None, :, :]
    rng = np.random.default_rng(SEED + 43)
    rz1 = rng.uniform(size=500)
    rr = np.sqrt(rng.uniform(size=200))
    rz2 = rr[None, :, None] * np.exp(2j * math.pi * rng.uniform(size=(500, 200, 1)))
    return [(z1, r, z2), (rz1, rr, rz2)]


def _hankel_log_zeta(z1, z2, z3):
    """The log-Hankel functional at a parameter point, by the ``p``-path."""
    return hankel_log_from_p(p_from_zeta(CaratheodoryPoint(z1, z2, z3)))


def _hankel_invlog_zeta(z1, z2, z3):
    """The inverse-log-Hankel functional at a parameter point, by the ``p``-path."""
    return hankel_invlog_from_p(p_from_zeta(CaratheodoryPoint(z1, z2, z3)))


@pytest.mark.parametrize("kernel, table", [
    pytest.param(_hankel_log_zeta, cth._HANKEL_LOG_ALPHA,
                 id="_hankel_log_zeta-_hankel_log_alpha"),
    pytest.param(_hankel_invlog_zeta, cth._HANKEL_INVLOG_ALPHA,
                 id="_hankel_invlog_zeta-_hankel_invlog_alpha"),
])
def test_hankel_coefficient_forms(kernel, table):
    # alpha = a0 + a1 zeta2 + a2 zeta2^2 from the table's real coefficients
    # and the closed-form beta split the independent p-path value as alpha +
    # beta z3, on a small polar grid with both faces and on random points
    rng = np.random.default_rng(SEED + 46)
    grid = [(float(z1), complex(r * np.exp(1j * t)))
            for z1 in np.linspace(0.0, 1.0, 11) for r in np.linspace(0.0, 1.0, 5)
            for t in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    random = [(float(rng.uniform()),
               complex(math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())))
              for _ in range(2000)]
    for z1, z2 in grid + random:
        a0, a1, a2 = cth._coeffs(table, z1)
        alpha = kernel(z1, z2, 0.0)
        assert abs(a0 + a1 * z2 + a2 * z2 * z2 - alpha) <= 1e-15
        beta = cth._hankel_beta(z1, abs(z2))
        assert abs(beta - (kernel(z1, z2, 1.0) - alpha)) <= 1e-15


@pytest.mark.parametrize("fid, kernel", _HANKEL_CASES)
def test_ring_bound_sound(monkeypatch, fid, kernel):
    # the Hankel max ring bound, margin included, is at least |alpha| + |beta|
    # at every point of its ring, and the margin exceeds the largest shortfall
    # of the bare bound at least 100-fold; on the zeta1 = 1 face, where c1,
    # c2 and beta vanish, the bound carries no margin and equals the
    # objective's ring maximum bit for bit
    margin = search._BOUND_MARGIN
    rows, objective, bound, _, _ = _objective(fid, GridSpec(), "exact")
    first, rings = _first_pass_and_random_rings()
    face = (np.array([1.0]),) + first[1:]
    shortfall = 0.0
    for z1, r, z2 in (first, rings, face):
        alpha = kernel(z1[:, None, None], z2, 0.0)
        beta = kernel(z1[:, None, None], z2, 1.0) - alpha
        reference = (np.abs(alpha) + np.abs(beta)).max(axis=-1)
        p = rows(z1)[:, :, None]
        assert np.all(bound(p, r) >= reference)
        monkeypatch.setattr(search, "_BOUND_MARGIN", 0.0)
        shortfall = max(shortfall, float((reference - bound(p, r)).max()))
        monkeypatch.setattr(search, "_BOUND_MARGIN", margin)
    assert margin >= 100.0 * shortfall
    z1, r, z2 = face
    p = rows(z1)[:, :, None]
    assert _bits(bound(p, r)) == _bits(objective(p, r[:, None], z2).max(axis=-1))


def test_default_grid_invlog_max_is_exact():
    # the zeta1 = 1 face is 1/9 exactly, so the default-grid scan reads no
    # rounding excess above the bound
    rep = maximize(FunctionalId.HANKEL_INVLOG)
    assert rep.observed_max == 1 / 9
    assert rep.deviation == 0.0


_REFERENCE = json.loads((Path(__file__).parent / "data" / "reference_reports.json").read_text())


_REFERENCE_GRIDS = {
    "coarse": COARSE,
    "default": GridSpec(),
    "41x16x24x2": GridSpec(41, 16, 24, 2),
    "37x13x11x2x0.45": GridSpec(37, 13, 11, 2, 0.45),
    "11x7x12x0": GridSpec(11, 7, 12, 0),
    "150x33x50x5x0.6": GridSpec(150, 33, 50, 5, 0.6),
    "3x2x2x6x0.9": GridSpec(3, 2, 2, 6, 0.9),
    "301x61x96x2": GridSpec(301, 61, 96, 2),
}


@pytest.mark.parametrize("key", sorted(_REFERENCE))
def test_reports_match_reference(key):
    # all four max and min scans reproduce, byte for byte, reports recorded
    # from earlier scan cores: the Toeplitz max and all min reports from the
    # separate Hankel and Toeplitz loops, the coarse and default Hankel max
    # reports from the exact zeta3 elimination run as one block per pass,
    # the Hankel max reports on the two odd grids from the block scan that
    # evaluated the complex kernels on every point, and the boundary and
    # disk zeta3 oracle reports from the scan core that blocked every pass;
    # the hankel-invlog max and oracle reports whose argmax lies on the
    # zeta1 = 1 face, and the log max report on (37, 13, 11, 2, 0.45), were
    # re-recorded when the scans moved to the real coefficient forms; the
    # reports on (150, 33, 50, 5, 0.6), (3, 2, 2, 6, 0.9) and (301, 61, 96,
    # 2) are those of the scan core that evaluated the coefficient table on
    # the gathered rings, before each pass evaluated it once on its x axis
    mode, grid_name, fid = key.split("/")
    grid = _REFERENCE_GRIDS[grid_name]
    if mode == "min":
        rep = minimize_modulus(FunctionalId(fid), grid)
    else:
        zeta3_mode = "exact" if mode == "max" else mode
        rep = maximize(FunctionalId(fid), grid, zeta3_mode=zeta3_mode)
    assert json.dumps(rep.to_dict()) == json.dumps(_REFERENCE[key])


_PRUNING_GRIDS = {
    "coarse": COARSE,
    "41x16x24x2": GridSpec(41, 16, 24, 2),
    "37x13x11x2x0.45": GridSpec(37, 13, 11, 2, 0.45),
    "5x3x5x4": GridSpec(5, 3, 5, 4),
}


@pytest.mark.parametrize("grid_name", _PRUNING_GRIDS)
def test_pruning_invariance(monkeypatch, grid_name):
    # a ring bound of +inf prunes no ring; the pruned Hankel max scans
    # reproduce those reports byte for byte, ties included (a Toeplitz max
    # and every minimum run no scan: test_toeplitz_max_is_majorant_scan and
    # test_minimize_modulus_reaches_zero cover them)
    grid = _PRUNING_GRIDS[grid_name]

    def reports():
        return [json.dumps(maximize(fid, grid).to_dict()) for fid in _FUNCTIONAL]

    pruned = reports()
    scan = search._scan

    def unpruned(rows, objective, _bound, x_hi, grid):
        return scan(rows, objective, search._unbounded, x_hi, grid)

    monkeypatch.setattr(search, "_scan", unpruned)
    assert reports() == pruned


_RNG_ORACLE = np.random.default_rng(SEED + 61)

_MAJORANT_GRIDS = {
    **_PRUNING_GRIDS,
    "default": GridSpec(),
    **{f"random{i}": GridSpec(*(int(_RNG_ORACLE.integers(2, hi)) for hi in (60, 20, 40)),
                              int(_RNG_ORACLE.integers(0, 5)),
                              float(_RNG_ORACLE.uniform(0.05, 0.95)))
       for i in range(4)},
}


@pytest.mark.parametrize("grid_name", _MAJORANT_GRIDS)
def test_toeplitz_max_is_majorant_scan(grid_name):
    # a Toeplitz max reads the majorant at its corner instead of scanning
    # it; an unpruned scan of the majorant, the absolute-value table's rows,
    # gives the same value and argmax byte for byte, the report counts its
    # grid nodes, and each of its passes' rows, the argmax's column
    # included, is cth._coeffs of that table, bit for bit
    grid = _MAJORANT_GRIDS[grid_name]
    nodes = (grid.refine_rounds + 1) * grid.zeta1_steps * grid.radial_steps * grid.angular_steps

    def majorant(p, r, _z):
        return cth._quadratic(p, r)

    for fid in (FunctionalId.TOEPLITZ_LOG, FunctionalId.TOEPLITZ_INVLOG):
        table = cth._abs_table(search._FORMS[fid][0])
        coeffs, seen = cth._coeff_rows(table), []

        def rows(x):
            seen.append((x, coeffs(x)))
            return seen[-1][1]

        val, (p1, z), column = search._scan(rows, majorant, search._unbounded, 2.0, grid)
        assert len(seen) == grid.refine_rounds + 1
        for x, p in seen:
            assert _bits(p) == _bits(cth._coeffs(table, x))
        assert _bits(column) == _bits(cth._coeffs(table, np.array([p1])))
        rep = maximize(fid, grid)
        assert (json.dumps([rep.observed_max, rep.argmax, rep.samples])
                == json.dumps([val, {"p1": p1, "zeta_re": z.real, "zeta_im": z.imag}, nodes]))
        assert rep.objective == "majorant" and rep.deviation == rep.sharp_bound - val


_RNG_ZETA3 = np.random.default_rng(SEED + 67)


def _zeta3_points():
    """Seeded random ``(zeta1, zeta2)`` and the faces: ``zeta1`` in {0, 1},
    ``zeta2 = 0`` and ``|zeta2| = 1``, with both signs of a zero imaginary
    part."""
    z1 = [0.0, 1.0, *_RNG_ZETA3.uniform(size=46)]
    z2 = [complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
          complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0),
          complex(0.3, 0.0), complex(-0.3, -0.0), 1j, -1j,
          *np.exp(2j * math.pi * _RNG_ZETA3.uniform(size=6)),
          *(np.sqrt(_RNG_ZETA3.uniform(size=12))
            * np.exp(2j * math.pi * _RNG_ZETA3.uniform(size=12)))]
    return [(float(x), complex(z)) for x in z1 for z in z2]


def _complex_bits(v):
    return _bits(np.array([complex(v)]).view(float))


@pytest.mark.parametrize("fid", [FunctionalId.HANKEL_LOG, FunctionalId.HANKEL_INVLOG])
def test_zeta3_at_matches_column_path(fid):
    # a max report's zeta3, read off a rows column as the scan passes hand
    # it over, is bit for bit the phase of the split alpha + beta zeta3 of
    # that column, signed zeros included, at random points and on the
    # faces; so is the boundary oracle's.  The column of a one-point axis
    # is bit for bit that of a longer axis
    rows, _, _, _, zeta3_at = _objective(fid, GridSpec(), "exact")
    oracle_zeta3 = _objective(fid, GridSpec(), "boundary")[4]
    z3_grid = search._zeta3_grid("boundary", GridSpec())
    points = _zeta3_points()
    axis = rows(np.array([x for x, _ in points]))
    for i, (x, z) in enumerate(points):
        p = rows(np.array([x]))[:, 0]
        assert _bits(p) == _bits(axis[:, i])
        alpha, b = cth._quadratic(p, z), p[3] * cth._beta_r(abs(z))
        a, c = complex(alpha), complex(b)
        want = 1.0 if a == 0.0 or c == 0.0 else a / abs(a)
        assert _complex_bits(zeta3_at(axis[:, i], z)) == _complex_bits(want)
        want = z3_grid[int(np.argmax(np.abs(alpha + b * z3_grid)))]
        assert _complex_bits(oracle_zeta3(axis[:, i], z)) == _complex_bits(want)


def _x_rows(x):
    """The rows of a hand-written objective and bound: the ``x`` axis alone,
    which they read back as ``x = p[0]``."""
    return x[None]


def _scan_bits(*args):
    """``search._scan(*args)`` with its rows column as bytes, comparable
    with ``==``."""
    val, params, column = search._scan(*args)
    return val, params, _bits(column)


def test_pruning_keeps_earlier_ties():
    # a loose bound ties the seed value at rings before the seed ring (the
    # last one); the first of them holds the first maximum in C order
    def objective(p, r, _z):
        x = p[0]
        return np.where((r == 1.0) & (x != 0.5), 1.0, 0.0)

    def bound(p, r):
        x = p[0]
        return (r == 1.0) * np.where(x == 1.0, 2.0, 1.0)

    grid = GridSpec(zeta1_steps=3, radial_steps=2, angular_steps=2, refine_rounds=0)
    pruned = _scan_bits(_x_rows, objective, bound, 1.0, grid)
    unpruned = _scan_bits(_x_rows, objective, search._unbounded, 1.0, grid)
    assert pruned == unpruned == (1.0, (0.0, 1.0), _bits([0.0]))


def test_pruning_refine_tie_keeps_incumbent():
    # the first pass's maximum 1 sits on ring (1, 1); the refine pass holds
    # a ring (0.85, 1) before it in C order with the same value.  A tight
    # bound prunes that ring, a loose one evaluates it; neither replaces the
    # incumbent, as an unpruned pass would not
    def objective(p, r, _z):
        x = p[0]
        return np.where((r == 1.0) & (x >= 0.8), 1.0, 0.0)

    grid = GridSpec(zeta1_steps=3, radial_steps=2, angular_steps=2, refine_rounds=1)
    want = (1.0, (1.0, 1.0 + 0.0j), _bits([1.0]))
    for height in (1.0, 2.0, math.inf):
        def bound(p, r):
            return np.where(r == 1.0, height, 0.0)
        assert _scan_bits(_x_rows, objective, bound, 1.0, grid) == want


def test_self_bounded_refine_beats_first_pass():
    # an objective may be passed as its own bound; a refine pass here finds
    # a larger value than the first pass, and the scan matches one that
    # evaluates every ring
    def peak(p, r, _z=None):
        x = p[0]
        return -((x - 0.37) ** 2) - (r - 0.61) ** 2

    grid = GridSpec(zeta1_steps=5, radial_steps=4, angular_steps=3, refine_rounds=2)
    first = search._scan(_x_rows, peak, peak, 1.0,
                         dataclasses.replace(grid, refine_rounds=0))
    got = _scan_bits(_x_rows, peak, peak, 1.0, grid)
    assert got[0] > first[0]
    assert got == _scan_bits(_x_rows, peak, search._unbounded, 1.0, grid)
    assert got[2] == _bits([got[1][0]])


def _count_passes(monkeypatch):
    """Record each scan pass, opened by its rows call, as the list of the
    ring counts its objective calls take."""
    passes = []
    build = search._objective

    def objective(*args):
        rows, fn, bound, depth, zeta3_at = build(*args)

        def opened(x):
            passes.append([])
            return rows(x)

        def counted(p, r, zeta):
            passes[-1].append(len(r))
            return fn(p, r, zeta)

        return opened, counted, bound, depth, zeta3_at

    monkeypatch.setattr(search, "_objective", objective)
    return passes


@pytest.mark.parametrize("grid", [COARSE, GridSpec()], ids=["coarse", "default"])
def test_scan_objective_calls(monkeypatch, grid):
    # the first pass calls the objective at most twice (seed ring, then the
    # other kept rings), a refine pass at most once, never on an empty ring
    # set; a Toeplitz max, read at the majorant's corner, and every minimum,
    # read at the identity point, open no pass, and the four max scans of a
    # certify op make at most 5 calls on at most 5 rings in all
    passes = _count_passes(monkeypatch)
    max_calls = max_rings = 0
    for fid in FunctionalId:
        for scan in (maximize, minimize_modulus):
            passes.clear()
            scan(fid, grid)
            if scan is minimize_modulus or fid not in _FUNCTIONAL:
                assert passes == []
                continue
            assert len(passes) == grid.refine_rounds + 1
            assert len(passes[0]) <= 2 and all(len(p) <= 1 for p in passes[1:])
            assert all(m >= 1 for p in passes for m in p)
            max_calls += sum(map(len, passes))
            max_rings += sum(map(sum, passes))
    assert max_calls <= 5 and max_rings <= 5


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_pass_rows_bit_equal(monkeypatch):
    # on the default grid's first pass and every refine window, each pass's
    # axis is np.linspace's, its rows are cth._coeffs of its table, and the
    # Hankel rows' beta factor gives the closed-form beta of the old kernels;
    # the scans are the Hankel max pair's (no other report opens a pass)
    build = search._objective
    seen = []

    def objective(*args):
        rows, *rest = build(*args)

        def recorded(x):
            seen.append((x, rows(x)))
            return seen[-1][1]
        return (recorded, *rest)

    monkeypatch.setattr(search, "_objective", objective)
    grid = GridSpec()
    r = np.linspace(0.0, 1.0, grid.radial_steps)[None, :]
    for fid in _FUNCTIONAL:
        seen.clear()
        maximize(fid, grid)
        assert len(seen) == grid.refine_rounds + 1
        table = search._FORMS[fid][0]
        for x, p in seen:
            assert _bits(x) == _bits(np.linspace(x[0], x[-1], grid.zeta1_steps))
            assert p.shape == (4, grid.zeta1_steps)
            assert _bits(p[:3]) == _bits(cth._coeffs(table, x))
            z1 = x[:, None]
            want = 12.0 * z1 * (1.0 - z1 * z1) * ((1.0 - r * r) / 144.0)
            assert _bits(p[3][:, None] * cth._beta_r(r)) == _bits(want)


_RNG_WINDOWS = np.random.default_rng(SEED + 49)


@pytest.mark.parametrize("lo, hi, num, endpoint", [
    (0.0, 1.0, 201, True),
    (0.0, 2.0, 201, True),
    (0.0, 1.0, 41, True),
    (0.0, 2.0 * math.pi, 64, False),
    (5.9, 6.8, 64, True),
    (-0.4, 0.5, 96, True),
    (0.3, 0.3000000000000001, 41, True),
    (0.7, 0.7, 5, True),
    (0.0, 40 * 5e-324, 201, True),  # the step underflows to 0
    (0.0, 1e-300, 3, False),
    (1.0, 0.0, 2, True),
] + [(*sorted(_RNG_WINDOWS.uniform(-7.0, 7.0, size=2)), int(_RNG_WINDOWS.integers(2, 300)),
      bool(_RNG_WINDOWS.integers(2))) for _ in range(40)])
def test_axis_is_linspace(lo, hi, num, endpoint):
    ramp = np.arange(num, dtype=float)
    assert (_bits(search._axis(ramp, lo, hi, endpoint))
            == _bits(np.linspace(lo, hi, num, endpoint=endpoint)))


@pytest.mark.parametrize("call, name", [
    (lambda: maximize("nope", COARSE), "unknown functional"),
    (lambda: minimize_modulus("nope", COARSE), "unknown functional"),
    (lambda: maximize(FunctionalId.HANKEL_LOG, COARSE, seed="x"), "seed = "),
    (lambda: minimize_modulus(FunctionalId.HANKEL_LOG, COARSE, seed=1.5), "seed = "),
    (lambda: maximize(FunctionalId.HANKEL_LOG, 0), "grid = "),
    (lambda: minimize_modulus(FunctionalId.HANKEL_LOG, {"zeta1_steps": 3}), "grid = "),
], ids=["max_functional", "min_functional", "max_seed", "min_seed", "falsy_grid",
        "dict_grid"])
def test_bad_scan_input_is_domain_violation(call, name):
    with pytest.raises(DomainViolation, match=f"^{name}"):
        call()


def test_hankel_argmax_consistency():
    # pushing the argmax through the coefficient maps reproduces the scan value
    for fid in (FunctionalId.HANKEL_LOG, FunctionalId.HANKEL_INVLOG):
        rep = maximize(fid, COARSE)
        pt = CaratheodoryPoint(
            min(rep.argmax["zeta1"], 1.0),
            complex(rep.argmax["zeta2_re"], rep.argmax["zeta2_im"]),
            complex(rep.argmax["zeta3_re"], rep.argmax["zeta3_im"]),
        )
        f = SchlichtSeries.from_tail(a_from_p(p_from_zeta(pt)), order=5)
        assert abs(abs(_FUNCTIONAL[fid](f)) - rep.observed_max) <= 1e-10


def test_toeplitz_argmax_consistency():
    # the reported maximum is the majorant at the argmax, and the true
    # functional modulus never exceeds it
    cases = [
        (FunctionalId.TOEPLITZ_LOG, toeplitz_log_majorant, toeplitz_log_reduced),
        (FunctionalId.TOEPLITZ_INVLOG, toeplitz_invlog_majorant, toeplitz_invlog_reduced),
    ]
    for fid, majorant, reduced in cases:
        rep = maximize(fid, COARSE)
        p1 = rep.argmax["p1"]
        z = complex(rep.argmax["zeta_re"], rep.argmax["zeta_im"])
        assert rep.objective == "majorant"
        assert abs(majorant(p1, abs(z)) - rep.observed_max) <= 1e-12
        assert abs(reduced(p1, z)) <= rep.observed_max + 1e-12


@pytest.mark.parametrize("majorant", [toeplitz_log_majorant, toeplitz_invlog_majorant])
def test_majorants_take_sequences(majorant):
    # a list, a tuple or a Python number gives the array's values bit for bit
    p1, t = [0.0, 0.5, 2.0], (0.5, 1.0, 0.25)
    assert _bits(majorant(p1, t)) == _bits(majorant(np.array(p1), np.array(t)))
    assert _bits(majorant([0.0, 2.0], [0.5])) == _bits(majorant(np.array([0.0, 2.0]), 0.5))
    assert majorant(2, 1) == majorant(2.0, 1.0)


def test_majorants_dominate_modulus():
    rng = np.random.default_rng(SEED + 40)
    for _ in range(500):
        p1 = 2.0 * rng.uniform()
        z = math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        assert abs(toeplitz_log_reduced(p1, z)) <= toeplitz_log_majorant(p1, abs(z)) + 1e-12
        assert abs(toeplitz_invlog_reduced(p1, z)) <= toeplitz_invlog_majorant(p1, abs(z)) + 1e-12



# -- hand expansions of the coefficient tables, independent references -------


def _hand_hankel_log_alpha(z1):
    u = z1 * z1
    return -2.0 * u * u / 144.0, 0.0, (-9.0 + 6.0 * u + 3.0 * u * u) / 144.0


def _hand_hankel_invlog_alpha(z1):
    u = z1 * z1
    return (
        16.0 * u * u / 144.0,
        18.0 * u * (u - 1.0) / 144.0,
        (-9.0 + 6.0 * u + 3.0 * u * u) / 144.0,
    )


def _hand_toeplitz_log_reduced(p1, zeta):
    z2 = zeta * zeta
    return (
        -(p1 ** 4) * z2 - 16.0 * z2 + 16.0 * p1 ** 2 + 8.0 * p1 ** 2 * z2
    ) / 256.0


def _hand_toeplitz_invlog_reduced(p1, zeta):
    z2 = zeta * zeta
    u = p1 ** 2
    u2 = p1 ** 4
    return (
        16.0 * u - 4.0 * u2 + 16.0 * u * zeta - 4.0 * u2 * zeta
        - 16.0 * z2 + 8.0 * u * z2 - u2 * z2
    ) / 256.0


def _hand_toeplitz_log_majorant(p1, t):
    u = p1 ** 2
    return (u * u * t * t + 16.0 * t * t + 16.0 * u + 8.0 * u * t * t) / 256.0


def _hand_toeplitz_invlog_majorant(p1, t):
    u = p1 ** 2
    u2 = u * u
    return (
        16.0 * u + 4.0 * u2 + 16.0 * u * t + 4.0 * u2 * t
        + 16.0 * t * t + 8.0 * u * t * t + u2 * t * t
    ) / 256.0


def _toeplitz_first_pass_and_random_points():
    # the default grid's first pass over (p1, zeta) as broadcast blocks, and
    # 1e4 seeded random points of the domain as flat arrays
    grid = GridSpec()
    r = np.linspace(0.0, 1.0, grid.radial_steps)
    t = np.linspace(0.0, 2.0 * math.pi, grid.angular_steps, endpoint=False)
    p1 = np.linspace(0.0, 2.0, grid.zeta1_steps)[:, None, None]
    z = (r[:, None] * np.exp(1j * t)[None, :])[None, :, :]
    rng = np.random.default_rng(SEED + 47)
    n = 10 ** 4
    rp1 = 2.0 * rng.uniform(size=n)
    rz = np.sqrt(rng.uniform(size=n)) * np.exp(2j * math.pi * rng.uniform(size=n))
    return [(p1, z), (rp1, rz)]


@pytest.mark.parametrize("table, hand", [
    (cth._HANKEL_LOG_ALPHA, _hand_hankel_log_alpha),
    (cth._HANKEL_INVLOG_ALPHA, _hand_hankel_invlog_alpha),
], ids=["hankel-log", "hankel-invlog"])
def test_hankel_tables_match_hand_expansions(table, hand):
    rng = np.random.default_rng(SEED + 48)
    for z1 in (np.linspace(0.0, 1.0, GridSpec().zeta1_steps), rng.uniform(size=10 ** 4)):
        for got, want in zip(cth._coeffs(table, z1), hand(z1)):
            assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("table, reduced, majorant, hand_reduced, hand_majorant", [
    (cth._TOEPLITZ_LOG, toeplitz_log_reduced, toeplitz_log_majorant,
     _hand_toeplitz_log_reduced, _hand_toeplitz_log_majorant),
    (cth._TOEPLITZ_INVLOG, toeplitz_invlog_reduced, toeplitz_invlog_majorant,
     _hand_toeplitz_invlog_reduced, _hand_toeplitz_invlog_majorant),
], ids=["toeplitz-log", "toeplitz-invlog"])
def test_toeplitz_tables_match_hand_expansions(table, reduced, majorant,
                                               hand_reduced, hand_majorant):
    # the public reduced forms and majorants read the tables; on the default
    # first pass and on random points they agree with the hand expansions
    (p1, z), (rp1, rz) = _toeplitz_first_pass_and_random_points()
    first_pass = cth._quadratic(cth._coeffs(table, p1), z)
    assert np.abs(first_pass - hand_reduced(p1, z)).max() <= 1e-15
    assert np.abs(majorant(p1, np.abs(z)) - hand_majorant(p1, np.abs(z))).max() <= 1e-15
    got = np.array([reduced(float(a), complex(b)) for a, b in zip(rp1, rz)])
    assert np.abs(got - hand_reduced(rp1, rz)).max() <= 1e-15
    assert np.abs(majorant(rp1, np.abs(rz)) - hand_majorant(rp1, np.abs(rz))).max() <= 1e-15


def test_majorant_corners_exact():
    # the sharp bounds are the majorants at the corner (p1, |zeta|) = (2, 1),
    # exactly, and the default first pass attains them there and only there
    grid = GridSpec()
    p1 = np.linspace(0.0, 2.0, grid.zeta1_steps)[:, None]
    t = np.linspace(0.0, 1.0, grid.radial_steps)[None, :]
    for majorant, bound in ((toeplitz_log_majorant, 1 / 2), (toeplitz_invlog_majorant, 5 / 4)):
        assert majorant(2.0, 1.0) == bound
        values = majorant(p1, t)
        assert values.max() == bound
        assert np.flatnonzero(values == bound).tolist() == [values.size - 1]

def test_refinement_never_regresses():
    base = GridSpec(zeta1_steps=15, radial_steps=7, angular_steps=12, refine_rounds=0)
    prev = maximize(FunctionalId.HANKEL_LOG, base).observed_max
    for rounds in (1, 2, 3):
        grid = GridSpec(zeta1_steps=15, radial_steps=7, angular_steps=12,
                        refine_rounds=rounds)
        cur = maximize(FunctionalId.HANKEL_LOG, grid).observed_max
        assert cur >= prev - 1e-15
        prev = cur


def test_report_serialization():
    rep = maximize(FunctionalId.TOEPLITZ_LOG, COARSE, seed=3)
    d = rep.to_dict()
    assert set(d) == {
        "functional", "mode", "objective", "observed_max", "argmax",
        "sharp_bound", "deviation", "samples", "seed",
    }
    json.dumps(d)  # must be JSON-ready


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, 0.5, "a"])
def test_envelope_check_rejects_bad_step(step):
    # steps that are not positive, not real numbers, or that leave the grid
    # below the split root (~0.452) empty
    with pytest.raises(DomainViolation):
        envelope_check(step)


def test_envelope_check_report():
    rep = envelope_check()
    assert rep["ok"]
    assert abs(rep["split_root"] - 0.451959) <= 1e-6
    assert abs(rep["inner_max"] - 0.0692568) <= 1e-6
    assert rep["inner_below_bound"] and rep["outer_below_bound"]
    assert rep["outer_max"] <= 1 / 9 + 1e-12


_REFERENCE_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "reference_outputs.json").read_text()
)


def test_envelope_check_matches_reference():
    # byte for byte the report of the per-point sign-table loop it replaced
    assert json.dumps(envelope_check()) == json.dumps(_REFERENCE_OUTPUTS["envelope_check"])


def test_rotation_check_f0():
    f = preset("f0", 8)
    rep = rotation_check(f, [0.0, math.pi / 4, 1.0, 2.5])
    assert rep["ok"]
    assert rep["hankel_log_law_residual"] <= 1e-10
    assert rep["hankel_invlog_law_residual"] <= 1e-10
    # theta = pi/4 turns the Hankel value by e^{i pi} = -1
    ft = __import__("petalstar").rotate(f, math.pi / 4)
    assert abs(hankel2_log(ft) + hankel2_log(f)) <= 1e-12


def test_rotation_check_random_series():
    rng = np.random.default_rng(SEED + 41)
    rep = rotation_check(random_schlicht(rng, 6), np.linspace(0, 2 * math.pi, 9))
    assert rep["ok"]


def _rotation_reference(f, thetas):
    """The rotation-law residuals and spreads, one angle at a time."""
    g, G = log_coeffs(f, 2), inv_log_coeffs(f, 2)
    rows = []
    for theta in thetas:
        ft = rotate(f, float(theta))
        w2, w4 = np.exp(2j * theta), np.exp(4j * theta)
        hl, hi, tl, ti = hankel2_log(ft), hankel2_invlog(ft), toeplitz2_log(ft), toeplitz2_invlog(ft)
        rows.append([abs(hl - w4 * hankel2_log(f)), abs(hi - w4 * hankel2_invlog(f)),
                     abs(abs(hl) - abs(hankel2_log(f))), abs(abs(hi) - abs(hankel2_invlog(f))),
                     abs(tl - (w2 * g[1] ** 2 - w4 * g[2] ** 2)),
                     abs(ti - (w2 * G[1] ** 2 - w4 * G[2] ** 2)), abs(tl), abs(ti)])
    if not rows:
        return [0.0] * 8
    cols = list(zip(*rows))
    return [max(c) for c in cols[:6]] + [max(c) - min(c) for c in cols[6:]]


@pytest.mark.parametrize("name, thetas", [
    ("f0", [0.0, math.pi / 4, 1.0, 2.5]),
    ("f3", np.linspace(0, 2 * math.pi, 9)),
    ("f1", []),
])
def test_rotation_check_matches_loop(name, thetas):
    rep = rotation_check(preset(name, 8), thetas)
    ref = _rotation_reference(preset(name, 8), thetas)
    fields = [v for k, v in rep.items() if k != "ok"]
    assert len(fields) == len(ref)
    for got, want in zip(fields, ref):
        assert abs(got - want) <= 1e-15


def test_rotation_preserves_toeplitz_magnitude_for_presets():
    # the presets with vanishing second coefficient rotate uniformly
    from petalstar import rotate

    f2 = preset("f2", 6)
    ft = rotate(f2, math.pi / 2)
    assert abs(abs(toeplitz2_log(ft)) - 0.5) <= 1e-12
    rep = rotation_check(f2, [0.3, 1.2])
    assert rep["toeplitz_log_magnitude_spread"] <= 1e-12


def test_sharp_bounds_table():
    assert SHARP_BOUNDS[FunctionalId.HANKEL_LOG] == 1 / 16
    assert SHARP_BOUNDS[FunctionalId.HANKEL_INVLOG] == 1 / 9
    assert SHARP_BOUNDS[FunctionalId.TOEPLITZ_LOG] == 1 / 2
    assert SHARP_BOUNDS[FunctionalId.TOEPLITZ_INVLOG] == 5 / 4
