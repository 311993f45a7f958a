"""Every gate accepts the library's real output and rejects a perturbed one,
so that a run with no failed op means the outputs were checked."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gates
import tracing
import workloads
from petalstar import (
    ABCTriple,
    CASE_SPLIT_POINT,
    ExtremalSpec,
    FunctionalId,
    GridSpec,
    build_extremal,
    case_functions,
    class_check,
    compose,
    inv_log_coeffs_closed,
    log_coeffs,
    log_coeffs_closed,
    maximize,
    minimize_modulus,
    quad_disk_max,
    quad_disk_max_grid,
    revert,
)
from run import tail_percentile
from tracing import GateError

SMALL = GridSpec(zeta1_steps=11, radial_steps=7, angular_steps=12, refine_rounds=0)


def perturbed(report, **fields):
    """A report-like copy with some fields changed; ``BoundReport`` itself
    refuses an observed maximum above its bound."""
    return SimpleNamespace(**{**report.to_dict(), **fields})


@pytest.mark.parametrize("fid", list(FunctionalId))
def test_max_gate(fid):
    rep = maximize(fid, SMALL)
    gates.check_max(rep)
    with pytest.raises(GateError):
        gates.check_max(perturbed(rep, observed_max=rep.observed_max + 1e-3))
    with pytest.raises(GateError):
        gates.check_max(perturbed(rep, observed_max=rep.observed_max - 1e-3))


def test_argmax_gate_rejects_a_moved_point():
    tr = tracing.NullTracer()
    rep = workloads._checked_max(FunctionalId.HANKEL_INVLOG, SMALL, 1, tr)
    moved = dict(rep.argmax, zeta1=rep.argmax["zeta1"] - 0.1)
    with pytest.raises(GateError):
        p = workloads._argmax_p(moved)
        gates.check_argmax_value(rep, abs(workloads.hankel_invlog_from_p(p)))


@pytest.mark.parametrize("fid", list(FunctionalId))
def test_min_gate(fid):
    rep = minimize_modulus(fid, SMALL)
    gates.check_min(rep)
    with pytest.raises(GateError):
        gates.check_min(perturbed(rep, observed_max=1e-9))


def test_disk_gate():
    boundary = maximize(FunctionalId.HANKEL_LOG, SMALL)
    disk = maximize(FunctionalId.HANKEL_LOG, SMALL, zeta3_mode="disk")
    gates.check_disk_agrees(boundary, disk)
    with pytest.raises(GateError):
        gates.check_disk_agrees(boundary, perturbed(disk, observed_max=disk.observed_max - 1e-9))


def test_reversion_gate_is_relative_to_scale():
    f = build_extremal(ExtremalSpec(1.0, 1), 40)
    inv = revert(f)
    back = compose(f, inv)
    residual = np.abs(back.coeffs[2:]).max()
    assert residual > 1e-10  # an absolute gate would reject this correct inverse
    gates.check_reversion(back.coeffs, inv.coeffs)

    bad = inv.coeffs.copy()
    bad[7] *= 1.0 + 1e-6
    with pytest.raises(GateError):
        gates.check_reversion(compose(f, type(inv)(bad)).coeffs, bad)


def test_closed_form_gate():
    f = build_extremal(ExtremalSpec(0.4 + 0.5j, 2), 20)
    g = log_coeffs(f, 19)
    gates.check_close("functionals", "log_coeffs", g[:4], log_coeffs_closed(f))
    g[2] += 1e-8
    with pytest.raises(GateError):
        gates.check_close("functionals", "log_coeffs", g[:4], log_coeffs_closed(f))
    with pytest.raises(GateError):
        gates.check_close("functionals", "inv_log_coeffs", inv_log_coeffs_closed(f) * 1.001,
                          inv_log_coeffs_closed(f))


def test_class_gate():
    c, k, radii = 0.8 - 0.3j, 1, (0.3, 0.6, 0.9)
    for order in (10, 40):
        rep = class_check(build_extremal(ExtremalSpec(c, k), order), radii)
        gates.check_class(rep, c, k, radii, 64)
        with pytest.raises(GateError):
            gates.check_class(replace(rep, min_margin=rep.min_margin + 0.2), c, k, radii, 64)
        with pytest.raises(GateError):
            gates.check_class(replace(rep, samples=rep.samples - 1), c, k, radii, 64)


def test_oracle_gate():
    abc = ABCTriple(1.0, -0.5, -0.7)
    closed, oracle = quad_disk_max(*abc), quad_disk_max_grid(*abc, 600, 600)
    gates.check_oracle(abc, closed, oracle)
    with pytest.raises(GateError):
        gates.check_oracle(abc, closed, oracle + 1e-2)


def test_case_table_gate():
    for zeta1 in (0.2, CASE_SPLIT_POINT, 0.8):
        gates.check_case_table(case_functions(zeta1), zeta1, CASE_SPLIT_POINT)
    table = case_functions(0.8)
    with pytest.raises(GateError):
        gates.check_case_table(table._replace(t6=-table.t6), 0.8, CASE_SPLIT_POINT)
    with pytest.raises(GateError):
        gates.check_case_table(table._replace(t4=1.0), 0.8, CASE_SPLIT_POINT)


def test_failed_op_is_counted_against_its_layer(monkeypatch):
    """A perturbed library output fails the op, and the traced metrics
    charge the failure to the layer that produced it."""
    real = workloads.quad_disk_max_grid
    monkeypatch.setattr(workloads, "quad_disk_max_grid", lambda *a: real(*a) + 1e-2)
    tr = tracing.Tracer()
    tr.op_id = 0
    with pytest.raises(GateError):
        tr.call("op", workloads.casework_op, (0.3, (1.0, 0.5, -0.2)), tr)
    metrics = tracing.layer_metrics(tr.spans, 1, None)
    assert metrics["diskmax.failed"][0] == 1
    assert metrics["search.failed"][0] == 0


@pytest.mark.parametrize("name", ["sweep", "analysis", "casework"])
def test_ops_pass_and_counts_repeat(name):
    """Real ops pass their gates, and the traced counts of a seed repeat."""
    wl = workloads.WORKLOADS[name]
    counts = []
    for _ in range(2):
        ops = wl.make_pass(np.random.default_rng(7))[:6]
        tr = tracing.Tracer()
        for i, inp in enumerate(ops):
            tr.op_id = i
            tr.call("op", wl.op, inp, tr)
        m = tracing.layer_metrics(tr.spans, len(ops), None)
        counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert not any(v for k, v in counts[0].items() if k.endswith(".failed"))


def test_tail_percentile():
    lat = list(range(1, 101))
    assert tail_percentile(lat, 99.0) == (90.0, 90, 10)
    assert tail_percentile(lat * 20, 99.0) == (99.0, 99, 20)
    assert tail_percentile(lat * 20, 95.0) == (95.0, 95, 100)
    assert tail_percentile([3.0, 1.0, 2.0], 100.0) == (100.0, 3.0, 0)
