"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Tracer, covered_length, median, quantile, self_times, tail_percentile

si = workloads.si


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],     # overlaps a: the overlap counts once
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],  # sticks out of root: clipped to root
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3), (2.5, 4)]) == pytest.approx(3.0)


def test_quantile_matches_inclusive_interpolation():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert quantile(xs, 0.25) == pytest.approx(statistics.quantiles(xs, n=4, method="inclusive")[0])
    assert median(xs) == statistics.median(xs)
    assert quantile([7], 0.9) == 7


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (91, 50.0), (92, 90.0), (901, 90.0), (902, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = list(range(n))
    got = tail_percentile(values)
    if expected is None:
        assert got is None
    else:
        assert got == (expected, pytest.approx(quantile(values, expected / 100.0)))


def test_tracer_spans_parents_absent_and_restore():
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules["fake_layer"] = mod
    original_inner = mod.inner
    try:
        tracer = Tracer()
        tracer.hook("fake_layer.inner", "inner")
        tracer.hook("fake_layer.outer", "outer")
        tracer.hook("fake_layer.renamed_away", "gone")
        tracer.hook("no_such_module.f", "gone")
        assert tracer.absent == ["fake_layer.renamed_away", "no_such_module.f"]
        assert mod.outer(1) == 4 and tracer.spans == []  # inactive: nothing recorded
        tracer.active = True
        assert mod.outer(1) == 4
        assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
        tracer.restore()
        assert mod.inner is original_inner
    finally:
        del sys.modules["fake_layer"]


def small_dome():
    mesh = si.build_mesh(9, 9, 1.0, 1.0)
    H0 = si.initial_thickness_field("dome", 1.0, mesh)
    params = si.make_params(mesh, 3.0, si.MeltForcing(-2.0), H0=H0, mu=1.0)
    return workloads.DomeSetup(mesh, params, si.TimeGrid(2.0, 4), 1e-3, si.SolverConfig())


def test_traced_counts_match_step_results():
    state = small_dome()
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.recording():
            traj, _, _ = workloads.run_dome(state)
    finally:
        tracer.restore()
    assert tracer.absent == []
    metrics = layers.op_metrics(tracer.spans, self_times(tracer.spans), tracer.counts,
                                state.mesh.n_nodes)
    assert metrics["solver.newton_iters"] == workloads.newton_total(traj) > 0
    assert metrics["solver.cg_iters"] == metrics["operators.jac_apply.calls"] > 0
    assert metrics["timestep.steps"] == 4
    assert metrics["monitors.vi_residual.calls"] == 1


def test_gate_rejects_perturbed_state_and_counts_it_failed():
    state = small_dome()
    outcome = workloads.run_dome(state)
    assert workloads.check_dome(state, outcome) == []

    def perturbed(s):
        traj, record, certificate = outcome
        traj.states[2] = traj.states[2].copy()
        traj.states[2][s.mesh.interior_mask] *= 1.01
        return traj, record, certificate

    bad = workloads.Workload(small_dome, perturbed, workloads.check_dome,
                             lambda s, o: o[0].states[-1], lambda o: {})
    ops = run.run_ops(bad, lambda i: state, bad.check, 1e-9, Tracer(), False)
    assert len(ops) == 1
    assert ops[0]["failures"] and "step 1: scaled residual" in ops[0]["failures"][0]


def test_reference_check_is_a_tolerance_not_bitwise():
    with np.load(workloads.REFERENCE) as ref:
        u = ref["melt_dome_65.final_state"].copy()
    scale = np.max(np.abs(u))
    assert workloads.check_reference("melt_dome_65", u + 0.1 * workloads.REF_RTOL * scale) == []
    assert workloads.check_reference("melt_dome_65", u + 10 * workloads.REF_RTOL * scale)


def test_inputs_are_seeded_and_in_range():
    for name, ranges in workloads.RANGES.items():
        assert workloads.make_inputs(name, 0, 5) == {k: v[0] for k, v in ranges.items()}
        for seed in (1, 2, 77):
            inputs = workloads.make_inputs(name, seed, 3)
            assert inputs == workloads.make_inputs(name, seed, 3)
            assert inputs != workloads.make_inputs(name, seed, 4)
            assert all(lo <= inputs[k] <= hi for k, (_, lo, hi) in ranges.items())


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
