"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import os
from dataclasses import replace

import numpy as np
import pytest

import child
import generate
import reference
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# --- generator ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    a = workloads.WORKLOADS[name](5)
    b = workloads.WORKLOADS[name](5)
    assert a.docs == b.docs
    assert a.ops == b.ops and a.warmup == b.warmup


@pytest.mark.parametrize("name", ["synthetic_runs", "census"])
def test_other_seed_other_inputs(name):
    assert workloads.WORKLOADS[name](5).docs != workloads.WORKLOADS[name](6).docs


def test_generated_documents_are_canonical():
    import fuzzymaps as fz

    for doc in workloads.synthetic_runs(3).docs.values():
        assert fz.serialize_model(fz.parse_model(doc)) == doc


# --- checker --------------------------------------------------------------------


def _fixture_run(name, side, on):
    import fuzzymaps as fz

    spec = fz.load_fixture(name)
    labels = spec.labels_flat(side)
    hp = fz.run_model(spec, fz.seed_from_labels(spec, [labels[i] for i in on], side))
    model = reference.load_model(workloads.fixture_doc(name))
    expected = reference.reference_run(model, side, on, model.policy)
    return model, reference.pattern_from_engine(hp), expected


@pytest.mark.parametrize("name,side,on", [
    ("ex_1_2_1", "domain", (0,)),
    ("ex_1_2_2", "range", (1, 4)),
    ("sec_2_5_fcm", "domain", (10,)),
    ("sec_2_4", "domain", (2,)),
])
def test_checker_accepts_the_engine(name, side, on):
    model, pat, expected = _fixture_run(name, side, on)
    reference.check_run(model, side, on, model.policy, pat, expected)


def test_checker_rejects_a_corrupted_pattern():
    model, pat, expected = _fixture_run("ex_1_2_1", "domain", (0,))
    d, r = pat.pairs[0]
    flipped = (d, (1 - r[0],) + r[1:])
    bad = replace(pat, pairs=(flipped,) + pat.pairs[1:])
    with pytest.raises(reference.CheckError):
        reference.check_run(model, "domain", (0,), model.policy, bad, expected)


def test_checker_rejects_a_period_that_is_not_minimal():
    model, pat, expected = _fixture_run("ex_1_2_1", "domain", (0,))
    assert pat.period == 1
    doubled = replace(pat, kind="limit_cycle", period=2, pairs=pat.pairs * 2)
    seed = tuple(1 if i == 0 else 0 for i in range(model.width("domain")))
    with pytest.raises(reference.CheckError, match="minimal"):
        reference.check_cycle(model, "domain", seed, model.policy, doubled)


def _census(name, side):
    import fuzzymaps as fz

    spec = fz.load_fixture(name)
    got = fz.enumerate_attractors(spec.matrix, side, spec.policy, one_sided=spec.one_sided)
    model = reference.load_model(workloads.fixture_doc(name))
    n = model.width(side)
    samples = reference.sample_cycles(model, side, range(1 << n))
    return model, reference.census_from_engine(got), samples


def test_census_checker_accepts_the_oracle():
    model, got, samples = _census("ex_1_2_1", "domain")
    reference.check_census(model, "domain", got, samples)


def test_census_checker_rejects_a_wrong_basin_sum():
    model, got, samples = _census("ex_1_2_1", "domain")
    basins = got.basins.copy()
    basins[0] += 1
    with pytest.raises(reference.CheckError, match="sum"):
        reference.check_census(model, "domain", replace(got, basins=basins), samples)


def test_census_checker_rejects_a_wrong_assignment():
    model, got, samples = _census("ex_1_2_2", "domain")
    assert len(got.kinds) > 1
    assignment = got.assignment.copy()
    j = np.flatnonzero(assignment != assignment[0])[0]
    assignment[[0, j]] = assignment[[j, 0]]  # basin sizes stay the same
    with pytest.raises(reference.CheckError):
        reference.check_census(model, "domain", replace(got, assignment=assignment), samples)


# --- outcome classification -----------------------------------------------------


class StepLimitExceeded(Exception):
    pass


OP = workloads.Op("run", "dense200", max_steps=300)


def test_expected_step_limit_is_a_success():
    assert child.expected_failure(OP, True, StepLimitExceeded("cap")) is None


def test_unexpected_exception_is_a_failure():
    assert child.expected_failure(OP, False, ValueError("boom"))
    assert child.expected_failure(OP, False, StepLimitExceeded("cap"))
    assert child.expected_failure(OP, True, ValueError("boom"))


def test_missing_step_limit_is_a_failure():
    assert child.expected_failure(OP, True, None)
    assert child.expected_failure(OP, False, None) is None


# --- spans ----------------------------------------------------------------------


def _span(name, start, end, parent, op=0, extra=None):
    return [name, start, end, parent, op, extra]


def test_self_time_subtracts_child_spans():
    tree = [
        _span("models.run", 0, 100, -1),
        _span("models.validate", 10, 30, 0),
        _span("supermatrix.entry_check", 12, 20, 1),
        _span("dynamics.run", 40, 90, 0),
        _span("dynamics.step", 45, 55, 3),
        _span("dynamics.step", 60, 75, 3),
    ]
    assert spans.self_times(tree) == [30, 12, 8, 25, 10, 15]


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("a", 0, 100, -1),
        _span("b", 10, 50, 0),
        _span("c", 40, 120, 0),  # runs past its parent's end
    ]
    assert spans.self_times(tree)[0] == 10


def test_layer_metrics_count_set_up_once_and_rounds_per_round():
    ms = 1_000_000
    tree = [
        _span("model_io.parse", 0, 4 * ms, -1, op=-1),
        _span("models.validate", 1 * ms, 3 * ms, 0, op=-1),
    ]
    for r in range(2):  # two rounds, one run with two products each
        base = len(tree)
        t = (10 + 10 * r) * ms
        tree += [
            _span("dynamics.run", t, t + 6 * ms, -1, op=r),
            _span("dynamics.step", t + 1 * ms, t + 2 * ms, base, op=r),
            _span("dynamics.step", t + 3 * ms, t + 5 * ms, base, op=r),
        ]
    m = spans.layer_metrics(tree, rounds=2)
    assert m["model_io.parse.calls"] == 1
    assert m["model_io.parse.self_ms"] == pytest.approx(2.0)
    assert m["models.validate.per_parse"] == 1
    assert m["dynamics.run.calls"] == 1
    assert m["dynamics.step.calls"] == 2
    assert m["dynamics.run.self_ms"] == pytest.approx(3.0)
    assert m["dynamics.products_per_pattern"] == 2
    assert m["dynamics.census.calls"] == 0


def test_tracer_wraps_every_binding_and_restores_it():
    import fuzzymaps as fz
    import fuzzymaps.cli

    original = fz.models.validate_model
    bindings = [fz, fz.models, fz.model_io, fz.cli]
    tracer = spans.Tracer()
    tracer.install(fz)
    try:
        assert all(m.validate_model is not original for m in bindings)
        fz.load_fixture("ex_1_2_1")
    finally:
        tracer.uninstall()
    assert all(m.validate_model is original for m in bindings)
    names = [s[0] for s in tracer.spans]
    assert names == ["model_io.parse", "models.validate", "supermatrix.entry_check"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]


# --- statistics -----------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(lat)
    assert value == 89.0 and beyond == 10 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_run_length_matches_the_reference():
    inputs = workloads.synthetic_runs(3)
    runs = [op for op in inputs.ops if op.kind == "run" and op.model != "dense200"]
    assert len(runs) == 14
    for op in runs:
        doc = inputs.docs[op.model]
        model = reference.load_model(doc)
        rows = model.matrix.tolist()
        lo, hi = workloads.RUN_BANDS[op.model]
        length = generate.run_length(rows, op.side, op.on, 1000, model.one_sided)
        assert length == len(reference.reference_run(model, op.side, op.on, model.policy).products)
        assert lo <= length <= hi
