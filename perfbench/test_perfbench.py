"""Tests of the benchmark's own logic: inputs from seeds, output checks, trace metrics."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import checks
import plan
import run
import steps
import tracing
from k4rel import cli
from k4rel import cube_graph as cg
from k4rel import oracle as oc
from k4rel.closed_form import concentration_intervals, lambda_fast, lambda_scan, xi_h4

HERE = os.path.dirname(os.path.abspath(__file__))


def _corruptions(data: bytes):
    """Every output that differs from data in exactly one byte, two ways per byte."""
    for i, byte in enumerate(data):
        for flip in (0x01, 0x10):
            yield data[:i] + bytes([byte ^ flip]) + data[i + 1:]


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert plan.steps(workload, 7) == plan.steps(workload, 7)
    if workload != "tables":  # tables has fixed inputs
        assert plan.steps(workload, 7) != plan.steps(workload, 8)


def test_every_lambda_regime_appears_in_queries():
    for seed in range(6):
        seen = Counter()
        for step in plan.steps("queries", seed):
            if step["args"][0] == "lambda":
                h, n = step["check"]["lambda"]
                assert n <= 22
                seen[plan.regime(h, n, concentration_intervals(n))] += 1
        assert seen == {r: 3 for r in plan.REGIMES}


def test_regimes_follow_lambda_fast_branches():
    # the head is answered by xi, the intervals and tail by their constants
    n = 12
    intervals = concentration_intervals(n)
    values = {iv.value for iv in intervals}
    for h in range(1, (1 << (n - 1)) + 1):
        kind = plan.regime(h, n, intervals)
        if kind == "head":
            assert lambda_fast(h, n) == xi_h4(h, n)
        elif kind == "tail":
            assert lambda_scan(h, n) == 1 << (n - 1)
        elif kind == "interval":
            assert lambda_scan(h, n) in values


def test_digest_check_rejects_one_byte_corruption(tmp_path):
    path = tmp_path / "out"
    outputs = [cli.render_profile(3).encode(), b"48\n",
               steps.session(5, 3, [1, 3, 6, 11]).encode()]
    for data in outputs:
        expected = hashlib.sha256(data).hexdigest()
        path.write_bytes(data)
        assert checks.file_sha256(str(path)) == expected
        for bad in _corruptions(data):
            path.write_bytes(bad)
            assert checks.file_sha256(str(path)) != expected


def test_session_and_lambda_outputs_match_their_expectations():
    sizes = [1, 2, 5, 12]
    assert steps.session(5, 9, sizes) == plan.session_text(5, sizes)
    step = {"args": [], "check": {"lambda": [13, 7]}}
    (resolved,) = plan.resolve([step], {})
    assert resolved["check"]["sha256"] == hashlib.sha256(b"48\n").hexdigest()


@pytest.mark.parametrize("graph", [cg.canonical_member(3),
                                   cg.build_k4cube(cg.random_matching_tree(4, 5))])
def test_pbm_check_rejects_one_byte_corruption(tmp_path, graph):
    path = tmp_path / "out.pbm"
    data = cg.bitmap_pbm(graph).encode()
    path.write_bytes(data)
    assert checks.check_pbm(str(path), graph.n)
    for bad in _corruptions(data):
        path.write_bytes(bad)
        assert not checks.check_pbm(str(path), graph.n)


def test_verify_check_counts_compared_rows_and_rejects_corruption():
    members = ["canonical", "seed1"]
    rows = plan.verify_rows(3, members)
    data = oc.verify_member(3, [1]).to_text().encode()
    assert checks.check_verify(data, 3, rows) == len(rows)
    first = f"{'  '.join(rows[0])}  {rows[0][3]}  true".encode()
    skipped = data.replace(first, f"{'  '.join(rows[0])}  skipped  skipped".encode(), 1)
    assert checks.check_verify(skipped, 3, rows) == len(rows) - 1
    for bad in _corruptions(data):
        assert checks.check_verify(bad, 3, rows) is None


def test_traced_step_sees_calls_through_by_value_imports(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "tracing.py"), str(spans_path), "cli",
                    "verify", "--n", "3", "--seeds", "1", "--out", str(tmp_path / "v.txt")],
                   env=env, check=True, timeout=120)
    spans = json.loads(spans_path.read_text())
    names = [s[0] for s in spans]
    parents = {names[s[3]] for s in spans if s[0] in ("closed_form.f_value",
                                                       "cube_graph.build_k4cube")}
    assert parents <= {"oracle.verify_member", "cube_graph.canonical_member"}
    assert "closed_form.lambda_scan" in names and "oracle.brute_xi" in names
    metrics = tracing.layer_metrics([spans], 0)
    assert metrics["oracle.verify_member.calls"] == 1
    assert metrics["oracle.checks_attempted"] == 2 * 21  # two members, 21 checks each at n=3


def test_layer_metrics_self_time_and_budget_time():
    err = tracing.BUDGET_ERROR
    spans = [
        ["oracle.verify_member", 0.0, 10.0, -1, None, 0, [5, 1]],
        ["oracle.brute_lambda_h", 1.0, 4.0, 0, err, 0, None],
        ["oracle.brute_xi", 1.5, 3.5, 1, err, 0, None],
        ["closed_form.lambda_fast", 5.0, 6.0, 0, None, 0, None],
        ["closed_form.lambda_scan", 5.2, 5.9, 3, None, 0, None],
    ]
    m = tracing.layer_metrics([spans], 123)
    assert m["oracle.brute_lambda_h.self_s"] == pytest.approx(1.0)
    assert m["oracle.brute_xi.budget_exceeded"] == 1
    assert m["oracle.brute_lambda_h.budget_exceeded"] == 1
    assert m["oracle.budget_exceeded_s"] == pytest.approx(3.0)
    assert m["closed_form.lambda_fast.scan_ratio"] == 1.0
    assert m["oracle.checked_ratio"] == pytest.approx(0.8)
    assert m["cli.out_bytes"] == 123


def test_children_are_scaled_by_the_references_around_them(monkeypatch):
    # wall seconds in spawn order: ref, a, b (0.5 s reached), ref, c, ref
    walls = iter([0.2, 0.3, 0.25, 0.1, 0.4, 0.3])
    harness = run.Harness("queries", 1, 1)
    monkeypatch.setattr(harness, "spawn", lambda argv: (next(walls), 16.0, 0))
    timed = harness.timed([["a"], ["b"], ["c"]])
    first, last = 2 * run.REFERENCE_S / 0.3, 2 * run.REFERENCE_S / 0.4
    assert [t[0] for t in timed] == pytest.approx([0.3 * first, 0.25 * first, 0.4 * last])
    assert [t[1] for t in timed] == [0.3, 0.25, 0.4]
    passes = [{"scaled_s": [1.0, 5.0]}, {"scaled_s": [3.0, 2.0]}, {"scaled_s": [2.0, 9.0]}]
    assert run.pass_time(passes) == 2.0 + 5.0


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.METRICS + [
        ("trace.overhead_s", "s")]
