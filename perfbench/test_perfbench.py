"""Tests of the benchmark itself.  Run from the checkout root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_valid_and_agree_with_benchmark_json():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert layers == list(tracing.LAYER_METRICS)
    names = declared + [n for n, _ in e2e] + [n for n, _, _ in layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = workloads.make_inputs(workload, 7)
    assert first == workloads.make_inputs(workload, 7)
    if workload != "battery":
        assert first != workloads.make_inputs(workload, 8)


def test_oracle_inputs_stay_in_the_gated_envelope():
    for seed in range(50):
        argv = workloads.make_inputs("oracle-edge", seed)["calls"][0]
        flags = dict(a.split("=", 1) for a in argv if "=" in a)
        for name in ("--alpha", "--alpha-prime"):
            re_, im = map(float, flags[name].split(","))
            assert abs(complex(re_, im)) <= 1.5
        j, k, nmax = (int(argv[argv.index(f) + 1]) for f in ("--j", "--k", "--nmax"))
        assert j + k + nmax == workloads.ORACLE_CUTOFF


def test_raising_operation_is_counted_not_raised():
    ops = workloads.Ops()

    def boom():
        raise ArithmeticError("injected")

    ops.run("boom", boom, expected=3)
    ops.run("gate", lambda: [(True, ""), (False, "injected gate failure")])
    assert (ops.attempted, ops.failed) == (5, 4)
    assert any("injected" in e for e in ops.errors)


def test_failing_cli_call_is_counted(monkeypatch):
    from parafock import cli

    monkeypatch.setattr(cli, "main", lambda argv: 1)
    ops = workloads.Ops()
    workloads.run_pass("triple-algebra", workloads.make_inputs("triple-algebra", 0), ops, {})
    assert ops.failed == 2 and ops.attempted == 4


def test_changed_cli_output_fails_the_determinism_check():
    ops = workloads.Ops()
    inputs = {"calls": [["verify-triple", "--p", "2.5", "--cutoff", "4"]]}
    hashes = {0: "not the digest of this output"}
    workloads.run_pass("triple-algebra", inputs, ops, hashes)
    assert ops.failed == 1 and "differs" in ops.errors[0]


def test_child_self_times_fit_inside_the_parent():
    from parafock import cli

    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify-triple", "--p", "2.5", "--cutoff", "4"]) == 0
    finally:
        uninstall()
    selfs = tracing.self_times(tr.spans)
    children: dict[int, float] = {}
    for s, st in zip(tr.spans, selfs):
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + st
    assert children
    for parent, total in children.items():
        span = tr.spans[parent]
        assert total <= span.end - span.start
    assert {s.op for s in tr.spans} == {0}
    names = {s.name for s in tr.spans}
    assert {"cli.main", "algebra.verify_triple_relations", "algebra.matmul"} <= names


def test_self_time_subtracts_children_and_their_counter_tail():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tr.open("a.outer")         # t = 0
    inner = tr.open("a.inner")         # t = 1
    tr.close(inner)                    # t = 2
    tr.spans[inner].tail = 0.5         # counter work after the child closed
    tr.close(outer)                    # t = 3
    assert tracing.self_times(tr.spans) == [1.5, 1.0]


def test_install_rebinds_every_import_and_uninstall_restores():
    from parafock import algebra, cli, verify

    before = (verify.build_generator, cli.ALL_CHECKS, verify.ALL_CHECKS, algebra.SparseOperator.apply)
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert verify.build_generator is not before[0]
        assert verify.build_generator.__wrapped__ is before[0]
        assert all(hasattr(f, "__wrapped__") for f in cli.ALL_CHECKS + verify.ALL_CHECKS)
        assert algebra.SparseOperator.apply is not before[3]
    finally:
        uninstall()
    after = (verify.build_generator, cli.ALL_CHECKS, verify.ALL_CHECKS, algebra.SparseOperator.apply)
    assert all(a is b for a, b in zip(after, before))


def test_layer_metrics_cover_every_declared_name():
    tr = tracing.Tracer()
    metrics = tracing.layer_metrics(tr, {}, 0.0)
    assert list(metrics) == [n for n, _, _ in tracing.LAYER_METRICS]
    assert all(m["value"] == 0 for m in metrics.values())


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "PACKAGE", tmp_path / "parafock")
    code = run.main(["--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
