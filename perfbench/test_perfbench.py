"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``)."""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run
import stats
import tracer
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fx():
    return workloads.build_fixtures()


def test_same_seed_gives_same_inputs(fx):
    for seed in (3, 4):
        a, b = workloads.Codec(fx, seed), workloads.Codec(fx, seed)
        assert (a.small, a.ext, a.large) == (b.small, b.ext, b.large)
        ca, cb = workloads.Sweep(fx, seed).checks(), workloads.Sweep(fx, seed).checks()
        assert [c.run.__defaults__ for c in ca] == [c.run.__defaults__ for c in cb]
    assert workloads.Codec(fx, 3).small != workloads.Codec(fx, 4).small


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", (11, 12))
def test_every_oracle_passes(name, seed):
    workload = workloads.setup(name, seed)
    ledger = run.Ledger()
    for case in workload.cases:
        for i in range(case.cycle):
            ledger.attempt(case.label, lambda: case.step(i))
    run.run_checks(workload, ledger)
    assert ledger.attempted >= len(workload.cases)
    assert ledger.failed == 0


def test_oracles_reject_wrong_output(fx):
    info = [i % 13 for i in range(fx.ag13.params.k)]
    word = workloads.lrc.encode(fx.ag13, info)
    assert workloads.codeword_ok(fx.ag13_code, fx.ag13, info, word)
    assert not workloads.codeword_ok(fx.ag13_code, fx.ag13, info, [0] * len(word))
    bad = list(word)
    bad[-1] = (bad[-1] + 1) % 13
    assert not workloads.codeword_ok(fx.ag13_code, fx.ag13, info, bad)
    # a recoverable pattern is no failure witness
    assert not workloads.witness_ok(fx.ag13_code.check, (0, 1))


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(20)), 50) == 9


def _bindings():
    out = {}
    for layer, (owner, attr) in tracer.TARGETS.items():
        for ns, name in tracer.binding_sites(owner, attr):
            out[(id(ns), name)] = getattr(ns, name)
    return out


def test_traced_run_restores_every_wrapper():
    before = _bindings()
    result = run.traced(Namespace(workload="sweep", seed=5))
    assert _bindings() == before
    for layer, (owner, attr) in tracer.TARGETS.items():
        assert not hasattr(getattr(owner, attr), "__wrapped__"), layer
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["unit"] == u["unit"] for u in SPEC["per_layer"]
               for m in [metrics[u["name"]]])
    assert metrics["gsd.check_array.calls"]["value"] > 0
    assert result["ledger"].failed == 0


def test_wrappers_are_removed_when_the_block_raises():
    before = _bindings()
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with trace.installed():
            assert workloads.erasure.recoverable is not before[
                (id(workloads.erasure), "recoverable")]
            raise RuntimeError("boom")
    assert _bindings() == before


def test_self_time_excludes_traced_children():
    ticks = iter(range(100))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))
    fx_matrix = workloads.algebra.Matrix(workloads.algebra.FiniteField(5), [[1, 2], [3, 4]])
    with trace.installed():
        workloads.erasure.recoverable(fx_matrix, (0, 1))
    summary = trace.summary()
    # recoverable spans ticks 0..3, its rref child spans ticks 1..2
    assert summary["erasure.recoverable.calls"] == 1
    assert summary["erasure.recoverable.s"] == 3.0
    assert summary["erasure.recoverable.self_s"] == 2.0
    assert summary["algebra.Matrix.rref.s"] == 1.0
    assert summary["erasure.recoverable.true_frac"] == 1.0


def test_end_to_end_metric_names_match_the_spec():
    names = {"setup_s", "ok_frac"}
    names.update(f"{m}_ms_p50" for m in workloads.CASE_METRICS)
    assert names == {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run._import_library()
    assert exc.value.code != 0


def test_ok_frac_shows_a_case_that_always_fails():
    ledger = run.Ledger()
    for i in range(1000):
        ledger.attempt("many", lambda: (None, True))
    for i in range(4):
        ledger.attempt("few", lambda: (None, False))
    assert ledger.failed == 4
    assert ledger.ok_frac() == 0.0


def test_a_failed_operation_sets_the_exit_code(monkeypatch, capsys):
    def failing(args):
        ledger = run.Ledger()
        ledger.attempt("op", lambda: (None, False))
        return {"ledger": ledger, "metrics": {}}

    monkeypatch.setattr(run, "end_to_end", failing)
    assert run.main(["--workload", "codec", "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


class _FixedSpeed:
    def current(self, parallel=False):
        pass

    def refresh(self, parallel=False):
        pass

    def factor(self, start, end, parallel=False):
        return 1.0


def test_measure_interleaves_the_cases_in_rounds():
    order = []

    def step(name):
        return lambda i: (order.append((name, i)) or {name: 0.0}, True)

    work = Namespace(cases=[
        workloads.Case("a", step("a"), 0.5, min_samples=3 * run.ROUNDS + 2, cycle=3),
        workloads.Case("b", step("b"), 0.5),
    ])
    breaks = []
    samples, _ = run.measure(work, 0.0, run.Ledger(), _FixedSpeed(),
                             between=lambda: breaks.append(len(order)))
    # with no time to spend, every round runs one whole cycle of each case,
    # and the last round runs case a on to its minimum
    assert len(breaks) == run.ROUNDS - 1
    assert [name for name, _ in order[:4]] == ["a", "a", "a", "b"]
    assert sum(name == "b" for name, _ in order) == run.ROUNDS
    # the minimum is reached in whole cycles
    assert len(samples["a"]) == 3 * run.ROUNDS + 3
