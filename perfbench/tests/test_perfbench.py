"""Tests of the benchmark itself: inputs, tracer, checker and the CLI.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from check import DEFAULT_SEED, check, load_goldens, op_key  # noqa: E402
from tracer import OP_SPAN, TRACED, Tracer  # noqa: E402
from workloads import CYCLE, WORKLOADS, run_op, spec  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.load_program()


def _input_digests(prog, workload: str, seed: int) -> list[str]:
    inputs = run.make_inputs(prog, workload, seed)
    return [hashlib.sha256(repr((op, v)).encode()).hexdigest() for op, v in
            zip(inputs.ops, inputs.values)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(prog, workload):
    assert _input_digests(prog, workload, 7) == _input_digests(prog, workload, 7)
    assert _input_digests(prog, workload, 7) != _input_digests(prog, workload, 8)


def test_ops_cycle_over_the_golden_pool(prog):
    goldens = load_goldens("ladder")
    inputs = run.make_inputs(prog, "ladder", DEFAULT_SEED)
    size = len(inputs.ops)
    assert inputs[size] == inputs[0] and inputs[2 * size + 5] == inputs[5]
    assert all(op_key(op) in goldens for op in inputs.ops)


def _bindings():
    """Every (module, attribute) of the package holding a traced function."""
    originals = {id(getattr(sys.modules[f"coverlink.{m}"], f)) for m, f in TRACED}
    return {
        (key, attr): value
        for key, mod in sys.modules.items()
        if key == "coverlink" or key.startswith("coverlink.")
        for attr, value in vars(mod).items()
        if id(value) in originals
    }


def test_tracer_restores_every_wrapped_name(prog):
    before = _bindings()
    assert ("coverlink.obstruct", "det") in before
    assert ("coverlink.linalg", "det") in before
    assert ("coverlink.cover", "analyze") in before
    assert ("coverlink.pattern", "analyze") in before
    with pytest.raises(prog.obstruct.NotRationalHomologySphereError):
        with Tracer().install():
            for (key, attr), original in before.items():
                assert getattr(sys.modules[key], attr) is not original, (key, attr)
            prog.obstruct.cha_ko(0, prog.linalg.IntMatrix.from_rows([[0]]), [1], [1])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    with Tracer().install():
        pass
    assert all(getattr(sys.modules[key], attr) is v for (key, attr), v in before.items())


def test_singular_surgery_span_is_closed(prog):
    tracer = Tracer()
    with tracer.install():
        with pytest.raises(prog.obstruct.NotRationalHomologySphereError):
            with tracer.op_span(0):
                prog.obstruct.cha_ko(0, prog.linalg.IntMatrix.from_rows([[0]]), [1], [1])
    names = [s[0] for s in tracer.spans]
    assert names == [OP_SPAN, "obstruct.cha_ko", "linalg.det"]
    assert tracer.spans[2][3] == 1 and tracer._stack == []


def _first_ops(workload: str, seed: int, count: int, keep=lambda op: True):
    ops = [spec(workload, seed, i) for i in range(count)]
    return [op for op in ops if keep(op)]


def _outputs(prog, ops, values, tracer=None):
    out = []
    for i, (op, value) in enumerate(zip(ops, values)):
        prog.analyze_cache.cache_clear()
        if tracer is None:
            out.append(run_op(prog, op, value))
        else:
            with tracer.op_span(i):
                out.append(run_op(prog, op, value))
    return out


SMALL = {
    "ladder": lambda op: op[3] == 8 and op[2] == 4,
    "sweep": lambda op: True,
    "cables": lambda op: op[1] <= 128,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_reports_agree(prog, workload):
    ops = _first_ops(workload, 3, CYCLE[workload], SMALL[workload])
    values = [run.make_input(prog, op) for op in ops]
    plain = _outputs(prog, ops, values)
    tracer = Tracer()
    with tracer.install():
        traced = _outputs(prog, ops, values, tracer)
    assert traced == plain
    table = tracer.layer_table()
    assert table[OP_SPAN]["calls"] == len(ops)
    assert table["obstruct.auto_verdict"]["calls"] == len(ops)
    # Self times partition the op time.
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(table[OP_SPAN]["total_s"], rel=1e-9)
    if workload == "cables":
        assert "linalg.inverse" not in table and tracer.counts["linalg.bareiss_ops"] == 0
    else:
        assert table["linalg.det"]["calls"] > 0 and tracer.counts["linalg.bareiss_ops"] > 0


def _alter_first_linking(report: str, m: int) -> str:
    doc = json.loads(report)
    entry = next(r for r in doc["per_m"] if r["m"] == m)
    entry["linkings"][0] = str(Fraction(entry["linkings"][0]) + 1)
    return json.dumps(doc, indent=2) + "\n"


def test_checker_flags_an_altered_linking(prog):
    # Default seed: the golden catches it.
    goldens = load_goldens("sweep")
    op = _first_ops("sweep", DEFAULT_SEED, CYCLE["sweep"], lambda op: op[:3] == ("random", 3, 2))[0]
    assert op_key(op) in goldens
    value = run.make_input(prog, op)
    text, report = run_op(prog, op, value)
    assert check(prog, op, value, text, report, goldens) == []
    bad = check(prog, op, value, text, _alter_first_linking(report, 3), goldens)
    assert "output differs from the golden" in bad

    # Any seed: the closed form of a cable catches it.
    op = ("cable", 64)
    value = run.make_input(prog, op)
    text, report = run_op(prog, op, value)
    assert check(prog, op, value, text, report, {}) == []
    assert check(prog, op, value, text, _alter_first_linking(report, 8), {})

    # Any seed: the doubling identity catches it on a sweep op with m = 2 and 4.
    op = ("random", 8, 2, 12345)
    value = run.make_input(prog, op)
    text, report = run_op(prog, op, value)
    assert check(prog, op, value, text, report, {}) == []
    bad = check(prog, op, value, text, _alter_first_linking(report, 2), {})
    assert any("doubling identity" in p for p in bad)


def _cli(capsys, seconds: str) -> dict:
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", seconds, "--trace", "1"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_prints_the_contract_json(capsys, monkeypatch):
    monkeypatch.setitem(run.TRACE_CYCLES, "sweep", 2)
    result = _cli(capsys, "0.2")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert result["metrics"]["bench.tracing_overhead"]["unit"] == "ratio"
    # The traced pass covers a fixed number of cycles, so its counts do not
    # depend on how long the untraced pass ran.
    longer = _cli(capsys, "0.6")
    counts = {k: v for k, v in result["metrics"].items() if v["unit"] == "count"}
    assert counts and counts == {k: longer["metrics"][k] for k in counts}
