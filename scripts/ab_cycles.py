"""Interleaved in-process A/B of whole benchmark cycles between two source trees.

    python3 scripts/ab_cycles.py PARENT_ROOT CHANGE_ROOT --rounds 41
    python3 scripts/ab_cycles.py PARENT_ROOT CHANGE_ROOT --rounds 41 --load-order ba

Each tree is a checkout root holding ``src/coverlink``. Both are imported
into one interpreter, each as a package of its own name. The ops, their
inputs and the timed work of an op come from this checkout's
``perfbench/workloads.py``, and the modules a tree is loaded with from its
``perfbench/run.py``, both imported as they are. Before any timing, every op
runs once on each tree, and the script exits 1 without timing anything if a
pattern text or a report differs between the two.

A round runs ``CYCLES[workload]`` whole workload cycles on each tree,
alternating: a cycle on one tree, then the same cycle on the other, with the
tree that goes first alternating by round. The ``analyze`` cache is cleared
before each op, outside the timed region, as the benchmark clears it. A round's
ratio is B's ops/s over A's. Per workload the script prints each tree's
median ops/s, the paired median ratio, the ratio's quartiles and the rounds
B won. ``--load-order ba`` imports B and builds its inputs first; the load
order alone can move a tree by about a percent, so run both.

This decides whether a per-op shortcut is kept or deleted, on differences
below what ``perfbench/run.py`` resolves between separate processes: an
A/A run reads within about ±1.5%. No speed claim may cite it; a claim comes
from the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import MODULES  # noqa: E402
from workloads import CYCLE, WORKLOADS, make_input, run_op, spec  # noqa: E402

# Cycles per tree per round: about 0.1 s of ops each on a 2-core Xeon.
CYCLES = {"ladder": 30, "sweep": 6, "cables": 30}


def load_tree(root: Path, name: str) -> SimpleNamespace:
    """Import ``root/src/coverlink`` as the package ``name``, with its modules as attributes."""
    pkg_dir = root / "src" / "coverlink"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"{root}: no src/coverlink package")
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]  # a tree loaded earlier under this name, as by a second main()
    pkg_spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(pkg_spec)
    sys.modules[name] = pkg
    pkg_spec.loader.exec_module(pkg)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def outputs(prog: SimpleNamespace, ops: list, inputs: list) -> list[tuple[str, str]]:
    clear = prog.diagram.analyze.cache_clear
    out = []
    for op, value in zip(ops, inputs):
        clear()
        out.append(run_op(prog, op, value))
    return out


def op_seconds(prog: SimpleNamespace, ops: list, inputs: list) -> float:
    """The summed op time of ``ops``, each op timed alone after clearing the cache."""
    clear, clock = prog.diagram.analyze.cache_clear, time.perf_counter
    total = 0.0
    for op, value in zip(ops, inputs):
        clear()
        start = clock()
        run_op(prog, op, value)
        total += clock() - start
    return total


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload: str, trees: dict, load_order: str, rounds: int, cycles: int):
    """Time ``rounds`` paired rounds of one workload; None if the two trees' outputs differ."""
    size = CYCLE[workload]
    ops = [spec(workload, 0, i) for i in range(cycles * size)]  # the benchmark's seed 0
    inputs = {t: [make_input(trees[t], op) for op in ops] for t in load_order}
    ref = outputs(trees["a"], ops, inputs["a"])
    for i, got in enumerate(outputs(trees["b"], ops, inputs["b"])):
        if got != ref[i]:
            print(f"{workload}: op {i} {ops[i]} differs between the trees; not timed")
            return None
    gc.collect()
    gc.freeze()
    seconds = {"a": [], "b": []}
    for r in range(rounds):
        total = {"a": 0.0, "b": 0.0}
        order = ("a", "b") if r % 2 == 0 else ("b", "a")
        for c in range(0, len(ops), size):
            for t in order:
                total[t] += op_seconds(trees[t], ops[c : c + size], inputs[t][c : c + size])
        for t in total:
            seconds[t].append(total[t])
    gc.unfreeze()
    return seconds, len(ops)


def report(workload: str, seconds: dict, count: int) -> str:
    ratios = [a / b for a, b in zip(seconds["a"], seconds["b"])]
    q1, median, q3 = quartiles(ratios)
    rate = {t: count / statistics.median(s) for t, s in seconds.items()}
    wins = sum(r > 1 for r in ratios)
    return (
        f"{workload:7} A {rate['a']:8,.0f} ops/s  B {rate['b']:8,.0f} ops/s  "
        f"B/A median x{median:.3f}  IQR x{q1:.3f}-x{q3:.3f}  B won {wins} of {len(ratios)}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="checkout root of tree A (the base)")
    ap.add_argument("b", type=Path, help="checkout root of tree B (the change)")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--rounds", type=int, default=41)
    ap.add_argument("--load-order", choices=("ab", "ba"), default="ab")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    trees = {}
    for t in args.load_order:
        trees[t] = load_tree(getattr(args, t).resolve(), f"_ab_cycles_{t}")
    print(f"A {args.a}  B {args.b}  load order {args.load_order}  rounds {args.rounds}")
    refused = False
    for workload in args.workloads:
        timed = compare(workload, trees, args.load_order, args.rounds, CYCLES[workload])
        if timed is None:
            refused = True
        else:
            print(report(workload, *timed), flush=True)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
