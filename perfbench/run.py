"""coverlink benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

Run from the root of a coverlink checkout; the program is imported from
``src/``. Each op (see ``workloads.py``) is timed on its own, with the
``analyze`` cache cleared before it, so every op meets its pattern cold, as
one ``coverlink obstruct`` call would. Its output is checked outside the
timed region (``check.py``). Op i takes entry i mod the pool size of the
inputs built at set-up. The run stops at the first cycle boundary after
``--seconds`` (or at twice that, whatever the cycle).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
measurement, then runs a fixed number of cycles (``TRACE_CYCLES``, whatever
``--seconds``) with every traced function wrapped (``tracer.py``), so its
counts and self times cover the same ops in every run. It requires the
traced reports to equal the untraced ones, prints a per-layer table, writes
the spans to ``.perfbench_out/`` and prints the per-layer metrics. The last
line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from check import DEFAULT_SEED, check, digest, load_goldens, op_key  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402
from workloads import CYCLE, WORKLOADS, make_input, run_op, spec  # noqa: E402

MODULES = ("pattern", "diagram", "cover", "obstruct", "linalg", "downhill")
# Cycles of inputs built at set-up; a run longer than the pool starts over
# from its first entry. ``goldens.json`` covers the pool at the default seed.
POOL_CYCLES = {"ladder": 12, "sweep": 150, "cables": 40}
# Cycles of the traced pass: about 10 s untraced each, today.
TRACE_CYCLES = {"ladder": 2, "sweep": 60, "cables": 6}
SETUP_REPEATS = 5


def load_program() -> SimpleNamespace:
    """Import coverlink afresh from ``src/`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "coverlink" or n.startswith("coverlink.")]:
        del sys.modules[name]
    pkg = importlib.import_module("coverlink")
    if Path(pkg.__file__).resolve().parent != SRC / "coverlink":
        raise SystemExit(f"coverlink imported from {pkg.__file__}, not from {SRC}")
    prog = SimpleNamespace(**{m: importlib.import_module(f"coverlink.{m}") for m in MODULES})
    prog.analyze_cache = prog.diagram.analyze  # the lru_cache itself, even while traced
    return prog


@dataclass
class Inputs:
    """The input pool of a run: op i is entry i mod the pool size."""

    workload: str
    seed: int
    prog: SimpleNamespace
    ops: list
    values: list

    def __getitem__(self, i: int) -> tuple:
        j = i % len(self.ops)
        return self.ops[j], self.values[j]


def make_inputs(prog: SimpleNamespace, workload: str, seed: int) -> Inputs:
    ops = [spec(workload, seed, i) for i in range(POOL_CYCLES[workload] * CYCLE[workload])]
    return Inputs(workload, seed, prog, ops, [make_input(prog, op) for op in ops])


def setup(workload: str, seed: int):
    start = time.perf_counter()
    inputs = make_inputs(load_program(), workload, seed)
    goldens = load_goldens(workload)
    return time.perf_counter() - start, inputs, goldens


@dataclass
class Record:
    seconds: float
    digest: str | None
    problems: list[str]


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.problems)

    def ops_per_s(self) -> float:
        return (len(self.records) - self.failed) / sum(r.seconds for r in self.records)


def measure(inputs: Inputs, goldens, *, seconds: float | None = None, count: int | None = None,
            tracer: Tracer | None = None, reference: list[Record] = ()) -> Pass:
    """Run ops for ``seconds``, or exactly ``count`` ops.

    An op that ``reference`` also ran must give the same output as there.
    """
    prog, cycle, result = inputs.prog, CYCLE[inputs.workload], Pass()
    cache = prog.analyze_cache
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i == count:
                break
        elif i:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i % cycle == 0) or elapsed >= 2 * seconds:
                break
        op, value = inputs[i]
        cache.cache_clear()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                text, report = run_op(prog, op, value)
            else:
                with tracer.op_span(i):
                    text, report = run_op(prog, op, value)
        except Exception as exc:  # a failed op is counted, and the run goes on
            dt = time.perf_counter() - t0
            result.records.append(Record(dt, None, [f"{op_key(op)}: raised {exc!r}"]))
            i += 1
            continue
        dt = time.perf_counter() - t0
        info = cache.cache_info()
        result.cache_hits += info.hits
        result.cache_misses += info.misses
        out = digest(text, report)
        try:
            problems = check(prog, op, value, text, report, goldens)
        except Exception as exc:  # output too malformed to check
            problems = [f"check raised {exc!r}"]
        if i < len(reference) and out != reference[i].digest:
            problems.append("traced report differs from the untraced one")
        problems = [f"{op_key(op)}: {p}" for p in problems]
        result.records.append(Record(dt, out, problems))
        i += 1
    return result


def quantile_ms(times: list[float], q: int) -> float:
    """The q-th percentile in ms (inclusive method; the maximum below 2 samples)."""
    if len(times) < 2:
        return max(times) * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def group_medians(inputs: Inputs, records: list[Record]) -> dict[str, tuple[float, int]]:
    """Median op time per rung (ladder) or winding (cables): (seconds, samples)."""
    groups: dict[str, list[float]] = {}
    for i, rec in enumerate(records):
        op = inputs[i][0]
        if op[0] == "rung":
            groups.setdefault(f"rung.{op[1]}-{op[2]}-{op[3]}", []).append(rec.seconds)
        elif op[0] == "cable":
            groups.setdefault(f"cable.{op[1]}", []).append(rec.seconds)
    return {k: (statistics.median(v), len(v)) for k, v in groups.items()}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, run: Pass) -> dict:
    times = [r.seconds for r in run.records]
    return {
        "ops_per_s": metric(run.ops_per_s(), "1/s"),
        "op_p50_ms": metric(quantile_ms(times, 50), "ms"),
        "op_p90_ms": metric(quantile_ms(times, 90), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
    }


CALLS = ("obstruct.cha_ko", "linalg.det", "linalg.inverse", "linalg.smith_normal_form",
         "cover.build_cover", "cover.lifted_linking_matrix", "diagram.analyze",
         "downhill.normalize")
SELF = ("obstruct.cha_ko", "linalg.det", "cover.build_cover", "cover.lifted_linking_matrix",
        "cover.lifted_eta_linkings", "diagram.analyze", "pattern.compile", "pattern.validate",
        "pattern.serialize", "obstruct.report_to_json", "obstruct.verdict")
SOLVE = ("obstruct.cha_ko", "linalg.")
COVER = ("cover.", "diagram.")


def per_layer(table: dict, tracer: Tracer, traced: Pass, untraced: Pass) -> dict:
    absent = {"calls": 0, "self_s": 0.0}
    out = {f"{n}.calls": metric(table.get(n, absent)["calls"], "count") for n in CALLS}
    for name in SELF:
        out[f"{name}.self_s"] = metric(table.get(name, absent)["self_s"], "s")
    out["linalg.self_s"] = metric(
        sum(r["self_s"] for n, r in table.items() if n.startswith("linalg.")), "s")
    lookups = traced.cache_hits + traced.cache_misses
    out["diagram.analyze.hit_ratio"] = metric(traced.cache_hits / lookups, "ratio")
    for name, value in tracer.counts.items():
        out[name] = metric(value, "count")
    dims = [d for op_dims in tracer.lifted_dims.values() for d in op_dims]
    out["cover.lifted_dim_max"] = metric(max(dims, default=0), "count")
    # Both passes start at op 0, so their common prefix is the same ops.
    same = min(len(traced.records), len(untraced.records))
    out["bench.tracing_overhead"] = metric(
        sum(r.seconds for r in untraced.records[:same])
        / sum(r.seconds for r in traced.records[:same]), "ratio")
    return out


def print_layer_table(table: dict, tracer: Tracer) -> None:
    op_s = table[OP_SPAN]["total_s"]
    print(f"{'layer':32} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:32} {row['calls']:9d} {row['self_s']:10.4f} {row['self_s'] / op_s:7.1%}")
    for label, prefixes in (("solve (cha_ko + linalg)", SOLVE), ("cover + diagram", COVER)):
        share = sum(r["self_s"] for n, r in table.items() if n.startswith(prefixes)) / op_s
        print(f"share of op time in {label}: {share:.1%}")
    for name, value in tracer.counts.items():
        print(f"{name} (computed): {value}" if name == "linalg.bareiss_ops" else f"{name}: {value}")


def write_trace(inputs: Inputs, table: dict, tracer: Tracer, traced: Pass) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{inputs.workload}-seed{inputs.seed}.trace.json.gz"
    doc = {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": tracer.spans,
        "ops": [
            {"op": i, "spec": op_key(inputs[i][0]), "seconds": rec.seconds,
             "lifted_dims": tracer.lifted_dims.get(i, [])}
            for i, rec in enumerate(traced.records)
        ],
        "counts": tracer.counts,
        "layers": table,
    }
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "coverlink" / "__init__.py").is_file():
        print(f"no coverlink sources at {SRC}", file=sys.stderr)
        return 2

    timings = []
    for _ in range(SETUP_REPEATS):
        inputs = goldens = None  # free the previous set-up before the next one
        gc.collect()
        setup_s, inputs, goldens = setup(args.workload, args.seed)
        timings.append(setup_s)
    setup_s = statistics.median(timings)
    setup_rss = peak_rss_mib()
    # The input pool is the benchmark's, not the program's: keep the cyclic
    # garbage collector from scanning it during the measurement.
    gc.collect()
    gc.freeze()

    untraced = measure(inputs, goldens, seconds=args.seconds)
    runs = [untraced]
    results = end_to_end(setup_s, untraced)
    times = [r.seconds for r in untraced.records]
    print(f"workload {args.workload}, seed {args.seed}: {len(times)} ops in "
          f"{sum(times):.2f} s of op time; setup median of {SETUP_REPEATS}: {setup_s:.4f} s; "
          f"peak RSS {setup_rss:.1f} MiB after set-up, {results['peak_rss_mib']['value']:.1f} "
          f"MiB after the run")
    for name, (median, count) in group_medians(inputs, untraced.records).items():
        print(f"  {name}: median {median:.4f} s over {count} ops")
    golden_ops = sum(1 for i in range(len(times)) if op_key(inputs[i][0]) in goldens)
    print(f"  checked against goldens: {golden_ops} ops"
          + (" (default seed)" if args.seed == DEFAULT_SEED else ""))

    if args.trace:
        tracer = Tracer()
        with tracer.install():
            traced = measure(inputs, goldens, count=TRACE_CYCLES[args.workload] * CYCLE[args.workload],
                             tracer=tracer, reference=untraced.records)
        print(f"traced pass: {len(traced.records)} ops ({TRACE_CYCLES[args.workload]} cycles)")
        runs.append(traced)
        table = tracer.layer_table()
        print_layer_table(table, tracer)
        path = write_trace(inputs, table, tracer, traced)
        print(f"spans written to {path.relative_to(ROOT)}")
        results = per_layer(table, tracer, traced, untraced)

    attempted = sum(len(r.records) for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for run in runs for rec in run.records for p in rec.problems]
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(f"failed_ratio: {failed / attempted:.4f} ({failed} of {attempted})")
    for name, m in results.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
