"""Record ``goldens.json``: the output digest of each op the default seed reaches.

    python3 perfbench/record_goldens.py

Covers every entry of the set-up pool of each workload at the default seed;
a run's op i is pool entry i mod the pool size, so every op a run at that
seed reaches is checked against its golden.
Outputs are checked for the seed-independent facts of ``check.py`` first; a
failing op stops the recording.
"""

from __future__ import annotations

import json
import sys

from check import DEFAULT_SEED, GOLDENS, check, digest, op_key
from run import load_program, make_inputs
from workloads import WORKLOADS, run_op


def main() -> int:
    prog = load_program()
    doc = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        inputs = make_inputs(prog, workload, DEFAULT_SEED)
        goldens = {}
        for op, value in zip(inputs.ops, inputs.values):
            key = op_key(op)
            if key in goldens:
                continue
            text, report = run_op(prog, op, value)
            problems = check(prog, op, value, text, report, {})
            if problems:
                print(f"{workload} {key}: {problems}", file=sys.stderr)
                return 1
            goldens[key] = digest(text, report)
        doc["workloads"][workload] = goldens
        print(f"{workload}: {len(goldens)} goldens")
    GOLDENS.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
