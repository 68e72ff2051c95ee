"""Span tracing of the coverlink pipeline from outside the program.

``Tracer.install()`` replaces each traced function at every module attribute
that holds it (``det`` lives both at ``coverlink.linalg.det`` and, imported
by name, at ``coverlink.obstruct.det``), so a call is seen whichever module it
goes through. The originals are put back when the ``with`` block ends, also
when it ends by an exception. Spans stay in memory; ``layer_table`` turns
them into calls and self time (span time minus the time of its child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs on the verdict path. ``branched_linkings`` is left
# out on purpose, so that ``obstruct.verdict`` self time is the residual of the
# pipeline glue (linkings loop, palindrome and parity checks).
TRACED = (
    ("pattern", "compile"),
    ("pattern", "validate"),
    ("pattern", "serialize"),
    ("diagram", "analyze"),
    ("cover", "build_cover"),
    ("cover", "lifted_linking_matrix"),
    ("cover", "lifted_eta_linkings"),
    ("obstruct", "auto_verdict"),
    ("obstruct", "verdict"),
    ("obstruct", "cha_ko"),
    ("obstruct", "report_to_json"),
    ("linalg", "det"),
    ("linalg", "inverse"),
    ("linalg", "order_in_quotient"),
    ("linalg", "smith_normal_form"),
    ("downhill", "normalize"),
)

OP_SPAN = "bench.op"
PACKAGE = "coverlink"


def det_bareiss_ops(n: int) -> int:
    """Inner-loop updates of an n x n Bareiss elimination: sum of j^2, j < n."""
    return (n - 1) * n * (2 * n - 1) // 6 if n > 1 else 0


def inverse_bareiss_ops(n: int) -> int:
    """Inner-loop updates of ``inverse``'s elimination on [A | I], beyond its det call.

    Column range k+1..2n-1 at step k gives sum of j*(n+j) over j < n; the
    sum of j^2 part is the nested ``det``, which is counted on its own.
    """
    return n * n * (n - 1) // 2


class Tracer:
    """Records one span per traced call plus the exact counts of the issue."""

    def __init__(self):
        # Span: (name, start, end, parent span index or -1, op index).
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op = -1
        self._stack: list[int] = []
        self.counts = {
            "linalg.bareiss_ops": 0,
            "cover.events": 0,
            "downhill.clasps_emitted": 0,
        }
        self.lifted_dims: dict[int, list[int]] = {}  # op -> size of each lifted matrix

    def _hooks(self):
        counts = self.counts

        def det(args, _result):
            counts["linalg.bareiss_ops"] += det_bareiss_ops(args[0].rows)

        def inverse(args, _result):
            counts["linalg.bareiss_ops"] += inverse_bareiss_ops(args[0].rows)

        def build_cover(_args, result):
            counts["cover.events"] += len(result.word.events)

        def lifted(_args, result):
            self.lifted_dims.setdefault(self.op, []).append(result.matrix.rows)

        def normalize(_args, result):
            counts["downhill.clasps_emitted"] += len(result.changes)

        return {
            "linalg.det": det,
            "linalg.inverse": inverse,
            "cover.build_cover": build_cover,
            "cover.lifted_linking_matrix": lifted,
            "downhill.normalize": normalize,
        }

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the slot so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    @contextmanager
    def install(self):
        """Wrap every traced function at every attribute that holds it."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        hooks = self._hooks()
        saved = []
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    @contextmanager
    def op_span(self, op: int):
        """Root span of one benchmark op; the traced calls inside are its children."""
        self.op = op
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (OP_SPAN, start, end, -1, op)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time, in seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        table: dict[str, dict[str, float]] = {}
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = span[2] - span[1]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[sid]
        return table
