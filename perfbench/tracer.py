"""Span tracing from outside the program, by rebinding public functions.

Each wrapped name is replaced where its caller looks it up (for example
``msvdd.heuristic.solve_svdd`` as well as ``msvdd.solution.solve_svdd``), so
the program's own code is untouched and the untraced passes run exactly the
installed functions.  A span records its name, start, end, parent span, the
top-level operation it belongs to and the benchmark phase it ran in.  Spans
are kept in flat arrays while the run lasts and written out when it ends.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict

PHASE_SETUP, PHASE_A, PHASE_B = 0, 1, 2
PHASE_NAMES = ("setup", "traced_a", "traced_b")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct child spans
        self.stack: list[int] = []
        self.op_id = 0
        self.op_labels = {0: ""}
        self.phase_id = PHASE_SETUP
        self.counts = [defaultdict(float) for _ in PHASE_NAMES]
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, label: str = "") -> None:
        """Start a new top-level operation; later spans carry its id."""
        self.op_id += 1
        self.op_labels[self.op_id] = label

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.phase_id][key] += amount

    def wrap(self, module, attr: str, span: str, count_key=None, time_key=None,
             observe=None, new_op: bool = False) -> None:
        """Rebind ``module.attr`` to a recording wrapper.

        ``count_key`` counts calls and ``time_key`` sums their durations,
        through this binding only; ``observe`` is called as
        observe(tracer, result) after a successful call; ``new_op`` starts a
        top-level operation at each call.
        """
        original = getattr(module, attr)
        if getattr(original, "__perfbench_wrapped__", False):
            raise RuntimeError(f"{module.__name__}.{attr} is wrapped twice")
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if new_op:
                tracer.begin_op()
            i = len(tracer.start)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.op.append(tracer.op_id)
            tracer.phase.append(tracer.phase_id)
            tracer.child.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(i)
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.count(span + ".raised")
                raise
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.end[i] = t1
                if parent >= 0:
                    tracer.child[parent] += t1 - t0
                if time_key is not None:
                    tracer.count(time_key, t1 - t0)
            if count_key is not None:
                tracer.count(count_key)
            if observe is not None:
                observe(tracer, result)
            return result

        wrapper.__perfbench_wrapped__ = True
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path, t_origin: float) -> int:
        """Write every span as gzipped CSV, times relative to ``t_origin``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,phase,op,op_label,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                op = self.op[i]
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{PHASE_NAMES[self.phase[i]]},"
                    f"{op},{self.op_labels[op]},{self.parent[i]},"
                    f"{self.start[i] - t_origin:.9f},{self.end[i] - t_origin:.9f}\n"
                )
        return len(self.start)
