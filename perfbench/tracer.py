"""Outside-in tracing: timing wrappers rebound into the package's modules.

The package's modules import functions by name (``from .core import
validate_instance``), so a call is traced by rebinding that name in the
namespace of the module that makes the call. Spans stay in memory until
the run ends. Nothing under ``src/`` changes; ``Tracer.installed`` puts
every original binding back on exit.

Only the outer ``construct_zero_loss`` binding (the one in ``minloss``) is
wrapped. The recursion inside ``zeroloss`` calls its own global, which
stays untouched: wrapping it would add a frame per peel level and overflow
the interpreter's recursion limit near N = 512.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

from jointselect import cli, core, minloss, oracle, zeroloss


def _matrix_bytes(args, result):
    return 8 * result.n * result.n


def _fill_case(args, result):
    return result.case


def _kkt_residual(args, result):
    return result.residuals.max()


def _draws(args, result):
    return args[2]


def _iterations(args, result):
    return result.iterations


def bindings():
    """(module, attribute, span name, note) for every traced call site.

    ``note(args, result)`` extracts the count a span carries, if any.
    """
    return [
        (core, "validate_instance", "core.validate_instance", None),
        (zeroloss, "validate_instance", "core.validate_instance", None),
        (core, "JointSelectionMatrix", "core.JointSelectionMatrix", _matrix_bytes),
        (zeroloss, "JointSelectionMatrix", "core.JointSelectionMatrix", _matrix_bytes),
        (minloss, "JointSelectionMatrix", "core.JointSelectionMatrix", _matrix_bytes),
        (oracle, "JointSelectionMatrix", "core.JointSelectionMatrix", _matrix_bytes),
        (minloss, "loss", "core.loss", None),
        (oracle, "loss", "core.loss", None),
        (cli, "loss", "core.loss", None),
        (cli, "sample_joint", "core.sample_joint", _draws),
        (cli, "instance_from_json", "core.formats", None),
        (cli, "matrix_to_json", "core.formats", None),
        (cli, "matrix_from_json", "core.formats", None),
        (cli, "dumps", "core.formats", None),
        (minloss, "construct_zero_loss", "zeroloss.construct", None),
        (zeroloss, "fill_row_col", "zeroloss.fill_row_col", _fill_case),
        (zeroloss, "reduce_instance", "zeroloss.reduce_instance", None),
        (zeroloss, "base_case_three", "zeroloss.base_case_three", None),
        (minloss, "min_loss_matrix", "minloss.min_loss_matrix", None),
        (cli, "min_loss_matrix", "minloss.min_loss_matrix", None),
        (minloss, "kkt_verify", "minloss.kkt_verify", _kkt_residual),
        (cli, "kkt_verify", "minloss.kkt_verify", _kkt_residual),
        (cli, "optimal_satisfaction_matrix", "minloss.dispatch", None),
        (cli, "solve_min_loss", "oracle.solve_min_loss", _iterations),
    ]


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    note: object = None


@dataclass
class LayerTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    notes: list = field(default_factory=list)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op id."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op)
            if note is not None:
                spans[idx].note = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, note in bindings():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layers(self) -> dict[str, LayerTotals]:
        """Per span name: calls, total time, self time and the notes carried.

        Self time is a span's duration minus the durations of its direct
        children; calls do not overlap, so the children tile disjoint parts.
        """
        child_ns = defaultdict(int)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for i, s in enumerate(self.spans):
            t = out[s.name]
            t.calls += 1
            t.total_ns += s.end - s.start
            t.self_ns += s.end - s.start - child_ns[i]
            if s.note is not None:
                t.notes.append(s.note)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.note]) + "\n")
