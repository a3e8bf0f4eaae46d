"""Timing spans recorded around the package's public functions.

The wrappers live here, in the benchmark, so the package itself is not
changed.  The package binds names with ``from .x import y``, so one
function can be reachable through several module attributes (for example
``validate_model`` in ``models``, ``model_io``, ``cli`` and the package);
``install`` replaces every such binding and ``uninstall`` restores it.

A span is ``[name, start_ns, end_ns, parent, op, extra]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the operation id
set by the benchmark loop, and ``extra`` either a size taken from the
result or the name of the exception the call raised.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Optional

# span name -> (defining module, function name); several functions may
# share a span name when they form one layer (the report writers).
LAYERS = {
    "cli.main": [("cli", "main")],
    "model_io.parse": [("model_io", "parse_model")],
    "model_io.serialize": [("model_io", "serialize_model")],
    "model_io.dot": [("model_io", "emit_dot")],
    "model_io.report": [
        ("model_io", "build_report"),
        ("model_io", "report_to_dict"),
        ("model_io", "serialize_report"),
        ("model_io", "report_to_text"),
    ],
    "models.validate": [("models", "validate_model")],
    "models.run": [("models", "run_model")],
    "supermatrix.entry_check": [("supermatrix", "check_entry_domain")],
    "dynamics.run": [("dynamics", "run_hidden_pattern")],
    "dynamics.sweep": [("dynamics", "sweep_unit_seeds")],
    "dynamics.step": [("dynamics", "step")],
    "dynamics.product": [("dynamics", "special_product")],
    "dynamics.threshold": [("dynamics", "apply_threshold")],
    "dynamics.update": [("dynamics", "apply_update")],
    "dynamics.census": [("dynamics", "enumerate_attractors")],
}

MODULES = ("", "cli", "dynamics", "models", "model_io", "supermatrix")


def _size_of(out) -> Optional[object]:
    """What a span keeps from its result: text length or census size."""
    if isinstance(out, str):
        return len(out.encode("utf-8"))
    attractors = getattr(out, "attractors", None)
    if attractors is not None and hasattr(out, "n_seeds"):
        return [int(out.n_seeds), len(attractors)]
    return None


class Tracer:
    """Collects spans in memory; one per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._bindings: list[tuple[object, str, Callable, Callable]] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[2] = clock()
                rec[5] = type(e).__name__
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            rec[5] = _size_of(out)
            return out

        return wrapper

    def install(self, package) -> None:
        """Wrap every binding of every traced function.

        ``package`` is the imported ``fuzzymaps`` with ``fuzzymaps.cli``
        loaded.
        """
        if not self._bindings:
            modules = [getattr(package, m) if m else package for m in MODULES]
            for name, targets in LAYERS.items():
                for mod_name, attr in targets:
                    fn = getattr(getattr(package, mod_name), attr)
                    wrapped = self.wrap(fn, name)
                    for mod in modules:
                        for key, value in vars(mod).items():
                            if value is fn:
                                self._bindings.append((mod, key, fn, wrapped))
        for mod, key, _, wrapped in self._bindings:
            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, fn, _ in self._bindings:
            setattr(mod, key, fn)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "op", "extra"],\n')
            fh.write(' "spans": [\n')
            last = len(self.spans) - 1
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps(rec) + (",\n" if i < last else "\n"))
            fh.write("]}\n")


# --- arithmetic on spans ------------------------------------------------------


def _covered(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, reach = 0, lo
    for a, b in sorted(children):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    return [
        (rec[2] - rec[1]) - _covered((rec[1], rec[2]), children[i])
        for i, rec in enumerate(spans)
    ]


def _outermost(spans: list[list], name: str) -> list[int]:
    """Indices of ``name`` spans with no ``name`` span above them."""
    out = []
    for i, rec in enumerate(spans):
        if rec[0] != name:
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(spans: list[list], rounds: int, setup_op: int = -1) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one round of the mix.

    Spans of operation ``setup_op`` count once; every other span counts
    ``1 / rounds``, so counts repeat exactly whenever the same work is done
    and times are per round.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def total(indices, value: Callable[[int], float]) -> float:
        setup = mix = 0
        for i in indices:
            if spans[i][4] == setup_op:
                setup += value(i)
            else:
                mix += value(i)
        return setup + mix / rounds

    def calls(name: str) -> float:
        return total(by_name.get(name, ()), lambda i: 1)

    def incl_ms(name: str) -> float:
        return total(_outermost(spans, name), lambda i: spans[i][2] - spans[i][1]) / 1e6

    def self_ms(name: str) -> float:
        return total(by_name.get(name, ()), lambda i: own[i]) / 1e6

    def size_sum(name: str, pos: Optional[int] = None) -> float:
        def size(i: int) -> int:
            extra = spans[i][5]
            if pos is None:
                return extra if isinstance(extra, int) else 0
            return extra[pos] if isinstance(extra, list) else 0

        return total(_outermost(spans, name), size)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runs = by_name.get("dynamics.run", [])
    resolved = {i for i in runs if spans[i][5] is None}
    resolved_steps = total(
        [i for i in by_name.get("dynamics.step", ()) if spans[i][3] in resolved],
        lambda i: 1,
    )
    return {
        "cli.commands": calls("cli.main"),
        "cli.self_ms": self_ms("cli.main"),
        "model_io.parse.calls": calls("model_io.parse"),
        "model_io.parse.self_ms": self_ms("model_io.parse"),
        "models.validate.calls": calls("models.validate"),
        "models.validate.ms": incl_ms("models.validate"),
        "models.validate.per_parse": ratio(calls("models.validate"),
                                           calls("model_io.parse")),
        "supermatrix.entry_check.ms": incl_ms("supermatrix.entry_check"),
        "models.run.self_ms": self_ms("models.run"),
        "dynamics.run.calls": calls("dynamics.run"),
        "dynamics.run.self_ms": self_ms("dynamics.run"),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.self_ms": self_ms("dynamics.step"),
        "dynamics.product.ms": incl_ms("dynamics.product"),
        "dynamics.threshold.ms": incl_ms("dynamics.threshold"),
        "dynamics.update.ms": incl_ms("dynamics.update"),
        "dynamics.products_per_pattern": ratio(
            resolved_steps, total(resolved, lambda i: 1)
        ),
        "dynamics.step_limit.count": total(
            [i for i in runs if spans[i][5] == "StepLimitExceeded"], lambda i: 1
        ),
        "dynamics.sweep.calls": calls("dynamics.sweep"),
        "dynamics.sweep.self_ms": self_ms("dynamics.sweep"),
        "dynamics.census.calls": calls("dynamics.census"),
        "dynamics.census.ms": incl_ms("dynamics.census"),
        "dynamics.census.seeds": size_sum("dynamics.census", 0),
        "dynamics.census.attractors": size_sum("dynamics.census", 1),
        "model_io.report.calls": total(_outermost(spans, "model_io.report"), lambda i: 1),
        "model_io.report.ms": incl_ms("model_io.report"),
        "model_io.report.bytes": size_sum("model_io.report"),
        "model_io.serialize.ms": incl_ms("model_io.serialize"),
        "model_io.serialize.bytes": size_sum("model_io.serialize"),
        "model_io.dot.ms": incl_ms("model_io.dot"),
    }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("per_parse", "per_pattern")):
        return "ratio"
    return "count"


# Metrics that stay 0 when a workload never reaches the layer that feeds
# them; the benchmark prints this reason beside a zero.
UNOBTAINABLE_WHEN_ZERO = {
    "models.validate.per_parse": "no parse_model call in this workload",
    "dynamics.products_per_pattern": "no run_hidden_pattern call resolved here",
}
