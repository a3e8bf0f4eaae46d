"""Bit-exact model documents, run reports, DOT export, bundled fixtures.

The model document is UTF-8 JSON with a fixed top-level field order and one
matrix row per line, so a serialized model diffs cleanly against a printed
connection matrix.  Serialization is canonical: byte-identical across runs,
LF line endings, no trailing whitespace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .dynamics import (
    Comparator,
    FirstStepMode,
    HiddenPattern,
    Side,
    StateVector,
    ThresholdPolicy,
    ThresholdRule,
    _num,
    _plain,
)
from .errors import (
    ModelSchemaError,
    ModelSyntaxError,
    UnknownFixture,
)
# validate_model is bound here, though only ModelSpec calls it, because
# perfbench's tracer wraps and checks every module binding of it
from .models import ModelKind, ModelSpec, validate_model  # noqa: F401
from .supermatrix import EntryDomain, Partition, SuperMatrix

__all__ = [
    "FORMAT_VERSION",
    "REPORT_VERSION",
    "FIXTURE_NAMES",
    "RunReport",
    "parse_model",
    "serialize_model",
    "build_report",
    "serialize_report",
    "report_to_text",
    "emit_dot",
    "load_fixture",
    "fixture_text",
]

FORMAT_VERSION = 1
REPORT_VERSION = 1

FIXTURE_NAMES = (
    "ex_1_2_1",
    "ex_1_2_2",
    "ex_1_2_3_structure",
    "sec_2_2",
    "sec_2_3",
    "sec_2_4",
    "sec_2_5_fcm",
)

_TOP_KEYS = {
    "format_version",
    "name",
    "kind",
    "entry_domain",
    "domain",
    "range",
    "matrix",
    "policy",
    "description",
}
# the values a document may name, in declaration order (error texts list them)
_KINDS = tuple(k.value for k in ModelKind)
_DOMAINS = tuple(d.value for d in EntryDomain)
_MODES = tuple(m.value for m in FirstStepMode)
_CMPS = tuple(c.value for c in Comparator)


def _jstr(s: str) -> str:
    return json.dumps(s, ensure_ascii=True)


class _Memo(dict):
    """``memo[x]`` is ``render(x)``, rendered once per distinct ``x``.

    A matrix holds few distinct numbers, so the text of each is computed
    once and cells look theirs up in C.  ``-0.0`` and ``0.0`` share a key,
    which is harmless: :func:`_num` renders both as ``0``.
    """

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, x):
        text = self[x] = self.render(x)
        return text


def serialize_model(spec: ModelSpec) -> str:
    """Canonical document text for ``spec`` (stable bytes, LF endings).

    An invalid ``spec`` raises :class:`ModelValidationError`, as
    :func:`parse_model` would on the text: a non-finite number has no JSON
    text.  A parsed spec keeps its diagnostics, so this validates nothing.
    """
    spec.require_valid()
    lines: list[str] = ["{"]
    lines.append(f'  "format_version": {FORMAT_VERSION},')
    lines.append(f'  "name": {_jstr(spec.name)},')
    lines.append(f'  "kind": {_jstr(spec.kind.value)},')
    lines.append(f'  "entry_domain": {_jstr(spec.entry_domain.value)},')
    for key, blocks in (("domain", spec.domain_labels), ("range", spec.range_labels)):
        lines.append(f'  "{key}": {{"blocks": [')
        for i, blk in enumerate(blocks):
            comma = "," if i + 1 < len(blocks) else ""
            lines.append(
                "    [" + ", ".join(_jstr(x) for x in blk) + "]" + comma
            )
        lines.append("  ]},")
    lines.append('  "matrix": [')
    text = _Memo(_num).__getitem__
    for row in spec.matrix.entries:
        lines.append("    [" + ", ".join(map(text, row.tolist())) + "],")
    lines[-1] = lines[-1][:-1]  # no comma after the last row
    lines.append("  ],")
    lines.append('  "policy": {')
    for where, fields in spec.policy.as_dict().items():
        # the fields are strings and float cutoffs
        body = ", ".join(
            f"{_jstr(k)}: {_jstr(v) if isinstance(v, str) else _num(v)}"
            for k, v in fields.items()
        )
        lines.append(f"    {_jstr(where)}: {{{body}}},")
    lines[-1] = lines[-1][:-1]  # no comma after the last rule
    if spec.description:
        lines.append("  },")
        lines.append(f'  "description": {_jstr(spec.description)}')
    else:
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise ModelSchemaError(f"{where}: {what}")


def _float(x) -> float:
    """``float(x)``, reading an integer beyond the float range as ``±inf``.

    Validation then refuses it as it refuses the literal ``1e999``.
    """
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # an integer literal too long for int(): that literal alone is read
        # as a float, infinite, which validation refuses as it refuses 1e999
        return json.loads(text, parse_int=_int)


def _int(literal: str):
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def _parse_rule(obj, where: str) -> ThresholdRule:
    _expect(isinstance(obj, dict), where, "expected an object")
    extra = set(obj) - {"cmp", "cutoff"}
    _expect(not extra, where, f"unknown fields: {sorted(extra)}")
    _expect("cmp" in obj and "cutoff" in obj, where, "needs cmp and cutoff")
    cmp_val = obj["cmp"]
    _expect(cmp_val in _CMPS, where, f"cmp must be ge or gt, got {cmp_val!r}")
    cutoff = obj["cutoff"]
    _expect(
        isinstance(cutoff, (int, float)) and not isinstance(cutoff, bool),
        where,
        "cutoff must be a number",
    )
    return ThresholdRule(Comparator(cmp_val), _float(cutoff))


def _parse_label_blocks(obj, where: str) -> tuple[tuple[str, ...], ...]:
    _expect(isinstance(obj, dict), where, "expected an object")
    extra = set(obj) - {"blocks"}
    _expect(not extra, where, f"unknown fields: {sorted(extra)}")
    _expect("blocks" in obj, where, "missing blocks")
    blocks = obj["blocks"]
    _expect(isinstance(blocks, list) and blocks, where, "blocks must be a non-empty array")
    out = []
    for i, blk in enumerate(blocks):
        loc = f"{where}.blocks[{i}]"
        _expect(isinstance(blk, list) and blk, loc, "each block must be a non-empty array")
        for lab in blk:
            _expect(isinstance(lab, str), loc, "labels must be strings")
            _expect(len(lab) <= 64, loc, f"label {lab!r} longer than 64 characters")
        out.append(tuple(blk))
    return tuple(out)


def parse_model(text: str) -> ModelSpec:
    """Parse and fully validate a model document.

    Raises :class:`ModelSyntaxError` for malformed JSON,
    :class:`ModelSchemaError` for shape problems (named field or row), and
    :class:`ModelValidationError` when the described model breaks an
    invariant (named cell or block), non-finite numbers included.  The
    returned spec keeps its diagnostics, so running it validates nothing.
    """
    try:
        doc = _loads(text)
    except json.JSONDecodeError as e:
        raise ModelSyntaxError(f"not valid JSON: {e}") from e
    _expect(isinstance(doc, dict), "document", "top level must be an object")
    extra = set(doc) - _TOP_KEYS
    _expect(not extra, "document", f"unknown fields: {sorted(extra)}")
    missing = _TOP_KEYS - {"description"} - set(doc)
    _expect(not missing, "document", f"missing fields: {sorted(missing)}")
    version = doc["format_version"]
    _expect(
        type(version) is int and version == FORMAT_VERSION,
        "format_version",
        f"expected {FORMAT_VERSION}, got {version!r}",
    )
    _expect(isinstance(doc["name"], str), "name", "must be a string")
    kind = doc["kind"]
    _expect(kind in _KINDS, "kind", f"must be one of {_KINDS}, got {kind!r}")
    ed = doc["entry_domain"]
    _expect(ed in _DOMAINS, "entry_domain", f"must be one of {_DOMAINS}, got {ed!r}")

    domain_blocks = _parse_label_blocks(doc["domain"], "domain")
    range_blocks = _parse_label_blocks(doc["range"], "range")

    matrix = doc["matrix"]
    _expect(isinstance(matrix, list) and matrix, "matrix", "must be a non-empty array")
    n_cols = None
    # json yields int, float, bool, None, str, list or dict; bool is its own
    # type, so this one C-level pass per row admits exactly the numbers
    numbers = {int, float}.issuperset
    for i, row in enumerate(matrix):
        loc = f"matrix[{i}]"
        _expect(isinstance(row, list), loc, "each row must be an array")
        if n_cols is None:
            n_cols = len(row)
        _expect(
            len(row) == n_cols,
            loc,
            f"row has {len(row)} entries, expected {n_cols}",
        )
        if not numbers(map(type, row)):
            for j, v in enumerate(row):
                _expect(
                    isinstance(v, (int, float)) and not isinstance(v, bool),
                    f"matrix[{i}][{j}]",
                    "entries must be numbers",
                )
    n_rows = len(matrix)
    row_sizes = tuple(len(b) for b in domain_blocks)
    col_sizes = tuple(len(b) for b in range_blocks)
    _expect(
        sum(row_sizes) == n_rows,
        "matrix",
        f"{n_rows} rows against {sum(row_sizes)} domain labels",
    )
    _expect(
        sum(col_sizes) == n_cols,
        "matrix",
        f"{n_cols} columns against {sum(col_sizes)} range labels",
    )

    pol = doc["policy"]
    _expect(isinstance(pol, dict), "policy", "expected an object")
    extra = set(pol) - {"domain", "range", "first_step"}
    _expect(not extra, "policy", f"unknown fields: {sorted(extra)}")
    _expect(
        {"domain", "range", "first_step"} <= set(pol),
        "policy",
        "needs domain, range and first_step",
    )
    fs = pol["first_step"]
    _expect(isinstance(fs, dict), "policy.first_step", "expected an object")
    extra = set(fs) - {"mode", "cmp", "cutoff"}
    _expect(not extra, "policy.first_step", f"unknown fields: {sorted(extra)}")
    _expect(
        {"mode", "cmp", "cutoff"} <= set(fs),
        "policy.first_step",
        "needs mode, cmp and cutoff",
    )
    _expect(
        fs["mode"] in _MODES,
        "policy.first_step.mode",
        f"must be one of {_MODES}, got {fs['mode']!r}",
    )
    policy = ThresholdPolicy(
        domain_rule=_parse_rule(pol["domain"], "policy.domain"),
        range_rule=_parse_rule(pol["range"], "policy.range"),
        first_step_rule=_parse_rule(
            {"cmp": fs["cmp"], "cutoff": fs["cutoff"]}, "policy.first_step"
        ),
        first_step_mode=FirstStepMode(fs["mode"]),
    )

    description = doc.get("description", "")
    _expect(isinstance(description, str), "description", "must be a string")

    try:
        entries = np.array(matrix, dtype=float)
    except OverflowError:
        entries = np.array([[_float(v) for v in row] for row in matrix])

    spec = ModelSpec(
        name=doc["name"],
        kind=kind,
        domain_labels=domain_blocks,
        range_labels=range_blocks,
        matrix=SuperMatrix(
            entries,
            Partition(row_sizes),
            Partition(col_sizes),
        ),
        entry_domain=EntryDomain(ed),
        policy=policy,
        description=description,
    )
    spec.require_valid()
    return spec


# --- run reports -------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Machine-friendly record of one hidden-pattern run."""

    model_name: str
    seed_side: Side
    seed_labels: tuple[str, ...]
    policy: ThresholdPolicy
    pattern: HiddenPattern
    domain_labels: tuple[str, ...]
    range_labels: tuple[str, ...]
    include_trace: bool = False

    def on_labels(self, state: StateVector) -> tuple[str, ...]:
        labels = self.domain_labels if state.side is Side.DOMAIN else self.range_labels
        return tuple(labels[i] for i in state.on_indices)


def build_report(
    spec: ModelSpec,
    seed: StateVector,
    pattern: HiddenPattern,
    policy: Optional[ThresholdPolicy] = None,
    include_trace: bool = False,
) -> RunReport:
    labels = spec.labels_flat(seed.side)
    return RunReport(
        model_name=spec.name,
        seed_side=seed.side,
        seed_labels=tuple(labels[i] for i in seed.on_indices),
        policy=policy or spec.policy,
        pattern=pattern,
        domain_labels=spec.labels_flat(Side.DOMAIN),
        range_labels=spec.labels_flat(Side.RANGE),
        include_trace=include_trace,
    )


def _state_dict(report: RunReport, state: StateVector) -> dict:
    return {
        "side": state.side.value,
        "bits": list(state.bits),
        "blocked": state.blocked_str(),
        "on": list(report.on_labels(state)),
    }


def report_to_dict(report: RunReport) -> dict:
    pat = report.pattern
    out = {
        "report_version": REPORT_VERSION,
        "model": report.model_name,
        "seed": {
            "side": report.seed_side.value,
            "labels": list(report.seed_labels),
        },
        "policy": report.policy.as_dict(),
        "pattern": {
            "kind": pat.kind.value,
            "period": pat.period,
            "steps_to_enter": pat.steps_to_enter,
            "pairs": [
                {
                    "domain": _state_dict(report, d),
                    "range": _state_dict(report, r),
                }
                for d, r in pat.pair_sequence
            ],
        },
    }
    if report.include_trace and pat.trace is not None:
        out["steps"] = [
            {
                "step": rec.step_index,
                "produced_side": rec.produced_side.value,
                "rule": rec.rule_applied.as_dict(),
                "raw": [_plain(v) for v in rec.raw],
                "thresholded": list(rec.thresholded),
                "after_update": list(rec.after_update),
            }
            for rec in pat.trace
        ]
    return out


def serialize_report(report: RunReport) -> str:
    """Canonical JSON text for a run report (byte-stable)."""
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=True) + "\n"


def report_to_text(report: RunReport) -> str:
    """Human-oriented rendering of a run report."""
    pat = report.pattern
    lines = [
        f"model: {report.model_name}",
        f"seed:  {', '.join(report.seed_labels) or '(none)'} "
        f"[{report.seed_side.value}]",
        "policy: domain {} | range {} | first step {} ({})".format(
            report.policy.domain_rule.describe(),
            report.policy.range_rule.describe(),
            report.policy.first_step_rule.describe(),
            report.policy.first_step_mode.value,
        ),
    ]
    if report.include_trace and pat.trace is not None:
        lines.append("trace:")
        for rec in pat.trace:
            raw = " ".join(map(_num, rec.raw))
            bits = "".join(str(b) for b in rec.after_update)
            lines.append(
                f"  step {rec.step_index:>2} -> {rec.produced_side.value:<6} "
                f"raw [{raw}] {rec.rule_applied.describe()} -> {bits}"
            )
    if pat.kind.value == "fixed_point":
        lines.append(f"hidden pattern: fixed point (entered after "
                     f"{pat.steps_to_enter} rounds)")
    else:
        lines.append(
            f"hidden pattern: limit cycle, period {pat.period} "
            f"(entered after {pat.steps_to_enter} rounds)"
        )
    for idx, (d, r) in enumerate(pat.pair_sequence):
        prefix = f"  pair {idx}" if pat.period > 1 else "  pair"
        lines.append(f"{prefix} domain {d.blocked_str()}")
        on_d = ", ".join(report.on_labels(d)) or "(all off)"
        lines.append(f"{' ' * len(prefix)} on: {on_d}")
        lines.append(f"{prefix} range  {r.blocked_str()}")
        on_r = ", ".join(report.on_labels(r)) or "(all off)"
        lines.append(f"{' ' * len(prefix)} on: {on_r}")
    return "\n".join(lines) + "\n"


# --- DOT export --------------------------------------------------------------


def emit_dot(spec: ModelSpec) -> str:
    """Render the causal graph: a node per label, an edge per nonzero entry.

    Partition blocks become clusters.  Negative weights render dashed.
    Output is deterministic row-major text.
    """
    lines = [f"digraph {_jstr(spec.name or 'model')} {{"]
    lines.append("  rankdir=LR;")
    if spec.one_sided:
        sides = (("n", spec.domain_labels, spec.matrix.row_partition),)
    else:
        sides = (
            ("d", spec.domain_labels, spec.matrix.row_partition),
            ("r", spec.range_labels, spec.matrix.col_partition),
        )
    for prefix, side_blocks, part in sides:
        for b, blk in enumerate(side_blocks):
            off = part.offsets[b]
            lines.append(f"  subgraph cluster_{prefix}{b} {{")
            lines.append(f'    label="{prefix}-block {b + 1}";')
            for i, lab in enumerate(blk):
                lines.append(f"    {prefix}{off + i} [label={_jstr(lab)}];")
            lines.append("  }")
    src_prefix = "n" if spec.one_sided else "d"
    dst_prefix = "n" if spec.one_sided else "r"
    attrs = _Memo(
        lambda w: f"label={_jstr(_num(w))}" + (", style=dashed" if w < 0 else "")
    )
    rows, cols = np.nonzero(spec.matrix.entries)
    weights = spec.matrix.entries[rows, cols]
    lines.extend(
        f"  {src_prefix}{i} -> {dst_prefix}{j} [{attrs[w]}];"
        for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist())
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- bundled fixtures ---------------------------------------------------------


def fixture_text(name: str) -> str:
    """Raw canonical bytes of a bundled fixture document."""
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    ref = resources.files(__package__).joinpath("fixtures", f"{name}.json")
    return ref.read_text(encoding="utf-8")


def load_fixture(name: str) -> ModelSpec:
    """Parse one of the bundled connection-matrix fixtures."""
    return parse_model(fixture_text(name))
