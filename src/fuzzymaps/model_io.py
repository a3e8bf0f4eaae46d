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
from itertools import chain

import numpy as np

from .dynamics import (
    Comparator,
    FirstStepMode,
    HiddenPattern,
    PatternKind,
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

# a document's required fields; "description" is its one optional field
_TOP_KEYS = (
    "format_version",
    "name",
    "kind",
    "entry_domain",
    "domain",
    "range",
    "matrix",
    "policy",
)
# the values a document may name, in declaration order (error texts list them)
_KINDS = tuple(k.value for k in ModelKind)
_DOMAINS = tuple(d.value for d in EntryDomain)
_MODES = tuple(m.value for m in FirstStepMode)
_CMPS = tuple(c.value for c in Comparator)


# the C string encoders of json.dumps, with and without ensure_ascii
_str = json.encoder.encode_basestring_ascii
_str_utf8 = json.encoder.encode_basestring
_BIT = ("0", "1")


class _Memo(dict):
    """``memo[x]`` is ``render(x)``, rendered once per distinct ``x``.

    A matrix or a trace holds few distinct numbers, so the text of each is
    computed once and cells look theirs up in C.  ``-0.0`` and ``0.0`` share a key,
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
    lines.append(f'  "name": {_str(spec.name)},')
    lines.append(f'  "kind": {_str(spec.kind.value)},')
    lines.append(f'  "entry_domain": {_str(spec.entry_domain.value)},')
    for key, blocks in (("domain", spec.domain_labels), ("range", spec.range_labels)):
        lines.append(f'  "{key}": {{"blocks": [')
        for i, blk in enumerate(blocks):
            comma = "," if i + 1 < len(blocks) else ""
            lines.append(
                "    [" + ", ".join(_str(x) for x in blk) + "]" + comma
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
            f"{_str(k)}: {_str(v) if isinstance(v, str) else _num(v)}"
            for k, v in fields.items()
        )
        lines.append(f"    {_str(where)}: {{{body}}},")
    lines[-1] = lines[-1][:-1]  # no comma after the last rule
    if spec.description:
        lines.append("  },")
        lines.append(f'  "description": {_str(spec.description)}')
    else:
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


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


# The shape checks below build a message only once their test has failed.
# json yields int, float, bool, None, str, list or dict, each its own type
# (bool included), so a set of types tests a whole run of values in one
# C-level pass; only a failing pass walks on to name the first bad value.
_lists = {list}.issuperset
_strings = {str}.issuperset
_numbers = {int, float}.issuperset


def _fields(obj, where: str, required, optional=()) -> None:
    """An object with every ``required`` field and others only from ``optional``."""
    if not isinstance(obj, dict):
        raise ModelSchemaError(f"{where}: expected an object")
    extra = set(obj).difference(required, optional)
    if extra:
        raise ModelSchemaError(f"{where}: unknown fields: {sorted(extra)}")
    missing = set(required).difference(obj)
    if missing:
        raise ModelSchemaError(f"{where}: missing fields: {sorted(missing)}")


def _parse_rule(obj, where: str, optional=()) -> ThresholdRule:
    _fields(obj, where, ("cmp", "cutoff"), optional)
    cmp_val = obj["cmp"]
    if cmp_val not in _CMPS:
        raise ModelSchemaError(f"{where}: cmp must be ge or gt, got {cmp_val!r}")
    cutoff = obj["cutoff"]
    if type(cutoff) not in (int, float):
        raise ModelSchemaError(f"{where}: cutoff must be a number")
    return ThresholdRule(Comparator(cmp_val), _float(cutoff))


def _parse_label_blocks(obj, where: str) -> tuple[tuple[str, ...], ...]:
    _fields(obj, where, ("blocks",))
    blocks = obj["blocks"]
    if not (isinstance(blocks, list) and blocks):
        raise ModelSchemaError(f"{where}: blocks must be a non-empty array")
    if not (
        _lists(map(type, blocks))
        and all(blocks)
        and _strings(map(type, chain.from_iterable(blocks)))
    ):
        for i, blk in enumerate(blocks):
            if not (isinstance(blk, list) and blk):
                raise ModelSchemaError(
                    f"{where}.blocks[{i}]: each block must be a non-empty array"
                )
            if not _strings(map(type, blk)):
                raise ModelSchemaError(f"{where}.blocks[{i}]: labels must be strings")
    return tuple(map(tuple, blocks))


def _bad_row(matrix: list) -> None:
    """Raise naming the first row of ``matrix`` that is not an array as wide
    as the first row, or the first entry that is not a number."""
    n_cols = None
    for i, row in enumerate(matrix):
        if not isinstance(row, list):
            raise ModelSchemaError(f"matrix[{i}]: each row must be an array")
        if n_cols is None:
            n_cols = len(row)
        if len(row) != n_cols:
            raise ModelSchemaError(
                f"matrix[{i}]: row has {len(row)} entries, expected {n_cols}"
            )
        if not _numbers(map(type, row)):
            for j, v in enumerate(row):
                if type(v) not in (int, float):
                    raise ModelSchemaError(f"matrix[{i}][{j}]: entries must be numbers")


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
    except RecursionError as e:
        raise ModelSyntaxError("arrays or objects nested too deeply to read") from e
    _fields(doc, "document", _TOP_KEYS, ("description",))
    version = doc["format_version"]
    if not (type(version) is int and version == FORMAT_VERSION):
        raise ModelSchemaError(
            f"format_version: expected {FORMAT_VERSION}, got {version!r}"
        )
    if not isinstance(doc["name"], str):
        raise ModelSchemaError("name: must be a string")
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ModelSchemaError(f"kind: must be one of {_KINDS}, got {kind!r}")
    ed = doc["entry_domain"]
    if ed not in _DOMAINS:
        raise ModelSchemaError(f"entry_domain: must be one of {_DOMAINS}, got {ed!r}")

    domain_blocks = _parse_label_blocks(doc["domain"], "domain")
    range_blocks = _parse_label_blocks(doc["range"], "range")

    matrix = doc["matrix"]
    if not (isinstance(matrix, list) and matrix):
        raise ModelSchemaError("matrix: must be a non-empty array")
    # the rows' types, their widths and their entries' types: one pass each
    if not (
        _lists(map(type, matrix))
        and len(set(map(len, matrix))) == 1
        and _numbers(map(type, chain.from_iterable(matrix)))
    ):
        _bad_row(matrix)
    n_cols = len(matrix[0])
    n_rows = len(matrix)
    row_sizes = tuple(map(len, domain_blocks))
    col_sizes = tuple(map(len, range_blocks))
    if sum(row_sizes) != n_rows:
        raise ModelSchemaError(
            f"matrix: {n_rows} rows against {sum(row_sizes)} domain labels"
        )
    if sum(col_sizes) != n_cols:
        raise ModelSchemaError(
            f"matrix: {n_cols} columns against {sum(col_sizes)} range labels"
        )

    pol = doc["policy"]
    _fields(pol, "policy", ("domain", "range", "first_step"))
    fs = pol["first_step"]
    _fields(fs, "policy.first_step", ("mode", "cmp", "cutoff"))
    if fs["mode"] not in _MODES:
        raise ModelSchemaError(
            f"policy.first_step.mode: must be one of {_MODES}, got {fs['mode']!r}"
        )
    policy = ThresholdPolicy(
        domain_rule=_parse_rule(pol["domain"], "policy.domain"),
        range_rule=_parse_rule(pol["range"], "policy.range"),
        first_step_rule=_parse_rule(fs, "policy.first_step", ("mode",)),
        first_step_mode=FirstStepMode(fs["mode"]),
    )

    description = doc.get("description", "")
    if not isinstance(description, str):
        raise ModelSchemaError("description: must be a string")

    # the checked rows go to SuperMatrix as lists: its copy is the only one
    parts = Partition(row_sizes), Partition(col_sizes)
    try:
        grid = SuperMatrix(matrix, *parts)
    except OverflowError:
        grid = SuperMatrix([[_float(v) for v in row] for row in matrix], *parts)

    spec = ModelSpec(
        name=doc["name"],
        kind=kind,
        domain_labels=domain_blocks,
        range_labels=range_blocks,
        matrix=grid,
        entry_domain=EntryDomain(ed),
        policy=policy,
        description=description,
    )
    spec.require_valid()
    return spec


# --- run reports -------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Machine-friendly record of one hidden-pattern run of ``spec``."""

    spec: ModelSpec
    seed: StateVector
    pattern: HiddenPattern
    policy: ThresholdPolicy
    include_trace: bool = False

    def on_labels(self, state: StateVector) -> tuple[str, ...]:
        labels = self.spec.labels_flat(state.side)
        return tuple(labels[i] for i in state.on_indices)


def build_report(
    spec: ModelSpec,
    seed: StateVector,
    pattern: HiddenPattern,
    policy: ThresholdPolicy,
    include_trace: bool = False,
) -> RunReport:
    return RunReport(spec, seed, pattern, policy, include_trace)


def _arr(items, pad: str, ends: str = "[]") -> str:
    """The encoded ``items`` as ``json.dumps`` lays out a list at an indent
    of 2, closed at indent ``pad``; ``ends="{}"`` lays out an object."""
    body = f",\n  {pad}".join(items)
    return f"{ends[0]}\n  {pad}{body}\n{pad}{ends[1]}" if body else ends


def _obj(pad: str, /, **members: str) -> str:
    """As :func:`_arr`, for an object of encoded member values."""
    return _arr([f"{_str(k)}: {v}" for k, v in members.items()], pad, "{}")


def _json(value, pad: str = "") -> str:
    """What ``json.dumps`` writes at an indent of 2 for dicts with string
    keys, lists, tuples and scalars, closed at indent ``pad``."""
    if isinstance(value, str):
        return _str(value)
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return _obj(pad, **{k: _json(v, pad + "  ") for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return _arr([_json(v, pad + "  ") for v in value], pad)
    # true, false, null, NaN, Infinity and -Infinity; any other type raises
    return json.dumps(value)


def _state_text(state: StateVector, spec: ModelSpec, pad: str) -> str:
    labels = spec.labels_flat(state.side)
    return _obj(
        pad,
        side=_str(state.side.value),
        bits=_arr(map(_BIT.__getitem__, state.bits), pad + "  "),
        blocked=_str(state.blocked_str()),
        on=_arr([_str(labels[i]) for i in state.on_indices], pad + "  "),
    )


def _pattern_text(pattern: HiddenPattern, spec: ModelSpec, pad: str) -> str:
    """A report's ``pattern`` block, naming ``spec``'s labels."""
    pairs = []
    for d, r in pattern.pair_sequence:
        domain = _state_text(d, spec, pad + "      ")
        # a one-sided pattern holds the same state in both slots
        rng = domain if r is d else _state_text(r, spec, pad + "      ")
        pairs.append(_obj(pad + "    ", domain=domain, range=rng))
    return _obj(
        pad,
        kind=_str(pattern.kind.value),
        period=str(pattern.period),
        steps_to_enter=str(pattern.steps_to_enter),
        pairs=_arr(pairs, pad + "  "),
    )


def report_to_dict(report: RunReport) -> dict:
    """The report as :func:`serialize_report` writes it."""
    return json.loads(serialize_report(report))


def serialize_report(report: RunReport) -> str:
    """Canonical JSON text for a run report (byte-stable)."""
    pat, seed = report.pattern, report.seed
    labels = map(_str, report.on_labels(seed))
    members = dict(
        report_version=str(REPORT_VERSION),
        model=_str(report.spec.name),
        seed=_obj("  ", side=_str(seed.side.value), labels=_arr(labels, "    ")),
        policy=_json(report.policy.as_dict(), "  "),
        pattern=_pattern_text(pat, report.spec, "  "),
    )
    if report.include_trace and pat.trace is not None:
        # a trace repeats few sums: each is written once
        number = _Memo(lambda x: _json(_plain(x))).__getitem__
        steps = [
            _obj(
                "    ",
                step=str(rec.step_index),
                produced_side=_str(rec.produced_side.value),
                rule=_json(rec.rule_applied.as_dict(), "      "),
                raw=_arr(map(number, rec.raw), "      "),
                thresholded=_arr(map(_BIT.__getitem__, rec.thresholded), "      "),
                after_update=_arr(map(_BIT.__getitem__, rec.after_update), "      "),
            )
            for rec in pat.trace
        ]
        members["steps"] = _arr(steps, "  ")
    return _obj("", **members) + "\n"


def report_to_text(report: RunReport) -> str:
    """Human-oriented rendering of a run report."""
    pat = report.pattern
    lines = [
        f"model: {report.spec.name}",
        f"seed:  {', '.join(report.on_labels(report.seed)) or '(none)'} "
        f"[{report.seed.side.value}]",
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
    if pat.kind is PatternKind.FIXED_POINT:
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
    Output is deterministic row-major text.  An invalid ``spec`` raises
    :class:`ModelValidationError`, as in :func:`serialize_model`.
    """
    spec.require_valid()
    # DOT has no \u escape: names and labels are written as they are
    lines = [f"digraph {_str_utf8(spec.name or 'model')} {{"]
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
                lines.append(f"    {prefix}{off + i} [label={_str_utf8(lab)}];")
            lines.append("  }")
    src_prefix = "n" if spec.one_sided else "d"
    dst_prefix = "n" if spec.one_sided else "r"
    attrs = _Memo(
        lambda w: f"label={_str(_num(w))}" + (", style=dashed" if w < 0 else "")
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


_FIXTURE_DIR = resources.files(__package__) / "fixtures"


def fixture_text(name: str) -> str:
    """Raw canonical bytes of a bundled fixture document."""
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    return (_FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")


def load_fixture(name: str) -> ModelSpec:
    """Parse one of the bundled connection-matrix fixtures."""
    return parse_model(fixture_text(name))
