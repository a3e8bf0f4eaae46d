"""Model kinds binding labels, connection matrix, entry domain and policy.

A model fixes the orientation convention once and for all: matrix rows are
the domain side, columns the range side.  Kinds are classified structurally
from the two partitions, never from prose names.
"""

from __future__ import annotations

import difflib
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional

from .dynamics import (
    HiddenPattern,
    Side,
    StateVector,
    ThresholdPolicy,
    run_hidden_pattern,
    _num,
    _side_partition,
    DEFAULT_MAX_STEPS,
)
from .errors import IndexOutOfRange, ModelValidationError, UnknownLabel, WrongSide
from .supermatrix import (
    EntryDomain,
    Kind,
    Partition,
    SuperMatrix,
    check_entry_domain,
    classify,
)

__all__ = [
    "ModelKind",
    "ModelSpec",
    "Diagnostic",
    "validate_model",
    "seed_from_labels",
    "run_model",
    "describe",
]


class ModelKind(str, Enum):
    FCM = "fcm"
    FRM = "frm"
    SUPER_ROW_FRM = "super_row_frm"
    SUPER_COLUMN_FRM = "super_column_frm"
    SUPER_FRM = "super_frm"


@dataclass(frozen=True)
class ModelSpec:
    """A runnable model: labels, connection matrix, entry domain, policy."""

    name: str
    kind: ModelKind
    domain_labels: tuple[tuple[str, ...], ...]
    range_labels: tuple[tuple[str, ...], ...]
    matrix: SuperMatrix
    entry_domain: EntryDomain
    policy: ThresholdPolicy
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "entry_domain", EntryDomain(self.entry_domain))
        object.__setattr__(
            self,
            "domain_labels",
            tuple(tuple(b) for b in self.domain_labels),
        )
        object.__setattr__(
            self,
            "range_labels",
            tuple(tuple(b) for b in self.range_labels),
        )

    @property
    def one_sided(self) -> bool:
        return self.kind is ModelKind.FCM

    @cached_property
    def _flat_labels(self) -> dict[Side, tuple[str, ...]]:
        return {
            side: tuple(label for blk in blocks for label in blk)
            for side, blocks in (
                (Side.DOMAIN, self.domain_labels),
                (Side.RANGE, self.range_labels),
            )
        }

    @cached_property
    def _label_indices(self) -> dict[Side, dict[str, int]]:
        return {
            side: {label: i for i, label in enumerate(flat)}
            for side, flat in self._flat_labels.items()
        }

    def labels_flat(self, side: Side) -> tuple[str, ...]:
        """One side's labels in node order, built on first read only."""
        return self._flat_labels[Side(side)]

    def label_index(self, side: Side) -> dict[str, int]:
        """One side's node index by label, built on first read only; the
        caller must not change it."""
        return self._label_indices[Side(side)]

    def side_partition(self, side: Side) -> Partition:
        return _side_partition(self.matrix, Side(side))

    @cached_property
    def diagnostics(self) -> tuple["Diagnostic", ...]:
        """:func:`validate_model` of this spec, computed on first read only."""
        return validate_model(self)

    def require_valid(self) -> None:
        """Raise :class:`ModelValidationError` naming every diagnostic."""
        if self.diagnostics:
            raise ModelValidationError("; ".join(str(p) for p in self.diagnostics))


@dataclass(frozen=True)
class Diagnostic:
    """One violated invariant, pinned to a location in the model."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.location}: {self.message}"


# the relational model kind that each partition structure implies
_RELATIONAL_KIND = {
    Kind.SIMPLE: ModelKind.FRM,
    Kind.SUPER_ROW: ModelKind.SUPER_ROW_FRM,
    Kind.SUPER_COLUMN: ModelKind.SUPER_COLUMN_FRM,
    Kind.GENERAL_SUPER: ModelKind.SUPER_FRM,
}
# C0 control characters, which DOT can neither hold nor escape
_CONTROL = re.compile("[\x00-\x1f]").search
# lone surrogates, which no UTF-8 writer can encode
_SURROGATE = re.compile("[\ud800-\udfff]").search
# either of the two, so a valid label block takes one search
_UNWRITABLE = re.compile("[\x00-\x1f\ud800-\udfff]").search
# the most characters a label may hold
_MAX_LABEL = 64


def validate_model(spec: ModelSpec) -> tuple[Diagnostic, ...]:
    """Report every violated invariant; an empty result means ok."""
    out: list[Diagnostic] = []
    m = spec.matrix
    structure = classify(m)

    if _CONTROL(spec.name):
        out.append(
            Diagnostic("name_control", "name", "must not hold a control character")
        )
    if _SURROGATE(spec.name):
        out.append(
            Diagnostic("lone_surrogate", "name", "must not hold a lone surrogate")
        )
    for side, blocks, part in (
        ("domain", spec.domain_labels, m.row_partition),
        ("range", spec.range_labels, m.col_partition),
    ):
        for i, blk in enumerate(blocks):
            # one test of the block's longest label and one search of its
            # joined labels; only a block failing either is walked
            joined = "".join(blk)
            if max(map(len, blk), default=0) <= _MAX_LABEL and not _UNWRITABLE(joined):
                continue
            for lab in blk:
                for code, what, bad in (
                    ("label_length", "longer than 64 characters", len(lab) > _MAX_LABEL),
                    ("label_control", "holds a control character", _CONTROL(lab)),
                    ("lone_surrogate", "holds a lone surrogate", _SURROGATE(lab)),
                ):
                    if bad:
                        where, text = f"{side}.blocks[{i}]", f"label {lab!r} {what}"
                        out.append(Diagnostic(code, where, text))
        if len(blocks) != part.n_blocks:
            out.append(
                Diagnostic(
                    "label_blocks",
                    f"{side}.blocks",
                    f"{len(blocks)} label blocks against {part.n_blocks} "
                    "partition blocks",
                )
            )
        else:
            for i, (blk, size) in enumerate(zip(blocks, part.sizes)):
                if len(blk) != size:
                    out.append(
                        Diagnostic(
                            "label_block_size",
                            f"{side}.blocks[{i}]",
                            f"{len(blk)} labels against block width {size}",
                        )
                    )
        flat = list(chain.from_iterable(blocks))
        if len(set(flat)) != len(flat):
            dupes = sorted(x for x, c in Counter(flat).items() if c > 1)
            out.append(
                Diagnostic(
                    "duplicate_labels",
                    f"{side}.blocks",
                    "labels repeat: " + ", ".join(dupes),
                )
            )

    for i, j, v in check_entry_domain(m, spec.entry_domain):
        out.append(
            Diagnostic(
                "entry_domain",
                f"matrix[{i}][{j}]",
                f"entry {_num(v)} outside {spec.entry_domain.value}",
            )
        )

    if spec.kind is ModelKind.FCM:
        if not structure.square:
            out.append(
                Diagnostic(
                    "fcm_square",
                    "matrix",
                    f"fcm needs a square matrix, got {m.n_rows}x{m.n_cols}",
                )
            )
        if structure.kind is not Kind.SIMPLE:
            out.append(
                Diagnostic(
                    "fcm_partitions",
                    "matrix",
                    "fcm needs trivial partitions on both axes",
                )
            )
        if spec.domain_labels != spec.range_labels:
            out.append(
                Diagnostic(
                    "fcm_labels",
                    "range.blocks",
                    "fcm needs identical domain and range labels",
                )
            )
    else:
        expected = _RELATIONAL_KIND[structure.kind]
        if spec.kind is not expected:
            out.append(
                Diagnostic(
                    "kind_partitions",
                    "kind",
                    f"partitions imply {expected.value}, declared {spec.kind.value}",
                )
            )
    return tuple(out)


def seed_from_labels(
    spec: ModelSpec, labels: Iterable[str], side: Side
) -> StateVector:
    """Binary state with exactly the named coordinates on (set semantics).

    A node is named by label, 1-based index (``"3"``) or ``block.position``
    (``"2.3"``), a label first.  A name off the side raises
    :class:`IndexOutOfRange`, :class:`WrongSide` or :class:`UnknownLabel`.
    """
    side = Side(side)
    index = spec.label_index(side)
    part = spec.side_partition(side)
    on: set[int] = set()
    for name in labels:
        if name in index:
            on.add(index[name])
            continue
        qualified = name.split(".")
        if len(qualified) == 2 and all(p.isdecimal() for p in qualified):
            b, p = int(qualified[0]), int(qualified[1])
            if not (1 <= b <= part.n_blocks and 1 <= p <= part.sizes[b - 1]):
                raise IndexOutOfRange(
                    f"block position {name!r} out of range for {side.value} "
                    f"blocks {list(part.sizes)}"
                )
            on.add(part.offsets[b - 1] + p - 1)
        elif name.isdecimal():
            if not 1 <= int(name) <= part.total:
                raise IndexOutOfRange(
                    f"index {name} out of range; {side.value} side has "
                    f"{part.total} nodes"
                )
            on.add(int(name) - 1)
        elif name in spec.label_index(side.opposite) and not spec.one_sided:
            raise WrongSide(f"label {name!r} lives on the {side.opposite.value} side")
        else:
            flat = spec.labels_flat(side)
            near = difflib.get_close_matches(name, flat, n=3, cutoff=0.4)
            hint = f"; near matches: {', '.join(near)}" if near else ""
            raise UnknownLabel(f"unknown {side.value} label {name!r}{hint}")
    return StateVector.from_on_indices(sorted(on), side, part)


def run_model(
    spec: ModelSpec,
    seed: StateVector,
    policy: Optional[ThresholdPolicy] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> HiddenPattern:
    """Run the hidden-pattern engine under ``policy or spec.policy``.

    An invalid ``spec`` raises :class:`ModelValidationError`.  The spec is
    validated at most once in its life (:attr:`ModelSpec.diagnostics`), so
    a spec from :func:`~fuzzymaps.model_io.parse_model` is not validated
    again here.  The pattern carries the trace of every product.
    """
    spec.require_valid()
    return run_hidden_pattern(
        spec.matrix,
        seed,
        policy or spec.policy,
        max_steps=max_steps,
        one_sided=spec.one_sided,
    )


def describe(spec: ModelSpec) -> dict:
    """Machine-readable summary with a stable field order."""
    return {
        "name": spec.name,
        "kind": spec.kind.value,
        "rows": spec.matrix.n_rows,
        "cols": spec.matrix.n_cols,
        "row_blocks": list(spec.matrix.row_partition.sizes),
        "col_blocks": list(spec.matrix.col_partition.sizes),
        "entry_domain": spec.entry_domain.value,
        "policy": spec.policy.as_dict(),
    }
