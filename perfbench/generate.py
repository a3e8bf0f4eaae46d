"""Seeded generation of model documents in the canonical fuzzymaps format.

Only the standard library is used, so documents can be built before the
package (and numpy) is imported and the set-up timing starts clean.
``random.Random`` with an integer seed gives the same stream on every
supported Python, so one seed always yields byte-identical documents.

Every synthetic entry is -1, 0 or 1: the sums the engine forms are then
small integers, exact in floating point whatever the summation order.
"""

from __future__ import annotations

import json
import random

GT0 = {"cmp": "gt", "cutoff": 0}


def _jstr(s: str) -> str:
    return json.dumps(s, ensure_ascii=True)


def _rule(rule: dict) -> str:
    return '{"cmp": %s, "cutoff": %s}' % (_jstr(rule["cmp"]), rule["cutoff"])


def model_doc(
    name: str,
    kind: str,
    domain_blocks: list[list[str]],
    range_blocks: list[list[str]],
    rows: list[list[int]],
    domain_rule: dict = GT0,
    range_rule: dict = GT0,
    description: str = "",
) -> str:
    """Canonical document text, written independently of the package."""
    out = ["{", '  "format_version": 1,', f'  "name": {_jstr(name)},']
    out.append(f'  "kind": {_jstr(kind)},')
    out.append('  "entry_domain": "signed_ternary",')
    for key, blocks in (("domain", domain_blocks), ("range", range_blocks)):
        out.append(f'  "{key}": {{"blocks": [')
        for i, blk in enumerate(blocks):
            comma = "," if i + 1 < len(blocks) else ""
            out.append("    [" + ", ".join(_jstr(x) for x in blk) + "]" + comma)
        out.append("  ]},")
    out.append('  "matrix": [')
    for i, row in enumerate(rows):
        comma = "," if i + 1 < len(rows) else ""
        out.append("    [" + ", ".join(map(str, row)) + "]" + comma)
    out.append("  ],")
    out.append('  "policy": {')
    out.append('    "domain": ' + _rule(domain_rule) + ",")
    out.append('    "range": ' + _rule(range_rule) + ",")
    out.append('    "first_step": {"mode": "auto", "cmp": "gt", "cutoff": 0}')
    if description:
        out.append("  },")
        out.append(f'  "description": {_jstr(description)}')
    else:
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def ternary_rows(
    rng: random.Random,
    n_rows: int,
    n_cols: int,
    mean_degree: float,
    no_diagonal: bool = False,
) -> list[list[int]]:
    """Rows with about ``mean_degree`` nonzero (+1 or -1) entries each."""
    rows = [[0] * n_cols for _ in range(n_rows)]
    nnz = round(mean_degree * n_rows)
    cells = rng.sample(range(n_rows * n_cols), min(nnz * 2, n_rows * n_cols))
    placed = 0
    for cell in cells:
        i, j = divmod(cell, n_cols)
        if no_diagonal and i == j:
            continue
        rows[i][j] = rng.choice((-1, 1))
        placed += 1
        if placed == nnz:
            break
    return rows


def split_sizes(rng: random.Random, total: int, n_blocks: int) -> list[int]:
    """``n_blocks`` positive block widths summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), n_blocks - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _labelled(prefix: str, sizes: list[int]) -> list[list[str]]:
    out, k = [], 0
    for size in sizes:
        out.append([f"{prefix}{k + i + 1}" for i in range(size)])
        k += size
    return out


def random_fcm(rng: random.Random, name: str, n: int, mean_degree: float) -> str:
    labels = [[f"C{i + 1}" for i in range(n)]]
    rows = ternary_rows(rng, n, n, mean_degree, no_diagonal=True)
    return model_doc(
        name, "fcm", labels, labels, rows,
        description=f"random signed-ternary FCM, n={n}",
    )


def random_super_frm(
    rng: random.Random,
    name: str,
    n_rows: int,
    n_cols: int,
    row_blocks: int,
    col_blocks: int,
    mean_degree: float,
) -> str:
    domain = _labelled("x", split_sizes(rng, n_rows, row_blocks))
    rng_side = _labelled("y", split_sizes(rng, n_cols, col_blocks))
    rows = ternary_rows(rng, n_rows, n_cols, mean_degree)
    return model_doc(name, "super_frm", domain, rng_side, rows)


def run_length(
    rows: list[list[int]], side: str, on: tuple, limit: int, one_sided: bool
) -> int:
    """Products a run from seed ``on`` takes until a seed-side state recurs.

    The dynamics of ``reference.reference_run`` for documents written here,
    whose every rule is ``gt 0``: a domain state multiplies forward, a range
    state backward, one-sided maps stay on their side, and states on the
    seed's side have the seed forced on.  Returns 0 when no state recurs
    within ``limit`` products.  Sparse and standard-library only, so
    workloads can pick their inputs by cost before the package is imported.
    """
    forward = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    backward = [[] for _ in rows[0]]
    for i, adj in enumerate(forward):
        for j, v in adj:
            backward[j].append((i, v))
    seed = frozenset(on)
    x, x_side, seen = seed, side, set()
    for k in range(1, limit + 1):
        if one_sided or x_side == "domain":
            adj, y_side = forward, x_side if one_sided else "range"
        else:
            adj, y_side = backward, "domain"
        raw: dict = {}
        for i in x:
            for j, v in adj[i]:
                raw[j] = raw.get(j, 0) + v
        y = frozenset(j for j, s in raw.items() if s > 0)
        if y_side == side:
            y |= seed
            if y in seen:
                return k
            seen.add(y)
        x, x_side = y, y_side
    return 0
