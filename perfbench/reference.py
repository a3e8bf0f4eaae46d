"""Plain-numpy reference for checking every benchmark output.

Nothing here calls fuzzymaps.  Models are read straight from their JSON
documents, the threshold dynamics are re-implemented from the README's
description in exact int64 arithmetic, and the engine's answers are
compared with this reference as plain tuples of bits.

The semantics reproduced:

* a domain state multiplies forward (``x @ M``), a range state backward
  (``M @ x``); a one-sided (``fcm``) model always multiplies forward and
  stays on its side;
* the first product of a run uses the first-step rule under mode
  ``always``, or under ``auto`` when the seed has exactly one node on;
  every other product uses the rule of the side it produces;
* a state produced on the seed's side has the seed's nodes forced on;
* a run stops when a seed-side state recurs, counting rounds from the
  first completed one; the gap is the period.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

Bits = tuple  # tuple of 0/1 ints, one per node


class CheckError(Exception):
    """An output of the program disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass(frozen=True)
class Rule:
    cmp: str
    cutoff: float

    def apply(self, raw: np.ndarray) -> np.ndarray:
        hit = raw >= self.cutoff if self.cmp == "ge" else raw > self.cutoff
        return hit.astype(np.uint8)


@dataclass(frozen=True)
class Policy:
    domain: Rule
    range: Rule
    first: Rule
    first_mode: str

    def side_rule(self, side: str) -> Rule:
        return self.domain if side == "domain" else self.range

    def with_overrides(self, overrides) -> "Policy":
        """Apply CLI overrides: ``(key, value)`` pairs, key ``domain``,
        ``range`` (``cmp:cutoff``) or ``first_step`` (a mode or a rule,
        which the CLI then applies to every run's first product)."""
        given = dict(overrides)
        domain = _rule_arg(given["domain"]) if "domain" in given else self.domain
        range_ = _rule_arg(given["range"]) if "range" in given else self.range
        first, mode = self.first, self.first_mode
        step = given.get("first_step")
        if step in ("auto", "never", "always"):
            mode = step
        elif step:
            first, mode = _rule_arg(step), "always"
        return Policy(domain, range_, first, mode)


def _rule_arg(text: str) -> Rule:
    cmp, cutoff = text.split(":")
    return Rule(cmp, float(cutoff))


@dataclass(frozen=True)
class Model:
    """A model document read with ``json`` alone."""

    name: str
    kind: str
    matrix: np.ndarray  # int64
    domain_blocks: tuple
    range_blocks: tuple
    policy: Policy

    @property
    def one_sided(self) -> bool:
        return self.kind == "fcm"

    def labels(self, side: str) -> tuple:
        blocks = self.domain_blocks if side == "domain" else self.range_blocks
        return tuple(lab for blk in blocks for lab in blk)

    def sizes(self, side: str) -> tuple:
        blocks = self.domain_blocks if side == "domain" else self.range_blocks
        return tuple(len(b) for b in blocks)

    def width(self, side: str) -> int:
        return self.matrix.shape[0 if side == "domain" else 1]


def load_model(text: str) -> Model:
    doc = json.loads(text)
    rows = doc["matrix"]
    matrix = np.array(rows, dtype=np.float64)
    require(
        np.array_equal(matrix, np.round(matrix)),
        f"{doc['name']}: the reference needs integer entries",
    )
    pol = doc["policy"]
    fs = pol["first_step"]
    policy = Policy(
        Rule(pol["domain"]["cmp"], float(pol["domain"]["cutoff"])),
        Rule(pol["range"]["cmp"], float(pol["range"]["cutoff"])),
        Rule(fs["cmp"], float(fs["cutoff"])),
        fs["mode"],
    )
    return Model(
        name=doc["name"],
        kind=doc["kind"],
        matrix=matrix.astype(np.int64),
        domain_blocks=tuple(tuple(b) for b in doc["domain"]["blocks"]),
        range_blocks=tuple(tuple(b) for b in doc["range"]["blocks"]),
        policy=policy,
    )


# --- runs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """The reference result of one run.

    ``cycle`` holds the seed-side states of the cycle, starting at the
    first state that recurs.  ``products`` holds every product's state
    after seed forcing.  A run that hits ``max_steps`` has ``period`` 0.
    """

    period: int
    steps_to_enter: int
    cycle: tuple
    products: tuple

    @property
    def step_limited(self) -> bool:
        return self.period == 0


def _product(model: Model, x: np.ndarray, side: str) -> tuple[np.ndarray, str]:
    if model.one_sided:
        return x @ model.matrix, side
    if side == "domain":
        return x @ model.matrix, "range"
    return model.matrix @ x, "domain"


def reference_run(
    model: Model,
    side: str,
    on: Sequence[int],
    policy: Policy,
    max_steps: int = 10_000,
) -> Outcome:
    seed = np.zeros(model.width(side), dtype=np.uint8)
    seed[list(on)] = 1
    first_applies = policy.first_mode == "always" or (
        policy.first_mode == "auto" and int(seed.sum()) == 1
    )
    x, x_side = seed.astype(np.int64), side
    products: list[Bits] = []
    rounds: list[Bits] = []
    seen: dict[Bits, int] = {}
    for k in range(1, max_steps + 1):
        raw, out_side = _product(model, x, x_side)
        if k == 1 and first_applies:
            rule = policy.first
        else:
            rule = policy.side_rule(out_side)
        y = rule.apply(raw)
        if out_side == side:
            y |= seed
        state = tuple(int(b) for b in y)
        products.append(state)
        x, x_side = y.astype(np.int64), out_side
        if out_side != side:
            continue
        if state in seen:
            j = seen[state]
            return Outcome(
                period=len(rounds) - j,
                steps_to_enter=j,
                cycle=tuple(rounds[j:]),
                products=tuple(products),
            )
        seen[state] = len(rounds)
        rounds.append(state)
    return Outcome(0, 0, (), tuple(products))


@dataclass(frozen=True)
class Pattern:
    """What the program reported for one run, as plain values."""

    kind: str
    period: int
    steps_to_enter: int
    pairs: tuple  # ((domain bits, range bits), ...)
    products: Optional[tuple] = None  # after-update bits per product, if traced


def pattern_from_engine(hp) -> Pattern:
    """Project a ``HiddenPattern`` to plain values."""
    trace = None
    if hp.trace is not None:
        trace = tuple(tuple(rec.after_update) for rec in hp.trace)
    return Pattern(
        kind=hp.kind.value,
        period=hp.period,
        steps_to_enter=hp.steps_to_enter,
        pairs=tuple((tuple(d.bits), tuple(r.bits)) for d, r in hp.pair_sequence),
        products=trace,
    )


def pattern_from_json(pat: dict, steps: Optional[list] = None) -> Pattern:
    """Project the ``pattern`` (and ``steps``) of a JSON run report."""
    trace = None
    if steps is not None:
        trace = tuple(tuple(s["after_update"]) for s in steps)
    return Pattern(
        kind=pat["kind"],
        period=pat["period"],
        steps_to_enter=pat["steps_to_enter"],
        pairs=tuple(
            (tuple(p["domain"]["bits"]), tuple(p["range"]["bits"]))
            for p in pat["pairs"]
        ),
        products=trace,
    )


def _forced(bits: np.ndarray, seed: Bits) -> Bits:
    return tuple(int(b) | s for b, s in zip(bits, seed))


def check_cycle(
    model: Model, side: str, seed: Bits, policy: Policy, pattern: Pattern
) -> None:
    """The reported cycle closes under one round of the map, minimally.

    Each pair is (domain state, range state).  Following the pairs in
    order, every product of the stationary map (seed forcing on the seed's
    side) must give the next member, wrapping from the last pair to the
    first, and the seed-side states must all differ, so the period is the
    smallest one.
    """
    p = len(pattern.pairs)
    require(p >= 1 and p == pattern.period, f"period {pattern.period} with {p} pairs")
    expect_kind = "fixed_point" if p == 1 else "limit_cycle"
    require(pattern.kind == expect_kind, f"kind {pattern.kind} for period {p}")
    M = model.matrix
    dom, rng = policy.domain, policy.range
    for t, (d, r) in enumerate(pattern.pairs):
        d_next = pattern.pairs[(t + 1) % p][0]
        dv, rv = np.array(d, dtype=np.int64), np.array(r, dtype=np.int64)
        if model.one_sided:
            require(d == r, "one-sided pair members differ")
            got = _forced(policy.side_rule(side).apply(dv @ M), seed)
            require(got == d_next, f"cycle does not close at position {t}")
        elif side == "domain":
            require(tuple(int(b) for b in rng.apply(dv @ M)) == r,
                    f"range member {t} is not the product of its domain member")
            require(_forced(dom.apply(M @ rv), seed) == d_next,
                    f"cycle does not close at position {t}")
        else:
            require(_forced(rng.apply(dv @ M), seed) == r,
                    f"range member {t} is not the product of its domain member")
            require(tuple(int(b) for b in dom.apply(M @ rv)) == d_next,
                    f"cycle does not close at position {t}")
    seed_side = [pair[0 if side == "domain" else 1] for pair in pattern.pairs]
    require(len(set(seed_side)) == p, f"period {p} is not minimal")


def _is_rotation(a: Sequence, b: Sequence) -> bool:
    return len(a) == len(b) and any(
        list(a[i:]) + list(a[:i]) == list(b) for i in range(len(a))
    )


def check_run(
    model: Model,
    side: str,
    on: Sequence[int],
    policy: Policy,
    pattern: Pattern,
    expected: Outcome,
) -> None:
    """A reported pattern is the one this seed reaches."""
    require(not expected.step_limited, "the reference found no recurrence")
    seed = tuple(1 if i in set(on) else 0 for i in range(model.width(side)))
    check_cycle(model, side, seed, policy, pattern)
    require(pattern.period == expected.period,
            f"period {pattern.period}, reference {expected.period}")
    require(pattern.steps_to_enter == expected.steps_to_enter,
            f"entered after {pattern.steps_to_enter} rounds, "
            f"reference {expected.steps_to_enter}")
    seed_side = [pair[0 if side == "domain" else 1] for pair in pattern.pairs]
    require(_is_rotation(seed_side, expected.cycle), "cycle states differ")
    if pattern.products is not None:
        require(pattern.products == expected.products, "trace differs")


# --- censuses -----------------------------------------------------------------


def round_masks(model: Model, side: str, policy: Policy, masks: np.ndarray) -> np.ndarray:
    """Unforced stationary round for each seed-side bitmask (bit i = node i)."""
    n = model.width(side)
    out = np.empty(masks.shape[0], dtype=np.int64)
    weights = np.int64(1) << np.arange(n, dtype=np.int64)
    M = model.matrix
    for start in range(0, masks.shape[0], 1 << 15):
        chunk = masks[start : start + (1 << 15)]
        x = (chunk[:, None] >> np.arange(n, dtype=np.int64)) & 1
        if model.one_sided:
            y = policy.side_rule(side).apply(x @ M)
        elif side == "domain":
            y = policy.domain.apply(policy.range.apply(x @ M) @ M.T)
        else:
            y = policy.range.apply(policy.domain.apply(x @ M.T) @ M)
        out[start : start + chunk.shape[0]] = y.astype(np.int64) @ weights
    return out


def mask_of(bits: Sequence[int]) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


@dataclass(frozen=True)
class Census:
    """What the program reported for one census, as plain arrays.

    Attractor ``k`` has kind ``kinds[k]``, period ``periods[k]``, basin
    size ``basins[k]`` and its cycle's state masks in ``states`` from
    ``starts[k]`` on.  ``assignment`` maps seed masks to attractors when the
    program reports it.
    """

    n: int
    total: int
    kinds: list
    periods: np.ndarray
    basins: np.ndarray
    lengths: np.ndarray  # number of states listed per attractor
    starts: np.ndarray
    states: np.ndarray
    assignment: Optional[np.ndarray] = None

    def cycle(self, k: int) -> tuple:
        start = int(self.starts[k])
        return tuple(int(x) for x in self.states[start : start + int(self.lengths[k])])


def _census(n, total, rows, assignment=None) -> Census:
    """``rows`` yields (kind, period, basin, state masks) per attractor."""
    kinds, periods, basins, lengths, states = [], [], [], [], []
    for kind, period, basin, cyc in rows:
        kinds.append(kind)
        periods.append(period)
        basins.append(basin)
        lengths.append(len(cyc))
        states.extend(cyc)
    lengths_a = np.array(lengths, dtype=np.int64)
    return Census(
        n, total, kinds,
        np.array(periods, dtype=np.int64), np.array(basins, dtype=np.int64),
        lengths_a, np.concatenate(([0], np.cumsum(lengths_a)[:-1])).astype(np.int64),
        np.array(states, dtype=np.int64), assignment,
    )


def census_from_engine(census) -> Census:
    rows = ((a.kind.value, a.period, a.basin_size, a.states) for a in census.attractors)
    return _census(census.partition.total, census.n_seeds, rows,
                   np.asarray(census.assignment))


def census_from_json(payload: dict) -> Census:
    rows = (
        (a["kind"], a["period"], a["basin_size"], [mask_of(b) for b in a["states"]])
        for a in payload["attractors"]
    )
    return _census(payload["nodes"], payload["total_seeds"], rows)


def census_rows(census: Census) -> list:
    """Order-free listing of the attractors, for digests."""
    return sorted(
        (list(census.cycle(k)), int(census.basins[k]), census.kinds[k])
        for k in range(len(census.kinds))
    )


def check_census(model: Model, side: str, census: Census, samples: dict) -> None:
    """Basins cover every seed once, cycles close, sampled seeds agree.

    ``samples`` maps seed masks to the reference cycle (canonical masks)
    each one reaches.
    """
    n = model.width(side)
    total = 1 << n
    require(census.n == n and census.total == total,
            f"{census.total} seeds over {census.n} nodes, expected 2^{n}")
    periods, basins, states = census.periods, census.basins, census.states
    require(int(basins.sum()) == total,
            f"basin sizes sum to {int(basins.sum())}, expected {total}")
    require(bool((basins > 0).all()), "an attractor has an empty basin")
    require(np.array_equal(census.lengths, periods) and bool((periods >= 1).all()),
            "a period differs from its cycle's length")
    fixed = np.array([k == "fixed_point" for k in census.kinds])
    cycles = np.array([k == "limit_cycle" for k in census.kinds])
    require(bool((fixed == (periods == 1)).all() and (fixed | cycles).all()),
            "a kind disagrees with its period")
    starts = census.starts
    require(np.array_equal(states[starts], np.minimum.reduceat(states, starts)),
            "a cycle does not start at its smallest state")
    for k in np.flatnonzero(periods > 1):
        require(len(set(census.cycle(k))) == periods[k], f"attractor {k}: period not minimal")
    follow = np.arange(1, states.shape[0] + 1)
    follow[starts + periods - 1] = starts
    nxt = states[follow]
    image = round_masks(model, side, model.policy, states)
    if census.assignment is not None:
        require(census.assignment.shape[0] == total, "assignment length")
        counts = np.bincount(census.assignment, minlength=len(census.kinds))
        require(np.array_equal(counts, basins), "basin sizes disagree with assignment")
        # close under the map forced by a seed of the attractor's own basin
        _, first_seed = np.unique(census.assignment, return_index=True)
        reps = np.repeat(first_seed.astype(np.int64), periods)
        require(bool(((image | reps) == nxt).all()),
                "a cycle does not close under its seed's map")
        for seed_mask, cycle in samples.items():
            require(census.cycle(int(census.assignment[seed_mask])) == cycle,
                    f"seed {seed_mask} assigned to the wrong attractor")
        return
    # close under the map forced by some seed: the seed bits a cycle needs
    # must sit inside every state of the cycle
    require(bool(((image & ~nxt) == 0).all()), "a cycle does not close")
    need = np.bitwise_or.reduceat(nxt & ~image, starts)
    require(bool(((np.repeat(need, periods) & ~nxt) == 0).all()),
            "a cycle does not close under any seed")
    listed = {census.cycle(k) for k in range(len(census.kinds))}
    for seed_mask, cycle in samples.items():
        require(cycle in listed, f"seed {seed_mask}: reference cycle missing")


def canonical(cycle: Sequence[int]) -> tuple:
    k = list(cycle).index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def sample_cycles(model: Model, side: str, seeds: Sequence[int]) -> dict:
    """Reference cycle (canonical masks) reached by each seed mask."""
    n = model.width(side)
    out = {}
    for s in seeds:
        on = [i for i in range(n) if (s >> i) & 1]
        res = reference_run(model, side, on, model.policy, max_steps=4 * (1 << n) + 4)
        out[s] = canonical([mask_of(c) for c in res.cycle])
    return out
