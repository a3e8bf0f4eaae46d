"""The three workloads: their models and one round of their operation mix.

Everything here is plain data built from the workload seed with the
standard library, so the same seed always gives the same documents and
the same operations.  ``child.py`` times the operations and checks them.

Why each workload exists (see README.md for the full map):

* ``paper_cli``: the seven bundled fixtures through ``cli.main``, the way
  the paper's models are used.  Argument parsing, model parsing and
  validation, and report writing dominate; the engine does little.
* ``synthetic_runs``: random signed-ternary maps large enough that the
  per-product engine work and re-validation in ``run_model`` dominate,
  plus a dense map whose runs are expected to hit ``max_steps``, so the
  failure path is timed too, and the read and write path of one map.
* ``census``: exhaustive attractor censuses, the tabulated oracle path,
  which never calls the vector engine.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import generate

FIXTURES = (
    "ex_1_2_1",
    "ex_1_2_2",
    "ex_1_2_3_structure",
    "sec_2_2",
    "sec_2_3",
    "sec_2_4",
    "sec_2_5_fcm",
)
FIXTURE_DIR = os.path.join("src", "fuzzymaps", "fixtures")
DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class Op:
    """One operation of a workload's mix.

    ``kind`` is ``cli`` (``argv`` through ``cli.main``) or one of the API
    calls ``run``, ``sweep``, ``census``, ``parse``, ``serialize``, ``dot``.
    ``model`` names a document of the workload; ``side`` and ``on`` give
    the seed (node indices) for runs, and ``policy`` the CLI overrides in
    force (keys ``domain``, ``range``, ``first_step``).
    """

    kind: str
    model: str
    side: str = "domain"
    on: tuple = ()
    max_steps: int = DEFAULT_MAX_STEPS
    argv: tuple = ()
    policy: tuple = ()

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else self.kind


@dataclass
class Inputs:
    """A workload's documents and operations, generated from its seed."""

    seed: int
    docs: dict  # model name -> document text
    fixtures: tuple  # loaded with load_fixture at set-up
    parsed: tuple  # parsed with parse_model at set-up
    ops: list  # one round of the mix
    warmup: list = field(default_factory=list)


def fixture_doc(name: str) -> str:
    with open(os.path.join(FIXTURE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def _sides(doc: dict) -> tuple:
    return ("domain",) if doc["kind"] == "fcm" else ("domain", "range")


def _labels(doc: dict, side: str) -> list:
    return [lab for blk in doc[side]["blocks"] for lab in blk]


def _token(rng: random.Random, doc: dict, side: str, i: int) -> str:
    """Name node ``i`` as a label, a 1-based index or ``block.position``."""
    style = rng.randrange(3)
    if style == 0:
        return str(i + 1)
    if style == 1:
        start = 0
        for b, blk in enumerate(doc[side]["blocks"]):
            if i < start + len(blk):
                return f"{b + 1}.{i - start + 1}"
            start += len(blk)
    return _labels(doc, side)[i]


def _cli_run(rng, name, doc, side, on, overrides=()) -> Op:
    tokens = ",".join(_token(rng, doc, side, i) for i in on)
    argv = ["run", "--json", "--trace", "--fixture", name, "--on", tokens]
    if doc["kind"] != "fcm":
        argv += ["--side", side]
    for key, value in overrides:
        argv += [{"domain": "--threshold-domain", "range": "--threshold-range",
                  "first_step": "--first-step"}[key], value]
    return Op("cli", name, side, tuple(on), argv=tuple(argv), policy=tuple(overrides))


def paper_cli(seed: int) -> Inputs:
    rng = random.Random(seed)
    docs = {name: fixture_doc(name) for name in FIXTURES}
    ops: list[Op] = []
    for name in FIXTURES:
        doc = json.loads(docs[name])
        ops.append(Op("cli", name, argv=("validate", "--json", "--fixture", name)))
        for side in _sides(doc):
            n = len(doc["matrix"]) if side == "domain" else len(doc["matrix"][0])
            ops.extend(_cli_run(rng, name, doc, side, [i]) for i in range(n))
            for _ in range(2):
                on = sorted(rng.sample(range(n), rng.randint(2, 4)))
                ops.append(_cli_run(rng, name, doc, side, on))
            ops.append(_cli_run(rng, name, doc, side, [rng.randrange(n)],
                                (("first_step", "never"),)))
            ops.append(_cli_run(rng, name, doc, side,
                                sorted(rng.sample(range(n), 2)),
                                (("first_step", "gt:0"),)))
            argv = ("sweep", "--json", "--fixture", name, "--side", side)
            ops.append(Op("cli", name, side, argv=argv))
        ops.append(Op("cli", name, argv=("dot", "--fixture", name)))
    # the README's own examples of seeds and policy overrides
    ex = _labels(json.loads(docs["ex_1_2_2"]), "domain")
    ops.append(Op(
        "cli", "ex_1_2_2", "domain",
        tuple(sorted(ex.index(lab) for lab in ("e4^1", "e2^2", "e4^3"))),
        argv=("run", "--json", "--trace", "--fixture", "ex_1_2_2", "--side",
              "domain", "--on", "e4^1,e2^2,e4^3"),
    ))
    fcm = json.loads(docs["sec_2_5_fcm"])
    ops.append(Op(
        "cli", "sec_2_5_fcm", "domain", (_labels(fcm, "domain").index("R11"),),
        argv=("run", "--json", "--trace", "--fixture", "sec_2_5_fcm", "--on",
              "R11", "--threshold-domain", "ge:2", "--threshold-range", "ge:2"),
        policy=(("domain", "ge:2"), ("range", "ge:2")),
    ))
    rng.shuffle(ops)
    return Inputs(seed, docs, FIXTURES, (), ops, warmup=ops[:40])


# A random seed's run length (products until a seed-side state recurs)
# ranges from 2 to hundreds on these maps, and a sweep's total from one map
# to the next by a factor of two or more.  Only seeds, and maps, whose
# run lengths fall in these bands are kept, so what one operation costs
# does not depend on the workload seed.
RUN_BANDS = {"fcm50": (8, 14), "fcm200": (20, 30), "sfrm120x80": (10, 14)}
SWEEP_BANDS = {"domain": (1220, 1420), "range": (850, 1000)}
MAP_TRIES = 200


def _api_runs(rng, name, n, count, side="domain", max_steps=DEFAULT_MAX_STEPS):
    return [
        Op("run", name, side, tuple(sorted(rng.sample(range(n), rng.randint(1, 5)))),
           max_steps=max_steps)
        for _ in range(count)
    ]


def _banded_runs(rng, name, rows, one_sided, side, count):
    """``count`` runs whose lengths fall in the map's band, or None."""
    lo, hi = RUN_BANDS[name]
    n = len(rows) if side == "domain" else len(rows[0])
    ops = []
    for _ in range(50 * count):
        (op,) = _api_runs(rng, name, n, 1, side)
        if lo <= generate.run_length(rows, side, op.on, hi, one_sided):
            ops.append(op)
            if len(ops) == count:
                return ops
    return None


def _banded(rng, make, pick):
    """The first map ``make`` builds for which ``pick`` finds its runs."""
    for _ in range(MAP_TRIES):
        doc = make()
        ops = pick(json.loads(doc)["matrix"])
        if ops is not None:
            return doc, ops
    raise RuntimeError("no generated map has runs in the bands")


def _sweeps_in_band(rows) -> bool:
    for side, (lo, hi) in SWEEP_BANDS.items():
        n = len(rows) if side == "domain" else len(rows[0])
        total = 0
        for i in range(n):
            length = generate.run_length(rows, side, (i,), hi, False)
            if length == 0:
                return False
            total += length
        if not lo <= total <= hi:
            return False
    return True


def synthetic_runs(seed: int) -> Inputs:
    rng = random.Random(seed)
    # Under "gt 0" the mean out-degree sets the run length: 3 at n=50 and
    # 2.5 at n=200 recur within tens to hundreds of products (3 at n=200
    # already gives runs of thousands).  The dense map does not recur
    # within 900 products.
    fcm50, runs50 = _banded(
        rng, lambda: generate.random_fcm(rng, "fcm50", 50, 3.0),
        lambda rows: _banded_runs(rng, "fcm50", rows, True, "domain", 4))
    fcm200, runs200 = _banded(
        rng, lambda: generate.random_fcm(rng, "fcm200", 200, 2.5),
        lambda rows: _banded_runs(rng, "fcm200", rows, True, "domain", 8))

    def blocked_runs(rows):
        if not _sweeps_in_band(rows):
            return None
        dom = _banded_runs(rng, "sfrm120x80", rows, False, "domain", 1)
        ran = _banded_runs(rng, "sfrm120x80", rows, False, "range", 1)
        return dom + ran if dom and ran else None

    sfrm, runs_blocked = _banded(
        rng, lambda: generate.random_super_frm(rng, "sfrm120x80", 120, 80, 4, 3, 3.0),
        blocked_runs)
    docs = {
        "fcm50": fcm50,
        "fcm200": fcm200,
        "sfrm120x80": sfrm,
        "dense200": generate.random_fcm(rng, "dense200", 200, 100.0),
    }
    # The sweeps run on the blocked map: summed over all of its unit seeds
    # their cost varies little between maps, unlike sweeps of random
    # FCMs, whose total run length varies several-fold from map to map.
    # Six cheaper runs, eight n=200 runs and four dearer operations put
    # the median among the n=200 runs.  The step-limited run costs the
    # most and its cost does not depend on the seed.  With one per round,
    # thirty-odd of them in a run, the tail (ten samples beyond) falls
    # near their middle, not on the host's few slowest moments.
    # Serializing and drawing the n=200 map are cheaper than its runs,
    # parsing it dearer.
    ops = (
        runs50
        + runs_blocked
        + [Op("serialize", "fcm200"), Op("dot", "fcm200")]
        + runs200
        + [Op("parse", "fcm200")]
        + _api_runs(rng, "dense200", 200, 1, max_steps=900)
        + [Op("sweep", "sfrm120x80"), Op("sweep", "sfrm120x80", "range")]
    )
    # the order stays fixed: which large objects are alive together sets
    # the peak resident memory
    return Inputs(seed, docs, (), tuple(docs), ops, warmup=ops[:8])


def census(seed: int) -> Inputs:
    rng = random.Random(seed)
    docs = {
        "sec_2_5_fcm": fixture_doc("sec_2_5_fcm"),
        "sec_2_4": fixture_doc("sec_2_4"),
        "ex_1_2_3_structure": fixture_doc("ex_1_2_3_structure"),
        "fcm20": generate.random_fcm(rng, "fcm20", 20, 3.0),
    }
    cli_a = Op("cli", "sec_2_4", "domain", argv=(
        "attractors", "--json", "--fixture", "sec_2_4", "--side", "domain"))
    cli_b = Op("cli", "ex_1_2_3_structure", "range", argv=(
        "attractors", "--json", "--fixture", "ex_1_2_3_structure", "--side", "range"))
    big = Op("census", "sec_2_5_fcm")
    # Seven 2^18 censuses between four short CLI censuses and one 2^20
    # census keep both the median and the tail on the 2^18 case, whose
    # input does not depend on the seed, for any run of two to four rounds.
    ops = [big, cli_a, big, cli_b, big, Op("census", "fcm20"), big, big, cli_a, big,
           cli_b, big]
    return Inputs(seed, docs, ("sec_2_5_fcm",), ("fcm20",), ops,
                  warmup=[cli_a, cli_b])


WORKLOADS = {
    "paper_cli": paper_cli,
    "synthetic_runs": synthetic_runs,
    "census": census,
}
