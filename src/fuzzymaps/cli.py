"""Command-line front end: validate, run, sweep, attractors, dot.

Exit codes: 0 success, 2 usage error, 3 invalid model, 4 resource bound.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .dynamics import (
    Comparator,
    FirstStepMode,
    PatternKind,
    Side,
    StateVector,
    ThresholdPolicy,
    ThresholdRule,
    enumerate_attractors,
    sweep_unit_seeds,
    DEFAULT_MAX_STATES,
    DEFAULT_MAX_STEPS,
)
from .errors import (
    FuzzyMapsError,
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
    StateSpaceTooLarge,
    StepLimitExceeded,
)
from .model_io import (
    FIXTURE_NAMES,
    _CMPS,
    _MODES,
    _arr,
    _json,
    _obj,
    _pattern_text,
    _str,
    build_report,
    emit_dot,
    fixture_text,
    parse_model,
    report_to_text,
    serialize_report,
)
# validate_model is bound here, though only ModelSpec calls it, because
# perfbench's tracer wraps and checks every module binding of it
from .models import (  # noqa: F401
    ModelSpec,
    describe,
    run_model,
    seed_from_labels,
    validate_model,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID_MODEL = 3
EXIT_RESOURCE = 4


class _UsageError(Exception):
    pass


def _parse_rule_arg(text: str, flag: str) -> ThresholdRule:
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in _CMPS:
        raise _UsageError(
            f"{flag} expects cmp:cutoff with cmp in {{ge,gt}}, got {text!r}"
        )
    try:
        cutoff = float(parts[1])
    except ValueError:
        raise _UsageError(f"{flag}: cutoff {parts[1]!r} is not a number")
    if not math.isfinite(cutoff):
        raise _UsageError(f"{flag}: cutoff {parts[1]!r} is not finite")
    return ThresholdRule(Comparator(parts[0]), cutoff)


def _build_policy(spec: ModelSpec, args) -> ThresholdPolicy:
    """The model's policy with the fields that the policy flags name replaced."""
    changes = {}
    for field, text, flag in (
        ("domain_rule", args.threshold_domain, "--threshold-domain"),
        ("range_rule", args.threshold_range, "--threshold-range"),
    ):
        if text:
            changes[field] = _parse_rule_arg(text, flag)
    fs = args.first_step
    if fs in _MODES:
        changes["first_step_mode"] = FirstStepMode(fs)
    elif fs:
        # an explicit rule pins the first product unconditionally
        changes["first_step_rule"] = _parse_rule_arg(fs, "--first-step")
        changes["first_step_mode"] = FirstStepMode.ALWAYS
    # no flag: the model's own policy, not a rebuilt and re-checked copy
    return replace(spec.policy, **changes) if changes else spec.policy


def _load_spec(args) -> ModelSpec:
    if args.fixture and args.model:
        raise _UsageError("give either a model path or --fixture, not both")
    if args.fixture:
        text = fixture_text(args.fixture)
    elif args.model:
        try:
            with open(args.model, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise _UsageError(f"cannot read model: {e}")
        except UnicodeDecodeError as e:
            raise ModelSyntaxError(f"not valid UTF-8: {e}") from e
    else:
        raise _UsageError("no model given; pass a path or --fixture NAME")
    return parse_model(text)


def _resolve_seed(spec: ModelSpec, args) -> StateVector:
    tokens = [t for t in (args.on or "").split(",") if t]
    if not tokens:
        raise _UsageError("--on needs at least one label, index or block.position")
    if args.side or spec.one_sided:
        return seed_from_labels(spec, tokens, _side_arg(spec, args))
    # one pass keeps each side's seed or its failure
    resolved, failed = {}, {}
    for side in (Side.DOMAIN, Side.RANGE):
        try:
            resolved[side] = seed_from_labels(spec, tokens, side)
        except FuzzyMapsError as e:  # IndexOutOfRange, UnknownLabel, WrongSide
            failed[side] = e
    if len(resolved) == 2:
        raise _UsageError("labels resolve on both sides; disambiguate with --side")
    if not resolved:
        # the domain-side failure carries its near-match hint
        raise failed[Side.DOMAIN]
    (seed,) = resolved.values()
    return seed


def _side_arg(spec: ModelSpec, args) -> Side:
    if args.side:
        return Side(args.side)
    if spec.one_sided:
        return Side.DOMAIN
    raise _UsageError("--side is required for two-sided models")


def _emit(text: str, args) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _UsageError(f"cannot write output: {e}")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    try:
        spec = _load_spec(args)
    except (ModelSyntaxError, ModelSchemaError, ModelValidationError) as e:
        # the diagnosis first: an unwritable -o then still reports it
        print(f"invalid model: {e}", file=sys.stderr)
        if args.json:
            _emit(_json({"valid": False, "error": str(e)}) + "\n", args)
        return EXIT_INVALID_MODEL
    # parse_model refuses a model with any diagnostic, so this one has none
    if args.json:
        payload = {"valid": True, "model": describe(spec), "diagnostics": []}
        _emit(_json(payload) + "\n", args)
    else:
        d = describe(spec)
        _emit(
            f"{d['name']}: {d['kind']} {d['rows']}x{d['cols']} ok "
            f"(row blocks {d['row_blocks']}, col blocks {d['col_blocks']})\n",
            args,
        )
    return EXIT_OK


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    seed = _resolve_seed(spec, args)
    policy = _build_policy(spec, args)
    pattern = run_model(spec, seed, policy, max_steps=args.max_steps)
    report = build_report(spec, seed, pattern, policy, include_trace=args.trace)
    if args.json:
        _emit(serialize_report(report), args)
    else:
        _emit(report_to_text(report), args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    side = _side_arg(spec, args)
    policy = _build_policy(spec, args)
    labels = spec.labels_flat(side)
    results = sweep_unit_seeds(
        spec.matrix,
        side,
        policy,
        max_steps=args.max_steps,
        one_sided=spec.one_sided,
    )
    if args.json:
        rows = [
            _obj("    ", seed=_str(labels[i]), pattern=_pattern_text(p, spec, "      "))
            for i, p in results
        ]
        text = _obj("", model=_str(spec.name), side=_str(side.value), rows=_arr(rows, "  "))
        _emit(text + "\n", args)
        return EXIT_OK
    width = max(len(lab) for lab in labels)
    lines = [f"sweep of {spec.name} ({side.value} side, {len(labels)} seeds)"]
    for i, pattern in results:
        d, r = pattern.pair_sequence[0]
        shape = (
            "fixed point"
            if pattern.kind is PatternKind.FIXED_POINT
            else f"cycle p={pattern.period}"
        )
        lines.append(
            f"  {labels[i]:<{width}}  {shape:<12} "
            f"domain {d.blocked_str()}  range {r.blocked_str()}"
        )
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def _cmd_attractors(args) -> int:
    spec = _load_spec(args)
    side = _side_arg(spec, args)
    policy = _build_policy(spec, args)
    census = enumerate_attractors(
        spec.matrix,
        side,
        policy,
        state_limit=args.max_states,
        one_sided=spec.one_sided,
    )
    n = census.partition.total
    basins = census.basins.tolist()
    bounds = census.offsets.tolist()
    flat = census.states.tolist()
    cycles = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    order = sorted(range(len(cycles)), key=lambda k: (-basins[k], cycles[k]))
    periods = census.periods.tolist()
    # bit i of a mask is the i-th printed digit
    digits = [format(m, f"0{n}b")[::-1] for m in flat]
    if args.json:
        # a census can hold millions of states: the document, each attractor
        # and each state fill in the pieces of a layout that the shared
        # writer lays out around NUL members, which no encoded value holds
        head, sep, tail = _arr("\0\0", "        ").split("\0")
        blocks = [f"{head}{sep.join(d)}{tail}" for d in digits]
        t0, t1, t2, t3, sep, t4 = _obj(
            "    ", kind="\0", period="\0", basin_size="\0", states=_arr("\0\0", "      ")
        ).split("\0")
        kinds = [_str(PatternKind.LIMIT_CYCLE.value), _str(PatternKind.FIXED_POINT.value)]
        items = [
            f"{t0}{kinds[periods[k] == 1]}{t1}{periods[k]}{t2}{basins[k]}"
            f"{t3}{sep.join(blocks[bounds[k] : bounds[k + 1]])}{t4}"
            for k in order
        ]
        head, sep, tail = _obj(
            "",
            model=_str(spec.name),
            side=_str(side.value),
            nodes=str(n),
            total_seeds=str(census.n_seeds),
            attractors=_arr("\0\0", "  "),
        ).split("\0")
        _emit(f"{head}{sep.join(items)}{tail}\n", args)
        return EXIT_OK
    lines = [
        f"{spec.name}: {census.n_seeds} seeds on the {side.value} side, "
        f"{len(cycles)} attractors"
    ]
    for k in order:
        states = " -> ".join(digits[bounds[k] : bounds[k + 1]])
        shape = "fixed point" if periods[k] == 1 else f"cycle p={periods[k]}"
        lines.append(f"  basin {basins[k]:>7}  {shape:<12} {states}")
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def _cmd_dot(args) -> int:
    spec = _load_spec(args)
    text = emit_dot(spec)
    if args.json:
        _emit(_json({"dot": text}) + "\n", args)
    else:
        _emit(text, args)
    return EXIT_OK


def _steps_arg(text: str, flag: str = "max-steps") -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{flag} must be at least 2")
    return value


def _states_arg(text: str) -> int:
    # every census has at least 2 seeds, so a smaller limit admits none
    return _steps_arg(text, "max-states")


def _add_common(p, side=False, policy=False, steps=False):
    p.add_argument("model", nargs="?", help="model document path")
    p.add_argument(
        "--fixture",
        choices=FIXTURE_NAMES,
        help="use a bundled fixture instead of a path",
    )
    p.add_argument("--json", action="store_true", help="machine output")
    p.add_argument("-o", "--output", help="write output to a file")
    if side:
        p.add_argument("--side", choices=["domain", "range"])
    if policy:
        p.add_argument("--threshold-domain", metavar="CMP:CUTOFF")
        p.add_argument("--threshold-range", metavar="CMP:CUTOFF")
        p.add_argument(
            "--first-step", metavar="auto|never|always|CMP:CUTOFF"
        )
    if steps:
        p.add_argument(
            "--max-steps", type=_steps_arg, default=DEFAULT_MAX_STEPS
        )


# parse_args leaves a parser unchanged, so one serves every call.  It is
# built at import, among the other long-lived objects: first built inside a
# run, after large arrays had come and gone, it made the heap give memory
# back to the system after each large census, to be faulted in again.
_PARSER = argparse.ArgumentParser(
    prog="fuzzymaps",
    description="Threshold dynamics over partitioned connection matrices.",
)
_sub = _PARSER.add_subparsers(dest="command", required=True)

_p = _sub.add_parser("validate", help="check a model document")
_add_common(_p)
_p.set_defaults(func=_cmd_validate)

_p = _sub.add_parser("run", help="run one seed to its hidden pattern")
_add_common(_p, side=True, policy=True, steps=True)
_p.add_argument(
    "--on",
    metavar="LABELS",
    help="comma-separated labels, 1-based indices or block.position",
)
_p.add_argument("--trace", action="store_true", help="include every product")
_p.set_defaults(func=_cmd_run)

_p = _sub.add_parser("sweep", help="run every unit seed on one side")
_add_common(_p, side=True, policy=True, steps=True)
_p.set_defaults(func=_cmd_sweep)

_p = _sub.add_parser("attractors", help="enumerate every seed exhaustively")
_add_common(_p, side=True, policy=True)
_p.add_argument("--max-states", type=_states_arg, default=DEFAULT_MAX_STATES)
_p.set_defaults(func=_cmd_attractors)

_p = _sub.add_parser("dot", help="export the causal graph as DOT")
_add_common(_p)
_p.set_defaults(func=_cmd_dot)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems and 0 for --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ModelSyntaxError, ModelSchemaError, ModelValidationError) as e:
        print(f"invalid model: {e}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except (StateSpaceTooLarge, StepLimitExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (_UsageError, FuzzyMapsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
