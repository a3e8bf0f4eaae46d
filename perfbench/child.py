"""One benchmark process: set up a workload, then time and check its mix.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path;
prints one JSON object on its last stdout line.  With ``--role setup`` it
times the set-up, then runs each distinct operation of the mix once,
unchecked, and reports its peak resident memory: set-up is measured in
several fresh processes, and memory without the checker's own objects.

Set-up runs from ``import fuzzymaps`` to the last model built.  Then a
short warm-up, then whole rounds of the mix until the operations have
taken ``--seconds`` in total.  Each operation is timed alone; its output
is checked against the numpy reference outside the timed region.  With
``--trace 1`` every operation runs twice, once with the span wrappers
installed and once without, in alternating order, so the tracing overhead
is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

import workloads

SETUP_OP = -1
MAX_FAILURE_NOTES = 5
CENSUS_SAMPLES = 48  # random seeds checked per census, besides unit seeds


def expected_failure(op, expected_step_limit: bool, exc) -> str | None:
    """Why an operation's exception (or lack of one) is a failure, if it is.

    ``StepLimitExceeded`` is the expected result of a run the reference
    says does not recur within ``max_steps``; any other exception, or the
    expected one where the reference finds a pattern, is a failure.
    """
    name = type(exc).__name__ if exc is not None else None
    if expected_step_limit:
        if name == "StepLimitExceeded":
            return None
        return f"{op.kind} {op.model}: expected StepLimitExceeded, got {name}"
    if exc is not None:
        return f"{op.kind} {op.model}: raised {name}: {exc}"
    return None


def execute(op, fz, models: dict, docs: dict):
    """Run one operation against the package; returns its output."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fz.cli.main(list(op.argv))
        return code, out.getvalue(), err.getvalue()
    spec = models.get(op.model)
    if op.kind == "run":
        labels = spec.labels_flat(op.side)
        seed = fz.seed_from_labels(spec, [labels[i] for i in op.on], op.side)
        return fz.run_model(spec, seed, max_steps=op.max_steps)
    if op.kind == "sweep":
        return fz.sweep_unit_seeds(spec.matrix, op.side, spec.policy, one_sided=spec.one_sided)
    if op.kind == "census":
        return fz.enumerate_attractors(
            spec.matrix, op.side, spec.policy, one_sided=spec.one_sided
        )
    if op.kind == "parse":
        return fz.parse_model(docs[op.model])
    if op.kind == "serialize":
        return fz.serialize_model(spec)
    if op.kind == "dot":
        return fz.emit_dot(spec)
    raise ValueError(f"unknown operation kind {op.kind!r}")


class Runner:
    """Checks operation outputs against the numpy reference."""

    def __init__(self, inputs) -> None:
        import reference  # numpy is loaded by now, with the package

        self.ref = reference
        self.inputs = inputs
        self.refs = {name: reference.load_model(doc) for name, doc in inputs.docs.items()}
        self.cache: dict = {}
        self.verified: dict = {}  # operation -> (fingerprint, check result)

    def _policy(self, op):
        return self.refs[op.model].policy.with_overrides(op.policy)

    def expected_run(self, op, on, max_steps):
        key = ("run", op.model, op.side, tuple(on), op.policy, max_steps)
        if key not in self.cache:
            self.cache[key] = self.ref.reference_run(
                self.refs[op.model], op.side, on, self._policy(op), max_steps
            )
        return self.cache[key]

    def census_samples(self, op, n):
        key = ("census", op.model, op.side)
        if key not in self.cache:
            rng = random.Random(f"{self.inputs.seed}:{op.model}:{op.side}")
            seeds = {0, (1 << n) - 1} | {1 << i for i in range(n)}
            seeds |= {rng.randrange(1 << n) for _ in range(CENSUS_SAMPLES)}
            self.cache[key] = self.ref.sample_cycles(self.refs[op.model], op.side, sorted(seeds))
        return self.cache[key]

    def check(self, op, out, exc, first=True):
        """Check one output; returns (patterns resolved, digest projection).

        The first output of each operation is verified against the
        reference.  A repeat whose fingerprint equals that verified output's
        is accepted as is; any other is verified in full.  The digest
        projection of a census is only built when ``first``.

        Raises ``reference.CheckError`` (or ``KeyError``/``ValueError`` on
        malformed output) when the output is wrong.
        """
        fp = (type(exc).__name__, str(exc)) if exc is not None else _fingerprint(out)
        seen = self.verified.get(op)
        if seen is not None and seen[0] == fp:
            return seen[1]
        result = self._verify(op, out, exc, first)
        self.verified.setdefault(op, (fp, result))
        return result

    def _verify(self, op, out, exc, first):
        ref = self.ref
        model = self.refs[op.model]
        expect_limit = False
        if op.kind == "run":
            expect_limit = self.expected_run(op, op.on, op.max_steps).step_limited
        failure = expected_failure(op, expect_limit, exc)
        if failure:
            raise ref.CheckError(failure)
        if expect_limit:
            return 0, "step_limit"
        if op.kind == "cli":
            return self._check_cli(op, model, *out, first)
        if op.kind == "run":
            pat = ref.pattern_from_engine(out)
            self._check_pattern(op, model, op.on, pat)
            return 1, _pattern_digest(pat)
        if op.kind == "sweep":
            rows = [(i, ref.pattern_from_engine(hp)) for i, hp in out]
            return self._check_sweep(op, model, rows)
        if op.kind == "census":
            got = ref.census_from_engine(out)
            ref.check_census(model, op.side, got,
                             self.census_samples(op, model.width(op.side)))
            return got.total, (_census_digest(ref, got) if first else None)
        if op.kind == "parse":
            _check_parsed(ref, model, out)
            return 0, [model.name, model.kind, list(model.matrix.shape)]
        if op.kind == "serialize":
            ref.require(out == self.inputs.docs[op.model],
                        "serialize_model(parse_model(doc)) differs from doc")
            return 0, _sha(out)
        if op.kind == "dot":
            _check_dot(ref, model, out)
            return 0, _sha(out)
        raise ValueError(op.kind)

    def _check_pattern(self, op, model, on, pat):
        self.ref.check_run(model, op.side, on, self._policy(op), pat,
                           self.expected_run(op, on, op.max_steps))

    def _check_sweep(self, op, model, rows):
        n = model.width(op.side)
        self.ref.require([i for i, _ in rows] == list(range(n)), "sweep seeds")
        for i, pat in rows:
            self._check_pattern(op, model, (i,), pat)
        return n, [_pattern_digest(p) for _, p in rows]

    def _check_cli(self, op, model, code, text, err, first):
        ref = self.ref
        ref.require(code == 0, f"{' '.join(op.argv)}: exit {code}: {err.strip()}")
        cmd = op.command
        if cmd == "dot":
            _check_dot(ref, model, text)
            return 0, _sha(text)
        payload = json.loads(text)
        if cmd == "validate":
            m = payload["model"]
            ref.require(payload["valid"] is True and payload["diagnostics"] == [],
                        "validate reports problems")
            ref.require(
                (m["name"], m["kind"], m["rows"], m["cols"],
                 tuple(m["row_blocks"]), tuple(m["col_blocks"]))
                == (model.name, model.kind, *model.matrix.shape,
                    model.sizes("domain"), model.sizes("range")),
                "validate describes another model",
            )
            return 0, [m["name"], m["kind"], m["rows"], m["cols"]]
        if cmd == "run":
            labels = model.labels(op.side)
            ref.require(payload["seed"] == {"side": op.side,
                                            "labels": [labels[i] for i in op.on]},
                        "report names another seed")
            _check_policy_json(ref, self._policy(op), payload["policy"])
            _check_on_labels(ref, model, payload["pattern"]["pairs"])
            pat = ref.pattern_from_json(payload["pattern"], payload["steps"])
            self._check_pattern(op, model, op.on, pat)
            return 1, _pattern_digest(pat)
        if cmd == "sweep":
            labels = model.labels(op.side)
            ref.require([r["seed"] for r in payload["rows"]] == list(labels),
                        "sweep rows name other seeds")
            rows = [(i, ref.pattern_from_json(r["pattern"]))
                    for i, r in enumerate(payload["rows"])]
            return self._check_sweep(op, model, rows)
        if cmd == "attractors":
            got = ref.census_from_json(payload)
            ref.check_census(model, op.side, got,
                             self.census_samples(op, model.width(op.side)))
            return got.total, (_census_digest(ref, got) if first else None)
        raise ValueError(cmd)


def _fingerprint(out):
    """Compact identity of an output, so the benchmark keeps no copy."""
    if isinstance(out, str):
        return _sha(out)
    if isinstance(out, tuple) and out and isinstance(out[-1], str):  # CLI
        return (out[0], _sha(out[1]), out[2])
    if hasattr(out, "assignment"):  # census
        return (out.n_seeds, hashlib.sha256(out.assignment.tobytes()).hexdigest(),
                hash(out.attractors))
    return hash(out)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pattern_digest(pat) -> list:
    return [pat.kind, pat.period, pat.steps_to_enter,
            ["".join(map(str, d)) + "/" + "".join(map(str, r)) for d, r in pat.pairs]]


def _census_digest(ref, c) -> list:
    rows = ref.census_rows(c)
    return [c.n, c.total, len(rows), _sha(json.dumps(rows))]


def _check_policy_json(ref, policy, got: dict) -> None:
    want = {
        "domain": [policy.domain.cmp, policy.domain.cutoff],
        "range": [policy.range.cmp, policy.range.cutoff],
        "first_step": [policy.first_mode, policy.first.cmp, policy.first.cutoff],
    }
    have = {
        "domain": [got["domain"]["cmp"], got["domain"]["cutoff"]],
        "range": [got["range"]["cmp"], got["range"]["cutoff"]],
        "first_step": [got["first_step"]["mode"], got["first_step"]["cmp"],
                       got["first_step"]["cutoff"]],
    }
    ref.require(want == have, f"report policy {have}, expected {want}")


def _check_on_labels(ref, model, pairs: list) -> None:
    for pair in pairs:
        for side in ("domain", "range"):
            state = pair[side]
            labels = model.labels(side)
            on = [labels[i] for i, b in enumerate(state["bits"]) if b]
            ref.require(state["on"] == on, "report labels disagree with bits")


def _check_parsed(ref, model, spec) -> None:
    import numpy as np

    ref.require(spec.name == model.name and spec.kind.value == model.kind,
                "parsed name or kind differs")
    ref.require(spec.domain_labels == model.domain_blocks
                and spec.range_labels == model.range_blocks, "parsed labels differ")
    ref.require(np.array_equal(spec.matrix.entries, model.matrix), "parsed matrix differs")
    pol = model.policy
    got = spec.policy
    ref.require(
        (got.domain_rule.comparator.value, got.domain_rule.cutoff,
         got.range_rule.comparator.value, got.range_rule.cutoff,
         got.first_step_mode.value, got.first_step_rule.comparator.value,
         got.first_step_rule.cutoff)
        == (pol.domain.cmp, pol.domain.cutoff, pol.range.cmp, pol.range.cutoff,
            pol.first_mode, pol.first.cmp, pol.first.cutoff),
        "parsed policy differs",
    )


def _check_dot(ref, model, text: str) -> None:
    m = model.matrix
    edges = [line for line in text.splitlines() if " -> " in line]
    ref.require(len(edges) == int((m != 0).sum()), "dot edge count")
    ref.require(sum("style=dashed" in e for e in edges) == int((m < 0).sum()),
                "dot dashed-edge count")
    nodes = sum(1 for line in text.splitlines() if line.endswith("];") and " -> " not in line)
    expect = m.shape[0] if model.one_sided else m.shape[0] + m.shape[1]
    ref.require(nodes == expect, "dot node count")


# --- the measured process ------------------------------------------------------


def _setup(inputs, tracer):
    """Import the package and build the workload's models; returns timing."""
    t0 = time.perf_counter()
    import fuzzymaps as fz
    import fuzzymaps.cli  # noqa: F401  (the CLI workloads call fz.cli.main)

    if tracer is not None:
        tracer.op = SETUP_OP
        tracer.install(fz)
    models = {name: fz.load_fixture(name) for name in inputs.fixtures}
    models.update({name: fz.parse_model(inputs.docs[name]) for name in inputs.parsed})
    if tracer is not None:
        tracer.uninstall()
    return time.perf_counter() - t0, fz, models


def _src_lines() -> int:
    total = 0
    for root, _, files in os.walk("src"):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _machine() -> dict:
    import platform

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build report differs between numpy versions
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": _src_lines(),
    }


def measure(inputs, seconds: float, trace: bool, spans_out: str | None) -> dict:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    setup_s, fz, models = _setup(inputs, tracer)
    src = os.path.realpath("src")
    if not os.path.realpath(fz.__file__).startswith(src + os.sep):
        raise SystemExit(f"fuzzymaps was imported from {fz.__file__}, not {src}")
    runner = Runner(inputs)
    failures: list[str] = []
    check_s = [0.0]

    def one(op, traced: bool, op_id: int, first: bool):
        out = exc = None
        if traced:
            tracer.op = op_id
            tracer.install(fz)
        t0 = time.perf_counter()
        try:
            out = execute(op, fz, models, inputs.docs)
        except Exception as e:  # classified against the reference below
            exc = e
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        t1 = time.perf_counter()
        try:
            patterns, digest = runner.check(op, out, exc, first)
            ok = True
        except (runner.ref.CheckError, KeyError, ValueError, TypeError) as e:
            if len(failures) < MAX_FAILURE_NOTES:
                failures.append(f"{op.kind} {op.model} {' '.join(op.argv)}: {e}")
            patterns, digest, ok = 0, None, False
        check_s[0] += time.perf_counter() - t1
        return dt, patterns, digest, ok

    for op in inputs.warmup:
        one(op, False, SETUP_OP, False)
    rounds = 0
    lat, traced_s, plain_s = [], 0.0, 0.0
    patterns = failed = 0
    digests: dict = {}  # operation -> digest projection of its first output
    op_id = 0
    # stop on time spent inside operations, not wall time, so the checks
    # between operations cannot change how many rounds a run makes
    while rounds == 0 or traced_s + plain_s < seconds:
        for k, op in enumerate(inputs.ops):
            modes = (False,) if not trace else ((False, True) if k % 2 else (True, False))
            for traced in modes:
                first = op not in digests
                dt, n, digest, ok = one(op, traced, op_id, first)
                if first:
                    digests[op] = digest
                lat.append(dt)
                failed += not ok
                if traced:
                    traced_s += dt
                else:
                    plain_s += dt
                    patterns += n
            op_id += 1
        rounds += 1
    result = {
        "setup_s": setup_s,
        "latencies_s": lat,
        "patterns": patterns,
        "plain_s": plain_s,
        "attempted": len(lat),
        "failed": failed,
        "failures": failures,
        "rounds": rounds,
        "check_s": check_s[0],
        "ops_per_round": len(inputs.ops),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": hashlib.sha256(json.dumps(list(digests.values())).encode()).hexdigest(),
        "machine": _machine(),
    }
    if trace:
        from spans import layer_metrics

        result["per_layer"] = layer_metrics(tracer.spans, rounds, SETUP_OP)
        result["per_layer"]["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        result["spans"] = len(tracer.spans)
        if spans_out:
            tracer.dump(spans_out)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    inputs = workloads.WORKLOADS[args.workload](args.seed)
    if args.role == "setup":
        setup_s, fz, models = _setup(inputs, None)
        for op in dict.fromkeys(inputs.ops):
            with contextlib.suppress(fz.errors.StepLimitExceeded):
                execute(op, fz, models, inputs.docs)
        result = {
            "setup_s": setup_s,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    else:
        result = measure(inputs, args.seconds, bool(args.trace), args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
